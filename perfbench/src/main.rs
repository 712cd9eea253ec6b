//! End-to-end and per-layer benchmark of the four midband5g user paths.
//!
//! ```text
//! perfbench --workload <session|dataset|daemon|dist> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload repeats one user *operation* for `--seconds` (after one
//! untimed warm-up operation), checks every operation's output, and
//! prints one JSON object as the last line of stdout:
//!
//! * `session` — one measurement round: a stationary DL+UL session on
//!   each of three deployments (single-carrier TDD, CA with an LTE anchor,
//!   a third operator), all at one seed-chosen study spot;
//! * `dataset` — a standard campaign run in memory, exported as a dataset
//!   directory and loaded back;
//! * `daemon` — one live-telemetry wave of a running daemon with its
//!   default shape, from the wave's first slot until its 1-second bins
//!   are served over the bus;
//! * `dist` — a standard campaign sharded over two worker processes by
//!   file leases and merged into one dataset directory.
//!
//! Operations take the shapes users run: sessions last as long as in
//! `Campaign::standard` (10 s; 12 sessions per campaign), and the daemon
//! runs `DaemonConfig::default` (two operators × two 30 s sessions per
//! wave on two threads). Shorter sessions would weigh per-session costs
//! (file creation, fsync, manifest, profile resolution) far above the
//! per-record costs that dominate real runs.
//!
//! `--trace 0` reports the end-to-end metrics: the lower quartile of the
//! operations' wall times, and the median of several cold starts taken
//! before the workload starts. `--trace 1` is a separate run that reports
//! the per-layer ledger: the slot-loop layers and the
//! layers around them (dataset writer and reader, daemon bus, worker
//! process), each timed from this file around its calls into the program.
//!
//! Scratch files live under `.perfbench_tmp/` in the working directory
//! and are removed before exit.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use daemon::proto::{Request, Response, Tier};
use daemon::{DaemonConfig, DaemonHandle, LiveSink, RetentionConfig, RetentionStore};
use midband5g::measure::campaign::Campaign;
use midband5g::measure::dataset::Dataset;
use midband5g::measure::dist::{run_distributed, run_worker, DistConfig, DistJob, DistTiming};
use midband5g::measure::session::{SessionResult, SessionSpec};
use midband5g::nr_phy::csi::DEFAULT_CSI_PERIOD_SLOTS;
use midband5g::nr_phy::tbs::TbsCache;
use midband5g::operators::Operator;
use midband5g::radio_channel::channel::ChannelSimulator;
use midband5g::radio_channel::mobility::MobilityModel;
use midband5g::ran::amc::{AmcState, GrantParams, OllaConfig};
use midband5g::ran::carrier::{Carrier, TrafficPattern};
use midband5g::ran::flow::Flow;
use midband5g::ran::harq::{HarqConfig, HarqEntity};
use midband5g::ran::kpi::{KpiTrace, SlotKpi};
use midband5g::ran::scheduler::AllocationTable;
use midband5g::ran::sink::SlotSink;
use rand::Rng;

const WORKLOADS: [&str; 4] = ["session", "dataset", "daemon", "dist"];

/// Simulated length of a `session` round's sessions, seconds: that of
/// `Campaign::standard`.
const SESSION_S: f64 = 10.0;
/// The `session` round: a 90 MHz n78 TDD cell, T-Mobile's n41 + n25 CA
/// with an LTE anchor, and a 80 MHz n78 cell with a different TDD frame.
const SESSION_OPERATORS: [Operator; 3] = [
    Operator::VodafoneSpain,
    Operator::TMobileUs,
    Operator::VodafoneItaly,
];
/// One `Campaign::standard` per operator in a `dataset`/`dist` operation.
const DATASET_OPERATORS: [Operator; 1] = [Operator::TelekomGermany];
const DIST_OPERATORS: [Operator; 1] = [Operator::VodafoneSpain];
/// Worker processes of the `dist` workload.
const DIST_WORKERS: u32 = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 7;
/// Give up on a run whose operations stall (the whole run must end well
/// inside three minutes).
const STALL_LIMIT: Duration = Duration::from_secs(60);

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A per-run base seed for operation `i`, kept small so seed arithmetic
/// inside the program never approaches `u64::MAX`.
fn op_seed(seed: u64, i: u64) -> u64 {
    (seed % 1_000_000) * 1_000_000 + i * 64
}

fn campaigns(operators: &[Operator], seed: u64, i: u64) -> Vec<Campaign> {
    operators
        .iter()
        .enumerate()
        .map(|(k, &operator)| Campaign::standard(operator, op_seed(seed, i) + 16 * k as u64))
        .collect()
}

fn session_specs(seed: u64, i: u64) -> Vec<SessionSpec> {
    // Spots rotate with the operation index, so every run sees the same
    // spot mix whatever its seed.
    let spot = ((seed + i) % 3) as usize;
    SESSION_OPERATORS
        .iter()
        .map(|&op| SessionSpec::stationary(op, spot, SESSION_S, op_seed(seed, i)))
        .collect()
}

/// The first session of a workload's operation 0 — the one whose primary
/// carrier the slot-loop ledger times.
fn first_spec(workload: &str, seed: u64) -> SessionSpec {
    let operators: &[Operator] = match workload {
        "session" => return session_specs(seed, 0)[0],
        "dataset" => &DATASET_OPERATORS,
        "daemon" => {
            let c = daemon_config(seed, PathBuf::new());
            return Campaign {
                operator: c.operators[0],
                sessions: 1,
                session_duration_s: c.session_duration_s,
                base_seed: c.base_seed,
            }
            .specs()[0];
        }
        _ => &DIST_OPERATORS,
    };
    campaigns(operators, seed, 0)[0].specs()[0]
}

/// The `daemon` workload's daemon: `DaemonConfig::default`, serving on
/// `socket_path`, with a session log long enough for the whole run.
fn daemon_config(seed: u64, socket_path: PathBuf) -> DaemonConfig {
    DaemonConfig {
        socket_path,
        base_seed: op_seed(seed, 0),
        session_log: 1 << 16,
        ..DaemonConfig::default()
    }
}

fn make_workload(opts: &Opts, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    let (seed, scratch) = (opts.seed, scratch.to_path_buf());
    Ok(match opts.workload.as_str() {
        "session" => Box::new(SessionWorkload { seed }),
        "dataset" => Box::new(DatasetWorkload { seed, scratch }),
        "daemon" => Box::new(DaemonWorkload::start(seed, &scratch)?),
        _ => Box::new(DistWorkload { seed, scratch }),
    })
}

/// Time to first result in a fresh process: from `main` to the first
/// operation's output (lazy tables, SIMD dispatch, profile and spot
/// resolution, the daemon's start and first wave, worker spawn). Runs in
/// the child started by [`cold_start_seconds`].
fn cold_start(opts: &Opts, scratch: &Path, started: Instant) -> Result<f64, String> {
    let mut workload = make_workload(opts, scratch)?;
    workload.op(1)?;
    let seconds = started.elapsed().as_secs_f64();
    workload.finish()?;
    Ok(seconds)
}

/// One `setup_s` sample: a cold start in a fresh child process.
fn cold_start_seconds(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args([
            "--cold",
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args(["--seconds", "1", "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cold start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!("cold start failed: {} {text:?}", out.status)),
    }
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let Some(last) = values.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    values[lo] + frac * (values[(lo + 1).min(last)] - values[lo])
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

trait Workload {
    /// Run operation `i` and return its wall time on the user path. Output
    /// checks run after the clock stops.
    fn op(&mut self, i: u64) -> Result<Duration, String>;
    /// Whether an operation runs on the calling thread alone, so that
    /// [`CpuRotation`] may pin it to one CPU. Operations that start
    /// threads or processes are never pinned: those would inherit the
    /// single CPU.
    fn single_threaded(&self) -> bool {
        false
    }
    /// Check the workload's final state once its operations are done.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------- session

struct SessionWorkload {
    seed: u64,
}

impl Workload for SessionWorkload {
    fn single_threaded(&self) -> bool {
        true
    }

    fn op(&mut self, i: u64) -> Result<Duration, String> {
        let specs = session_specs(self.seed, i);
        let start = Instant::now();
        let results: Vec<SessionResult> = specs.iter().map(|s| SessionResult::run(*s)).collect();
        let wall = start.elapsed();
        for r in &results {
            // A session in outage legitimately delivers nothing; what must
            // hold is a trace of finite, in-range goodput.
            let dl = r.dl_mbps();
            if r.trace.is_empty() || !(dl.is_finite() && dl >= 0.0) {
                return Err(format!(
                    "session {:?} seed {}: {} records, {dl} Mbps",
                    r.spec.operator,
                    r.spec.seed,
                    r.trace.len()
                ));
            }
        }
        if i == 0 {
            // Sessions are pure functions of their spec.
            for r in &results {
                if SessionResult::run(r.spec) != *r {
                    return Err(format!("session {:?} is not reproducible", r.spec.operator));
                }
            }
        }
        Ok(wall)
    }
}

// ---------------------------------------------------------------- dataset

struct DatasetWorkload {
    seed: u64,
    scratch: PathBuf,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for DatasetWorkload {
    fn single_threaded(&self) -> bool {
        true
    }

    fn op(&mut self, i: u64) -> Result<Duration, String> {
        let dir = self.scratch.join(format!("dataset-{i}"));
        let start = Instant::now();
        let results: Vec<SessionResult> = campaigns(&DATASET_OPERATORS, self.seed, i)
            .iter()
            .flat_map(|c| c.run_parallel(1))
            .collect();
        let ds = Dataset::at(&dir);
        let manifest = ds
            .export("perfbench dataset", &results)
            .map_err(|e| format!("export: {e}"))?;
        let loaded = ds.load_all().map_err(|e| format!("load: {e}"))?;
        let wall = start.elapsed();

        let records: u64 = results.iter().map(|r| r.trace.len() as u64).sum();
        if loaded.len() != results.len() || manifest.total_records != records {
            return Err(format!(
                "dataset holds {} sessions / {} records, campaign made {} / {records}",
                loaded.len(),
                manifest.total_records,
                results.len()
            ));
        }
        if let Some(k) = (0..loaded.len())
            .find(|&k| loaded[k].spec != results[k].spec || loaded[k].trace != results[k].trace)
        {
            return Err(format!("session {k} does not load back as written"));
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        Ok(wall)
    }
}

// ----------------------------------------------------------------- daemon

struct DaemonWorkload {
    handle: Option<DaemonHandle>,
    config: DaemonConfig,
    /// Waves completed when the current operation's wave started.
    waves_seen: u64,
    wave_started: Instant,
}

impl DaemonWorkload {
    fn start(seed: u64, scratch: &Path) -> Result<DaemonWorkload, String> {
        // A relative socket path keeps it under the 108-byte sun_path limit
        // however deep the working directory is.
        let config = daemon_config(seed, scratch.join("d.sock"));
        let handle = daemon::start(config.clone()).map_err(|e| format!("daemon start: {e}"))?;
        Ok(DaemonWorkload {
            handle: Some(handle),
            config,
            waves_seen: 0,
            wave_started: Instant::now(),
        })
    }

    fn handle(&self) -> &DaemonHandle {
        self.handle.as_ref().expect("daemon runs until finish")
    }

    fn request(&self, request: &Request) -> Result<Response, String> {
        daemon::request_once(&self.config.socket_path, request).map_err(|e| format!("bus: {e}"))
    }
}

impl Workload for DaemonWorkload {
    fn op(&mut self, _: u64) -> Result<Duration, String> {
        let target = self.waves_seen + 1;
        let deadline = Instant::now() + STALL_LIMIT;
        while self.handle().waves_done() < target {
            if Instant::now() > deadline {
                return Err(format!("wave {target} did not finish"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let done_at = Instant::now();
        let done = self.handle().waves_done();
        let waves = done - self.waves_seen;
        // A wave advances the daemon timeline by its whole-second session
        // length, one 1-second bin per second.
        let stride = self.config.session_duration_s.ceil() as u64;
        let response = self.request(&Request::GetSeries {
            metric: "dl_mbps".to_string(),
            tier: Tier::Seconds,
            // Later waves may commit before the request is served; ask for
            // enough bins to still reach back to this operation's first.
            last: (waves + 4) * stride,
        })?;
        let served = Instant::now();
        // Waves that completed while this one was observed share its time.
        let wall = (served - self.wave_started) / waves as u32;
        let first_wave = self.waves_seen;
        self.waves_seen = done;
        self.wave_started = done_at;

        let Response::Series { series } = response else {
            return Err(format!("GetSeries answered {response:?}"));
        };
        // Wave w covers daemon seconds [w, w + 1) × stride: every one of
        // its bins must be served.
        for bin in first_wave * stride..done * stride {
            let k = bin.checked_sub(series.start_bin).map(|k| k as usize);
            match k.and_then(|k| Some((*series.counts.get(k)?, *series.values.get(k)?))) {
                Some((count, value)) if count > 0 && value.is_finite() && value >= 0.0 => {}
                other => return Err(format!("wave {bin} bin not served: {other:?}")),
            }
        }
        Ok(wall)
    }

    fn finish(&mut self) -> Result<(), String> {
        let sessions = match self.request(&Request::ListSessions)? {
            Response::Sessions { sessions } => sessions,
            other => return Err(format!("ListSessions answered {other:?}")),
        };
        let per_wave = self.config.operators.len() as u64 * self.config.sessions_per_operator;
        if (sessions.len() as u64) < self.waves_seen * per_wave {
            return Err(format!(
                "daemon logged {} sessions over {} waves",
                sessions.len(),
                self.waves_seen
            ));
        }
        if let Some(s) = sessions
            .iter()
            .find(|s| s.records == 0 || !(s.dl_mbps.is_finite() && s.dl_mbps >= 0.0))
        {
            return Err(format!(
                "daemon session {}: {} records, {} Mbps",
                s.index, s.records, s.dl_mbps
            ));
        }
        Ok(())
    }
}

/// Stops the daemon however the run ends.
impl Drop for DaemonWorkload {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

// ------------------------------------------------------------------- dist

struct DistWorkload {
    seed: u64,
    scratch: PathBuf,
}

/// Lease timing for a run where no worker dies: fast polling so the
/// coordinator notices completion promptly, a TTL far above any stall.
const DIST_TIMING: DistTiming = DistTiming {
    lease_ttl_ms: 10_000,
    heartbeat_ms: 100,
    poll_ms: 5,
    backoff_ms: 5,
    takeover_budget: 5,
    worker_threads: 1,
};

/// Every file under `dir` as `relative path → bytes`, sorted.
fn tree(dir: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                let rel = path.strip_prefix(root).expect("walk stays under root");
                out.push((rel.to_string_lossy().into_owned(), std::fs::read(&path)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out)?;
    out.sort();
    Ok(out)
}

impl Workload for DistWorkload {
    fn op(&mut self, i: u64) -> Result<Duration, String> {
        let job = DistJob::new(campaigns(&DIST_OPERATORS, self.seed, i));
        let dir = self.scratch.join(format!("dist-{i}"));
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut spawn = |dir: &Path, id: &str| -> std::io::Result<Child> {
            Command::new(&exe)
                .arg("--dist-worker")
                .arg(dir)
                .arg(id)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
        };
        let config = DistConfig {
            workers: DIST_WORKERS,
            timing: DIST_TIMING,
            respawn_budget: 0,
            max_runtime_ms: 60_000,
        };
        let start = Instant::now();
        let out =
            run_distributed(&dir, &job, &config, &mut spawn).map_err(|e| format!("dist: {e}"))?;
        let wall = start.elapsed();

        let n = job.specs().len();
        if !out.outcome.is_complete() || out.outcome.results.len() != n {
            return Err(format!(
                "dist merged {} of {n} sessions",
                out.outcome.results.len()
            ));
        }
        if out.stats.workers_lost != 0 || out.stats.unexpected_violations != 0 {
            return Err(format!(
                "dist lost workers or tripped invariants: {:?}",
                out.stats
            ));
        }
        if i == 0 {
            // The merge contract: byte-identical to the single-process run.
            let reference = self.scratch.join("dist-reference");
            let single = DistConfig {
                workers: 1,
                ..config
            };
            run_distributed(&reference, &job, &single, &mut spawn_none)
                .map_err(|e| format!("single-process reference: {e}"))?;
            let same = tree(&dir).map_err(|e| e.to_string())?
                == tree(&reference).map_err(|e| e.to_string())?;
            std::fs::remove_dir_all(&reference).map_err(|e| e.to_string())?;
            if !same {
                return Err("merged directory differs from the single-process run".to_string());
            }
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        Ok(wall)
    }
}

fn spawn_none(_: &Path, _: &str) -> std::io::Result<Child> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "single-process run spawns no worker",
    ))
}

// ------------------------------------------------------- slot-loop ledger

/// Nanoseconds per DL slot of each slot-loop layer, from a staged replay
/// of `Carrier::dl_step` over the same channel, plus the real carrier.
struct SlotLedger {
    channel: f64,
    scheduler: f64,
    csi_amc: f64,
    harq_tbs: f64,
    flow: f64,
    carrier: f64,
    sink_per_record: f64,
    /// Failed transport blocks and retransmissions per 1000 slots of the
    /// real carrier.
    block_errors_per_kslot: f64,
    retx_per_kslot: f64,
}

#[derive(Clone, Copy)]
struct TbOutcome {
    bits: u32,
    failed: bool,
    retx: bool,
    retained: bool,
}

/// Time each slot-loop layer of `spec`'s primary carrier.
///
/// The real `Carrier::step` runs `SLOTS` DL slots as one timed block.
/// Then each layer runs over a whole batch of `SLOTS` slots, fed by the
/// previous layer's outputs, under one timer per layer: channel →
/// scheduler (TDD allocation) → CSI/AMC (EWMA, CSI report, grant) →
/// HARQ/TBS (TB size, BLER draw, retransmission queue, OLLA feedback) →
/// flow (full-buffer workload and its queue). Batching keeps clock reads
/// out of the per-slot path; the price is that OLLA feedback reaches the
/// next grants one batch late. `carrier` minus the five layers is the
/// part of the slot no layer accounts for. The sink stage pushes the real
/// carrier's records into the workload's sink (`live` picks the daemon's).
fn slot_ledger(spec: SessionSpec, live: bool) -> SlotLedger {
    const SLOTS: usize = 8192;
    const ROUNDS: usize = 9;
    let profile = spec.operator.profile();
    let cp = &profile.carriers[0];
    let mobility = spec.mobility_model();
    let MobilityModel::Stationary { position } = mobility else {
        unreachable!("ledger specs are stationary")
    };
    let seeds = spec.seeds().child_indexed("cc", 0);
    let channel = || {
        ChannelSimulator::new(
            profile.channel_config(cp),
            profile.coverage.layout.clone(),
            mobility.clone(),
            &seeds,
        )
    };
    let cfg = cp.cell.clone();
    let link = profile.link_model(cp);
    let slot_s = cfg.slot_s();

    let mut carrier = Carrier::new(cfg.clone(), 0, channel(), profile.link_model(cp), &seeds);
    let mut ch_sim = channel();
    let alloc_table = AllocationTable::new(&cfg, 1.0, 1.0);
    let mut amc = AmcState::new(OllaConfig::default());
    let mut harq = HarqEntity::new(HarqConfig::default());
    let mut tbs = TbsCache::new();
    let mut rng = seeds.stream_static("perfbench/bler");
    let mut flow = Flow::full_buffer();
    let (mut ewma_sinr_db, mut rank) = (15.0f64, 2u8);

    let mut sinr = vec![0.0f64; SLOTS];
    let mut allocs = vec![None; SLOTS];
    let mut grants: Vec<Option<GrantParams>> = vec![None; SLOTS];
    let mut outcomes: Vec<Option<TbOutcome>> = vec![None; SLOTS];
    let mut records: Vec<SlotKpi> = Vec::with_capacity(SLOTS);
    let mut samples: [Vec<f64>; 7] = Default::default();
    let store = Arc::new(Mutex::new(RetentionStore::new(RetentionConfig::default())));
    let mut slot0 = 0u64;
    let (mut block_errors, mut retx_count) = (0u64, 0u64);
    let per_slot = |d: Duration| d.as_secs_f64() * 1e9 / SLOTS as f64;

    for round in 0..=ROUNDS {
        records.clear();
        let t = Instant::now();
        for _ in 0..SLOTS {
            records.push(
                carrier
                    .step(position, 0.0, TrafficPattern::DL, false, 1.0, 1.0)
                    .dl,
            );
        }
        let carrier_t = t.elapsed();

        let t = Instant::now();
        for s in sinr.iter_mut() {
            *s = ch_sim.step_at(position, 0.0).sinr_db;
        }
        let channel_t = t.elapsed();

        let t = Instant::now();
        for (k, a) in allocs.iter_mut().enumerate() {
            *a = alloc_table.dl(&cfg, slot0 + k as u64, 1.0);
        }
        let scheduler_t = t.elapsed();

        let t = Instant::now();
        for k in 0..SLOTS {
            let slot = slot0 + k as u64;
            ewma_sinr_db = 0.9 * ewma_sinr_db + 0.1 * sinr[k];
            if slot.is_multiple_of(DEFAULT_CSI_PERIOD_SLOTS) {
                let csi = AmcState::make_csi(&link, ewma_sinr_db, rank);
                rank = csi.ri;
                amc.update_csi(csi);
            }
            let cqi = amc.csi().cqi.value();
            grants[k] = match allocs[k] {
                Some(_) if cqi != 0 => Some(amc.dl_grant(&cfg)),
                _ => None,
            };
        }
        let amc_t = t.elapsed();

        let t = Instant::now();
        for k in 0..SLOTS {
            outcomes[k] = None;
            let (Some(alloc), Some(g)) = (allocs[k], grants[k]) else {
                continue;
            };
            let slot = slot0 + k as u64;
            let table = g.format.effective_mcs_table(cfg.mcs_table());
            let (bits, attempts, retx) = match harq.pop_ready(slot) {
                Some(tb) => (tb.tbs_bits, tb.attempts + 1, true),
                None => (
                    tbs.transport_block_size(&alloc, table, g.mcs, g.layers),
                    1,
                    false,
                ),
            };
            let p_err = link.bler(sinr[k] + harq.combining_bonus_db(attempts), table, g.mcs);
            let failed = rng.gen::<f64>() < p_err;
            let retained = failed && harq.record_failure(bits, attempts, slot);
            amc.harq_feedback(!failed);
            outcomes[k] = Some(TbOutcome {
                bits,
                failed,
                retx,
                retained,
            });
        }
        let harq_t = t.elapsed();

        let t = Instant::now();
        for (k, outcome) in outcomes.iter().enumerate() {
            let time_s = (slot0 + k as u64) as f64 * slot_s;
            flow.advance(time_s, slot_s);
            let Some(o) = *outcome else { continue };
            if !flow.needs_grant(o.retx) {
                continue;
            }
            if o.retx {
                flow.begin_retx();
            } else {
                black_box(flow.compose_tb(o.bits, time_s));
            }
            if !o.failed {
                flow.complete_delivered(time_s, o.bits);
            } else if o.retained {
                flow.fail_deferred();
            } else {
                flow.fail_dropped(time_s, o.bits);
            }
            black_box((flow.queue_bits(), flow.queue_delay_ms()));
        }
        let flow_t = t.elapsed();

        let t = Instant::now();
        if live {
            let mut sink = LiveSink::new(Arc::clone(&store), 0.0);
            for r in &records {
                sink.push(r);
            }
            sink.finish();
            black_box(sink.into_parts());
        } else {
            let mut sink = KpiTrace::with_capacity(SLOTS);
            for r in &records {
                SlotSink::push(&mut sink, r);
            }
            sink.finish();
            black_box(sink);
        }
        let sink_t = t.elapsed();

        slot0 += SLOTS as u64;
        if round > 0 {
            // Round 0 warms caches, tables and branch predictors.
            for r in &records {
                block_errors += u64::from(r.block_error);
                retx_count += u64::from(r.is_retx);
            }
            for (s, d) in samples.iter_mut().zip([
                channel_t,
                scheduler_t,
                amc_t,
                harq_t,
                flow_t,
                carrier_t,
                sink_t,
            ]) {
                s.push(per_slot(d));
            }
        }
    }
    let [channel, scheduler, csi_amc, harq_tbs, flow, carrier, sink_per_record] =
        samples.map(|mut s| median(&mut s));
    let per_kslot = |n: u64| n as f64 * 1e3 / (ROUNDS * SLOTS) as f64;
    SlotLedger {
        channel,
        scheduler,
        csi_amc,
        harq_tbs,
        flow,
        carrier,
        sink_per_record,
        block_errors_per_kslot: per_kslot(block_errors),
        retx_per_kslot: per_kslot(retx_count),
    }
}

/// Milliseconds per call of the layers around the slot loop, each probed
/// on the same session in every traced run so every workload reports
/// every figure.
struct Probes {
    simulate_ms: f64,
    export_ms: f64,
    load_ms: f64,
    bytes_per_record: f64,
    bus_rtt_ms: f64,
    worker_process_ms: f64,
}

/// Time one session through simulation, dataset export and load; a
/// one-wave daemon's bus round trip for its served bins; and a worker
/// process from spawn to exit (it finds no job and stops at once).
fn layer_probes(spec: SessionSpec, scratch: &Path) -> Result<Probes, String> {
    const REPEATS: usize = 7;
    let (mut simulate, mut export, mut load, mut bytes) = (vec![], vec![], vec![], vec![]);
    let ds = Dataset::at(scratch.join("probe-dataset"));
    for _ in 0..REPEATS {
        let t = Instant::now();
        let result = SessionResult::run(spec);
        simulate.push(ms(t.elapsed()));
        let t = Instant::now();
        ds.export("perfbench probe", std::slice::from_ref(&result))
            .map_err(|e| format!("probe export: {e}"))?;
        export.push(ms(t.elapsed()));
        let t = Instant::now();
        let loaded = ds.load_all().map_err(|e| format!("probe load: {e}"))?;
        load.push(ms(t.elapsed()));
        if loaded.len() != 1 || loaded[0].trace != result.trace {
            return Err("probe session does not load back as written".to_string());
        }
        bytes.push(dir_bytes(ds.root()) as f64 / result.trace.len().max(1) as f64);
    }
    std::fs::remove_dir_all(ds.root()).map_err(|e| format!("remove probe dataset: {e}"))?;

    let socket = scratch.join("probe.sock");
    let handle = daemon::start(DaemonConfig {
        socket_path: socket.clone(),
        operators: vec![spec.operator],
        sessions_per_operator: 1,
        session_duration_s: spec.duration_s,
        base_seed: spec.seed,
        threads: 1,
        waves: Some(1),
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("probe daemon: {e}"))?;
    let deadline = Instant::now() + STALL_LIMIT;
    while handle.waves_done() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut rtt = Vec::new();
    let request = Request::GetSeries {
        metric: "dl_mbps".to_string(),
        tier: Tier::Seconds,
        last: 1,
    };
    for _ in 0..4 * REPEATS {
        let t = Instant::now();
        let response = daemon::request_once(&socket, &request);
        rtt.push(ms(t.elapsed()));
        if !matches!(response, Ok(Response::Series { ref series }) if series.counts.first() > Some(&0))
        {
            handle.shutdown();
            handle.join();
            return Err(format!("probe daemon served {response:?}"));
        }
    }
    handle.shutdown();
    handle.join();

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut worker = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        Command::new(&exe)
            .arg("--dist-worker")
            .arg(scratch.join("no-job"))
            .arg("probe")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("probe worker: {e}"))?;
        worker.push(ms(t.elapsed()));
    }
    Ok(Probes {
        simulate_ms: median(&mut simulate),
        export_ms: median(&mut export),
        load_ms: median(&mut load),
        bytes_per_record: median(&mut bytes),
        bus_rtt_ms: median(&mut rtt),
        worker_process_ms: median(&mut worker),
    })
}

// ----------------------------------------------------------- CPU placement

/// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is an initialised buffer of exactly the size passed and
    // outlives the call, which only reads it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Rotates single-threaded operations over the CPUs the process may use.
///
/// On a shared virtual machine one vCPU can run far slower than another
/// for seconds at a time (a neighbour busy on its sibling hardware
/// thread), and the scheduler keeps a lone thread on one vCPU for long
/// stretches, so a whole run could land on the slow one. Pinning
/// operation `i` to the `i`-th CPU, round robin, puts an equal share of
/// operations on each, and the lower quartile then reads the faster CPU.
struct CpuRotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
}

impl CpuRotation {
    fn new() -> CpuRotation {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed
        // and outlives the call; pid 0 is the calling thread.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        let cpus = match read {
            0 => (0..64 * allowed.len())
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect(),
            _ => Vec::new(),
        };
        CpuRotation { allowed, cpus }
    }

    /// Run `f` pinned to the `i`-th allowed CPU, then restore the thread's
    /// affinity. Runs `f` unpinned where the affinity cannot be read.
    fn run_on<T>(&self, i: u64, f: impl FnOnce() -> T) -> T {
        let Some(&cpu) = self.cpus.get(i as usize % self.cpus.len().max(1)) else {
            return f();
        };
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        let pinned = set_affinity(&one);
        let out = f();
        if pinned {
            set_affinity(&self.allowed);
        }
        out
    }
}

// ------------------------------------------------------------------ runner

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

fn run(opts: &Opts, scratch: &Path) -> Result<Report, String> {
    // Cold starts come first, while nothing else of this run is alive: the
    // daemon workload's waves, once started, would share the CPU with them.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    if !opts.trace {
        for _ in 0..SETUP_REPEATS {
            setup.push(cold_start_seconds(opts)?);
        }
    }

    let mut workload = make_workload(opts, scratch)?;

    let (mut attempted, mut failed) = (1u64, 0u64);
    // Operation 0 warms up (lazy tables, page cache, the daemon's first
    // wave) and carries the one-off reproducibility checks; it is checked
    // but not timed.
    if let Err(e) = workload.op(0) {
        eprintln!("perfbench: operation 0: {e}");
        failed += 1;
    }

    let mut walls = Vec::new();
    let cpus = CpuRotation::new();
    let measure_start = Instant::now();
    while measure_start.elapsed().as_secs_f64() < opts.seconds {
        let i = attempted;
        attempted += 1;
        let result = if workload.single_threaded() {
            cpus.run_on(i, || workload.op(i))
        } else {
            workload.op(i)
        };
        match result {
            Ok(wall) => walls.push(ms(wall)),
            Err(e) => {
                eprintln!("perfbench: operation {i}: {e}");
                failed += 1;
                if measure_start.elapsed() > STALL_LIMIT {
                    break;
                }
            }
        }
    }
    if let Err(e) = workload.finish() {
        eprintln!("perfbench: {e}");
        failed += 1;
    }
    drop(workload);
    if walls.is_empty() {
        return Err("no operation completed".to_string());
    }
    // On a shared virtual machine, neighbours slow the CPU for periods of
    // a second or more, which makes per-run medians jump between a fast
    // and a slow mode. The faster quartile of operations tracks the
    // code's own cost and stays steadier from run to run.
    let op_ms = quantile(&mut walls, 0.25);

    let metrics = if opts.trace {
        let spec = first_spec(&opts.workload, opts.seed);
        let ledger = slot_ledger(spec, opts.workload == "daemon");
        let probes = layer_probes(spec, scratch)?;
        let accounted =
            ledger.channel + ledger.scheduler + ledger.csi_amc + ledger.harq_tbs + ledger.flow;
        vec![
            ("channel_ns_per_slot", ledger.channel, "ns"),
            ("scheduler_ns_per_slot", ledger.scheduler, "ns"),
            ("csi_amc_ns_per_slot", ledger.csi_amc, "ns"),
            ("harq_tbs_ns_per_slot", ledger.harq_tbs, "ns"),
            ("flow_ns_per_slot", ledger.flow, "ns"),
            ("carrier_ns_per_slot", ledger.carrier, "ns"),
            ("unattributed_ns_per_slot", ledger.carrier - accounted, "ns"),
            ("sink_ns_per_record", ledger.sink_per_record, "ns"),
            (
                "block_errors_per_kslot",
                ledger.block_errors_per_kslot,
                "count",
            ),
            ("retx_per_kslot", ledger.retx_per_kslot, "count"),
            ("simulate_ms_per_session", probes.simulate_ms, "ms"),
            ("export_ms_per_session", probes.export_ms, "ms"),
            ("load_ms_per_session", probes.load_ms, "ms"),
            ("bytes_per_record", probes.bytes_per_record, "B"),
            ("bus_rtt_ms", probes.bus_rtt_ms, "ms"),
            ("worker_process_ms", probes.worker_process_ms, "ms"),
        ]
    } else {
        vec![
            ("op_p25_ms", op_ms, "ms"),
            ("setup_s", median(&mut setup), "s"),
        ]
    };
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--dist-worker") {
        let (Some(dir), Some(id)) = (args.get(1), args.get(2)) else {
            eprintln!("perfbench: --dist-worker <dir> <id>");
            std::process::exit(2);
        };
        if let Err(e) = run_worker(Path::new(dir), id, false) {
            eprintln!("perfbench worker {id}: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench_tmp");
    let scratch = root.join(std::process::id().to_string());
    let cold = args.first().map(String::as_str) == Some("--cold");
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))
        .and_then(|()| {
            if cold {
                cold_start(&opts, &scratch, started).map(|s| s.to_string())
            } else {
                run(&opts, &scratch).and_then(|report| report.to_json())
            }
        });
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&root); // only when no other run shares it
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
