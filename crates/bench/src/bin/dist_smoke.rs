//! Distributed-campaign gate: prove the lease coordinator merges
//! byte-identically to the single-process run across worker counts
//! {1, 2, 3}, under an injected mid-wave worker kill, with audit mode
//! on — then export the snapshot and fail on anything unexpected.
//!
//! The scenario mirrors `tests/distributed.rs` at gating scale: a
//! 2-operator job (24 sessions total), run four ways —
//!
//! 1. sequential reference (`run_checkpointed` via the workers=1
//!    degradation path),
//! 2. 2 worker processes, healthy,
//! 3. 3 worker processes with `MIDBAND5G_DIST_HANG` wedging one
//!    worker's first wave (it stops heartbeating, its leases are taken
//!    over, the coordinator SIGKILLs it mid-wave),
//! 4. 3 worker processes under checkpoint-dir chaos (planted stale
//!    leases, truncated commits, torn manifests).
//!
//! Every multi-process directory must compare byte-for-byte against the
//! reference; the kill run must count `dist.lease_takeovers ≥ 1` and a
//! lost worker; and no audit invariant outside
//! `Invariant::dist_expected` may fire anywhere. Every multi-process run
//! must also record a `dist.drain` span sample; the medians of
//! `dist.drain` and `dist.merge` are printed.
//!
//! ```text
//! cargo run --release -p midband5g-bench --bin dist_smoke
//! cargo run --release -p midband5g-bench --bin dist_smoke -- --quick
//! cargo run --release -p midband5g-bench --bin dist_smoke -- --out-dir /tmp
//! ```

use midband5g::measure::campaign::Campaign;
use midband5g::measure::dist::{
    run_distributed, DistConfig, DistJob, DistTiming, HANG_ENV,
};
use midband5g::measure::fault::{CheckpointFaultConfig, FaultConfig};
use midband5g::obs;
use midband5g::obs::audit::INVARIANTS;
use midband5g::operators::Operator;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};

const DEFAULT_OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// In-session chaos kept mild: panics exercise the retry accounting
/// without abandoning sessions (budget 2 covers every planned panic).
const FAULTS: FaultConfig =
    FaultConfig { gap_rate: 0.25, abort_rate: 0.1, corrupt_rate: 0.01, panic_rate: 0.2 };

/// Checkpoint-dir chaos for scenario 4.
const CKPT_CHAOS: CheckpointFaultConfig = CheckpointFaultConfig {
    truncate_rate: 0.2,
    torn_manifest_rate: 0.1,
    stale_lease_rate: 0.2,
};

/// Snapshot a directory tree as `relative path → bytes`.
fn tree(dir: &Path) -> io::Result<BTreeMap<String, Vec<u8>>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("walk stays under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path)?);
            }
        }
        Ok(())
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out)?;
    Ok(out)
}

/// Compare two finished checkpoint dirs byte-for-byte, printing every
/// difference.
fn dirs_identical(a: &Path, b: &Path) -> bool {
    let (ta, tb) = match (tree(a), tree(b)) {
        (Ok(ta), Ok(tb)) => (ta, tb),
        (ra, rb) => {
            eprintln!("  tree walk failed: {ra:?} vs {rb:?}");
            return false;
        }
    };
    let mut same = true;
    for key in ta.keys().chain(tb.keys()) {
        match (ta.get(key), tb.get(key)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(_), Some(_)) => {
                eprintln!("  DIFFERS {key}");
                same = false;
            }
            (Some(_), None) => {
                eprintln!("  ONLY IN {}: {key}", a.display());
                same = false;
            }
            (None, Some(_)) => {
                eprintln!("  ONLY IN {}: {key}", b.display());
                same = false;
            }
            (None, None) => unreachable!(),
        }
    }
    same
}

/// Locate the worker binary: a sibling `midband5g_worker` of this
/// executable (both live in the same cargo target dir).
fn worker_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("midband5g_worker");
    sibling.exists().then_some(sibling)
}

/// `(samples, total ns)` a span has recorded so far.
fn span_totals(name: &str) -> (u64, u64) {
    obs::snapshot().span(name).map_or((0, 0), |h| (h.count, h.sum))
}

/// Median of `samples` (ns) in milliseconds.
fn median_ms(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    samples.get(samples.len() / 2).map_or(f64::NAN, |&ns| ns as f64 / 1e6)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dist-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let out_dir = argv
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| argv.get(i + 1).cloned())
        .map_or_else(|| PathBuf::from(DEFAULT_OUT_DIR), PathBuf::from);

    obs::audit::set_enabled(true);
    obs::reset();

    // The sequential reference runs in-process, so injected worker
    // panics (caught and retried by the resilient executor) would spew
    // backtraces; silence those and keep everything else.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if message.is_some_and(|m| m.contains("injected worker panic")) {
            return;
        }
        default_hook(info);
    }));

    let Some(worker) = worker_bin() else {
        eprintln!(
            "FAIL: midband5g_worker binary not found next to dist_smoke — build it first \
             (cargo build --release -p midband5g-bench --bin midband5g_worker)"
        );
        std::process::exit(1);
    };

    let sessions = if quick { 6 } else { 12 };
    let job = DistJob {
        campaigns: vec![
            Campaign {
                operator: Operator::VodafoneSpain,
                sessions,
                session_duration_s: 1.0,
                base_seed: 4101,
            },
            Campaign {
                operator: Operator::TMobileUs,
                sessions,
                session_duration_s: 1.0,
                base_seed: 4201,
            },
        ],
        faults: FAULTS,
        ckpt_faults: CheckpointFaultConfig::default(),
        retry_budget: midband5g::measure::DEFAULT_RETRY_BUDGET,
    };
    let timing = DistTiming {
        lease_ttl_ms: 800,
        heartbeat_ms: 100,
        poll_ms: 50,
        backoff_ms: 25,
        takeover_budget: 5,
        worker_threads: 2,
    };
    let spawner = |hang: Option<usize>| {
        let worker = worker.clone();
        move |dir: &Path, id: &str| -> io::Result<Child> {
            let mut cmd = Command::new(&worker);
            cmd.arg("--dir").arg(dir).arg("--worker").arg(id);
            cmd.env("MIDBAND5G_AUDIT", "1");
            match hang {
                Some(index) => cmd.env(HANG_ENV, index.to_string()),
                None => cmd.env_remove(HANG_ENV),
            };
            cmd.spawn()
        }
    };

    let mut failed = false;

    // 1. Sequential reference via the workers=1 degradation path.
    let ref_dir = tmpdir("ref");
    let reference = run_distributed(
        &ref_dir,
        &job,
        &DistConfig { workers: 1, timing, ..DistConfig::default() },
        &mut spawner(None),
    )
    .expect("sequential reference");
    println!(
        "reference: {} sessions committed, {} failed",
        reference.outcome.results.len(),
        reference.outcome.failures.len()
    );

    // 2–4. Multi-process scenarios.
    let total_specs = job.specs().len();
    let scenarios: [(&str, u32, Option<usize>, CheckpointFaultConfig); 3] = [
        ("2 workers healthy", 2, None, CheckpointFaultConfig::default()),
        ("3 workers + mid-wave kill", 3, Some(total_specs / 3), CheckpointFaultConfig::default()),
        ("3 workers + checkpoint chaos", 3, None, CKPT_CHAOS),
    ];
    let (mut drain_ns, mut merge_ns) = (Vec::new(), Vec::new());
    for (label, workers, hang, ckpt_faults) in scenarios {
        let dir = tmpdir(&format!("w{workers}-{}", if hang.is_some() { "kill" } else { "ok" }));
        let scenario_job = DistJob { ckpt_faults, ..job.clone() };
        let config = DistConfig { workers, timing, respawn_budget: 1, max_runtime_ms: 300_000 };
        let (drain_before, merge_before) = (span_totals("dist.drain"), span_totals("dist.merge"));
        let run = run_distributed(&dir, &scenario_job, &config, &mut spawner(hang));
        // One run records at most one sample per span, so the growth of
        // the running sum is this scenario's duration.
        let (drain_after, merge_after) = (span_totals("dist.drain"), span_totals("dist.merge"));
        if drain_after.0 > drain_before.0 {
            drain_ns.push(drain_after.1 - drain_before.1);
        } else {
            eprintln!("FAIL [{label}]: no dist.drain sample recorded");
            failed = true;
        }
        if merge_after.0 > merge_before.0 {
            merge_ns.push(merge_after.1 - merge_before.1);
        }
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                eprintln!("FAIL [{label}]: {e}");
                failed = true;
                continue;
            }
        };
        println!(
            "{label}: committed {} | takeovers {} lost {} salvaged {} respawns {}",
            out.outcome.results.len(),
            out.stats.lease_takeovers,
            out.stats.workers_lost,
            out.stats.salvaged_sessions,
            out.stats.respawns
        );
        if !dirs_identical(&ref_dir, &dir) {
            eprintln!("FAIL [{label}]: merged dir diverges from the sequential reference");
            failed = true;
        }
        if hang.is_some() {
            if out.stats.lease_takeovers < 1 {
                eprintln!("FAIL [{label}]: kill injected but no lease takeover counted");
                failed = true;
            }
            if out.stats.workers_lost < 1 {
                eprintln!("FAIL [{label}]: kill injected but no worker loss counted");
                failed = true;
            }
        }
        if ckpt_faults != CheckpointFaultConfig::default() && out.stats.salvaged_sessions < 1 {
            eprintln!("FAIL [{label}]: checkpoint chaos on but nothing was salvaged");
            failed = true;
        }
        if out.stats.unexpected_violations != 0 {
            eprintln!(
                "FAIL [{label}]: workers reported {} unexpected audit violations",
                out.stats.unexpected_violations
            );
            failed = true;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    // Where the end of a distributed run goes: settled → every worker
    // reaped, then the merge and the reload of the merged sessions.
    println!(
        "median dist.drain {:.1} ms, dist.merge {:.1} ms over {} multi-process runs",
        median_ms(&mut drain_ns),
        median_ms(&mut merge_ns),
        drain_ns.len()
    );

    // Coordinator-side audit: nothing outside the distributed-expected
    // set may have fired.
    for inv in INVARIANTS {
        let count = obs::audit::count(inv);
        if count == 0 {
            continue;
        }
        if inv.dist_expected() {
            println!("  expected  {}: {count}", inv.name());
        } else {
            eprintln!("  VIOLATION {}: {count}", inv.name());
            failed = true;
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: could not create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    match obs::write_snapshot("dist", &out_dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write snapshot to {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    }
    if failed {
        eprintln!("FAIL: distributed gate found divergence or unexpected violations");
        std::process::exit(1);
    }
    println!("OK: merged datasets byte-identical across worker counts, takeover counted");
}
