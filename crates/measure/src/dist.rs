//! Lease-based distributed campaign coordinator (ROADMAP item 5).
//!
//! The paper's corpus comes from month-long multi-operator drive
//! campaigns — a workload no single process should be trusted to finish
//! without dying. This module promotes [`crate::campaign`]'s
//! checkpointed runner into a scale-*out* work queue: a coordinator
//! shards a job's [`SessionSpec`]s across multiple **worker processes**
//! that cooperate purely through the shared checkpoint directory. There
//! are no sockets and no daemon; the only synchronisation primitives
//! are the two the filesystem already gives us —
//!
//! * `O_EXCL` file creation (`claims/<hash>.lease`): exactly one of N
//!   racing claimants wins a spec;
//! * atomic `rename(2)`: exactly one of N racing reclaimers tombstones
//!   a stale lease, and every manifest/marker commit goes through
//!   [`crate::dataset::commit_file`] (pid-unique tmp + fsync + rename +
//!   dir fsync) so readers never observe a torn file and a host crash
//!   cannot lose an acknowledged commit.
//!
//! # Lease lifecycle (DESIGN.md §5.10)
//!
//! `claim → heartbeat → expiry → revalidated takeover`: a worker claims
//! a spec by `create_new`-ing its lease (carrying worker id, generation
//! and a monotonic beat counter), a supervisor thread rewrites every
//! held lease each heartbeat period, and every *other* participant
//! tracks `(lease bytes, first-seen Instant)` — bytes unchanged for
//! longer than the TTL mean the owner stopped beating. A stale lease is
//! reclaimed by renaming it to a tombstone (`<hash>.dead-<gen>-<by>`);
//! the tombstone count is the spec's *generation*, which bounds
//! takeovers per spec and drives deterministic claim backoff. Takeover
//! **revalidates before re-running**: a `done/` marker means the
//! session is finished and is never re-run; a session file without its
//! marker is salvage — re-run, never trusted.
//!
//! The end of a run is event-driven, not sleep-quantised: dropping the
//! heartbeat wakes its thread at once (it waits out each period on a
//! channel the drop disconnects), so a worker exits as soon as its
//! `obs/worker-<id>.json` report commits rather than up to one
//! `heartbeat_ms` later. A worker that gives up its own lease releases
//! it before renaming it to a tombstone, so no renewal can land after
//! the rename and resurrect it. The coordinator then reloads the merged
//! sessions on an [`Executor`] with one thread per worker it ran, in
//! spec order.
//!
//! # Why the merge is byte-identical
//!
//! Correctness never rests on mutual exclusion. Every session is a pure
//! function of its spec, the committing attempt number is a pure
//! function of the spec's [`crate::fault::FaultPlan`], and every commit
//! is an atomic rename of canonically-encoded bytes — so if two workers
//! ever *do* run the same spec (false takeover, resurrection race),
//! they commit identical bytes to identical names and one rename
//! harmlessly shadows the other. Leases are an optimisation and an
//! accounting substrate, not a safety requirement. The merge collects
//! the per-spec `done/` markers (each exactly a
//! [`CheckpointEntry`]), sorts by spec index, and funnels through the
//! same [`write_final_manifests`] writer as the single-process path —
//! `tests/distributed.rs` and the `dist_smoke` gate enforce
//! byte-identity across worker counts {1, 2, 3} and under an injected
//! mid-wave SIGKILL.

use crate::campaign::{
    self, pretty, write_final_manifests, Campaign, CampaignOutcome, CheckpointEntry, Plan,
    SessionCoverage, SessionFailure, Traces,
};
use crate::dataset::{commit_file, Dataset};
use crate::executor::Executor;
use crate::fault::{CheckpointFaultConfig, CheckpointFaultPlan, FaultConfig};
use crate::session::SessionSpec;
use obs::audit::{self, Invariant};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable wedging one worker for the kill-recovery tests:
/// the generation-0 claimant of the given spec index stops heartbeating
/// and sleeps forever, guaranteeing a deterministic takeover (and a
/// coordinator SIGKILL) without racing the wall clock.
pub const HANG_ENV: &str = "MIDBAND5G_DIST_HANG";

/// The work a distributed run shards: one or more campaigns flattened
/// into a single spec list, plus the fault configuration every worker
/// applies identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistJob {
    /// Campaigns in order; spec indices are global across the list.
    pub campaigns: Vec<Campaign>,
    /// In-session fault rates applied by every worker.
    pub faults: FaultConfig,
    /// Checkpoint-directory fault rates (distributed chaos).
    pub ckpt_faults: CheckpointFaultConfig,
    /// In-process retry budget per session (see
    /// [`Executor::map_resilient`]).
    pub retry_budget: u32,
}

impl DistJob {
    /// A job over `campaigns` with no fault injection and the default
    /// retry budget.
    pub fn new(campaigns: Vec<Campaign>) -> DistJob {
        DistJob {
            campaigns,
            faults: FaultConfig::default(),
            ckpt_faults: CheckpointFaultConfig::default(),
            retry_budget: campaign::DEFAULT_RETRY_BUDGET,
        }
    }

    /// The plan every participant runs its sessions under: the job's
    /// faults and retry budget on `threads` executor threads.
    fn plan(&self, threads: usize) -> Plan {
        Plan {
            executor: Executor::new(threads),
            faults: self.faults,
            retry_budget: self.retry_budget,
        }
    }

    /// Every spec in the job, campaign order, globally indexed.
    pub fn specs(&self) -> Vec<SessionSpec> {
        self.campaigns.iter().flat_map(|c| c.specs()).collect()
    }

    /// The description written into the final `manifest.json`. A
    /// single-campaign job reuses [`Campaign::checkpoint_description`]
    /// verbatim, so its distributed run is byte-identical to
    /// [`Plan::run_checkpointed`] over that campaign itself.
    pub fn description(&self) -> String {
        match self.campaigns.as_slice() {
            [c] => c.checkpoint_description(),
            cs => format!(
                "checkpointed campaign: {} campaigns, {} sessions",
                cs.len(),
                cs.iter().map(|c| c.sessions).sum::<u64>()
            ),
        }
    }
}

/// Lease/heartbeat timing shared by the coordinator and every worker —
/// serialized into `campaign.json` so all participants agree on what
/// "stale" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistTiming {
    /// Heartbeat age beyond which a lease is considered abandoned.
    pub lease_ttl_ms: u64,
    /// Lease renewal period of the supervisor thread.
    pub heartbeat_ms: u64,
    /// Idle poll period between claim passes.
    pub poll_ms: u64,
    /// Per-generation claim backoff (`backoff_ms × generation`,
    /// deterministic, wall-clock only — never affects result bytes).
    pub backoff_ms: u64,
    /// Maximum takeover generations per spec before it is abandoned as
    /// failed (the cross-process analogue of the retry budget).
    pub takeover_budget: u32,
    /// Executor threads inside each worker process.
    pub worker_threads: usize,
}

impl Default for DistTiming {
    fn default() -> Self {
        DistTiming {
            lease_ttl_ms: 1500,
            heartbeat_ms: 200,
            poll_ms: 100,
            backoff_ms: 50,
            takeover_budget: 5,
            worker_threads: 2,
        }
    }
}

impl DistTiming {
    fn ttl(&self) -> Duration {
        Duration::from_millis(self.lease_ttl_ms)
    }
}

/// Coordinator-side configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistConfig {
    /// Worker processes to spawn. `<= 1` degrades gracefully to the
    /// single-process [`Plan::run_checkpointed`] path.
    pub workers: u32,
    /// Shared lease timing.
    pub timing: DistTiming,
    /// Replacement workers the coordinator may spawn for ones it kills
    /// or loses.
    pub respawn_budget: u32,
    /// Hard wall-clock ceiling; past it the coordinator kills every
    /// child and finishes the job itself (in-process final sweep).
    pub max_runtime_ms: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 3,
            timing: DistTiming::default(),
            respawn_budget: 2,
            max_runtime_ms: 120_000,
        }
    }
}

/// The `campaign.json` the coordinator commits before spawning workers:
/// everything a worker process needs to participate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistManifest {
    /// The sharded job.
    pub job: DistJob,
    /// Shared lease timing.
    pub timing: DistTiming,
}

/// One worker's accounting, committed to `obs/worker-<id>.json` on
/// clean exit (killed workers leave no report; survivors redo their
/// work, so the merged counts stay a lower bound only for the dead).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Worker id.
    pub worker: String,
    /// Sessions this worker ran and committed (`done/` markers).
    pub committed: u64,
    /// Prior-checkpoint entries adopted into `done/` markers at init.
    pub adopted: u64,
    /// Sessions abandoned after the in-process retry budget.
    pub failed: u64,
    /// Stale leases this worker tombstoned and took over.
    pub lease_takeovers: u64,
    /// Distinct dead-worker observations behind those takeovers.
    pub workers_lost_observed: u64,
    /// Claims that found an orphaned/torn session file and re-ran it.
    pub salvaged: u64,
    /// Chaos: ghost leases planted (`stale_lease` fault).
    pub planted_leases: u64,
    /// Chaos: `checkpoint.json` tears injected (`torn_manifest` fault).
    pub torn_manifests: u64,
    /// Chaos: truncated session commits injected (`truncate` fault).
    pub truncated_commits: u64,
    /// Audit violations outside [`Invariant::dist_expected`] at worker
    /// exit (0 in a healthy run, audited or not).
    pub unexpected_violations: u64,
}

/// Aggregated accounting for one distributed run: the coordinator's own
/// observations plus every surviving worker report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistStats {
    /// Worker processes spawned (including respawns).
    pub workers_spawned: u32,
    /// Workers killed by the coordinator or reaped with a failure
    /// status.
    pub workers_lost: u64,
    /// Stale-lease takeovers across all workers.
    pub lease_takeovers: u64,
    /// Orphaned/torn session files salvaged by re-running.
    pub salvaged_sessions: u64,
    /// Replacement workers spawned.
    pub respawns: u32,
    /// Sum of per-worker `unexpected_violations`.
    pub unexpected_violations: u64,
}

/// What a distributed run produced: the same [`CampaignOutcome`] shape
/// as the single-process path, plus the distribution accounting.
#[derive(Debug)]
pub struct DistOutcome {
    /// Surviving results, failures and coverage — field-identical to
    /// the single-process run.
    pub outcome: CampaignOutcome,
    /// Aggregated distribution accounting.
    pub stats: DistStats,
    /// Surviving per-worker reports.
    pub reports: Vec<WorkerReport>,
}

/// A claim on one spec: worker id + generation + monotonic beat
/// counter, serialized into `claims/<hash>.lease`. Staleness is judged
/// by *observers* — bytes unchanged beyond the TTL — never by comparing
/// wall clocks across processes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Claiming worker.
    pub worker: String,
    /// Spec stable hash (redundant with the file name; kept for
    /// debuggability of orphaned leases).
    pub spec_hash: u64,
    /// Takeover generation at claim time.
    pub generation: u32,
    /// Monotonic renewal counter, bumped by the heartbeat thread.
    pub beat: u64,
}

/// `<hash>` key used in claim/done/failed file names.
fn hash_key(spec_hash: u64) -> String {
    format!("{spec_hash:016x}")
}

fn lease_path(claims: &Path, key: &str) -> PathBuf {
    claims.join(format!("{key}.lease"))
}

fn marker_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// Count a spec's tombstones — its takeover generation.
fn generation(claims: &Path, key: &str) -> io::Result<u32> {
    let prefix = format!("{key}.dead-");
    let mut n = 0;
    for entry in std::fs::read_dir(claims)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            n += 1;
        }
    }
    Ok(n)
}

/// Create `path` only if nothing exists there (`O_CREAT | O_EXCL`): the
/// open flags `File::create_new` uses, spelled out for the MSRV.
fn create_new(path: &Path) -> io::Result<std::fs::File> {
    std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(path)
}

/// Claim a lease via `O_EXCL` creation. Exactly one of N racing
/// claimants succeeds; everyone else gets `AlreadyExists`.
fn create_new_lease(path: &Path, lease: &Lease) -> io::Result<()> {
    use std::io::Write as _;
    let json = serde_json::to_string(lease)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut file = create_new(path)?;
    file.write_all(json.as_bytes())?;
    file.sync_all()
}

/// Shared state between a worker's claim loop and its heartbeat thread.
struct HeartbeatShared {
    /// Held leases: spec hash → (lease path, lease).
    held: Mutex<HashMap<u64, (PathBuf, Lease)>>,
    /// When set, renewals stop (the hang injection) but held leases
    /// stay on disk — exactly what a wedged worker looks like.
    hang: AtomicBool,
}

/// The lease-renewal supervisor: rewrites every held lease (beat + 1)
/// through [`commit_file`] each period.
///
/// The thread waits out each period on a channel nobody sends on, so
/// dropping the `Heartbeat` disconnects it and wakes the thread at once
/// instead of after the rest of a period.
struct Heartbeat {
    shared: Arc<HeartbeatShared>,
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn spawn(period: Duration) -> Heartbeat {
        let shared = Arc::new(HeartbeatShared {
            held: Mutex::new(HashMap::new()),
            hang: AtomicBool::new(false),
        });
        let inner = Arc::clone(&shared);
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                if inner.hang.load(Ordering::Relaxed) {
                    continue;
                }
                let mut held = inner.held.lock().unwrap_or_else(|e| e.into_inner());
                for (path, lease) in held.values_mut() {
                    lease.beat += 1;
                    if let Ok(json) = serde_json::to_string(lease) {
                        // A failed renewal is indistinguishable from a slow
                        // one; observers handle both via the TTL.
                        let _ = commit_file(path, json.as_bytes());
                    }
                }
            }
        });
        Heartbeat { shared, stop: Some(stop), thread: Some(thread) }
    }

    fn hold(&self, spec_hash: u64, path: PathBuf, lease: Lease) {
        self.shared
            .held
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(spec_hash, (path, lease));
    }

    /// Stop renewing a lease. A renewal in flight holds the lock, so once
    /// this returns the lease file is never rewritten again.
    fn release(&self, spec_hash: u64) {
        self.shared.held.lock().unwrap_or_else(|e| e.into_inner()).remove(&spec_hash);
    }

    /// Abandon a held lease by renaming it to `tomb`. Releasing first
    /// matters: a renewal landing after the rename would commit a fresh
    /// lease back into `claims/` that nobody renews.
    fn tombstone(&self, spec_hash: u64, lease: &Path, tomb: &Path) {
        self.release(spec_hash);
        let _ = std::fs::rename(lease, tomb);
    }

    fn hang(&self) {
        self.shared.hang.store(true, Ordering::Relaxed);
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        // Disconnecting wakes the thread mid-wait.
        self.stop.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Observer-side lease staleness tracking: a lease is stale when its
/// bytes have not changed for longer than the TTL. Times are local
/// `Instant`s — no cross-process clock comparison.
struct StaleTracker {
    seen: HashMap<u64, (Vec<u8>, Instant)>,
    ttl: Duration,
}

impl StaleTracker {
    fn new(ttl: Duration) -> StaleTracker {
        StaleTracker { seen: HashMap::new(), ttl }
    }

    /// Record an observation of a lease's bytes; true once they have
    /// been unchanged beyond the TTL.
    fn observe(&mut self, id: u64, bytes: &[u8]) -> bool {
        let now = Instant::now();
        match self.seen.get_mut(&id) {
            Some((prev, first)) if prev.as_slice() == bytes => now.duration_since(*first) > self.ttl,
            Some(slot) => {
                *slot = (bytes.to_vec(), now);
                false
            }
            None => {
                self.seen.insert(id, (bytes.to_vec(), now));
                false
            }
        }
    }

    fn forget(&mut self, id: u64) {
        self.seen.remove(&id);
    }
}

/// Run one worker process's share of the job in `dir` until every spec
/// has a `done/` or `failed/` marker. `allow_hang` gates the
/// [`HANG_ENV`] injection (the coordinator's in-process final sweep
/// passes `false` so the safety net can never wedge).
///
/// This is the whole worker protocol: adopt validated prior checkpoint
/// entries, then loop claim-wave → run-wave → commit, taking over stale
/// leases with revalidation. It is deliberately runnable in-process
/// (final sweep, single-worker tests) as well as from the
/// `midband5g-worker` bench bin and the test harness's self-spawned
/// processes.
pub fn run_worker(dir: &Path, worker_id: &str, allow_hang: bool) -> io::Result<WorkerReport> {
    let _span = obs::span("dist.worker");
    let manifest: DistManifest = serde_json::from_str(
        &std::fs::read_to_string(dir.join("campaign.json"))?,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let job = manifest.job;
    let timing = manifest.timing;
    let specs = job.specs();
    let hashes: Vec<u64> = specs.iter().map(|s| s.stable_hash()).collect();
    let keys: Vec<String> = hashes.iter().map(|&h| hash_key(h)).collect();
    let claims = dir.join("claims");
    let done = dir.join("done");
    let failed = dir.join("failed");
    for d in [&claims, &done, &failed, &dir.join("obs")] {
        std::fs::create_dir_all(d)?;
    }
    let ds = Dataset::at(dir);
    let mut report = WorkerReport { worker: worker_id.to_string(), ..WorkerReport::default() };
    let reg = obs::registry();

    // Adopt verified prior work (e.g. a partial single-process run over
    // the same dir): every validated checkpoint entry becomes a done
    // marker, so no worker re-runs it. Racing adopters commit identical
    // bytes.
    let (_cached, prior) = campaign::resume_prior(dir, &specs);
    for entry in prior {
        let marker = marker_path(&done, &keys[entry.index as usize]);
        if !marker.exists() {
            commit_file(&marker, pretty(&entry)?.as_bytes())?;
            report.adopted += 1;
        }
    }

    let heartbeat = Heartbeat::spawn(Duration::from_millis(timing.heartbeat_ms));
    let mut stale = StaleTracker::new(timing.ttl());
    let plan = job.plan(timing.worker_threads);
    let wave_cap = timing.worker_threads.max(1) * 2;
    let hang_index: Option<usize> = if allow_hang {
        std::env::var(HANG_ENV).ok().and_then(|v| v.trim().parse().ok())
    } else {
        None
    };

    loop {
        // Claim pass, spec order.
        let mut claimed: Vec<(usize, u32)> = Vec::new();
        let mut all_settled = true;
        for (i, spec) in specs.iter().enumerate() {
            let key = &keys[i];
            if marker_path(&done, key).exists() || marker_path(&failed, key).exists() {
                continue;
            }
            all_settled = false;
            if claimed.len() >= wave_cap {
                continue;
            }
            let lease = lease_path(&claims, key);
            let mut gen = generation(&claims, key)?;
            let chaos = CheckpointFaultPlan::for_spec(spec, &job.ckpt_faults);

            // Chaos: tear checkpoint.json once, at first claim attempt.
            if gen == 0
                && chaos.torn_manifest
                && create_new(&claims.join(format!("{key}.torn"))).is_ok()
            {
                // Deliberately non-atomic: this *is* the torn write.
                let _ = std::fs::write(dir.join("checkpoint.json"), br#"{"entries": [{"name": "torn"#);
                report.torn_manifests += 1;
                reg.counter("dist.torn_manifests").inc();
            }
            // Chaos: plant a ghost lease that will never beat, forcing
            // the expiry/takeover path for this spec.
            if gen == 0 && chaos.stale_lease && !lease.exists() {
                let ghost = Lease {
                    worker: "ghost".to_string(),
                    spec_hash: hashes[i],
                    generation: 0,
                    beat: 0,
                };
                if create_new_lease(&lease, &ghost).is_ok() {
                    report.planted_leases += 1;
                    reg.counter("dist.planted_leases").inc();
                    continue;
                }
            }

            if let Ok(bytes) = std::fs::read(&lease) {
                if !stale.observe(hashes[i], &bytes) {
                    continue;
                }
                // Stale: tombstone it. Exactly one racer wins the
                // rename; the loser just re-observes next pass.
                let tomb = claims.join(format!("{key}.dead-{gen}-{worker_id}"));
                if std::fs::rename(&lease, &tomb).is_err() {
                    stale.forget(hashes[i]);
                    continue;
                }
                stale.forget(hashes[i]);
                let owner = serde_json::from_str::<Lease>(&String::from_utf8_lossy(&bytes))
                    .map(|l| l.worker)
                    .unwrap_or_else(|_| "<torn>".to_string());
                if owner != worker_id {
                    report.lease_takeovers += 1;
                    report.workers_lost_observed += 1;
                    reg.counter("dist.lease_takeovers").inc();
                    reg.counter("dist.workers_lost").inc();
                    if audit::enabled() {
                        audit::violation(Invariant::LeaseTakeover);
                        audit::violation(Invariant::WorkerLost);
                    }
                }
                gen += 1;
            }

            if gen > timing.takeover_budget {
                // Cross-process retry budget exhausted: abandon
                // deterministically instead of ping-ponging forever.
                let failure = SessionFailure {
                    index: i as u64,
                    spec: *spec,
                    attempts: gen,
                    reason: format!("lease takeover budget exhausted after {gen} generations"),
                };
                commit_file(&marker_path(&failed, key), pretty(&failure)?.as_bytes())?;
                report.failed += 1;
                continue;
            }
            if gen > 0 {
                // Deterministic backoff: later generations claim later,
                // giving an alive-but-slow owner time to finish.
                std::thread::sleep(Duration::from_millis(timing.backoff_ms * u64::from(gen)));
            }
            let mine = Lease {
                worker: worker_id.to_string(),
                spec_hash: hashes[i],
                generation: gen,
                beat: 0,
            };
            if create_new_lease(&lease, &mine).is_err() {
                continue; // raced; someone else claimed
            }
            // Revalidate after winning the claim: the previous owner may
            // have finished between our staleness check and now.
            if marker_path(&done, key).exists() {
                heartbeat.release(hashes[i]);
                let _ = std::fs::remove_file(&lease);
                continue;
            }
            // Salvage: a session file without its done marker is a torn
            // or orphaned commit — re-run it, never trust it.
            if dir
                .join("sessions")
                .join(Dataset::session_file_name_for(i, spec))
                .exists()
            {
                report.salvaged += 1;
                reg.counter("dist.salvaged_sessions").inc();
            }
            heartbeat.hold(hashes[i], lease.clone(), mine);
            claimed.push((i, gen));
        }

        if all_settled {
            break;
        }

        // Hang injection: wedge *before* running the wave, holding every
        // claimed lease with a dead heartbeat — the deterministic stand-in
        // for a worker that was SIGKILLed mid-wave.
        if let Some(hi) = hang_index {
            if claimed.iter().any(|&(i, g)| i == hi && g == 0) {
                heartbeat.hang();
                loop {
                    std::thread::sleep(Duration::from_secs(60));
                }
            }
        }

        if claimed.is_empty() {
            std::thread::sleep(Duration::from_millis(timing.poll_ms));
            continue;
        }

        // Run the wave through the same body as `Plan::run`. The
        // committing attempt per spec is a pure function of its fault
        // plan, so the persisted FaultStats — and therefore every
        // checkpoint entry byte — match the single-process run exactly.
        let wave: Vec<usize> = claimed.iter().map(|&(i, _)| i).collect();
        let out = plan.run_wave(&specs, &wave, &Traces);
        for (result, coverage) in out.results.iter().zip(out.coverage) {
            let i = coverage.index as usize;
            let key = &keys[i];
            let lease = lease_path(&claims, key);
            let gen = claimed.iter().find(|&&(c, _)| c == i).map_or(0, |&(_, g)| g);
            let chaos = CheckpointFaultPlan::for_spec(&specs[i], &job.ckpt_faults);
            let entry = CheckpointEntry::write(&ds, result, coverage)?;
            if gen == 0 && chaos.truncate_session {
                // Chaos: tear our own commit in half and abandon the
                // lease — the next generation salvages it.
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join("sessions").join(&entry.name))?;
                let len = file.metadata()?.len();
                file.set_len(len / 2)?;
                report.truncated_commits += 1;
                reg.counter("dist.truncated_commits").inc();
                let tomb = claims.join(format!("{key}.dead-{gen}-{worker_id}"));
                heartbeat.tombstone(hashes[i], &lease, &tomb);
                continue;
            }
            commit_file(&marker_path(&done, key), pretty(&entry)?.as_bytes())?;
            report.committed += 1;
            reg.counter("dist.committed_sessions").inc();
            heartbeat.release(hashes[i]);
            let _ = std::fs::remove_file(&lease);
        }
        for failure in &out.failures {
            let key = &keys[failure.index as usize];
            commit_file(&marker_path(&failed, key), pretty(failure)?.as_bytes())?;
            report.failed += 1;
            heartbeat.release(hashes[failure.index as usize]);
            let _ = std::fs::remove_file(lease_path(&claims, key));
        }
    }

    report.unexpected_violations = unexpected_violations();
    commit_file(
        &dir.join("obs").join(format!("worker-{worker_id}.json")),
        pretty(&report)?.as_bytes(),
    )?;
    Ok(report)
}

/// Audit violations outside the distributed-expected set.
fn unexpected_violations() -> u64 {
    audit::INVARIANTS
        .iter()
        .filter(|inv| !inv.dist_expected())
        .map(|&inv| audit::count(inv))
        .sum()
}

/// Count one lost worker process: in `stats`, in the `dist.workers_lost`
/// counter and, under audit, as a [`Invariant::WorkerLost`] violation.
fn count_lost_worker(stats: &mut DistStats) {
    stats.workers_lost += 1;
    obs::registry().counter("dist.workers_lost").inc();
    if audit::enabled() {
        audit::violation(Invariant::WorkerLost);
    }
}

/// Run `job` in `dir` across `config.workers` local worker processes
/// spawned by `spawn(dir, worker_id)`, supervising heartbeats and
/// killing wedged children, then merge the finished directory into one
/// loadable [`Dataset`] byte-identical to the single-process run.
///
/// With `workers <= 1` this degrades gracefully to
/// [`Plan::run_checkpointed`] — same directory layout, same bytes, no
/// scaffolding.
pub fn run_distributed(
    dir: &Path,
    job: &DistJob,
    config: &DistConfig,
    spawn: &mut dyn FnMut(&Path, &str) -> io::Result<Child>,
) -> io::Result<DistOutcome> {
    let _span = obs::span("dist.coordinate");
    let specs = job.specs();
    let hashes: Vec<u64> = specs.iter().map(|s| s.stable_hash()).collect();
    {
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != hashes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "duplicate session specs in distributed job (colliding stable hashes)",
            ));
        }
    }

    if config.workers <= 1 {
        let outcome = job.plan(config.timing.worker_threads).run_checkpointed(
            dir,
            &specs,
            &job.description(),
        )?;
        let stats = DistStats { workers_spawned: 1, ..DistStats::default() };
        return Ok(DistOutcome { outcome, stats, reports: Vec::new() });
    }

    std::fs::create_dir_all(dir)?;
    for sub in ["claims", "done", "failed", "obs", "sessions"] {
        std::fs::create_dir_all(dir.join(sub))?;
    }
    let dist_manifest = DistManifest { job: job.clone(), timing: config.timing };
    commit_file(&dir.join("campaign.json"), pretty(&dist_manifest)?.as_bytes())?;

    let reg = obs::registry();
    let mut stats = DistStats::default();
    let mut children: Vec<(String, Child, bool)> = Vec::new(); // (id, child, loss_counted)
    let mut next_worker = 0u32;
    let mut spawn_one = |children: &mut Vec<(String, Child, bool)>,
                         stats: &mut DistStats,
                         next: &mut u32|
     -> io::Result<()> {
        *next += 1;
        let id = format!("w{next}");
        let child = spawn(dir, &id)?;
        stats.workers_spawned += 1;
        reg.counter("dist.workers_spawned").inc();
        children.push((id, child, false));
        Ok(())
    };
    for _ in 0..config.workers {
        spawn_one(&mut children, &mut stats, &mut next_worker)?;
    }

    let claims = dir.join("claims");
    let done = dir.join("done");
    let failed = dir.join("failed");
    let keys: Vec<String> = hashes.iter().map(|&h| hash_key(h)).collect();
    let settled = |keys: &[String]| {
        keys.iter()
            .all(|key| marker_path(&done, key).exists() || marker_path(&failed, key).exists())
    };
    let mut tracker = StaleTracker::new(config.timing.ttl());
    let deadline = Instant::now() + Duration::from_millis(config.max_runtime_ms);
    let poll = Duration::from_millis(config.timing.poll_ms);

    while !settled(&keys) {
        if Instant::now() > deadline {
            break;
        }
        // Reap exited children; a non-success exit is a lost worker.
        let mut lost = 0u32;
        for (_, child, counted) in children.iter_mut() {
            if *counted {
                continue;
            }
            if let Ok(Some(status)) = child.try_wait() {
                *counted = true;
                if !status.success() {
                    lost += 1;
                    count_lost_worker(&mut stats);
                }
            }
        }
        // Stall-kill: a lease whose bytes stopped changing past the TTL
        // names its owner; if that owner is one of our live children it
        // is wedged, not dead — SIGKILL it so the takeover the workers
        // are already performing also frees the process.
        if let Ok(entries) = std::fs::read_dir(&claims) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !name.ends_with(".lease") {
                    continue;
                }
                let Ok(bytes) = std::fs::read(entry.path()) else { continue };
                let Ok(lease) = serde_json::from_str::<Lease>(&String::from_utf8_lossy(&bytes))
                else {
                    continue;
                };
                if !tracker.observe(lease.spec_hash, &bytes) {
                    continue;
                }
                tracker.forget(lease.spec_hash);
                if let Some((_, child, counted)) = children
                    .iter_mut()
                    .find(|(id, _, counted)| !counted && *id == lease.worker)
                {
                    let _ = child.kill();
                    let _ = child.wait();
                    *counted = true;
                    lost += 1;
                    count_lost_worker(&mut stats);
                }
            }
        }
        // Replace lost workers within the respawn budget.
        for _ in 0..lost {
            if stats.respawns < config.respawn_budget {
                stats.respawns += 1;
                reg.counter("dist.respawns").inc();
                spawn_one(&mut children, &mut stats, &mut next_worker)?;
            }
        }
        std::thread::sleep(poll);
    }

    // Give clean workers a grace period to notice completion and exit,
    // then SIGKILL stragglers (e.g. a wedged worker whose lease was
    // already taken over before we observed it).
    let drain = obs::span("dist.drain");
    let grace = Duration::from_millis((2 * config.timing.lease_ttl_ms).max(2000));
    let grace_deadline = Instant::now() + grace;
    for (_, child, counted) in children.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !*counted && !status.success() {
                        *counted = true;
                        count_lost_worker(&mut stats);
                    }
                    break;
                }
                _ if Instant::now() > grace_deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    if !*counted {
                        *counted = true;
                        count_lost_worker(&mut stats);
                    }
                    break;
                }
                _ => std::thread::sleep(poll),
            }
        }
    }
    drop(drain);

    // Safety net: if the children died or the deadline fired before the
    // job settled, finish the remainder in-process (hang injection off).
    let mut reports: Vec<WorkerReport> = Vec::new();
    if !settled(&keys) {
        reports.push(run_worker(dir, "coordinator", false)?);
    }

    // Aggregate surviving worker reports (killed workers leave none —
    // survivors redid their work, so the merge below stays complete).
    if let Ok(entries) = std::fs::read_dir(dir.join("obs")) {
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("worker-"))
                    .unwrap_or(false)
            })
            .collect();
        paths.sort();
        for path in paths {
            let Ok(json) = std::fs::read_to_string(&path) else { continue };
            let Ok(report) = serde_json::from_str::<WorkerReport>(&json) else { continue };
            if !reports.iter().any(|r| r.worker == report.worker) {
                reports.push(report);
            }
        }
    }
    for r in &reports {
        stats.lease_takeovers += r.lease_takeovers;
        stats.salvaged_sessions += r.salvaged;
        stats.unexpected_violations += r.unexpected_violations;
        if audit::enabled() {
            for _ in 0..r.lease_takeovers {
                audit::violation(Invariant::LeaseTakeover);
            }
        }
    }
    reg.counter("dist.lease_takeovers").add(stats.lease_takeovers);

    let merge = obs::span("dist.merge");
    let (entries, failures) = merge_finished(dir, job, &specs, &keys)?;
    // The workers have exited, so their CPUs are free for the reload;
    // `map` keeps spec order.
    let ds = Dataset::at(dir);
    let results = Executor::new(config.workers as usize)
        .map(&entries, |entry| ds.load_session(&entry.name))
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
    let coverage = entries
        .iter()
        .map(|entry| SessionCoverage { index: entry.index, stats: entry.stats })
        .collect();
    drop(merge);
    Ok(DistOutcome {
        outcome: CampaignOutcome { results, failures, coverage },
        stats,
        reports,
    })
}

/// Merge a settled checkpoint dir: collect the per-spec `done/` markers
/// into sorted [`CheckpointEntry`]s, write the final manifests through
/// the shared [`write_final_manifests`] writer, and strip every piece
/// of coordination scaffolding so the directory tree is byte-identical
/// to a single-process [`Plan::run_checkpointed`] output.
fn merge_finished(
    dir: &Path,
    job: &DistJob,
    specs: &[SessionSpec],
    keys: &[String],
) -> io::Result<(Vec<CheckpointEntry>, Vec<SessionFailure>)> {
    let done = dir.join("done");
    let failed = dir.join("failed");
    let mut entries: Vec<CheckpointEntry> = Vec::new();
    let mut failures: Vec<SessionFailure> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let done_marker = marker_path(&done, key);
        if let Ok(json) = std::fs::read_to_string(&done_marker) {
            let entry: CheckpointEntry = serde_json::from_str(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            entries.push(entry);
            continue;
        }
        if let Ok(json) = std::fs::read_to_string(marker_path(&failed, key)) {
            let failure: SessionFailure = serde_json::from_str(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            failures.push(failure);
            continue;
        }
        return Err(io::Error::other(format!(
            "spec {i} has neither a done nor a failed marker; merge refused"
        )));
    }
    entries.sort_by_key(|e| e.index);
    failures.sort_by_key(|f| f.index);
    debug_assert_eq!(entries.len() + failures.len(), specs.len());

    write_final_manifests(dir, &entries, &job.description())?;

    // Strip the coordination scaffolding and any torn `.tmp-<pid>`
    // leftovers from killed workers, leaving exactly the single-process
    // layout: sessions/ + checkpoint.json + manifest.json.
    for sub in ["claims", "done", "failed", "obs"] {
        let _ = std::fs::remove_dir_all(dir.join(sub));
    }
    let _ = std::fs::remove_file(dir.join("campaign.json"));
    for scan in [dir.to_path_buf(), dir.join("sessions")] {
        if let Ok(items) = std::fs::read_dir(&scan) {
            for item in items.flatten() {
                if item.file_name().to_string_lossy().contains(".tmp-") {
                    let _ = std::fs::remove_file(item.path());
                }
            }
        }
    }
    Ok((entries, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::Operator;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("midband5g-dist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lease_claim_is_exclusive() {
        let dir = tmpdir("claim");
        let path = lease_path(&dir, "abc");
        let lease = Lease { worker: "w1".into(), spec_hash: 1, generation: 0, beat: 0 };
        assert!(create_new_lease(&path, &lease).is_ok());
        assert!(create_new_lease(&path, &lease).is_err(), "second claim must lose");
        let back: Lease =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, lease);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tracker_requires_unchanged_bytes_past_ttl() {
        let mut t = StaleTracker::new(Duration::from_millis(30));
        assert!(!t.observe(1, b"a"), "first sight is never stale");
        std::thread::sleep(Duration::from_millis(45));
        assert!(t.observe(1, b"a"), "unchanged past TTL is stale");
        assert!(!t.observe(1, b"b"), "changed bytes reset the clock");
        std::thread::sleep(Duration::from_millis(45));
        assert!(t.observe(1, b"b"));
        t.forget(1);
        assert!(!t.observe(1, b"b"), "forgotten leases start over");
    }

    #[test]
    fn generation_counts_tombstones() {
        let dir = tmpdir("gen");
        assert_eq!(generation(&dir, "k").unwrap(), 0);
        std::fs::write(dir.join("k.dead-0-w1"), b"").unwrap();
        std::fs::write(dir.join("k.dead-1-w2"), b"").unwrap();
        std::fs::write(dir.join("other.dead-0-w1"), b"").unwrap();
        std::fs::write(dir.join("k.lease"), b"").unwrap();
        assert_eq!(generation(&dir, "k").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn read_lease(path: &Path) -> Lease {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// A heartbeat holding one freshly claimed lease at `dir/k.lease`.
    fn held_lease(dir: &Path, period: Duration) -> (Heartbeat, PathBuf) {
        let path = lease_path(dir, "k");
        let lease = Lease { worker: "w1".into(), spec_hash: 1, generation: 0, beat: 0 };
        create_new_lease(&path, &lease).unwrap();
        let heartbeat = Heartbeat::spawn(period);
        heartbeat.hold(1, path.clone(), lease);
        (heartbeat, path)
    }

    #[test]
    fn heartbeat_drop_does_not_wait_out_the_period() {
        let dir = tmpdir("hb-drop");
        let (heartbeat, _) = held_lease(&dir, Duration::from_secs(3600));
        let start = Instant::now();
        drop(heartbeat);
        assert!(start.elapsed() < Duration::from_secs(1), "drop took {:?}", start.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_renews_held_leases_every_period() {
        let dir = tmpdir("hb-beat");
        let (_heartbeat, path) = held_lease(&dir, Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(200));
        let beat = read_lease(&path).beat;
        assert!(beat >= 2, "only {beat} renewals in 200 ms at a 20 ms period");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_heartbeat_leaves_lease_bytes_unchanged() {
        let dir = tmpdir("hb-hang");
        let period = Duration::from_millis(10);
        let (heartbeat, path) = held_lease(&dir, period);
        while read_lease(&path).beat == 0 {
            std::thread::sleep(period);
        }
        heartbeat.hang();
        // Let a renewal that was already past the hang check land.
        std::thread::sleep(2 * period);
        let frozen = std::fs::read(&path).unwrap();
        std::thread::sleep(10 * period);
        assert_eq!(std::fs::read(&path).unwrap(), frozen, "a hung heartbeat renewed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn released_lease_is_never_rewritten() {
        let dir = tmpdir("hb-release");
        let period = Duration::from_millis(5);
        let (heartbeat, path) = held_lease(&dir, period);
        while read_lease(&path).beat == 0 {
            std::thread::sleep(period);
        }
        heartbeat.release(1);
        std::fs::remove_file(&path).unwrap();
        std::thread::sleep(20 * period);
        assert!(!path.exists(), "a released lease was rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstoned_lease_never_reappears() {
        // The truncate-chaos path abandons its own lease while the
        // heartbeat is renewing it; a renewal must never resurrect it.
        let dir = tmpdir("hb-tomb");
        let path = lease_path(&dir, "k");
        let heartbeat = Heartbeat::spawn(Duration::from_millis(1));
        for round in 0..300u64 {
            let lease = Lease { worker: "w1".into(), spec_hash: 1, generation: 0, beat: 0 };
            create_new_lease(&path, &lease)
                .unwrap_or_else(|e| panic!("round {round}: lease resurrected ({e})"));
            heartbeat.hold(1, path.clone(), lease);
            std::thread::sleep(Duration::from_micros(round % 7 * 300));
            heartbeat.tombstone(1, &path, &dir.join(format!("k.dead-{round}-w1")));
            assert!(!path.exists(), "round {round}: lease resurrected");
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!path.exists(), "lease resurrected after the last round");
        drop(heartbeat);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_worker_degrades_to_checkpointed_run() {
        let job = DistJob::new(vec![Campaign {
            operator: Operator::TMobileUs,
            sessions: 3,
            session_duration_s: 1.0,
            base_seed: 77,
        }]);
        let dist_dir = tmpdir("degrade-dist");
        let seq_dir = tmpdir("degrade-seq");
        let config = DistConfig { workers: 1, ..DistConfig::default() };
        let mut no_spawn =
            |_: &Path, _: &str| -> io::Result<Child> { unreachable!("workers<=1 never spawns") };
        let out = run_distributed(&dist_dir, &job, &config, &mut no_spawn).unwrap();
        assert_eq!(out.outcome.results.len(), 3);
        assert_eq!(out.stats.workers_spawned, 1);
        let baseline = job
            .plan(2)
            .run_checkpointed(&seq_dir, &job.specs(), &job.campaigns[0].checkpoint_description())
            .unwrap();
        assert_eq!(out.outcome.results, baseline.results);
        assert_eq!(
            std::fs::read(dist_dir.join("checkpoint.json")).unwrap(),
            std::fs::read(seq_dir.join("checkpoint.json")).unwrap()
        );
        assert_eq!(
            std::fs::read(dist_dir.join("manifest.json")).unwrap(),
            std::fs::read(seq_dir.join("manifest.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dist_dir);
        let _ = std::fs::remove_dir_all(&seq_dir);
    }

    #[test]
    fn duplicate_specs_are_rejected() {
        let c = Campaign {
            operator: Operator::AttUs,
            sessions: 2,
            session_duration_s: 1.0,
            base_seed: 9,
        };
        let job = DistJob::new(vec![c, c]);
        let dir = tmpdir("dup");
        let mut no_spawn = |_: &Path, _: &str| -> io::Result<Child> { unreachable!() };
        let err =
            run_distributed(&dir, &job, &DistConfig::default(), &mut no_spawn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_process_worker_completes_a_job_and_merges() {
        // One in-process "worker" (no child processes) exercises the
        // whole claim → run → commit → merge protocol.
        let job = DistJob::new(vec![
            Campaign {
                operator: Operator::VodafoneSpain,
                sessions: 2,
                session_duration_s: 1.0,
                base_seed: 31,
            },
            Campaign {
                operator: Operator::VodafoneItaly,
                sessions: 2,
                session_duration_s: 1.0,
                base_seed: 32,
            },
        ]);
        let dir = tmpdir("inproc");
        for sub in ["claims", "done", "failed", "obs", "sessions"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        let manifest = DistManifest { job: job.clone(), timing: DistTiming::default() };
        commit_file(&dir.join("campaign.json"), pretty(&manifest).unwrap().as_bytes()).unwrap();
        let report = run_worker(&dir, "solo", false).unwrap();
        assert_eq!(report.committed, 4);
        assert_eq!(report.failed, 0);
        assert_eq!(report.unexpected_violations, 0);
        let specs = job.specs();
        let keys: Vec<String> =
            specs.iter().map(|s| hash_key(s.stable_hash())).collect();
        let (entries, failures) = merge_finished(&dir, &job, &specs, &keys).unwrap();
        assert_eq!(entries.len(), 4);
        assert!(failures.is_empty());
        assert!(!dir.join("claims").exists(), "scaffolding stripped");
        assert!(!dir.join("campaign.json").exists());
        // The merged dir is a loadable dataset.
        let loaded = Dataset::at(&dir).load_all().unwrap();
        assert_eq!(loaded.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
