//! The distributed-campaign contract (DESIGN.md §5.10).
//!
//! A campaign sharded across worker *processes* cooperating through
//! file leases on a shared checkpoint directory must merge to a dataset
//! byte-identical to the single-process run — for every worker count,
//! and even when a worker is wedged mid-wave (stops heartbeating) and
//! SIGKILLed by the coordinator, with the takeover counted and nothing
//! outside the distributed-expected audit set firing.
//!
//! Worker processes are this very test binary re-executed with
//! `worker_entry_point --exact` and the checkpoint dir passed through
//! `MIDBAND5G_WORKER_DIR` — no helper binaries needed under `cargo
//! test`.

use midband5g::measure::campaign::Campaign;
use midband5g::measure::dist::{run_distributed, DistConfig, DistJob, DistTiming, HANG_ENV};
use midband5g::measure::fault::{CheckpointFaultConfig, FaultConfig};
use midband5g::measure::Dataset;
use midband5g::operators::Operator;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::{Arc, Barrier};

/// Mild in-session chaos: exercises the resilient-executor paths inside
/// each worker without abandoning sessions.
const FAULTS: FaultConfig =
    FaultConfig { gap_rate: 0.3, abort_rate: 0.1, corrupt_rate: 0.01, panic_rate: 0.2 };

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midband5g-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job() -> DistJob {
    DistJob {
        campaigns: vec![
            Campaign {
                operator: Operator::OrangeFrance,
                sessions: 4,
                session_duration_s: 1.0,
                base_seed: 9100,
            },
            Campaign {
                operator: Operator::AttUs,
                sessions: 4,
                session_duration_s: 1.0,
                base_seed: 9200,
            },
        ],
        faults: FAULTS,
        ckpt_faults: CheckpointFaultConfig::default(),
        retry_budget: midband5g::measure::DEFAULT_RETRY_BUDGET,
    }
}

fn timing() -> DistTiming {
    DistTiming {
        lease_ttl_ms: 800,
        heartbeat_ms: 100,
        poll_ms: 50,
        backoff_ms: 25,
        takeover_budget: 5,
        worker_threads: 2,
    }
}

/// Spawn this test binary as a worker process, filtered down to
/// [`worker_entry_point`], with the checkpoint dir and identity in env.
fn spawn_self(dir: &Path, id: &str, hang: Option<usize>) -> io::Result<Child> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("worker_entry_point")
        .arg("--exact")
        .arg("--nocapture")
        .env("MIDBAND5G_WORKER_DIR", dir)
        .env("MIDBAND5G_WORKER_ID", id)
        .env("MIDBAND5G_AUDIT", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    match hang {
        Some(index) => cmd.env(HANG_ENV, index.to_string()),
        None => cmd.env_remove(HANG_ENV),
    };
    cmd.spawn()
}

/// Snapshot a finished checkpoint dir as `relative path → bytes`.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel =
                    path.strip_prefix(root).expect("under root").to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn assert_trees_identical(reference: &BTreeMap<String, Vec<u8>>, dir: &Path, label: &str) {
    let got = tree(dir);
    let ref_keys: Vec<&String> = reference.keys().collect();
    let got_keys: Vec<&String> = got.keys().collect();
    assert_eq!(ref_keys, got_keys, "{label}: file sets differ");
    for (key, bytes) in reference {
        assert_eq!(&got[key], bytes, "{label}: {key} differs from the sequential run");
    }
}

/// The worker side of [`three_workers_survive_a_mid_wave_kill`]: a
/// no-op under a normal `cargo test` sweep, a full lease-claiming
/// worker when re-executed by the coordinator with the env set.
#[test]
fn worker_entry_point() {
    let Ok(dir) = std::env::var("MIDBAND5G_WORKER_DIR") else { return };
    let id = std::env::var("MIDBAND5G_WORKER_ID").unwrap_or_else(|_| "w?".to_string());
    midband5g::measure::dist::run_worker(Path::new(&dir), &id, true).expect("worker run");
}

#[test]
fn three_workers_survive_a_mid_wave_kill_and_merge_byte_identically() {
    let job = job();
    let total = job.specs().len();

    // Single-process reference: the workers=1 degradation path, which
    // is `Plan::run_checkpointed` verbatim.
    let ref_dir = tmpdir("ref");
    let reference = run_distributed(
        &ref_dir,
        &job,
        &DistConfig { workers: 1, timing: timing(), ..DistConfig::default() },
        &mut |dir, id| spawn_self(dir, id, None),
    )
    .expect("sequential reference");
    assert_eq!(
        reference.outcome.results.len() + reference.outcome.failures.len(),
        total,
        "reference partitions the job"
    );
    let ref_tree = tree(&ref_dir);
    assert!(ref_tree.contains_key("checkpoint.json"), "reference wrote a checkpoint manifest");
    assert!(ref_tree.contains_key("manifest.json"), "reference wrote a dataset manifest");

    // Two healthy workers.
    let dir2 = tmpdir("w2");
    let two = run_distributed(
        &dir2,
        &job,
        &DistConfig {
            workers: 2,
            timing: timing(),
            respawn_budget: 1,
            max_runtime_ms: 240_000,
        },
        &mut |dir, id| spawn_self(dir, id, None),
    )
    .expect("2-worker run");
    assert_trees_identical(&ref_tree, &dir2, "2 workers");
    assert_eq!(two.stats.unexpected_violations, 0, "2 workers: {:?}", two.stats);

    // Three workers, one wedged mid-wave: the generation-0 claimant of
    // spec `total / 3` stops heartbeating, survivors take its leases
    // over, and the coordinator SIGKILLs the stalled process.
    let dir3 = tmpdir("w3-kill");
    let three = run_distributed(
        &dir3,
        &job,
        &DistConfig {
            workers: 3,
            timing: timing(),
            respawn_budget: 1,
            max_runtime_ms: 240_000,
        },
        &mut |dir, id| spawn_self(dir, id, Some(total / 3)),
    )
    .expect("3-worker run with kill");
    assert_trees_identical(&ref_tree, &dir3, "3 workers + kill");
    assert!(
        three.stats.lease_takeovers >= 1,
        "a wedged worker's lease must be taken over: {:?}",
        three.stats
    );
    assert!(
        three.stats.workers_lost >= 1,
        "the wedged worker must be counted lost: {:?}",
        three.stats
    );
    assert_eq!(three.stats.unexpected_violations, 0, "3 workers: {:?}", three.stats);

    // The merged directory is a loadable dataset with every committed
    // session present.
    let loaded = Dataset::at(&dir3).load_all().expect("merged dir loads as a dataset");
    assert_eq!(loaded.len(), reference.outcome.results.len());

    for dir in [ref_dir, dir2, dir3] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Race `racers` threads at one closure; return how many succeeded.
fn race<F: Fn() -> bool + Send + Sync + 'static>(racers: usize, f: F) -> usize {
    let f = Arc::new(f);
    let barrier = Arc::new(Barrier::new(racers));
    let handles: Vec<_> = (0..racers)
        .map(|_| {
            let f = Arc::clone(&f);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                f()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("racer")).filter(|&ok| ok).count()
}

proptest! {
    /// O_EXCL claims: however many workers race the same lease path,
    /// exactly one `create_new` wins, and re-claiming after a release
    /// (idempotent reclaim) wins exactly once again.
    #[test]
    fn lease_claim_has_exactly_one_winner(racers in 2usize..9, hash in 0u64..u64::MAX) {
        let dir = tmpdir(&format!("claim-{hash:016x}"));
        std::fs::create_dir_all(&dir).expect("claims dir");
        let path = dir.join(format!("{hash:016x}.lease"));

        let target = path.clone();
        let winners = race(racers, move || {
            std::fs::File::create_new(&target).is_ok()
        });
        prop_assert_eq!(winners, 1, "O_EXCL must admit exactly one claimant");

        // Release (the worker finished) and reclaim: exclusive again.
        std::fs::remove_file(&path).expect("release");
        let target = path.clone();
        let winners = race(racers, move || std::fs::File::create_new(&target).is_ok());
        prop_assert_eq!(winners, 1, "reclaim after release must be exclusive too");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Takeover: racers rename the same expired lease to their own
    /// tombstone — POSIX rename atomicity admits exactly one winner, so
    /// the dead-generation count (tombstone files) grows by exactly one
    /// per takeover no matter how many workers observe the expiry.
    #[test]
    fn lease_takeover_has_exactly_one_winner(racers in 2usize..9, hash in 0u64..u64::MAX, rounds in 1usize..4) {
        let dir = tmpdir(&format!("takeover-{hash:016x}"));
        std::fs::create_dir_all(&dir).expect("claims dir");
        let key = format!("{hash:016x}");

        for generation in 0..rounds {
            let lease = dir.join(format!("{key}.lease"));
            std::fs::write(&lease, b"expired lease bytes").expect("plant lease");

            let (dir_c, key_c, lease_c) = (dir.clone(), key.clone(), lease.clone());
            let winners = race(racers, move || {
                // Each racer renames to its *own* tombstone name, as
                // workers do; the source vanishing picks the winner.
                let tid = format!("{:?}", std::thread::current().id());
                let tomb = dir_c.join(format!(
                    "{key_c}.dead-{generation}-{}",
                    tid.replace(['(', ')'], "")
                ));
                std::fs::rename(&lease_c, &tomb).is_ok()
            });
            prop_assert_eq!(winners, 1, "rename takeover must admit exactly one winner");

            let tombstones = std::fs::read_dir(&dir)
                .expect("read claims")
                .filter_map(Result::ok)
                .filter(|e| {
                    e.file_name().to_string_lossy().starts_with(&format!("{key}.dead-"))
                })
                .count();
            prop_assert_eq!(
                tombstones,
                generation + 1,
                "each takeover adds exactly one tombstone (the generation count)"
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
