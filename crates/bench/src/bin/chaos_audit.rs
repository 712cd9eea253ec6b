//! Chaos gate: run fault-injected campaigns with audit mode on, prove
//! determinism and recovery, export the snapshot, fail on anything
//! unexpected.
//!
//! Drives a three-operator campaign under an aggressive [`FaultConfig`]
//! — collector gaps, session aborts, corrupted records, worker panics —
//! across thread counts {1, 2, 8} and a checkpoint/resume cycle, with
//! audit mode forced on. Writes `OBS_chaos.json` and exits non-zero if:
//!
//! - any parallel or resumed run diverges byte-for-byte from the
//!   sequential reference,
//! - any audit invariant *outside* the chaos-expected set
//!   ([`Invariant::chaos_expected`]: `worker_panic`,
//!   `executor_abandoned`) records a violation, or
//! - the chaos config silently injected nothing at all.
//!
//! ```text
//! cargo run --release -p midband5g-bench --bin chaos_audit
//! cargo run --release -p midband5g-bench --bin chaos_audit -- --quick
//! cargo run --release -p midband5g-bench --bin chaos_audit -- --out-dir /tmp
//! ```

use std::path::PathBuf;

use midband5g::measure::campaign::{Campaign, CampaignOutcome, Plan, Traces};
use midband5g::measure::executor::Executor;
use midband5g::measure::fault::FaultConfig;
use midband5g::measure::DEFAULT_RETRY_BUDGET;
use midband5g::obs;
use midband5g::obs::audit::{Invariant, INVARIANTS};
use midband5g::operators::Operator;

/// Default output directory: the repository root, resolved relative to
/// this crate so the binary works from any working directory.
const DEFAULT_OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The same aggressive-but-plausible rates as `tests/chaos.rs`: around
/// half the sessions lose a span, a third abort early, 2% of records
/// decode as garbage, a third of sessions panic at least once.
const CHAOS: FaultConfig =
    FaultConfig { gap_rate: 0.5, abort_rate: 0.3, corrupt_rate: 0.02, panic_rate: 0.3 };

fn chaos_plan(executor: Executor) -> Plan {
    Plan { executor, faults: CHAOS, retry_budget: DEFAULT_RETRY_BUDGET }
}

fn encode(outcome: &CampaignOutcome) -> String {
    serde_json::to_string(outcome).expect("campaign outcomes serialise")
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

    // Injected panics are caught by the resilient executor and counted
    // in the snapshot; keep the default hook's backtraces for anything
    // genuinely unexpected only.
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

    let (sessions, duration_s) = if quick { (4, 1.0) } else { (8, 2.0) };
    let operators = [Operator::VodafoneItaly, Operator::TelekomGermany, Operator::VerizonUs];

    let mut failed = false;
    let mut any_fault_fired = false;

    // Determinism under chaos: the sequential reference and every
    // parallel re-run must agree byte for byte.
    for (i, operator) in operators.into_iter().enumerate() {
        let campaign =
            Campaign { operator, sessions, session_duration_s: duration_s, base_seed: 2024 + i as u64 };
        let reference = chaos_plan(Executor::sequential()).run(&campaign.specs(), &Traces);
        if !reference.is_complete() || reference.min_coverage() < 1.0 {
            any_fault_fired = true;
        }
        println!(
            "  {operator:<16} {}/{} sessions survived, min coverage {:.2}",
            reference.results.len(),
            sessions,
            reference.min_coverage()
        );
        let reference = encode(&reference);
        for threads in [2, 8] {
            let parallel = chaos_plan(Executor::new(threads)).run(&campaign.specs(), &Traces);
            if encode(&parallel) != reference {
                eprintln!("  DIVERGED {operator}: {threads}-thread run != sequential");
                failed = true;
            }
        }
    }

    // Checkpoint cycle: an interrupted-and-resumed campaign must match
    // an uninterrupted one. Campaign specs are prefix-stable, so a
    // half-size campaign checkpointed into the same directory leaves
    // exactly the state a killed full run would have.
    let full = Campaign {
        operator: Operator::VodafoneItaly,
        sessions,
        session_duration_s: duration_s,
        base_seed: 77,
    };
    let plan = chaos_plan(Executor::new(4));
    let checkpointed = |campaign: &Campaign, dir: &std::path::Path| {
        plan.run_checkpointed(dir, &campaign.specs(), &campaign.checkpoint_description())
    };
    let tmpdir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("chaos-audit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let clean_dir = tmpdir("clean");
    let resume_dir = tmpdir("resume");
    let cycle = (|| -> std::io::Result<()> {
        let uninterrupted = checkpointed(&full, &clean_dir)?;
        let half = Campaign { sessions: sessions / 2, ..full };
        checkpointed(&half, &resume_dir)?;
        let resumed = checkpointed(&full, &resume_dir)?;
        if encode(&resumed) != encode(&uninterrupted) {
            eprintln!("  DIVERGED checkpoint: resumed campaign != uninterrupted");
            failed = true;
        } else {
            println!(
                "  checkpoint cycle: resumed {}/{} sessions byte-identically",
                resumed.results.len(),
                sessions
            );
        }
        Ok(())
    })();
    if let Err(e) = cycle {
        eprintln!("  error: checkpoint cycle failed: {e}");
        failed = true;
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resume_dir);

    let snap = obs::snapshot();
    println!("chaos run: {} metrics collected", snap.metric_count());
    for inv in INVARIANTS {
        let count = obs::audit::count(inv);
        if count == 0 {
            continue;
        }
        if inv.chaos_expected() {
            any_fault_fired = true;
            println!("  expected  {}: {count}", inv.name());
        } else {
            eprintln!("  VIOLATION {}: {count}", inv.name());
            failed = true;
        }
    }

    match obs::write_snapshot("chaos", &out_dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write snapshot to {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    }

    if !any_fault_fired {
        eprintln!("FAIL: the chaos config injected nothing — the gate tested nothing");
        std::process::exit(1);
    }
    if failed {
        eprintln!("FAIL: chaos gate found divergence or unexpected violations");
        std::process::exit(1);
    }
    let unexpected: u64 = INVARIANTS
        .iter()
        .filter(|inv| !inv.chaos_expected())
        .map(|&inv| obs::audit::count(inv))
        .sum();
    println!(
        "OK: byte-identical under chaos, {unexpected} unexpected violations, {} expected",
        obs::audit::count(Invariant::WorkerPanic) + obs::audit::count(Invariant::ExecutorAbandoned)
    );
}
