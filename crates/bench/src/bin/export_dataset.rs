//! Export an artifact-style dataset (paper §10.6): one binary v3 session
//! file (`sessions/*.kpi`, layout in `measure::dataset`) per session with
//! its spec and full slot-level KPI trace, plus a `manifest.json` —
//! everything a downstream analysis needs to recompute the figures
//! without the simulator. `--quick` exports one 1 s session per operator.
//!
//! ```sh
//! cargo run --release -p midband5g-bench --bin export_dataset -- --quick --json /tmp/dataset
//! cargo run --release -p midband5g-bench --bin analyze_dataset -- --json /tmp/dataset
//! ```

use midband5g::measure::campaign::Campaign;
use midband5g::measure::dataset::Dataset;
use midband5g::measure::executor::Executor;
use midband5g::operators::Operator;
use midband5g_bench::RunArgs;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let args = if quick { RunArgs::parse(1, 1.0) } else { RunArgs::parse(3, 6.0) };
    let root = args.json.clone().unwrap_or_else(|| "results/dataset".to_string());
    println!("Exporting a campaign dataset to {root}/ …");
    let ds = Dataset::at(&root);
    let mut all = Vec::new();
    for (i, &op) in Operator::ALL_MIDBAND.iter().enumerate() {
        let campaign = Campaign {
            operator: op,
            sessions: args.sessions,
            session_duration_s: args.duration_s,
            base_seed: args.seed + i as u64 * 1000,
        };
        all.extend(campaign.run_parallel(Executor::from_env().threads()));
        println!("  {op}: {} sessions", args.sessions);
    }
    let manifest = ds
        .export(
            &format!(
                "midband5g simulated campaign: {} operators × {} sessions × {} s, seed {}",
                Operator::ALL_MIDBAND.len(),
                args.sessions,
                args.duration_s,
                args.seed
            ),
            &all,
        )
        .expect("dataset directory is writable");
    println!(
        "\nwrote {} sessions ({} slot records) + manifest.json",
        manifest.sessions.len(),
        manifest.total_records
    );
    println!("Reload with measure::dataset::Dataset::at({root:?}).load_all().");
}
