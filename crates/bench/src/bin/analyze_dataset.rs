//! Recompute figure-style statistics from an exported dataset — the
//! artifact-consumer path (paper §10.6: "if you decide to run the
//! analysis … the outcome of processing will create the raw results").
//!
//! ```sh
//! cargo run --release -p midband5g-bench --bin export_dataset
//! cargo run --release -p midband5g-bench --bin analyze_dataset
//! ```

use midband5g::analysis::correlation::coherence_lag;
use midband5g::analysis::variability::variability;
use midband5g::measure::dataset::Dataset;
use midband5g::ran::kpi::Direction;
use midband5g_bench::{fmt_rate, RunArgs};
use std::collections::BTreeMap;

fn main() {
    let args = RunArgs::parse(0, 0.0);
    let root = args.json.clone().unwrap_or_else(|| "results/dataset".to_string());
    let ds = Dataset::at(&root);
    let manifest = match ds.manifest() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("no dataset at {root}/ ({e}); run export_dataset first");
            std::process::exit(1);
        }
    };
    println!("dataset: {}", manifest.description);
    println!(
        "{} sessions, {} slot records\n",
        manifest.sessions.len(),
        manifest.total_records
    );

    // Group sessions per operator and recompute the Fig. 1-style summary
    // plus §5-style dynamics — purely from the stored session files.
    let mut per_op: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut dynamics: BTreeMap<String, (f64, Option<usize>)> = BTreeMap::new();
    for name in &manifest.sessions {
        let record = ds.load_session(name).expect("manifest names resolve");
        let op = record.spec.operator.acronym().to_string();
        per_op
            .entry(op.clone())
            .or_default()
            .push(record.trace.mean_throughput_mbps(Direction::Dl));
        // Slot-level throughput dynamics of the PCell.
        let slot_tput: Vec<f64> = record
            .trace
            .iter()
            .filter(|r| r.carrier == 0 && r.direction == Direction::Dl)
            .map(|r| f64::from(r.delivered_bits) / 0.5e-3 / 1e6)
            .collect();
        let v = variability(&slot_tput, 120).unwrap_or(0.0); // 60 ms scale
        // Coherence on a 10 ms-binned series (TDD gaps make raw slot
        // samples alternate and decorrelate trivially).
        let binned: Vec<f64> = slot_tput
            .chunks(20)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let coh = coherence_lag(&binned, 200, 0.5); // ≤ 2 s search
        let entry = dynamics.entry(op).or_insert((0.0, None));
        entry.0 = entry.0.max(v);
        if entry.1.is_none() {
            entry.1 = coh;
        }
    }

    println!(
        "{:<12} {:>10} {:>14} | {:>12} {:>16}",
        "Operator", "sessions", "mean DL", "V(60ms)", "coherence"
    );
    for (op, tputs) in &per_op {
        let mean = tputs.iter().sum::<f64>() / tputs.len() as f64;
        let (v, coh) = dynamics.get(op).copied().unwrap_or((0.0, None));
        println!(
            "{:<12} {:>10} {:>14} | {:>12.1} {:>16}",
            op,
            tputs.len(),
            fmt_rate(mean),
            v,
            coh.map(|c| format!("{:.0} ms", c as f64 * 10.0))
                .unwrap_or_else(|| "> 2 s".into()),
        );
    }
    println!();
    println!("(coherence = first lag where the slot-level throughput autocorrelation");
    println!("falls below 0.5 — the §5 'channels oscillate around 0.2-0.5 s' scale.)");
}
