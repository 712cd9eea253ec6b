//! Extension study: offered-load sweep — the utilisation/queueing curve
//! of one 90 MHz mid-band carrier under rate-limited traffic (the `Cbr`
//! workload through the gNB queue, beyond the paper's full-buffer
//! methodology).
//!
//! Under `MIDBAND5G_AUDIT=1` the run exits non-zero if any invariant
//! check failed: past the knee the queue holds gigabits, which
//! exercises the queue-limit and sojourn checks at a depth no other run
//! reaches.

use midband5g::experiments::extensions;
use midband5g::obs::audit;
use midband5g_bench::{banner, RunArgs};

fn main() {
    let args = RunArgs::parse(1, 10.0);
    banner("Extension", "Offered load vs goodput and queueing delay (V_Sp carrier)", &args);
    let rates = [50.0, 100.0, 200.0, 400.0, 600.0, 800.0, 1000.0, 1500.0, 2000.0];
    let rows = extensions::load_sweep(&rates, args.duration_s, args.seed);
    println!(
        "{:>12} {:>12} {:>16} {:>12}",
        "offered", "delivered", "queue delay", "DL PRBs used"
    );
    for r in &rows {
        println!(
            "{:>7.0} Mbps {:>7.0} Mbps {:>13.2} ms {:>11.1}%",
            r.offered_mbps,
            r.delivered_mbps,
            r.queue_delay_ms,
            r.utilisation * 100.0
        );
    }
    println!();
    println!("Below the channel's capacity the carrier delivers what is offered");
    println!("with sub-frame queueing delay; past the knee goodput saturates and");
    println!("the queue delay grows without bound — the margin behind the paper's");
    println!("recommendation that operators provision for consistency, not peaks.");
    args.maybe_dump(&rows);
    if audit::enabled() {
        for (name, count) in audit::snapshot().violations {
            if count > 0 {
                eprintln!("  VIOLATION {name}: {count}");
            }
        }
        let violations = audit::total_violations();
        if violations > 0 {
            eprintln!("FAIL: {violations} invariant violations");
            std::process::exit(1);
        }
    }
}
