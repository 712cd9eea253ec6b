//! Live-telemetry audit gate: a real `midband5g-d` instance runs
//! campaigns with every invariant check on, serves all three retention
//! tiers over its Unix socket *while* campaigns are live, and must
//! finish with zero audit violations and every ring inside its
//! configured capacity — or the binary exits non-zero.
//!
//! CI's smoke job for the daemon (ISSUE 8 acceptance):
//!
//! ```text
//! MIDBAND5G_AUDIT=1 cargo run --release -p midband5g-bench --bin daemon_smoke
//! cargo run ... --bin daemon_smoke -- --out-dir target/daemon-smoke
//! ```
//!
//! With `--out-dir` the queried snapshot and per-tier series are written
//! as JSON for CI artifact upload.

use daemon::proto::{Request, Response, Tier};
use daemon::store::{RetentionConfig, METRICS};
use daemon::{request_once, DaemonConfig};
use midband5g::obs;
use midband5g::prelude::Operator;
use std::time::{Duration, Instant};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out_dir = argv
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| argv.get(i + 1))
        .map(std::path::PathBuf::from);

    obs::audit::set_enabled(true);
    obs::reset();

    let retention = RetentionConfig { raw_capacity: 4096, sec_capacity: 600, min_capacity: 60 };
    let config = DaemonConfig {
        socket_path: std::env::temp_dir()
            .join(format!("midband5g-smoke-{}.sock", std::process::id())),
        operators: vec![Operator::VodafoneSpain, Operator::OrangeSpain90],
        sessions_per_operator: 2,
        session_duration_s: 2.0,
        base_seed: 2024,
        threads: 2,
        waves: Some(3),
        retention,
        tick_ms: 50,
        session_log: 64,
    };
    let socket = config.socket_path.clone();
    let waves = config.waves.expect("bounded smoke");
    let expected_sessions = config.operators.len() as u64 * config.sessions_per_operator * waves;
    let start = Instant::now();
    let handle = match daemon::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("FAIL: daemon did not start: {e}");
            std::process::exit(1);
        }
    };

    let mut failed = false;

    // Query the bus *while* campaigns run: the daemon must answer from
    // the first wave onward, and a mid-campaign snapshot must already be
    // flowing.
    let mut live_series_served = false;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if Instant::now() > deadline {
            eprintln!("FAIL: daemon never completed {expected_sessions} sessions");
            failed = true;
            break;
        }
        match request_once(&socket, &Request::ListSessions) {
            Ok(Response::Sessions { sessions }) => {
                if !sessions.is_empty() && !live_series_served {
                    // At least one wave is committed while later waves
                    // still run: exercise every tier mid-campaign.
                    live_series_served = all_tiers_served(&socket, "mid-campaign");
                }
                if sessions.len() as u64 >= expected_sessions {
                    break;
                }
            }
            Ok(other) => {
                eprintln!("FAIL: ListSessions answered {other:?}");
                failed = true;
                break;
            }
            Err(e) => {
                eprintln!("FAIL: bus error while campaigns live: {e}");
                failed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if !live_series_served {
        eprintln!("FAIL: tiers were not served during the live campaign");
        failed = true;
    }

    // Final state: all tiers populated, memory bounded via the gauges.
    let mut out = String::new();
    for metric in METRICS {
        for (tier, label) in
            [(Tier::Raw, "raw"), (Tier::Seconds, "seconds"), (Tier::Minutes, "minutes")]
        {
            match request_once(
                &socket,
                &Request::GetSeries { metric: metric.name.to_string(), tier, last: 0 },
            ) {
                Ok(Response::Series { series }) => {
                    if series.values.is_empty() {
                        eprintln!("FAIL: {} has no {label} data", metric.name);
                        failed = true;
                    }
                    if !series.values.iter().all(|v| v.is_finite()) {
                        eprintln!("FAIL: non-finite value served for {}/{label}", metric.name);
                        failed = true;
                    }
                    out.push_str(&serde_json::to_string(&series).expect("series encodes"));
                    out.push('\n');
                }
                other => {
                    eprintln!("FAIL: GetSeries {}/{label}: {other:?}", metric.name);
                    failed = true;
                }
            }
        }
    }

    // Expected grid shape: 3 waves x 2 s stride = seconds bins 0..6,
    // all inside the open first minute bin.
    match request_once(
        &socket,
        &Request::GetSeries { metric: "dl_mbps".to_string(), tier: Tier::Seconds, last: 0 },
    ) {
        Ok(Response::Series { series }) => {
            if series.start_bin != 0 || series.values.len() != 6 {
                eprintln!(
                    "FAIL: expected seconds bins 0..6, got start {} len {}",
                    series.start_bin,
                    series.values.len()
                );
                failed = true;
            }
        }
        other => {
            eprintln!("FAIL: final dl_mbps query: {other:?}");
            failed = true;
        }
    }

    // The ticker publishes a snapshot every `tick_ms`, and the whole run
    // can finish inside one tick, so the first snapshot served may still
    // be the start-up one. Poll until the published counters have seen
    // every wave; only then do the gauges describe the finished store.
    let deadline = Instant::now() + Duration::from_secs(30);
    let snapshot = loop {
        let snapshot = match request_once(&socket, &Request::GetSnapshot) {
            Ok(Response::Snapshot { snapshot }) => snapshot,
            other => {
                eprintln!("FAIL: GetSnapshot: {other:?}");
                std::process::exit(1);
            }
        };
        if snapshot.counter("daemon.waves").unwrap_or(0) >= waves || Instant::now() > deadline {
            break snapshot;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let published_waves = snapshot.counter("daemon.waves").unwrap_or(0);
    if published_waves < waves {
        eprintln!("FAIL: the published snapshot never reached wave {waves} ({published_waves})");
        failed = true;
    }
    let published_sessions = snapshot.counter("daemon.sessions").unwrap_or(0);
    if published_sessions != expected_sessions {
        eprintln!(
            "FAIL: the published snapshot counts {published_sessions} sessions, \
             not {expected_sessions}"
        );
        failed = true;
    }
    for (gauge, cap) in [
        ("daemon.retained_raw", retention.raw_capacity),
        ("daemon.retained_sec_bins", retention.sec_capacity * METRICS.len()),
        ("daemon.retained_min_bins", retention.min_capacity * METRICS.len()),
    ] {
        match snapshot.gauge(gauge) {
            Some(v) if v >= 0 && (v as usize) <= cap => {}
            Some(v) => {
                eprintln!("FAIL: {gauge} = {v} outside [0, {cap}]");
                failed = true;
            }
            None => {
                eprintln!("FAIL: {gauge} not published");
                failed = true;
            }
        }
    }
    if snapshot.counter("daemon.snapshot_ticks").unwrap_or(0) == 0 {
        eprintln!("FAIL: the ticker never published");
        failed = true;
    }
    if !snapshot.audit_enabled {
        eprintln!("FAIL: audit mode was not enabled");
        failed = true;
    }

    // Shut down over the bus; every thread must join.
    match request_once(&socket, &Request::Shutdown) {
        Ok(Response::ShuttingDown) => {}
        other => {
            eprintln!("FAIL: Shutdown answered {other:?}");
            failed = true;
        }
    }
    handle.join();
    let wall = start.elapsed().as_secs_f64();

    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("FAIL: cannot create {}: {e}", dir.display());
            failed = true;
        } else {
            let snap_json = serde_json::to_string(&snapshot).expect("snapshot encodes");
            for (name, body) in [("snapshot.json", &snap_json), ("series.jsonl", &out)] {
                if let Err(e) = std::fs::write(dir.join(name), body) {
                    eprintln!("FAIL: writing {name}: {e}");
                    failed = true;
                }
            }
            println!("  wrote {}/snapshot.json and series.jsonl", dir.display());
        }
    }

    let audit = obs::snapshot().audit;
    for (name, count) in &audit.violations {
        if *count > 0 {
            eprintln!("  VIOLATION {name}: {count}");
        }
    }
    println!(
        "daemon smoke: {expected_sessions} sessions over {} waves in {wall:.2} s, \
         {} requests served",
        snapshot.counter("daemon.waves").unwrap_or(0),
        snapshot.counter("daemon.requests").unwrap_or(0),
    );
    if audit.total_violations > 0 {
        eprintln!("FAIL: {} invariant violations", audit.total_violations);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: all tiers served live, memory bounded, zero invariant violations");
}

/// Query every metric at every tier once; raw + seconds must already
/// have data mid-campaign (the first wave is committed), minutes may be
/// an open partial bin but must still answer.
fn all_tiers_served(socket: &std::path::Path, when: &str) -> bool {
    for metric in METRICS {
        for tier in [Tier::Raw, Tier::Seconds, Tier::Minutes] {
            match request_once(
                socket,
                &Request::GetSeries { metric: metric.name.to_string(), tier, last: 16 },
            ) {
                Ok(Response::Series { series }) => {
                    if series.values.is_empty() {
                        eprintln!("FAIL: {when}: {}/{tier:?} served nothing", metric.name);
                        return false;
                    }
                }
                other => {
                    eprintln!("FAIL: {when}: {}/{tier:?}: {other:?}", metric.name);
                    return false;
                }
            }
        }
    }
    true
}
