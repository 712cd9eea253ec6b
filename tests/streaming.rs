//! Streaming-pipeline equivalence (DESIGN.md §5.4): a session emitted
//! through a [`Tee`] of the columnar trace and the online aggregates must
//! agree with the stored-trace path — the tee'd trace is the `run()` trace,
//! and the streamed aggregates equal post-hoc aggregation over it.

use midband5g::analysis::OnlineAggregates;
use midband5g::measure::session::{SessionResult, SessionSpec};
use midband5g::operators::Operator;
use midband5g::ran::kpi::{Direction, KpiTrace, SlotKpi, BLOCK_RECORDS};
use midband5g::ran::sink::{SlotSink, Tee};
use proptest::prelude::*;

const BIN_S: f64 = 0.1;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Feed `records` into `sink` in blocks of random size 1..=
/// [`BLOCK_RECORDS`], drawn from `state` as `tests/chaos.rs::feed` draws
/// them.
fn feed_blocks(sink: &mut impl SlotSink, records: &[SlotKpi], mut state: u64) {
    let mut rest = records;
    while !rest.is_empty() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let len = (1 + (state >> 33) as usize % BLOCK_RECORDS).min(rest.len());
        let (block, tail) = rest.split_at(len);
        sink.push_block(block);
        rest = tail;
    }
}

proptest! {
    /// One pass through `Tee(KpiTrace, OnlineAggregates)` is observationally
    /// the same as materialising the trace and aggregating afterwards.
    #[test]
    fn tee_stream_matches_posthoc_aggregation(
        operator in prop::sample::select(vec![
            Operator::VodafoneSpain,
            Operator::TelekomGermany,
            Operator::TMobileUs,
        ]),
        spot in 0usize..3,
        duration_s in 0.4f64..1.2,
        seed in 0u64..10_000,
    ) {
        let spec = SessionSpec::stationary(operator, spot, duration_s, seed);

        let mut tee = Tee::new(KpiTrace::new(), OnlineAggregates::new(BIN_S));
        let pushed = SessionResult::run_with_sink(spec, &mut tee);
        let Tee { first: trace, second: online } = tee;

        // The tee'd trace IS the session trace.
        let baseline = SessionResult::run(spec);
        prop_assert_eq!(pushed, trace.len() as u64);
        prop_assert_eq!(&trace, &baseline.trace);

        // Online aggregates equal post-hoc aggregation over the trace.
        prop_assert_eq!(online.records(), trace.len() as u64);
        prop_assert!(close(online.duration_s(), trace.duration_s()));
        for dir in [Direction::Dl, Direction::Ul] {
            let posthoc_bits: u64 = trace
                .direction(dir)
                .map(|r| u64::from(r.delivered_bits))
                .sum();
            prop_assert_eq!(online.delivered_bits(dir), posthoc_bits);
            prop_assert!(close(
                online.mean_throughput_mbps(dir),
                trace.mean_throughput_mbps(dir)
            ));
            let streamed = online.throughput_series_mbps(dir);
            let posthoc = trace.throughput_series_mbps(dir, BIN_S);
            prop_assert_eq!(streamed.len(), posthoc.len());
            for (s, p) in streamed.iter().zip(&posthoc) {
                prop_assert!(close(*s, *p), "bin diverged: {s} vs {p}");
            }
        }
        prop_assert!(close(online.dl_bler(), trace.dl_bler()));
        prop_assert!(close(online.mean_cqi(), trace.mean_cqi()));

        let streamed_shares = online.modulation_shares();
        let posthoc_shares = trace.modulation_shares();
        prop_assert_eq!(streamed_shares.len(), posthoc_shares.len());
        for ((ma, sa), (mb, sb)) in streamed_shares.iter().zip(&posthoc_shares) {
            prop_assert_eq!(ma, mb);
            prop_assert!(close(*sa, *sb));
        }
        for (s, p) in online.layer_shares().iter().zip(trace.layer_shares()) {
            prop_assert!(close(*s, p));
        }

        // Fed one record at a time or in random blocks, the fold is the
        // one the producer's blocks built.
        let records: Vec<SlotKpi> = trace.iter().collect();
        let mut one_by_one = OnlineAggregates::new(BIN_S);
        records.iter().for_each(|r| one_by_one.push(r));
        one_by_one.finish();
        let mut blocked = OnlineAggregates::new(BIN_S);
        feed_blocks(&mut blocked, &records, seed);
        blocked.finish();
        prop_assert_eq!(&one_by_one, &online);
        prop_assert_eq!(&blocked, &online);
    }
}

/// The three dense 1 s DL series of one V_Sp session — the second tier a
/// daemon serves over its bus, the stored trace's scan and the online
/// fold — agree bit for bit on every bin: each is an integer bit sum,
/// exact in `f64` below 2^53, divided by the same width and 1e6. Three
/// waves run three sessions (seeds 40, 41, 42), each on its own epoch.
#[test]
fn daemon_trace_and_online_dl_series_agree_bit_for_bit() {
    use daemon::proto::{Request, Response, Tier};
    use midband5g::measure::campaign::Campaign;

    const WAVES: u64 = 3;
    const DURATION_S: f64 = 2.5;
    let config = daemon::DaemonConfig {
        socket_path: std::env::temp_dir()
            .join(format!("midband5g-streaming-{}.sock", std::process::id())),
        operators: vec![Operator::VodafoneSpain],
        sessions_per_operator: 1,
        session_duration_s: DURATION_S,
        base_seed: 40,
        threads: 1,
        waves: Some(WAVES),
        ..daemon::DaemonConfig::default()
    };
    let socket = config.socket_path.clone();
    let handle = daemon::start(config).expect("daemon starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while handle.waves_done() < WAVES {
        assert!(std::time::Instant::now() < deadline, "daemon never finished its waves");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let request = Request::GetSeries { metric: "dl_mbps".to_string(), tier: Tier::Seconds, last: 0 };
    let served = match daemon::request_once(&socket, &request).expect("series") {
        Response::Series { series } => series,
        other => panic!("expected Series, got {other:?}"),
    };
    handle.shutdown();
    handle.join();
    assert_eq!(served.start_bin, 0);

    let stride = DURATION_S.ceil() as usize;
    for wave in 0..WAVES {
        let campaign = Campaign {
            operator: Operator::VodafoneSpain,
            sessions: 1,
            session_duration_s: DURATION_S,
            base_seed: 40 + wave,
        };
        let spec = campaign.specs()[0];
        let mut tee = Tee::new(KpiTrace::new(), OnlineAggregates::new(1.0));
        SessionResult::run_with_sink(spec, &mut tee);
        let Tee { first: trace, second: online } = tee;
        let stored = trace.throughput_series_mbps(Direction::Dl, 1.0);
        let folded = online.throughput_series_mbps(Direction::Dl);
        let at = wave as usize * stride;
        let daemon = &served.values[at..at + stored.len()];
        assert_eq!(stored.len(), stride, "wave {wave}");
        for (bin, ((&d, &s), &f)) in daemon.iter().zip(&stored).zip(&folded).enumerate() {
            assert_eq!(
                (d.to_bits(), s.to_bits()),
                (f.to_bits(), f.to_bits()),
                "wave {wave} bin {bin}: daemon {d}, trace {s}, online {f}"
            );
        }
    }
}
