//! End-to-end daemon resilience: a real `midband5g-d` instance serving
//! real campaigns over a real socket must survive malformed clients and
//! clients killed mid-write, answer typed errors for bad requests, and
//! shut down cleanly over the bus.

use daemon::proto::{self, Request, Response, Tier};
use daemon::store::RetentionConfig;
use daemon::{request_once, DaemonConfig};
use measure::session::{SessionResult, SessionSpec};
use operators::Operator;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

fn test_config(tag: &str) -> DaemonConfig {
    DaemonConfig {
        socket_path: std::env::temp_dir()
            .join(format!("midband5g-test-{}-{tag}.sock", std::process::id())),
        operators: vec![Operator::VodafoneSpain],
        sessions_per_operator: 1,
        session_duration_s: 1.0,
        base_seed: 77,
        threads: 2,
        waves: Some(2),
        retention: RetentionConfig { raw_capacity: 8192, sec_capacity: 600, min_capacity: 60 },
        tick_ms: 50,
        session_log: 64,
    }
}

/// Poll until the daemon has completed `waves` waves (the runner thread
/// simulates real sessions, so allow generous wall time).
fn wait_for_waves(handle: &daemon::DaemonHandle, waves: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.waves_done() < waves {
        assert!(Instant::now() < deadline, "daemon never finished its waves");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_survives_hostile_clients_and_serves_all_tiers() {
    let config = test_config("live");
    let socket = config.socket_path.clone();
    let handle = daemon::start(config).expect("daemon starts");

    // Alive immediately.
    match request_once(&socket, &Request::Ping).expect("ping") {
        Response::Pong { version } => assert_eq!(version, proto::VERSION),
        other => panic!("expected Pong, got {other:?}"),
    }

    // A client killed mid-write: partial header, then the socket drops.
    {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(&proto::MAGIC.to_le_bytes()[..2]).expect("partial write");
        drop(s); // "kill -9" as the socket sees it
    }
    // A client speaking garbage: wrong magic entirely.
    {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        // The daemon answers a typed error (best effort) and drops us;
        // either way it must keep serving, which the next Ping proves.
    }
    match request_once(&socket, &Request::Ping).expect("ping after hostile clients") {
        Response::Pong { .. } => {}
        other => panic!("daemon wedged by hostile client: {other:?}"),
    }

    // Unknown metric: a typed error response, not a dropped connection.
    match request_once(
        &socket,
        &Request::GetSeries { metric: "bogus".to_string(), tier: Tier::Raw, last: 0 },
    )
    .expect("bad request still answered")
    {
        Response::Error { code, message } => {
            assert_eq!(code, "unknown_metric");
            assert!(message.contains("dl_mbps"), "error names the known metrics: {message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    wait_for_waves(&handle, 2);

    // Both waves' sessions are logged, in order.
    match request_once(&socket, &Request::ListSessions).expect("sessions") {
        Response::Sessions { sessions } => {
            assert_eq!(sessions.len(), 2);
            assert_eq!(sessions[0].wave, 0);
            assert_eq!(sessions[1].wave, 1);
            assert_eq!(sessions[0].operator, "V_Sp");
            assert!(sessions.iter().all(|s| s.records > 0));
            assert!(sessions.iter().all(|s| s.dl_mbps > 0.0));
            // The served count is the session runner's own: wave 0 runs
            // the campaign spec at the base seed.
            let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 1.0, 77);
            assert_eq!(sessions[0].seed, spec.seed);
            assert_eq!(sessions[0].records, SessionResult::run(spec).trace.len() as u64);
        }
        other => panic!("expected Sessions, got {other:?}"),
    }

    // Every tier serves data for a live metric.
    for (tier, expect_bins) in [(Tier::Raw, false), (Tier::Seconds, true), (Tier::Minutes, true)] {
        match request_once(
            &socket,
            &Request::GetSeries { metric: "sinr_db".to_string(), tier, last: 0 },
        )
        .expect("series")
        {
            Response::Series { series } => {
                assert_eq!(series.tier, tier);
                assert!(!series.values.is_empty(), "{tier:?} tier served nothing");
                if expect_bins {
                    assert_eq!(series.values.len(), series.counts.len());
                    assert!(series.times.is_empty());
                } else {
                    assert_eq!(series.values.len(), series.times.len());
                }
                assert!(series.values.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected Series, got {other:?}"),
        }
    }

    // Two 1 s waves land in seconds bins 0 and 1 (wave stride = 1 s).
    match request_once(
        &socket,
        &Request::GetSeries { metric: "dl_mbps".to_string(), tier: Tier::Seconds, last: 0 },
    )
    .expect("series")
    {
        Response::Series { series } => {
            assert_eq!(series.start_bin, 0);
            assert_eq!(series.values.len(), 2);
            assert!(series.values.iter().all(|&v| v > 0.0), "throughput bins: {:?}", series.values);
        }
        other => panic!("expected Series, got {other:?}"),
    }

    // The ticker has published snapshots with live metrics. The served
    // snapshot is the ticker's latest *published* one, which may trail
    // `waves_done()` by up to one tick — poll until it catches up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request_once(&socket, &Request::GetSnapshot).expect("snapshot") {
            Response::Snapshot { snapshot } => {
                if snapshot.counter("daemon.waves") == Some(2) {
                    assert_eq!(snapshot.counter("daemon.sessions"), Some(2));
                    assert!(snapshot.gauge("daemon.retained_raw").unwrap_or(0) > 0);
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "published snapshot never caught up to wave 2: {:?}",
                    snapshot.counter("daemon.waves")
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
    }

    // Shutdown over the bus; every thread joins.
    match request_once(&socket, &Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert!(handle.is_shutting_down());
    handle.join();
    assert!(!socket.exists(), "socket file cleaned up on join");
}

/// The bounded retry loop: exhaustion yields a typed error naming the
/// socket path, and a daemon that binds *late* (a restart, as the
/// client sees it) is ridden out within the budget.
#[test]
fn request_with_retry_survives_a_late_daemon_and_names_the_socket() {
    let mut config = test_config("retry");
    config.waves = Some(0);
    let socket = config.socket_path.clone();

    // Nothing listening: 1 + 2 attempts, then a typed exhaustion error.
    let t0 = Instant::now();
    let err =
        daemon::request_with_retry(&socket, &Request::Ping, 2, Duration::from_millis(30))
            .expect_err("no daemon yet");
    assert!(t0.elapsed() >= Duration::from_millis(60), "two backoffs must elapse");
    let rendered = err.to_string();
    match err {
        proto::BusError::RetriesExhausted { socket: named, attempts, last } => {
            assert_eq!(named, socket);
            assert_eq!(attempts, 3);
            assert!(!last.is_empty(), "last error is carried");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert!(
        rendered.contains(socket.to_string_lossy().as_ref()),
        "error must name the socket path: {rendered}"
    );

    // Late bind: the daemon appears mid-budget; the loop rides it out.
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        daemon::start(config).expect("daemon starts")
    });
    match daemon::request_with_retry(&socket, &Request::Ping, 30, Duration::from_millis(100))
        .expect("retry loop outlives the restart window")
    {
        Response::Pong { version } => assert_eq!(version, proto::VERSION),
        other => panic!("expected Pong, got {other:?}"),
    }
    let handle = starter.join().expect("starter thread");
    handle.shutdown();
    handle.join();
}

/// `DaemonHandle::shutdown` alone (no bus traffic at all) also brings
/// every thread down — the supervisor path — and promptly: the acceptor
/// blocks in `accept`, so `shutdown` must wake it.
#[test]
fn local_shutdown_joins_without_bus_traffic() {
    let mut config = test_config("local");
    config.waves = Some(0); // no campaigns; just the serving skeleton
    let handle = daemon::start(config).expect("daemon starts");
    std::thread::sleep(Duration::from_millis(120));
    let t0 = Instant::now();
    handle.shutdown();
    handle.join();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown + join took {took:?}");
}

/// An idle daemon serves a request as soon as it connects: the acceptor
/// waits in `accept`, not in a polling nap. Each request comes after a
/// pause, so the daemon is idle when it arrives, as a client's
/// occasional query finds it.
#[test]
fn idle_daemon_answers_without_a_poll_delay() {
    let mut config = test_config("rtt");
    config.waves = Some(0);
    let socket = config.socket_path.clone();
    let handle = daemon::start(config).expect("daemon starts");
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            let t0 = Instant::now();
            match request_once(&socket, &Request::Ping).expect("ping") {
                Response::Pong { .. } => t0.elapsed(),
                other => panic!("expected Pong, got {other:?}"),
            }
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    handle.shutdown();
    handle.join();
    assert!(median < Duration::from_millis(2), "median round trip {median:?}: {rtts:?}");
}
