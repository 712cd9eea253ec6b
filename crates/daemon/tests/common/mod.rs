//! Shared bus-test corpus: one message of every `Request` and
//! `Response` variant (several `GetSeries`/`Series` shapes), as the
//! roundtrip tests and the frame fuzzer both need it.

use daemon::proto::{Request, Response, SessionInfo, Tier, WireSeries, WireSnapshot, VERSION};

pub fn all_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::GetSnapshot,
        Request::GetSeries { metric: "dl_mbps".to_string(), tier: Tier::Seconds, last: 120 },
        Request::GetSeries { metric: "sinr_db".to_string(), tier: Tier::Raw, last: 0 },
        Request::GetSeries { metric: "cqi".to_string(), tier: Tier::Minutes, last: 7 },
        Request::ListSessions,
        Request::Shutdown,
    ]
}

pub fn all_responses() -> Vec<Response> {
    let snapshot = WireSnapshot {
        uptime_ms: 12_345,
        counters: vec![("daemon.waves".to_string(), 3), ("daemon.sessions".to_string(), 12)],
        gauges: vec![("daemon.retained_raw".to_string(), 4096)],
        histograms: vec![("session.run".to_string(), 12, 987_654_321)],
        audit_enabled: true,
        total_violations: 0,
        violations: vec![("resample_grid_degenerate".to_string(), 0)],
    };
    let series = WireSeries {
        metric: "dl_mbps".to_string(),
        tier: Tier::Seconds,
        bin_s: 1.0,
        start_bin: 42,
        times: Vec::new(),
        values: vec![812.5, 0.0, 790.25],
        counts: vec![2000, 0, 1980],
    };
    let raw = WireSeries {
        metric: "sinr_db".to_string(),
        tier: Tier::Raw,
        bin_s: 0.0,
        start_bin: 0,
        times: vec![0.0005, 0.001, 0.0015],
        values: vec![21.5, 21.25, -3.75],
        counts: Vec::new(),
    };
    vec![
        Response::Pong { version: VERSION },
        Response::Snapshot { snapshot },
        Response::Series { series },
        Response::Series { series: raw },
        Response::Sessions {
            sessions: vec![SessionInfo {
                index: 7,
                wave: 1,
                operator: "V_Sp".to_string(),
                seed: 1007,
                records: 120_000,
                dl_mbps: 803.25,
            }],
        },
        Response::ShuttingDown,
        Response::Error { code: "unknown_metric".to_string(), message: "no such metric".to_string() },
    ]
}
