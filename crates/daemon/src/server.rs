//! The `midband5g-d` daemon: continuous campaigns feeding the tiered
//! store, served live over a Unix-domain socket.
//!
//! Three threads:
//!
//! * **runner** — executes campaign *waves*. A wave is one
//!   [`Campaign`] per configured operator (every operator measured
//!   simultaneously, the paper's multi-SIM setup), run across
//!   [`DaemonConfig::threads`] workers via [`Executor::map`]. Each
//!   session streams through a [`LiveSink`]; when the wave completes its
//!   second bins are committed **in spec order**, so the binned tiers
//!   are deterministic for a given configuration.
//! * **ticker** — publishes a fresh [`WireSnapshot`] of the obs registry
//!   every [`DaemonConfig::tick_ms`] (safe against concurrent histogram
//!   writers; see `obs::Registry::snapshot`).
//! * **acceptor** — serves the bus socket. It blocks in `accept`, so a
//!   request is served as soon as it connects; [`DaemonHandle::shutdown`]
//!   wakes it with one connection of its own. Connections are handled
//!   one at a time with a read timeout, so a stalled or malicious client
//!   is dropped instead of wedging the daemon, and a client killed
//!   mid-write costs one connection, never the daemon
//!   (`tests/daemon_live.rs`).

use crate::proto::{self, Request, Response, SessionInfo, WireSnapshot};
use crate::sink::LiveSink;
use crate::store::{metric_index, RetentionConfig, RetentionStore};
use measure::campaign::Campaign;
use measure::executor::Executor;
use measure::session::{SessionResult, SessionSpec};
use operators::Operator;
use std::collections::VecDeque;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything the daemon needs to run.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bus socket path. A stale file at this path is replaced.
    pub socket_path: PathBuf,
    /// Operators measured each wave.
    pub operators: Vec<Operator>,
    /// Stationary sessions per operator per wave.
    pub sessions_per_operator: u64,
    /// Duration of each session, seconds.
    pub session_duration_s: f64,
    /// Base campaign seed; wave `w` session `i` of an operator uses
    /// `base_seed + w * sessions_per_operator + i`.
    pub base_seed: u64,
    /// Worker threads per wave.
    pub threads: usize,
    /// Waves to run; `None` runs until a [`Request::Shutdown`]. The
    /// socket keeps serving after the last wave either way.
    pub waves: Option<u64>,
    /// Store ring capacities.
    pub retention: RetentionConfig,
    /// Snapshot publication period, milliseconds.
    pub tick_ms: u64,
    /// Completed sessions kept for [`Request::ListSessions`].
    pub session_log: usize,
}

impl Default for DaemonConfig {
    /// Two operators, 30 s sessions, forever — the interactive default.
    fn default() -> Self {
        DaemonConfig {
            socket_path: PathBuf::from("/tmp/midband5g-d.sock"),
            operators: vec![Operator::VodafoneSpain, Operator::OrangeSpain90],
            sessions_per_operator: 2,
            session_duration_s: 30.0,
            base_seed: 1,
            threads: 2,
            waves: None,
            retention: RetentionConfig::default(),
            tick_ms: 250,
            session_log: 1024,
        }
    }
}

/// State shared by the daemon threads.
struct State {
    /// In its own Arc so session workers can hold the store without
    /// holding the whole daemon state.
    store: Arc<Mutex<RetentionStore>>,
    latest: Mutex<Option<WireSnapshot>>,
    sessions: Mutex<VecDeque<SessionInfo>>,
    shutdown: AtomicBool,
    waves_done: AtomicU64,
    started: Instant,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`DaemonHandle::shutdown`] or send [`Request::Shutdown`] over the
/// bus, then [`DaemonHandle::join`].
pub struct DaemonHandle {
    state: Arc<State>,
    threads: Vec<std::thread::JoinHandle<()>>,
    socket_path: PathBuf,
}

impl DaemonHandle {
    /// Ask every daemon thread to stop.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking `accept`; it sees the
        // flag and exits without serving. Refused when the acceptor is
        // already gone, which is as good.
        let _ = UnixStream::connect(&self.socket_path);
    }

    /// Whether shutdown has been requested (locally or over the bus).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }

    /// Campaign waves completed so far.
    pub fn waves_done(&self) -> u64 {
        self.state.waves_done.load(Ordering::Acquire)
    }

    /// The socket the daemon is serving on.
    pub fn socket_path(&self) -> &std::path::Path {
        &self.socket_path
    }

    /// Block until every daemon thread exits (i.e. until shutdown is
    /// requested), then remove the socket file.
    pub fn join(self) {
        for t in self.threads {
            // A panicked worker already aborted its wave; joining the
            // remains must not cascade.
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

/// Start the daemon: bind the bus socket and spawn the runner, ticker
/// and acceptor threads.
pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
    let _ = std::fs::remove_file(&config.socket_path);
    let listener = UnixListener::bind(&config.socket_path)?;

    let state = Arc::new(State {
        store: Arc::new(Mutex::new(RetentionStore::new(config.retention))),
        latest: Mutex::new(None),
        sessions: Mutex::new(VecDeque::new()),
        shutdown: AtomicBool::new(false),
        waves_done: AtomicU64::new(0),
        started: Instant::now(),
    });

    let mut threads = Vec::with_capacity(3);
    {
        let (state, config) = (Arc::clone(&state), config.clone());
        threads.push(
            std::thread::Builder::new()
                .name("midband5g-d/runner".into())
                .spawn(move || run_waves(&state, &config))?,
        );
    }
    {
        let (state, tick_ms) = (Arc::clone(&state), config.tick_ms);
        threads.push(
            std::thread::Builder::new()
                .name("midband5g-d/ticker".into())
                .spawn(move || run_ticker(&state, tick_ms))?,
        );
    }
    {
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name("midband5g-d/acceptor".into())
                .spawn(move || run_acceptor(&state, listener))?,
        );
    }

    let socket_path = config.socket_path;
    Ok(DaemonHandle { state, threads, socket_path })
}

/// Seconds a wave advances the daemon timeline: the session duration
/// rounded up to whole seconds, so every wave epoch is second-aligned
/// (deterministic bin edges) and waves never overlap a bin.
fn wave_stride_s(session_duration_s: f64) -> u64 {
    (session_duration_s.ceil() as u64).max(1)
}

fn run_waves(state: &State, config: &DaemonConfig) {
    let executor = Executor::new(config.threads);
    let wave_counter = obs::registry().counter("daemon.waves");
    let session_counter = obs::registry().counter("daemon.sessions");
    let mut wave = 0u64;
    while !state.shutdown.load(Ordering::Acquire) {
        if let Some(n) = config.waves {
            if wave >= n {
                break;
            }
        }
        let mut specs: Vec<SessionSpec> = Vec::new();
        for &operator in &config.operators {
            specs.extend(
                Campaign {
                    operator,
                    sessions: config.sessions_per_operator,
                    session_duration_s: config.session_duration_s,
                    base_seed: config.base_seed + wave * config.sessions_per_operator,
                }
                .specs(),
            );
        }
        let epoch_s = (wave * wave_stride_s(config.session_duration_s)) as f64;
        let store = Arc::clone(&state.store);
        let outputs = executor.map(&specs, |&spec| {
            let mut sink = LiveSink::new(Arc::clone(&store), epoch_s);
            let records = SessionResult::run_with_sink(spec, &mut sink);
            let (bins, dl_bits) = sink.into_parts();
            (bins, records, dl_bits)
        });

        // Commit in spec order — the tiered store sees every wave as the
        // same deterministic sequence regardless of worker scheduling.
        let base_index = session_counter.get();
        for (i, (bins, records, dl_bits)) in outputs.iter().enumerate() {
            {
                let mut s = state.store.lock().unwrap_or_else(|e| e.into_inner());
                s.commit_bins(bins);
            }
            let info = SessionInfo {
                index: base_index + i as u64,
                wave,
                operator: specs[i].operator.acronym().to_string(),
                seed: specs[i].seed,
                records: *records,
                dl_mbps: *dl_bits as f64 / config.session_duration_s.max(1e-9) / 1e6,
            };
            let mut log = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
            if log.len() == config.session_log.max(1) {
                log.pop_front();
            }
            log.push_back(info);
        }
        session_counter.add(outputs.len() as u64);
        wave_counter.inc();
        wave += 1;
        state.waves_done.store(wave, Ordering::Release);
    }
}

fn run_ticker(state: &State, tick_ms: u64) {
    let ticks = obs::registry().counter("daemon.snapshot_ticks");
    while !state.shutdown.load(Ordering::Acquire) {
        // Count the tick before capturing, so even the very first
        // published snapshot proves the ticker is alive.
        ticks.inc();
        let uptime_ms = state.started.elapsed().as_millis() as u64;
        let snap = WireSnapshot::capture(uptime_ms);
        *state.latest.lock().unwrap_or_else(|e| e.into_inner()) = Some(snap);
        // Sleep in small slices so shutdown is honoured promptly.
        let mut remaining = tick_ms.max(1);
        while remaining > 0 && !state.shutdown.load(Ordering::Acquire) {
            let slice = remaining.min(20);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
        }
    }
}

fn run_acceptor(state: &State, listener: UnixListener) {
    let conns = obs::registry().counter("daemon.connections");
    let errors = obs::registry().counter("daemon.bus_errors");
    while !state.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            // The wake-up connection from `DaemonHandle::shutdown`.
            Ok(_) if state.shutdown.load(Ordering::Acquire) => break,
            Ok((stream, _addr)) => {
                conns.inc();
                if let Err(e) = serve_connection(state, stream) {
                    errors.inc();
                    // The connection is gone; the daemon is not.
                    let _ = e;
                }
            }
            // A failed accept (e.g. the peer reset before it was taken,
            // or descriptors exhausted): back off briefly and retry.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serve one client until it disconnects, errors, or asks for shutdown.
fn serve_connection(state: &State, stream: UnixStream) -> Result<(), proto::BusError> {
    // Blocking reads with a timeout, so a stalled client is bounded.
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = io::BufWriter::new(stream);
    loop {
        let request = match proto::read_frame::<Request, _>(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // clean disconnect
            Err(e) => {
                // Best effort: name the problem before dropping the
                // connection. A peer that died mid-write won't read it.
                let _ = proto::write_frame(
                    &mut writer,
                    &Response::Error { code: bus_error_code(&e).to_string(), message: e.to_string() },
                );
                return Err(e);
            }
        };
        let response = handle_request(state, &request);
        // Flag before the reply flushes: a client that has read
        // `ShuttingDown` must observe the daemon as shutting down.
        let stopping = matches!(request, Request::Shutdown);
        if stopping {
            state.shutdown.store(true, Ordering::Release);
        }
        proto::write_frame(&mut writer, &response)?;
        if stopping {
            return Ok(());
        }
    }
}

/// Stable machine-readable code for a framing failure.
fn bus_error_code(e: &proto::BusError) -> &'static str {
    match e {
        proto::BusError::Truncated { .. } => "truncated",
        proto::BusError::BadMagic { .. } => "bad_magic",
        proto::BusError::BadVersion { .. } => "bad_version",
        proto::BusError::FrameTooLarge { .. } => "frame_too_large",
        proto::BusError::Decode { .. } => "decode",
        proto::BusError::Io(_) => "io",
        proto::BusError::RetriesExhausted { .. } => "retries_exhausted",
    }
}

fn handle_request(state: &State, request: &Request) -> Response {
    obs::registry().counter("daemon.requests").inc();
    match request {
        Request::Ping => Response::Pong { version: proto::VERSION },
        Request::GetSnapshot => {
            let latest = state.latest.lock().unwrap_or_else(|e| e.into_inner());
            match latest.clone() {
                Some(snapshot) => Response::Snapshot { snapshot },
                // First tick hasn't fired yet; capture inline.
                None => Response::Snapshot {
                    snapshot: WireSnapshot::capture(
                        state.started.elapsed().as_millis() as u64
                    ),
                },
            }
        }
        Request::GetSeries { metric, tier, last } => match metric_index(metric) {
            Some(index) => {
                let store = state.store.lock().unwrap_or_else(|e| e.into_inner());
                Response::Series { series: store.series(index, *tier, *last as usize) }
            }
            None => Response::Error {
                code: "unknown_metric".to_string(),
                message: format!(
                    "unknown metric {metric:?}; known: {}",
                    crate::store::METRICS
                        .iter()
                        .map(|m| m.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            },
        },
        Request::ListSessions => {
            let log = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
            Response::Sessions { sessions: log.iter().cloned().collect() }
        }
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// Connect to a daemon, send one request, read one response.
pub fn request_once(
    socket_path: &std::path::Path,
    request: &Request,
) -> Result<Response, proto::BusError> {
    let stream = UnixStream::connect(socket_path)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = io::BufWriter::new(stream);
    proto::write_frame(&mut writer, request)?;
    match proto::read_frame::<Response, _>(&mut reader)? {
        Some(r) => Ok(r),
        None => Err(proto::BusError::Truncated { needed: proto::HEADER_BYTES, got: 0 }),
    }
}

/// [`request_once`] under a bounded, deterministic retry/backoff loop:
/// `1 + retries` attempts, sleeping `backoff` between them (constant, so
/// the worst-case wall clock is `retries × backoff` — predictable for
/// supervisors). Survives daemon restarts: the common failure it rides
/// out is `ECONNREFUSED`/`ENOENT` while a daemon is rebinding its
/// socket. Exhaustion returns [`proto::BusError::RetriesExhausted`]
/// naming the socket path.
pub fn request_with_retry(
    socket_path: &std::path::Path,
    request: &Request,
    retries: u32,
    backoff: Duration,
) -> Result<Response, proto::BusError> {
    let attempts = retries.saturating_add(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            obs::registry().counter("top.connect_retries").inc();
        }
        match request_once(socket_path, request) {
            Ok(r) => return Ok(r),
            Err(e) => last = e.to_string(),
        }
    }
    Err(proto::BusError::RetriesExhausted {
        socket: socket_path.to_path_buf(),
        attempts,
        last,
    })
}
