//! The bus wire protocol: length-prefixed, versioned serde frames.
//!
//! Every message on the `midband5g-d` Unix socket is one frame:
//!
//! ```text
//! +--------+---------+--------+------------------+
//! | magic  | version | length | payload          |
//! | u32 LE | u16 LE  | u32 LE | `length` bytes   |
//! +--------+---------+--------+------------------+
//! ```
//!
//! The payload is the serde-JSON encoding of a [`Request`] or
//! [`Response`] (the vendored serde emits fields in declaration order,
//! so encoding is deterministic and roundtrips byte-identically —
//! `tests/bus_proto.rs`). The magic pins the stream to this protocol,
//! the version allows incompatible evolution, and the length prefix
//! bounds every read. Malformed input — wrong magic, unknown version,
//! oversized or truncated frames, unknown message tags — surfaces as a
//! typed [`BusError`], never a panic: a daemon must survive any bytes a
//! client throws at it.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Frame magic: `"MB5G"` little-endian.
pub const MAGIC: u32 = 0x4735_424d;
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Upper bound on a frame payload; larger lengths are rejected before
/// any allocation, so a corrupt prefix cannot OOM the peer.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;
/// Bytes of the fixed frame header (magic + version + length).
pub const HEADER_BYTES: usize = 10;

/// A retention tier of the daemon's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// The raw per-slot sample ring (most recent samples, irregular
    /// timestamps).
    Raw,
    /// 1-second bins.
    Seconds,
    /// 1-minute bins.
    Minutes,
}

/// A request frame, client → daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// The latest periodically-published metrics snapshot.
    GetSnapshot,
    /// A window of one metric at one retention tier.
    GetSeries {
        /// Metric name (see `store::METRICS`).
        metric: String,
        /// Which retention tier to read.
        tier: Tier,
        /// Maximum bins (or raw samples) to return, newest last;
        /// 0 means "everything retained".
        last: u64,
    },
    /// Completed sessions, oldest first.
    ListSessions,
    /// Stop the daemon: campaigns wind down, the socket closes.
    Shutdown,
}

/// A response frame, daemon → client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness answer.
    Pong {
        /// Protocol version the daemon speaks.
        version: u16,
    },
    /// The latest published metrics snapshot.
    Snapshot {
        /// The snapshot.
        snapshot: WireSnapshot,
    },
    /// One metric window.
    Series {
        /// The series.
        series: WireSeries,
    },
    /// Completed sessions.
    Sessions {
        /// Oldest first; capped to the daemon's session-log retention.
        sessions: Vec<SessionInfo>,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// Stable machine-readable code (`unknown_metric`, ...).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// A point-in-time copy of the obs registry + audit state, in wire form
/// (the obs types themselves are deliberately serde-free).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSnapshot {
    /// Milliseconds since the daemon started when this snapshot was
    /// published by the tick thread.
    pub uptime_ms: u64,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram `(name, count, sum)` summaries (plain + span), sorted.
    pub histograms: Vec<(String, u64, u64)>,
    /// Whether audit mode was enabled.
    pub audit_enabled: bool,
    /// Total invariant violations.
    pub total_violations: u64,
    /// Per-invariant violation counts, in `obs::audit::INVARIANTS` order.
    pub violations: Vec<(String, u64)>,
}

impl WireSnapshot {
    /// Build from the current obs state.
    pub fn capture(uptime_ms: u64) -> WireSnapshot {
        let snap = obs::snapshot();
        let mut histograms: Vec<(String, u64, u64)> = snap
            .histograms
            .iter()
            .chain(snap.spans.iter())
            .map(|h| (h.name.clone(), h.count, h.sum))
            .collect();
        histograms.sort();
        WireSnapshot {
            uptime_ms,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms,
            audit_enabled: snap.audit.enabled,
            total_violations: snap.audit.total_violations,
            violations: snap
                .audit
                .violations
                .iter()
                .map(|&(name, n)| (name.to_string(), n))
                .collect(),
        }
    }

    /// Value of a counter by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of a gauge by name, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One metric window in wire form.
///
/// For the binned tiers ([`Tier::Seconds`], [`Tier::Minutes`]) the
/// window is a dense grid: `values[i]` covers
/// `[(start_bin + i) * bin_s, (start_bin + i + 1) * bin_s)` on the
/// daemon timeline, `counts[i]` is the samples that actually landed
/// there (0 marks a sample-and-hold bin, same convention as
/// `analysis::timeseries`), and `times` is empty. For [`Tier::Raw`]
/// the samples are irregular: `times`/`values` pair up, `bin_s` is 0
/// and `counts` is empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSeries {
    /// Metric name.
    pub metric: String,
    /// The tier this window was read from.
    pub tier: Tier,
    /// Bin width in seconds (0 for the raw tier).
    pub bin_s: f64,
    /// Global index of the first bin (bin edges at `index * bin_s`).
    pub start_bin: u64,
    /// Raw-sample timestamps (raw tier only).
    pub times: Vec<f64>,
    /// One value per bin / raw sample.
    pub values: Vec<f64>,
    /// Samples per bin (binned tiers only).
    pub counts: Vec<u64>,
}

/// One completed session in the daemon's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionInfo {
    /// Monotone session sequence number.
    pub index: u64,
    /// Campaign wave the session ran in.
    pub wave: u64,
    /// Operator acronym.
    pub operator: String,
    /// Session seed.
    pub seed: u64,
    /// KPI records the session emitted.
    pub records: u64,
    /// Session-mean DL goodput, Mbps.
    pub dl_mbps: f64,
}

/// A typed bus failure. Framing errors name exactly what was wrong with
/// the bytes; they are never panics.
#[derive(Debug)]
pub enum BusError {
    /// The stream ended mid-header or mid-payload.
    Truncated {
        /// Bytes the frame section needed.
        needed: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: u32,
    },
    /// The version field was not [`VERSION`].
    BadVersion {
        /// What was found instead.
        found: u16,
    },
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload was not valid JSON for the expected message type
    /// (includes unknown enum tags).
    Decode {
        /// Decoder detail.
        message: String,
    },
    /// An underlying socket error.
    Io(io::Error),
    /// A bounded retry loop gave up: every attempt against the named
    /// socket failed, `last` being the final attempt's error.
    RetriesExhausted {
        /// The socket that kept refusing.
        socket: std::path::PathBuf,
        /// Attempts made (1 initial + retries).
        attempts: u32,
        /// Stringified error of the last attempt.
        last: String,
    },
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            BusError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (expected {MAGIC:#010x})")
            }
            BusError::BadVersion { found } => {
                write!(f, "unsupported bus version {found} (speaking {VERSION})")
            }
            BusError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_BYTES}")
            }
            BusError::Decode { message } => write!(f, "undecodable frame: {message}"),
            BusError::Io(e) => write!(f, "bus i/o error: {e}"),
            BusError::RetriesExhausted { socket, attempts, last } => write!(
                f,
                "daemon at {} unreachable after {attempts} attempts: {last}",
                socket.display()
            ),
        }
    }
}

impl std::error::Error for BusError {}

impl From<io::Error> for BusError {
    fn from(e: io::Error) -> BusError {
        BusError::Io(e)
    }
}

/// Encode one message as a complete frame (header + payload).
pub fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>, BusError> {
    let json =
        serde_json::to_string(msg).map_err(|e| BusError::Decode { message: e.to_string() })?;
    let payload = json.as_bytes();
    let len = u32::try_from(payload.len()).map_err(|_| BusError::FrameTooLarge { len: u32::MAX })?;
    if len > MAX_FRAME_BYTES {
        return Err(BusError::FrameTooLarge { len });
    }
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Write one message as a frame and flush.
pub fn write_frame<T: Serialize, W: Write>(w: &mut W, msg: &T) -> Result<(), BusError> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. `Ok(None)` is a clean end of stream (the peer closed
/// before starting another frame); anything malformed mid-frame is a
/// typed [`BusError`].
pub fn read_frame<T: Deserialize, R: Read>(r: &mut R) -> Result<Option<T>, BusError> {
    let mut header = [0u8; HEADER_BYTES];
    match read_exact_count(r, &mut header)? {
        0 => return Ok(None),
        n if n < HEADER_BYTES => {
            return Err(BusError::Truncated { needed: HEADER_BYTES, got: n })
        }
        _ => {}
    }
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(BusError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(BusError::BadVersion { found: version });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME_BYTES {
        return Err(BusError::FrameTooLarge { len });
    }
    // The buffer grows with the bytes that arrive, not with the claim, so
    // a forged prefix under the cap cannot reserve up to MAX_FRAME_BYTES
    // for a short stream.
    let mut payload = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(BusError::Truncated { needed: len as usize, got: payload.len() });
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|e| BusError::Decode { message: e.to_string() })?;
    match serde_json::from_str(text) {
        Ok(msg) => Ok(Some(msg)),
        Err(e) => Err(BusError::Decode { message: e.to_string() }),
    }
}

/// Decode one frame from an in-memory buffer (testing / replay).
pub fn decode_frame<T: Deserialize>(bytes: &[u8]) -> Result<Option<T>, BusError> {
    read_frame(&mut &bytes[..])
}

/// `read_exact` that reports *how many* bytes arrived before EOF instead
/// of collapsing everything into `UnexpectedEof` — the difference
/// between "peer is done" (0 bytes) and "peer died mid-frame" (some).
fn read_exact_count<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, BusError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(BusError::Io(e)),
        }
    }
    Ok(got)
}
