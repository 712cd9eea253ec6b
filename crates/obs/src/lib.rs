#![warn(missing_docs)]

//! # obs — zero-dependency observability for the midband5g stack
//!
//! After the parallel campaign engine (PR 1) and the zero-allocation slot
//! loop (PR 2) the simulator runs fast but blind: nothing reports what the
//! executor, scheduler, HARQ entities or analysis layers actually did.
//! This crate is the missing layer, in three parts:
//!
//! * [`registry`](mod@registry) — a lock-free metrics registry: counters, gauges and
//!   fixed-bucket histograms backed by leaked atomics. Registration takes
//!   a mutex once; every update is a relaxed atomic RMW, so instrumented
//!   hot paths stay allocation-free (`ran/tests/alloc_free.rs` holds with
//!   instrumentation compiled in). Per-slot hot paths batch their counts
//!   through [`LocalCounter`], which publishes with one atomic add per
//!   flush instead of one per event, so parallel sessions do not contend
//!   on shared counter cells.
//! * [`span`](mod@span) — scoped enter/exit timing onto duration histograms,
//!   placed around campaign execution, per-session simulation, slot
//!   stepping and dataset export.
//! * [`audit`] — the `MIDBAND5G_AUDIT=1` invariant-audit mode: per-slot
//!   checks (`delivered_bits ≤ tbs_bits`, RB ≤ N_RB, CQI ∈ 0..=15, HARQ
//!   attempts ≤ max, monotone `time_s`, resampler length) counted as
//!   reportable violations instead of aborting `debug_assert!`s.
//!
//! [`snapshot`] copies everything out; [`Snapshot::to_json`] renders it
//! (no serde — the crate is dependency-free) and [`write_snapshot`] puts
//! an `OBS_<run>.json` file next to `BENCH_slotloop.json` so observability
//! artefacts ride along with the tracked performance baseline.
//!
//! **Determinism contract:** metrics and audit counters are *outside* the
//! determinism boundary. They never feed back into simulation state or
//! RNG streams, so byte-identical traces across thread counts
//! (`tests/determinism.rs`) hold with instrumentation enabled.

pub mod audit;
pub mod registry;
pub mod span;

pub use registry::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, LocalCounter, Registry,
    COUNT_BOUNDS, DURATION_NS_BOUNDS,
};
pub use span::{span, SpanGuard};

use std::io;
use std::path::{Path, PathBuf};

/// A complete observability snapshot: every metric plus the audit state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Plain histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span-duration histograms (nanoseconds), sorted by name.
    pub spans: Vec<HistogramSnapshot>,
    /// Invariant-audit counters.
    pub audit: audit::AuditSnapshot,
}

impl Snapshot {
    /// Total number of distinct metrics (counters + gauges + histograms
    /// + spans; the audit section is counted separately).
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len() + self.spans.len()
    }

    /// Value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of a gauge by name, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A span histogram by name, if registered.
    pub fn span(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.spans.iter().find(|h| h.name == name)
    }

    /// A plain histogram by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render the snapshot as a pretty-printed JSON document.
    ///
    /// Shape (stable; documented in DESIGN.md §5.3):
    ///
    /// ```json
    /// {
    ///   "run": "<name>",
    ///   "counters": { "<name>": <u64>, ... },
    ///   "gauges": { "<name>": <i64>, ... },
    ///   "histograms": { "<name>": { "count", "sum", "buckets": [{"le", "count"}], "overflow" } },
    ///   "spans": { ... same shape, values in nanoseconds ... },
    ///   "audit": { "enabled": bool, "total_violations": <u64>,
    ///              "violations": { "<invariant>": <u64>, ... } }
    /// }
    /// ```
    pub fn to_json(&self, run: &str) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"run\": ");
        json_string(&mut out, run);
        out.push_str(",\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        close_obj(&mut out, self.counters.is_empty());
        out.push_str(",\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        close_obj(&mut out, self.gauges.is_empty());
        out.push_str(",\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            json_histogram(&mut out, h);
        }
        close_obj(&mut out, self.histograms.is_empty());
        out.push_str(",\n  \"spans\": {");
        for (i, h) in self.spans.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            json_histogram(&mut out, h);
        }
        close_obj(&mut out, self.spans.is_empty());
        out.push_str(",\n  \"audit\": {\n    \"enabled\": ");
        out.push_str(if self.audit.enabled { "true" } else { "false" });
        out.push_str(&format!(
            ",\n    \"total_violations\": {},\n    \"violations\": {{",
            self.audit.total_violations
        ));
        for (i, (name, count)) in self.audit.violations.iter().enumerate() {
            push_sep(&mut out, i, "      ");
            json_string(&mut out, name);
            out.push_str(&format!(": {count}"));
        }
        if self.audit.violations.is_empty() {
            out.push('}');
        } else {
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn push_sep(out: &mut String, index: usize, indent: &str) {
    if index > 0 {
        out.push(',');
    }
    out.push('\n');
    out.push_str(indent);
}

fn close_obj(out: &mut String, empty: bool) {
    if empty {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

fn json_histogram(out: &mut String, h: &HistogramSnapshot) {
    json_string(out, &h.name);
    out.push_str(&format!(": {{\"count\": {}, \"sum\": {}, \"buckets\": [", h.count, h.sum));
    for (i, (le, count)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"le\": {le}, \"count\": {count}}}"));
    }
    out.push_str(&format!("], \"overflow\": {}}}", h.overflow));
}

/// Append a JSON string literal (quotes + escapes) to `out`.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Copy out every registered metric plus the audit counters
/// ([`Registry::snapshot`] of the process-wide registry).
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Zero every metric and audit counter (registrations and the audit
/// enabled flag are kept). Call at the start of a gated run so the
/// snapshot covers exactly that run.
pub fn reset() {
    registry().reset();
    audit::reset();
}

/// Write the current snapshot to `<dir>/OBS_<run>.json` and return the
/// path. `run` should be a short filesystem-safe tag (e.g. `campaign`).
pub fn write_snapshot(run: &str, dir: &Path) -> io::Result<PathBuf> {
    let path = dir.join(format!("OBS_{run}.json"));
    std::fs::write(&path, snapshot().to_json(run))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn snapshot_renders_registered_metrics() {
        registry().counter("test.lib.counter").add(3);
        registry().gauge("test.lib.gauge").set(-2);
        registry().histogram("test.lib.hist", &[10]).record(4);
        let _s = span("test.lib.span");
        drop(_s);
        let snap = snapshot();
        assert!(snap.metric_count() >= 4);
        assert_eq!(snap.counter("test.lib.counter"), Some(3));
        assert_eq!(snap.gauge("test.lib.gauge"), Some(-2));
        assert!(snap.histogram("test.lib.hist").is_some());
        assert!(snap.span("test.lib.span").is_some());

        let json = snap.to_json("unit");
        assert!(json.starts_with("{\n  \"run\": \"unit\""));
        assert!(json.contains("\"test.lib.counter\": 3"));
        assert!(json.contains("\"test.lib.gauge\": -2"));
        assert!(json.contains("\"audit\""));
        assert!(json.contains("\"total_violations\""));
        assert!(json.contains("\"delivered_within_tbs\""));
        // Balanced braces — cheap structural sanity without a parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn write_snapshot_places_file() {
        let dir = std::env::temp_dir().join(format!("obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_snapshot("unitrun", &dir).unwrap();
        assert!(path.ends_with("OBS_unitrun.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"run\": \"unitrun\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
