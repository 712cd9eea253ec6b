//! The invariant-audit mode (`MIDBAND5G_AUDIT=1`).
//!
//! Simulation and aggregation layers carry per-slot invariants —
//! `delivered_bits ≤ tbs_bits`, RB allocations within the carrier, CQI in
//! range, HARQ attempts bounded, monotone timestamps, resampler lengths —
//! that previously lived in scattered `debug_assert!`s: invisible in
//! release builds and fatal in debug ones. Audit mode promotes them into
//! *counted* violations: when enabled, every check that fails increments a
//! per-invariant atomic counter and execution continues, so a whole
//! campaign can run to completion and report every violation in its
//! snapshot instead of aborting on the first. Some checks re-run a
//! reference computation beside a fast path instead: `ran` decides each
//! BLER draw against a prefetched logit, and audit mode counts any block
//! where that disagrees with the direct test `u < BLER`.
//!
//! Checks are gated on [`enabled`] (a relaxed atomic load) so disabled
//! runs pay one branch per check site; counting is an atomic add, so the
//! hot path stays allocation-free either way.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Environment variable enabling audit mode. Any value other than empty,
/// `0` or `false` enables it.
pub const AUDIT_ENV: &str = "MIDBAND5G_AUDIT";

/// The audited invariants. Each maps to one violation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Invariant {
    /// A slot record credited more delivered bits than its transport
    /// block carried (`delivered_bits ≤ tbs_bits`).
    DeliveredWithinTbs = 0,
    /// An RB allocation exceeded the carrier's configured `n_rb`.
    RbWithinCarrier = 1,
    /// A CQI outside 0..=15 was observed on a KPI record.
    CqiRange = 2,
    /// A HARQ transmission exceeded the configured maximum attempts.
    HarqAttemptsWithinMax = 3,
    /// A KPI record's `time_s` went backwards within its carrier.
    TimeMonotone = 4,
    /// A resampled series' length differed from `ceil(duration/bin)`.
    ResampleLength = 5,
    /// The parallel executor lost or duplicated an indexed delivery.
    ExecutorDelivery = 6,
    /// A worker panicked and the panic was caught by the resilient
    /// executor. Under deliberate fault injection this counter is
    /// *expected* to be nonzero; gating jobs allow it explicitly.
    WorkerPanic = 7,
    /// A work item exhausted its retry budget and was abandoned. Like
    /// [`Invariant::WorkerPanic`], deliberately-injected chaos runs
    /// allow this counter while gating every other invariant at zero.
    ExecutorAbandoned = 8,
    /// The per-UE PRB grants of one cell slot summed to more than the
    /// cell's RB budget (the loaded-cell scheduler's conservation law).
    RbBudgetConserved = 9,
    /// A resampler was asked for a degenerate grid: non-finite or
    /// non-positive bin width, non-finite duration, or a `duration/bin`
    /// ratio that overflows — any of which would have saturated the bin
    /// count to `usize::MAX` and aborted on allocation. The resampler
    /// returns an empty series instead and counts the refusal here.
    ResampleGridDegenerate = 10,
    /// A gNB queue's depth exceeded its configured bit limit after an
    /// enqueue (the tail-drop conservation law).
    QueueWithinLimit = 11,
    /// A queued packet reported a negative sojourn at dequeue — the
    /// slot clock fed the queue a timestamp older than an arrival.
    QueueSojournNonNegative = 12,
    /// A distributed-campaign worker took over a lease whose heartbeat
    /// had gone stale (`measure::dist`). Under injected worker kills or
    /// stale-lease chaos this counter is *expected* to be nonzero;
    /// distributed gating jobs allow it explicitly.
    LeaseTakeover = 13,
    /// A distributed-campaign worker process died (crashed, was killed,
    /// or stopped heartbeating and was reaped by the coordinator). Like
    /// [`Invariant::LeaseTakeover`], kill-injected runs allow this
    /// counter while gating every other invariant at zero.
    WorkerLost = 14,
    /// A transport block's BLER draw, decided against the draw's
    /// prefetched logit, disagreed with the direct test `u < BLER`
    /// (`ran::leg`'s exact-decision rule).
    BlerDecisionExact = 15,
}

/// Every invariant, in counter order.
pub const INVARIANTS: [Invariant; 16] = [
    Invariant::DeliveredWithinTbs,
    Invariant::RbWithinCarrier,
    Invariant::CqiRange,
    Invariant::HarqAttemptsWithinMax,
    Invariant::TimeMonotone,
    Invariant::ResampleLength,
    Invariant::ExecutorDelivery,
    Invariant::WorkerPanic,
    Invariant::ExecutorAbandoned,
    Invariant::RbBudgetConserved,
    Invariant::ResampleGridDegenerate,
    Invariant::QueueWithinLimit,
    Invariant::QueueSojournNonNegative,
    Invariant::LeaseTakeover,
    Invariant::WorkerLost,
    Invariant::BlerDecisionExact,
];

impl Invariant {
    /// Stable snake_case name used in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::DeliveredWithinTbs => "delivered_within_tbs",
            Invariant::RbWithinCarrier => "rb_within_carrier",
            Invariant::CqiRange => "cqi_range",
            Invariant::HarqAttemptsWithinMax => "harq_attempts_within_max",
            Invariant::TimeMonotone => "time_monotone",
            Invariant::ResampleLength => "resample_length",
            Invariant::ExecutorDelivery => "executor_delivery",
            Invariant::WorkerPanic => "worker_panic",
            Invariant::ExecutorAbandoned => "executor_abandoned",
            Invariant::RbBudgetConserved => "rb_budget_conserved",
            Invariant::ResampleGridDegenerate => "resample_grid_degenerate",
            Invariant::QueueWithinLimit => "queue_within_limit",
            Invariant::QueueSojournNonNegative => "queue_sojourn_non_negative",
            Invariant::LeaseTakeover => "lease_takeover",
            Invariant::WorkerLost => "worker_lost",
            Invariant::BlerDecisionExact => "bler_decision_exact",
        }
    }

    /// Whether this invariant is expected to fire under deliberate fault
    /// injection (`measure::fault`). Chaos gating jobs allow these
    /// counters to be nonzero while holding every other invariant at
    /// zero.
    pub fn chaos_expected(self) -> bool {
        matches!(self, Invariant::WorkerPanic | Invariant::ExecutorAbandoned)
    }

    /// Whether this invariant is expected to fire under distributed
    /// campaigns with injected worker kills or checkpoint-dir chaos
    /// (`measure::dist`): the chaos-expected pair plus lease takeovers
    /// and lost workers. The `dist_smoke` gate allows exactly this set
    /// while holding every other invariant at zero.
    pub fn dist_expected(self) -> bool {
        self.chaos_expected()
            || matches!(self, Invariant::LeaseTakeover | Invariant::WorkerLost)
    }
}

static VIOLATIONS: [AtomicU64; INVARIANTS.len()] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// 0 = not yet resolved, 1 = off, 2 = on.
static MODE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var(AUDIT_ENV) {
        Ok(v) => {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => false,
    };
    MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Whether audit mode is on. Resolved from [`AUDIT_ENV`] on first call
/// and cached; [`set_enabled`] overrides it.
#[inline]
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

/// Force audit mode on or off, overriding the environment (tests and
/// gating binaries).
pub fn set_enabled(on: bool) {
    MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Record one violation of `inv` unconditionally.
#[inline]
pub fn violation(inv: Invariant) {
    VIOLATIONS[inv as usize].fetch_add(1, Ordering::Relaxed);
}

/// Count a violation of `inv` when `ok` is false; returns `ok` so call
/// sites can chain. Callers gate on [`enabled`] themselves so the
/// condition itself is not evaluated in un-audited runs.
#[inline]
pub fn check(inv: Invariant, ok: bool) -> bool {
    if !ok {
        violation(inv);
    }
    ok
}

/// Violations recorded so far for one invariant.
pub fn count(inv: Invariant) -> u64 {
    VIOLATIONS[inv as usize].load(Ordering::Relaxed)
}

/// Total violations across all invariants.
pub fn total_violations() -> u64 {
    VIOLATIONS.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// Zero every violation counter (the enabled flag is untouched).
pub fn reset() {
    for c in &VIOLATIONS {
        c.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the audit state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// Whether audit mode was enabled at snapshot time.
    pub enabled: bool,
    /// Sum of all per-invariant counts.
    pub total_violations: u64,
    /// `(invariant name, violation count)` in [`INVARIANTS`] order.
    pub violations: Vec<(&'static str, u64)>,
}

/// Copy out the audit counters.
pub fn snapshot() -> AuditSnapshot {
    let violations: Vec<(&'static str, u64)> =
        INVARIANTS.iter().map(|&inv| (inv.name(), count(inv))).collect();
    AuditSnapshot {
        enabled: enabled(),
        total_violations: violations.iter().map(|&(_, c)| c).sum(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_failures_only() {
        set_enabled(true);
        reset();
        assert!(check(Invariant::CqiRange, true));
        assert!(!check(Invariant::CqiRange, false));
        assert!(!check(Invariant::CqiRange, false));
        assert_eq!(count(Invariant::CqiRange), 2);
        assert_eq!(total_violations(), 2);
        let snap = snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.total_violations, 2);
        assert!(snap.violations.contains(&("cqi_range", 2)));
        reset();
        assert_eq!(total_violations(), 0);
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = INVARIANTS.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INVARIANTS.len());
    }
}
