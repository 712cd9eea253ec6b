//! Deterministic fault injection — the chaos layer of the campaign
//! engine.
//!
//! The paper's measurement pipeline lived with failure as a constant:
//! XCAL drive-test logs have collector gaps where the diag pipe stalled,
//! sessions abort mid-capture on RRC re-establishment or tool crashes,
//! and captured files arrive truncated. The authors analyse what
//! survived, not a perfect record. This module reproduces those failure
//! modes *deterministically*: a [`FaultPlan`] is a pure function of the
//! session seed and the [`FaultConfig`] rates, derived through the same
//! labelled [`SeedTree`] that drives every other random stream — so a
//! chaotic campaign is byte-reproducible across thread counts exactly
//! like a healthy one (`tests/chaos.rs` enforces this).
//!
//! Four paper-realistic faults are injectable:
//!
//! * **Collector gap** — a contiguous time span of slot records is
//!   dropped, as XCAL does when its diag pipe stalls.
//! * **Session abort** — the session terminates early, leaving a partial
//!   trace (RRC re-establishment, tool crash).
//! * **Record corruption** — measurement-quality fields (`sinr_db`,
//!   `rsrp_dbm`, `rsrq_db`) of injected records become NaN, the way a
//!   torn capture decodes into garbage. Downstream `analysis::stats`
//!   helpers are NaN-safe, so corrupted records degrade coverage instead
//!   of poisoning figures.
//! * **Worker panic** — the session's run deliberately panics mid-slot.
//!   [`crate::executor::Executor::map_resilient`] catches it, retries
//!   within budget, and abandons only sessions whose plan out-panics the
//!   budget.
//!
//! [`FaultConfig::default`] is all-zero: every existing test, bench and
//! determinism harness runs through a quiet plan that injects nothing,
//! so the chaos layer is provably free when disabled.

use crate::session::{SessionResult, SessionSpec};
use radio_channel::rng::SeedTree;
use ran::kpi::SlotKpi;
use ran::sink::SlotSink;
use rand::RngCore;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Per-session fault rates, each a probability in `[0, 1]`.
///
/// The default is all-zero — no faults, byte-identical behaviour to the
/// fault-free code path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a session loses a contiguous span of records
    /// (collector gap).
    pub gap_rate: f64,
    /// Probability that a session terminates early with a partial trace.
    pub abort_rate: f64,
    /// Per-record probability of NaN-corrupted measurement fields.
    pub corrupt_rate: f64,
    /// Probability that a session's run panics (and, at compounded odds,
    /// keeps panicking on retries — see [`FaultPlan::for_spec`]).
    pub panic_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { gap_rate: 0.0, abort_rate: 0.0, corrupt_rate: 0.0, panic_rate: 0.0 }
    }
}

impl FaultConfig {
    /// True when every rate is zero — the plan derived from this config
    /// injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.gap_rate == 0.0
            && self.abort_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.panic_rate == 0.0
    }
}

/// The deliberate-panic part of a plan: the session panics at the first
/// record at or after `at_s`, on attempts `0..attempts`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PanicPlan {
    /// Session time at which the panic fires, seconds.
    pub at_s: f64,
    /// Number of *initial attempts* that panic; attempt `attempts` (and
    /// later) succeed. A plan whose `attempts` exceeds the executor's
    /// retry budget produces an abandoned session.
    pub attempts: u32,
}

/// A session's deterministic fault schedule — a pure function of
/// `(session seed, FaultConfig)`, independent of thread count, executor
/// or wall clock. See [`FaultPlan::for_spec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Collector gap: records with `time_s` in `[start, end)` are
    /// dropped.
    pub gap_s: Option<(f64, f64)>,
    /// Session abort: the first record at or after this time latches the
    /// abort and every subsequent record is dropped.
    pub abort_s: Option<f64>,
    /// Deliberate worker panic.
    pub panic: Option<PanicPlan>,
    /// Per-record corruption probability (0 disables the corruption
    /// stream entirely).
    pub corrupt_rate: f64,
    /// Seed of the per-record corruption stream.
    corrupt_seed: u64,
}

/// Map a raw `u64` draw onto `[0, 1)` with 53 bits of precision.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// The no-fault plan.
    pub fn quiet() -> FaultPlan {
        FaultPlan { gap_s: None, abort_s: None, panic: None, corrupt_rate: 0.0, corrupt_seed: 0 }
    }

    /// Derive the schedule for one session spec.
    ///
    /// All randomness comes from the `"fault"` child of the session's
    /// seed tree (keyed by the raw session seed, *not* the city, so two
    /// operators sharing an environment still fault independently). A
    /// fixed number of uniforms is drawn in a fixed order regardless of
    /// which rates are zero, so raising one rate never perturbs the
    /// schedule another rate would produce.
    ///
    /// Panic persistence across retries: when the panic fault fires, a
    /// second uniform `u` picks how many initial attempts panic —
    /// 3 if `u < panic_rate` (usually beyond a small retry budget ⇒
    /// abandoned), 2 if `u < 0.5`, else 1. With a budget of ≥ 2 retries
    /// most panicking sessions therefore self-heal, and a deterministic
    /// minority surfaces in `Outcome::failures`.
    pub fn for_spec(spec: &SessionSpec, config: &FaultConfig) -> FaultPlan {
        if config.is_quiet() {
            return FaultPlan::quiet();
        }
        let seeds = SeedTree::new(spec.seed).child("fault");
        let mut rng = seeds.stream("plan");
        let draws: [f64; 8] = {
            let mut d = [0.0; 8];
            for slot in d.iter_mut() {
                *slot = unit(rng.next_u64());
            }
            d
        };
        let d = spec.duration_s.max(0.0);

        let gap_s = (draws[0] < config.gap_rate).then(|| {
            let start = draws[1] * 0.9 * d;
            let len = (0.05 + 0.25 * draws[2]) * d;
            (start, (start + len).min(d))
        });
        let abort_s = (draws[3] < config.abort_rate).then(|| (0.1 + 0.85 * draws[4]) * d);
        let panic = (draws[5] < config.panic_rate).then(|| PanicPlan {
            at_s: draws[6] * d,
            attempts: if draws[7] < config.panic_rate {
                3
            } else if draws[7] < 0.5 {
                2
            } else {
                1
            },
        });
        FaultPlan {
            gap_s,
            abort_s,
            panic,
            corrupt_rate: config.corrupt_rate,
            corrupt_seed: seeds.child("corrupt").root(),
        }
    }

    /// Whether this plan injects anything at all.
    pub fn is_quiet(&self) -> bool {
        self.gap_s.is_none()
            && self.abort_s.is_none()
            && self.panic.is_none()
            && self.corrupt_rate == 0.0
    }
}

/// Checkpoint-directory fault rates — the distributed extension of
/// [`FaultConfig`], injected by `measure::dist` workers against the
/// *shared checkpoint dir* instead of the record stream. Kept separate
/// from [`FaultConfig`] so existing const constructions stay valid and
/// in-session chaos composes freely with directory chaos.
///
/// The default is all-zero: no directory faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointFaultConfig {
    /// Probability that a session's first commit writes a *truncated*
    /// session file and abandons its lease — simulating a worker that
    /// died mid-commit. Exercises the salvage path: the torn file must
    /// be re-run, never trusted.
    pub truncate_rate: f64,
    /// Probability that a session's first claim tears `checkpoint.json`
    /// (overwrites it with a deterministic prefix of garbage) —
    /// simulating a crash mid-manifest-write. Exercises the
    /// resume-validation path: a torn manifest means "nothing to
    /// resume", never a crash.
    pub torn_manifest_rate: f64,
    /// Probability that a stale lease from a fictitious dead worker is
    /// planted before the session's first claim. Exercises the
    /// heartbeat-expiry takeover path deterministically.
    pub stale_lease_rate: f64,
}

impl CheckpointFaultConfig {
    /// True when every rate is zero — no directory faults are injected.
    pub fn is_quiet(&self) -> bool {
        self.truncate_rate == 0.0
            && self.torn_manifest_rate == 0.0
            && self.stale_lease_rate == 0.0
    }
}

/// A session's deterministic checkpoint-dir fault schedule — like
/// [`FaultPlan`], a pure function of `(session seed, config)`, drawn
/// from the `"ckpt-fault"` child of the session's seed tree with a
/// fixed number of uniforms in a fixed order, so raising one rate never
/// perturbs another fault's schedule. Every fault fires only on the
/// session's *first* claim generation, so retries and takeovers
/// converge instead of re-tearing the dir forever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointFaultPlan {
    /// First commit writes a truncated session file and abandons the
    /// lease.
    pub truncate_session: bool,
    /// First claim tears `checkpoint.json`.
    pub torn_manifest: bool,
    /// A stale lease from a dead worker is planted before first claim.
    pub stale_lease: bool,
}

impl CheckpointFaultPlan {
    /// The no-fault plan.
    pub fn quiet() -> CheckpointFaultPlan {
        CheckpointFaultPlan::default()
    }

    /// Derive the schedule for one session spec (see type docs).
    pub fn for_spec(spec: &SessionSpec, config: &CheckpointFaultConfig) -> CheckpointFaultPlan {
        if config.is_quiet() {
            return CheckpointFaultPlan::quiet();
        }
        let mut rng = SeedTree::new(spec.seed).child("ckpt-fault").stream("plan");
        let draws: [f64; 3] = {
            let mut d = [0.0; 3];
            for slot in d.iter_mut() {
                *slot = unit(rng.next_u64());
            }
            d
        };
        CheckpointFaultPlan {
            truncate_session: draws[0] < config.truncate_rate,
            torn_manifest: draws[1] < config.torn_manifest_rate,
            stale_lease: draws[2] < config.stale_lease_rate,
        }
    }

    /// Whether this plan injects anything at all.
    pub fn is_quiet(&self) -> bool {
        !(self.truncate_session || self.torn_manifest || self.stale_lease)
    }
}

/// What a [`FaultInjector`] did to one session attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Records the simulator emitted.
    pub seen: u64,
    /// Records forwarded to the inner sink.
    pub forwarded: u64,
    /// Records dropped inside a collector gap.
    pub dropped_gap: u64,
    /// Records dropped after a session abort.
    pub dropped_abort: u64,
    /// Records whose measurement fields were NaN-corrupted.
    pub corrupted: u64,
}

impl FaultStats {
    /// Fraction of emitted records that survived into the sink
    /// (`1.0` for an empty session).
    pub fn coverage(&self) -> f64 {
        if self.seen == 0 {
            1.0
        } else {
            self.forwarded as f64 / self.seen as f64
        }
    }
}

/// A [`SlotSink`] adapter that applies a [`FaultPlan`] to the record
/// stream on its way into `inner`: drops gap/abort spans, corrupts
/// injected records, and panics where the plan says a worker dies.
///
/// The injector sits *outside* the simulator, so the simulated radio
/// stays untouched — faults corrupt the *measurement* of the session,
/// exactly like the paper's collector failures.
pub struct FaultInjector<'a, S: SlotSink> {
    inner: &'a mut S,
    plan: &'a FaultPlan,
    /// Which attempt at this session this is (0 = first try).
    attempt: u32,
    corrupt_rng: Option<ChaCha12Rng>,
    aborted: bool,
    stats: FaultStats,
}

impl<'a, S: SlotSink> FaultInjector<'a, S> {
    /// Wrap `inner` for one attempt at a session.
    pub fn new(inner: &'a mut S, plan: &'a FaultPlan, attempt: u32) -> Self {
        let corrupt_rng = (plan.corrupt_rate > 0.0)
            .then(|| SeedTree::new(plan.corrupt_seed).stream("records"));
        FaultInjector { inner, plan, attempt, corrupt_rng, aborted: false, stats: FaultStats::default() }
    }

    /// What was injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// What a [`FaultInjector`] does with one record.
enum Verdict {
    /// Forward the record as it is.
    Keep,
    /// Forward this NaN-corrupted copy instead.
    Corrupt(SlotKpi),
    /// Drop it (collector gap or session abort).
    Drop,
    /// The planned worker panic fires at this record.
    Panic,
}

impl<S: SlotSink> FaultInjector<'_, S> {
    /// The per-record decision, in the fixed order panic, abort, gap,
    /// corruption draw. Counts the record; the caller forwards it.
    fn judge(&mut self, kpi: &SlotKpi) -> Verdict {
        self.stats.seen += 1;

        if let Some(p) = self.plan.panic {
            if self.attempt < p.attempts && kpi.time_s >= p.at_s {
                return Verdict::Panic;
            }
        }
        if let Some(abort_s) = self.plan.abort_s {
            if self.aborted || kpi.time_s >= abort_s {
                if !self.aborted {
                    self.aborted = true;
                    obs::registry().counter("fault.aborted_sessions").inc();
                }
                self.stats.dropped_abort += 1;
                return Verdict::Drop;
            }
        }
        if let Some((start, end)) = self.plan.gap_s {
            if kpi.time_s >= start && kpi.time_s < end {
                self.stats.dropped_gap += 1;
                obs::registry().counter("fault.gap_records").inc();
                return Verdict::Drop;
            }
        }
        self.stats.forwarded += 1;
        if let Some(rng) = self.corrupt_rng.as_mut() {
            if unit(rng.next_u64()) < self.plan.corrupt_rate {
                let mut corrupted = *kpi;
                corrupted.sinr_db = f64::NAN;
                corrupted.rsrp_dbm = f64::NAN;
                corrupted.rsrq_db = f64::NAN;
                self.stats.corrupted += 1;
                obs::registry().counter("fault.corrupted_records").inc();
                return Verdict::Corrupt(corrupted);
            }
        }
        Verdict::Keep
    }

    fn panic_at(&self, kpi: &SlotKpi) -> ! {
        let p = self.plan.panic.expect("a panic verdict comes from a panic plan");
        obs::registry().counter("fault.injected_panics").inc();
        panic!(
            "injected worker panic at t={:.4}s (attempt {} of {} planned)",
            kpi.time_s, self.attempt, p.attempts
        );
    }
}

impl<S: SlotSink> SlotSink for FaultInjector<'_, S> {
    /// Judges every row in order and forwards the survivors in order:
    /// each run of kept rows goes on as one block, straight from `rows`,
    /// so a block no fault touches passes through whole and uncopied, and
    /// a corrupted copy goes on as a one-row block. The survivors before
    /// a planned panic reach the inner sink before it fires, however the
    /// stream is cut into blocks.
    fn push_block(&mut self, rows: &[SlotKpi]) {
        let mut run = 0;
        for (i, kpi) in rows.iter().enumerate() {
            let verdict = self.judge(kpi);
            if let Verdict::Keep = verdict {
                continue;
            }
            self.inner.push_block(&rows[run..i]);
            run = i + 1;
            match verdict {
                Verdict::Corrupt(corrupted) => self.inner.push(&corrupted),
                Verdict::Panic => self.panic_at(kpi),
                Verdict::Keep | Verdict::Drop => {}
            }
        }
        self.inner.push_block(&rows[run..]);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Run one attempt at a session under `config`, streaming the surviving
/// records into `sink`; returns what the injector did. Panics where the
/// plan's [`PanicPlan`] covers `attempt` — [`crate::campaign::Plan`]
/// runs every attempt through
/// [`crate::executor::Executor::map_resilient`], which catches and
/// retries.
pub fn run_attempt<S: SlotSink>(
    spec: SessionSpec,
    config: &FaultConfig,
    attempt: u32,
    sink: &mut S,
) -> FaultStats {
    let plan = FaultPlan::for_spec(&spec, config);
    let mut injector = FaultInjector::new(sink, &plan, attempt);
    SessionResult::run_with_sink(spec, &mut injector);
    injector.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::Operator;
    use ran::kpi::{Direction, KpiTrace};

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec::stationary(Operator::VodafoneSpain, 0, 1.0, seed)
    }

    /// One attempt at `spec(seed)`, materialising the surviving trace.
    fn attempt(seed: u64, config: &FaultConfig, attempt: u32) -> (KpiTrace, FaultStats) {
        let mut trace = KpiTrace::new();
        let stats = run_attempt(spec(seed), config, attempt, &mut trace);
        (trace, stats)
    }

    const CHAOS: FaultConfig =
        FaultConfig { gap_rate: 0.5, abort_rate: 0.3, corrupt_rate: 0.02, panic_rate: 0.3 };

    #[test]
    fn checkpoint_plans_are_pure_and_quiet_by_default() {
        let quiet = CheckpointFaultPlan::for_spec(&spec(1), &CheckpointFaultConfig::default());
        assert!(quiet.is_quiet());
        let cfg = CheckpointFaultConfig {
            truncate_rate: 0.4,
            torn_manifest_rate: 0.2,
            stale_lease_rate: 0.4,
        };
        let mut fired = CheckpointFaultPlan::quiet();
        for seed in 0..64 {
            let a = CheckpointFaultPlan::for_spec(&spec(seed), &cfg);
            let b = CheckpointFaultPlan::for_spec(&spec(seed), &cfg);
            assert_eq!(a, b, "seed {seed}");
            fired.truncate_session |= a.truncate_session;
            fired.torn_manifest |= a.torn_manifest;
            fired.stale_lease |= a.stale_lease;
        }
        assert!(
            fired.truncate_session && fired.torn_manifest && fired.stale_lease,
            "each fault kind must fire somewhere over 64 seeds: {fired:?}"
        );
    }

    #[test]
    fn checkpoint_rates_gate_their_own_fault_only() {
        for seed in 0..64 {
            let leases_only = CheckpointFaultConfig {
                stale_lease_rate: 1.0,
                ..CheckpointFaultConfig::default()
            };
            let everything = CheckpointFaultConfig {
                truncate_rate: 0.7,
                torn_manifest_rate: 0.7,
                stale_lease_rate: 1.0,
            };
            let a = CheckpointFaultPlan::for_spec(&spec(seed), &leases_only);
            let b = CheckpointFaultPlan::for_spec(&spec(seed), &everything);
            assert_eq!(
                a.stale_lease, b.stale_lease,
                "seed {seed}: truncate/torn rates moved the stale-lease draw"
            );
            assert!(a.stale_lease, "rate 1.0 always plants");
        }
    }

    #[test]
    fn quiet_config_yields_quiet_plan() {
        let plan = FaultPlan::for_spec(&spec(1), &FaultConfig::default());
        assert!(plan.is_quiet());
        assert_eq!(plan, FaultPlan::quiet());
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_config() {
        for seed in 0..64 {
            let a = FaultPlan::for_spec(&spec(seed), &CHAOS);
            let b = FaultPlan::for_spec(&spec(seed), &CHAOS);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn rates_gate_their_own_fault_only() {
        // Enabling the gap must not move the abort/panic draws: the same
        // seed with gap_rate raised produces the identical abort/panic
        // sub-plan.
        for seed in 0..64 {
            let gaps_only = FaultConfig { gap_rate: 1.0, ..FaultConfig::default() };
            let everything = FaultConfig { gap_rate: 1.0, ..CHAOS };
            let a = FaultPlan::for_spec(&spec(seed), &gaps_only);
            let b = FaultPlan::for_spec(&spec(seed), &everything);
            assert_eq!(a.gap_s, b.gap_s, "seed {seed}: abort/panic rates moved the gap span");
        }
    }

    #[test]
    fn quiet_injection_is_a_no_op() {
        let healthy = SessionResult::run(spec(7));
        let (trace, stats) = attempt(7, &FaultConfig::default(), 0);
        assert_eq!(trace, healthy.trace);
        assert_eq!(stats.seen, stats.forwarded);
        assert_eq!(stats.coverage(), 1.0);
    }

    #[test]
    fn gap_drops_a_contiguous_span() {
        let config = FaultConfig { gap_rate: 1.0, ..FaultConfig::default() };
        let healthy = SessionResult::run(spec(3));
        let (trace, stats) = attempt(3, &config, 0);
        assert!(stats.dropped_gap > 0, "gap_rate=1 must drop records");
        assert_eq!(stats.forwarded as usize, trace.len());
        assert!(trace.len() < healthy.trace.len());
        // The dropped records form one time span: no surviving record
        // falls inside the planned gap.
        let plan = FaultPlan::for_spec(&spec(3), &config);
        let (start, end) = plan.gap_s.expect("gap planned");
        assert!(trace.iter().all(|r| r.time_s < start || r.time_s >= end));
    }

    #[test]
    fn abort_truncates_the_trace() {
        let config = FaultConfig { abort_rate: 1.0, ..FaultConfig::default() };
        let (trace, stats) = attempt(5, &config, 0);
        let plan = FaultPlan::for_spec(&spec(5), &config);
        let abort_s = plan.abort_s.expect("abort planned");
        assert!(stats.dropped_abort > 0);
        assert!(trace.iter().all(|r| r.time_s < abort_s));
        assert!(stats.coverage() < 1.0);
    }

    #[test]
    fn corruption_nans_measurement_fields_only() {
        let config = FaultConfig { corrupt_rate: 0.1, ..FaultConfig::default() };
        let healthy = SessionResult::run(spec(11));
        let (trace, stats) = attempt(11, &config, 0);
        assert!(stats.corrupted > 0, "10% corruption over a 1 s session must hit");
        assert_eq!(trace.len(), healthy.trace.len(), "corruption never drops records");
        let nan_records = trace.iter().filter(|r| r.sinr_db.is_nan()).count();
        assert_eq!(nan_records as u64, stats.corrupted);
        // Payload fields are untouched: throughput is unchanged.
        assert_eq!(
            trace.mean_throughput_mbps(Direction::Dl),
            healthy.trace.mean_throughput_mbps(Direction::Dl)
        );
    }

    #[test]
    fn planned_panic_fires_then_heals() {
        let config = FaultConfig { panic_rate: 1.0, ..FaultConfig::default() };
        let plan = FaultPlan::for_spec(&spec(2), &config);
        let p = plan.panic.expect("panic planned");
        let panicked = std::panic::catch_unwind(|| attempt(2, &config, 0));
        assert!(panicked.is_err(), "attempt 0 must panic");
        // The attempt past the planned count completes.
        let (healed, _) = attempt(2, &config, p.attempts);
        assert!(!healed.is_empty());
    }

    #[test]
    fn injected_panics_are_deterministic_across_attempt_replays() {
        let config = FaultConfig { panic_rate: 1.0, ..FaultConfig::default() };
        let a = std::panic::catch_unwind(|| attempt(2, &config, 0))
            .expect_err("attempt 0 panics");
        let b = std::panic::catch_unwind(|| attempt(2, &config, 0))
            .expect_err("replay panics identically");
        let msg = |p: Box<dyn std::any::Any + Send>| {
            p.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        assert_eq!(msg(a), msg(b));
    }
}
