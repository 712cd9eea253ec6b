//! Campaign orchestration and Table 1 bookkeeping.
//!
//! The study ran ~10 consecutive days per country, ~7 hours a day across
//! time slots, rotating spots, with all-contract SIMs and RRC warm-up.
//! [`Campaign`] reproduces that structure at simulation scale: a batch of
//! seeded sessions per operator, rotating the city's study spots, whose
//! traces feed every figure. [`CampaignTotals`] accumulates the Table 1
//! aggregates.
//!
//! Every fault-aware run goes through one [`Plan`]: an executor, a
//! [`FaultConfig`] and a retry budget. A [`Reducer`] says what each
//! surviving session leaves behind — its whole trace ([`Traces`]) or
//! bounded-memory aggregates ([`Aggregates`]) — and [`Plan::run`] folds
//! the survivors, the abandoned sessions and their coverage into one
//! [`Outcome`]. [`Plan::run_checkpointed`] runs the same body in waves,
//! persisting each wave so a killed campaign resumes where it stopped.

use crate::dataset::Dataset;
use crate::executor::{Executor, ExecutorError};
use crate::fault::{self, FaultConfig, FaultStats};
use crate::session::{MobilityKind, SessionResult, SessionSpec};
use analysis::OnlineAggregates;
use operators::Operator;
use ran::kpi::KpiTrace;
use ran::sink::SlotSink;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Default retry budget for the self-healing campaign paths: one initial
/// attempt plus up to this many retries per session.
pub const DEFAULT_RETRY_BUDGET: u32 = 2;

/// A batch of sessions for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Operator under test.
    pub operator: Operator,
    /// Number of stationary sessions (rotating over the study spots).
    pub sessions: u64,
    /// Duration of each session, seconds.
    pub session_duration_s: f64,
    /// Base seed; session `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Campaign {
    /// A default-sized campaign: enough sessions to average over the spot
    /// rotation and per-session shadowing.
    pub fn standard(operator: Operator, base_seed: u64) -> Self {
        Campaign { operator, sessions: 12, session_duration_s: 10.0, base_seed }
    }

    /// The session specs of this campaign. Seeds wrap on overflow so a
    /// `base_seed` near `u64::MAX` still yields `sessions` distinct seeds.
    pub fn specs(&self) -> Vec<SessionSpec> {
        (0..self.sessions)
            .map(|i| SessionSpec {
                operator: self.operator,
                mobility: MobilityKind::Stationary { spot: i as usize },
                dl: true,
                ul: true,
                duration_s: self.session_duration_s,
                seed: self.base_seed.wrapping_add(i),
            })
            .collect()
    }

    /// Run every session sequentially on the caller's thread, through no
    /// executor — the reference path the determinism harness compares
    /// [`Campaign::run_parallel`] against.
    pub fn run(&self) -> Vec<SessionResult> {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        self.specs().into_iter().map(SessionResult::run).collect()
    }

    /// Run every session across `threads` workers: a fault-free [`Plan`]
    /// over [`Traces`]. Results come back in spec order and are
    /// byte-identical to [`Campaign::run`] (`tests/determinism.rs`
    /// enforces this for thread counts 1/2/8). A session that panics
    /// panics the campaign.
    pub fn run_parallel(&self, threads: usize) -> Vec<SessionResult> {
        let outcome = Plan::clean(Executor::new(threads)).run(&self.specs(), &Traces);
        if let Some(f) = outcome.failures.first() {
            panic!("session {} of a fault-free campaign failed: {}", f.index, f.reason);
        }
        outcome.results
    }

    /// The description this campaign writes into a checkpoint dir's final
    /// `manifest.json`.
    pub fn checkpoint_description(&self) -> String {
        format!(
            "checkpointed campaign: {} x {} sessions, base seed {}",
            self.operator.acronym(),
            self.sessions,
            self.base_seed
        )
    }
}

/// How a campaign runs its sessions: the executor that fans them out,
/// the faults injected into every attempt, and how many retries a
/// panicking session gets before it is abandoned.
///
/// With `FaultConfig::default()` (all rates zero) the surviving results
/// are byte-identical to [`Campaign::run`]; with any config the outcome
/// is byte-identical across thread counts (`tests/chaos.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Where the sessions run.
    pub executor: Executor,
    /// Faults injected into every session attempt.
    pub faults: FaultConfig,
    /// Retries per panicking session (see [`Executor::map_resilient`]).
    pub retry_budget: u32,
}

impl Plan {
    /// A fault-free plan on `executor`: quiet faults, no retries.
    pub fn clean(executor: Executor) -> Plan {
        Plan { executor, faults: FaultConfig::default(), retry_budget: 0 }
    }

    /// Run every spec through `reducer`, isolating worker panics and
    /// retrying each failed session up to `retry_budget` times. Instead
    /// of panicking away the whole campaign when one session dies, the
    /// [`Outcome`] names what survived (in spec order), what was lost,
    /// and how much of each surviving trace is real coverage.
    pub fn run<R: Reducer>(&self, specs: &[SessionSpec], reducer: &R) -> Outcome<R::Output> {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        let all: Vec<usize> = (0..specs.len()).collect();
        self.run_wave(specs, &all, reducer)
    }

    /// The body of every fault-aware run: attempt `specs[i]` for each `i`
    /// in `wave` on the executor, then fold the survivors, failures and
    /// coverage, indexed into `specs`. [`Plan::run`] passes every index;
    /// [`Plan::run_checkpointed`] and the `dist` worker pass one wave.
    pub(crate) fn run_wave<R: Reducer>(
        &self,
        specs: &[SessionSpec],
        wave: &[usize],
        reducer: &R,
    ) -> Outcome<R::Output> {
        let attempts = self.executor.map_resilient(wave, self.retry_budget, |&i, attempt| {
            let mut sink = reducer.sink();
            let stats = fault::run_attempt(specs[i], &self.faults, attempt, &mut sink);
            (reducer.finish(specs[i], sink), stats)
        });
        let mut outcome =
            Outcome { results: Vec::new(), failures: Vec::new(), coverage: Vec::new() };
        for (&i, attempt) in wave.iter().zip(attempts.outputs) {
            let index = i as u64;
            match attempt {
                Ok((output, stats)) => {
                    outcome.results.push(output);
                    outcome.coverage.push(SessionCoverage { index, stats });
                }
                Err(f) => {
                    // The executor numbers items by their position in
                    // this wave; the reason names the spec index, so a
                    // resumed run reports what an uninterrupted one does.
                    let error = match f.error {
                        ExecutorError::WorkerPanic { payload, .. } => {
                            ExecutorError::WorkerPanic { index: i, payload }
                        }
                        other => other,
                    };
                    outcome.failures.push(SessionFailure {
                        index,
                        spec: specs[i],
                        attempts: f.attempts,
                        reason: error.to_string(),
                    });
                }
            }
        }
        outcome
    }

    /// [`Plan::run`] over [`Traces`], persisting every completed session
    /// into `dir` (via the [`Dataset`] session writer, one atomically
    /// renamed file each) as soon as its wave finishes. A
    /// `checkpoint.json` manifest records `(name, index, seed, spec hash,
    /// records, fault stats)` per entry. On restart over the same `dir`,
    /// sessions whose seed, spec hash, plain file name, on-disk spec and
    /// record count all match are loaded from disk and skipped (see
    /// `resume_prior`); everything else (including previously-abandoned
    /// sessions — they are never checkpointed) reruns. Because each
    /// session is a pure function of `(spec, attempt)`, a resumed
    /// campaign's results, coverage and directory are byte-identical to
    /// an uninterrupted one's.
    ///
    /// On completion the directory also gains a regular dataset
    /// `manifest.json` (described by `description`) over the surviving
    /// sessions, so a finished checkpoint dir doubles as a loadable
    /// [`Dataset`] export.
    pub fn run_checkpointed(
        &self,
        dir: &Path,
        specs: &[SessionSpec],
        description: &str,
    ) -> io::Result<Outcome<SessionResult>> {
        let _span = obs::span("campaign.run_checkpointed");
        let reg = obs::registry();
        reg.counter("campaign.runs").inc();
        std::fs::create_dir_all(dir)?;
        let ds = Dataset::at(dir);

        let (mut cached, mut entries) = resume_prior(dir, specs);
        reg.counter("campaign.checkpoint_hits").add(entries.len() as u64);

        // Run what is missing, in waves, checkpointing after each wave so
        // a kill loses at most one wave of work.
        let pending: Vec<usize> = (0..specs.len()).filter(|&i| cached[i].is_none()).collect();
        let mut failures = Vec::new();
        for wave in pending.chunks(self.executor.threads().max(1) * 2) {
            let out = self.run_wave(specs, wave, &Traces);
            for (result, coverage) in out.results.into_iter().zip(out.coverage) {
                entries.push(CheckpointEntry::write(&ds, &result, coverage)?);
                cached[coverage.index as usize] = Some((result, coverage.stats));
            }
            failures.extend(out.failures);
            entries.sort_by_key(|e| e.index);
            write_checkpoint(dir, &entries)?;
        }

        entries.sort_by_key(|e| e.index);
        write_final_manifests(dir, &entries, description)?;

        let mut outcome = Outcome { results: Vec::new(), failures, coverage: Vec::new() };
        for (index, slot) in cached.into_iter().enumerate() {
            if let Some((result, stats)) = slot {
                outcome.results.push(result);
                outcome.coverage.push(SessionCoverage { index: index as u64, stats });
            }
        }
        Ok(outcome)
    }
}

/// What a [`Plan`] keeps of each session. It makes a fresh sink for
/// every session attempt and turns the sink of the attempt that survived
/// into the session's value.
pub trait Reducer: Sync {
    /// The sink one attempt streams its surviving records into.
    type Sink: SlotSink;
    /// What a surviving session reduces to.
    type Output: Send;

    /// A fresh sink for one attempt.
    fn sink(&self) -> Self::Sink;

    /// The session's value, from the sink of its surviving attempt.
    fn finish(&self, spec: SessionSpec, sink: Self::Sink) -> Self::Output;
}

/// Keep every surviving record: one [`SessionResult`] per session.
#[derive(Debug, Clone, Copy)]
pub struct Traces;

impl Reducer for Traces {
    type Sink = KpiTrace;
    type Output = SessionResult;

    fn sink(&self) -> KpiTrace {
        KpiTrace::new()
    }

    fn finish(&self, spec: SessionSpec, trace: KpiTrace) -> SessionResult {
        SessionResult { spec, trace }
    }
}

/// Bounded memory: fold every surviving record straight into
/// per-session [`OnlineAggregates`] at `bin_s` throughput bins, which
/// hold O(duration / bin) words ([`OnlineAggregates::heap_bytes`]) and
/// no records. [`Aggregates::merge`] combines the sessions in spec order, so
/// the result is byte-identical to folding the stored traces of
/// [`Campaign::run`], whatever the thread count.
#[derive(Debug, Clone, Copy)]
pub struct Aggregates {
    /// Throughput bin width, seconds.
    pub bin_s: f64,
}

impl Aggregates {
    /// Merge per-session aggregates (an `Aggregates` run's
    /// [`Outcome::results`]) in the order given.
    pub fn merge(&self, per_session: &[OnlineAggregates]) -> OnlineAggregates {
        let mut merged = OnlineAggregates::new(self.bin_s);
        for agg in per_session {
            merged.merge(agg);
        }
        merged
    }
}

impl Reducer for Aggregates {
    type Sink = OnlineAggregates;
    type Output = OnlineAggregates;

    fn sink(&self) -> OnlineAggregates {
        OnlineAggregates::new(self.bin_s)
    }

    fn finish(&self, _spec: SessionSpec, aggregates: OnlineAggregates) -> OnlineAggregates {
        aggregates
    }
}

/// A session the resilient executor gave up on: its spec, how many
/// attempts were burned, and the terminal panic message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionFailure {
    /// Index of the session in [`Campaign::specs`] order.
    pub index: u64,
    /// The spec that kept failing.
    pub spec: SessionSpec,
    /// Total attempts made (1 initial + retries).
    pub attempts: u32,
    /// Stringified terminal error.
    pub reason: String,
}

/// Per-surviving-session record accounting under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionCoverage {
    /// Index of the session in [`Campaign::specs`] order.
    pub index: u64,
    /// What the fault injector saw, dropped and corrupted.
    pub stats: FaultStats,
}

impl SessionCoverage {
    /// Fraction of emitted records that survived into the result.
    pub fn fraction(&self) -> f64 {
        self.stats.coverage()
    }
}

/// What a [`Plan`] run produced: one reduced value per surviving session
/// in spec order, the sessions it had to abandon, and per-survivor
/// coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// Surviving sessions' values, in spec order (abandoned sessions are
    /// simply absent — `failures` names them).
    pub results: Vec<T>,
    /// Sessions abandoned after the retry budget, in spec order.
    pub failures: Vec<SessionFailure>,
    /// Fault-injection accounting for each surviving session.
    pub coverage: Vec<SessionCoverage>,
}

/// The outcome of a [`Traces`] run: whole session results.
pub type CampaignOutcome = Outcome<SessionResult>;

impl<T> Outcome<T> {
    /// True when every session survived.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fraction of sessions that survived.
    pub fn survival_rate(&self) -> f64 {
        let total = self.results.len() + self.failures.len();
        if total == 0 {
            1.0
        } else {
            self.results.len() as f64 / total as f64
        }
    }

    /// The lowest per-session record coverage among survivors (1.0 when
    /// there are none).
    pub fn min_coverage(&self) -> f64 {
        self.coverage.iter().map(SessionCoverage::fraction).fold(1.0, f64::min)
    }
}

// The vendored derive takes concrete types only; this is the object it
// would write: the three fields in declaration order.
impl<T: Serialize> Serialize for Outcome<T> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("results".to_string(), self.results.to_value()),
            ("failures".to_string(), self.failures.to_value()),
            ("coverage".to_string(), self.coverage.to_value()),
        ])
    }
}

/// One persisted session in a checkpoint directory. Shared by the
/// single-process checkpoint path and the distributed coordinator
/// (`measure::dist`), whose per-session `done/` markers carry exactly
/// this record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// Session file name under `sessions/`.
    pub name: String,
    /// Index in [`Campaign::specs`] order.
    pub index: u64,
    /// The session's seed (first resume check).
    pub seed: u64,
    /// [`SessionSpec::stable_hash`] at write time (second resume check).
    pub spec_hash: u64,
    /// Records in the persisted trace.
    pub records: u64,
    /// Fault stats of the attempt that produced the persisted trace.
    pub stats: FaultStats,
}

impl CheckpointEntry {
    /// Persist a surviving session into `ds` and describe it.
    pub(crate) fn write(
        ds: &Dataset,
        result: &SessionResult,
        coverage: SessionCoverage,
    ) -> io::Result<CheckpointEntry> {
        Ok(CheckpointEntry {
            name: ds.write_session(coverage.index as usize, result)?,
            index: coverage.index,
            seed: result.spec.seed,
            spec_hash: result.spec.stable_hash(),
            records: result.trace.len() as u64,
            stats: coverage.stats,
        })
    }
}

/// The `checkpoint.json` manifest: verified completed sessions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Completed sessions, sorted by spec index.
    pub entries: Vec<CheckpointEntry>,
}

/// Recover verified prior work from a checkpoint dir. A corrupt or
/// missing checkpoint manifest simply means "nothing to resume": an
/// entry is only trusted once its seed and spec hash match the spec at
/// its index, its file decodes to that very spec, and the decoded trace
/// holds exactly the `records` (and `stats.forwarded`) the entry claims.
/// Returns per-index cached results and the validated entries
/// (unsorted, in manifest order).
pub(crate) fn resume_prior(
    dir: &Path,
    specs: &[SessionSpec],
) -> (Vec<Option<(SessionResult, FaultStats)>>, Vec<CheckpointEntry>) {
    let ds = Dataset::at(dir);
    let prior = std::fs::read_to_string(dir.join("checkpoint.json"))
        .ok()
        .and_then(|json| serde_json::from_str::<CheckpointManifest>(&json).ok())
        .unwrap_or_default();
    let mut cached: Vec<Option<(SessionResult, FaultStats)>> = vec![None; specs.len()];
    let mut entries: Vec<CheckpointEntry> = Vec::new();
    for entry in prior.entries {
        let index = entry.index as usize;
        let Some(spec) = specs.get(index) else { continue };
        if entry.seed != spec.seed
            || entry.spec_hash != spec.stable_hash()
            || cached[index].is_some()
        {
            continue;
        }
        let Ok(result) = ds.load_session(&entry.name) else { continue };
        let len = result.trace.len() as u64;
        if result.spec != *spec || entry.records != len || entry.stats.forwarded != len {
            continue;
        }
        cached[index] = Some((result, entry.stats));
        entries.push(entry);
    }
    (cached, entries)
}

/// Write the final `checkpoint.json` + loadable dataset `manifest.json`
/// over `entries` (which must already be sorted by index). Every path
/// that finishes a checkpoint dir — single-process waves and the
/// distributed merge alike — funnels through this one writer, which is
/// what makes the two byte-identical.
pub fn write_final_manifests(
    dir: &Path,
    entries: &[CheckpointEntry],
    description: &str,
) -> io::Result<()> {
    write_checkpoint(dir, entries)?;
    let manifest = crate::dataset::DatasetManifest {
        description: description.to_string(),
        sessions: entries.iter().map(|e| e.name.clone()).collect(),
        total_records: entries.iter().map(|e| e.records).sum(),
        version: crate::dataset::DATASET_VERSION,
    };
    crate::dataset::commit_file(&dir.join("manifest.json"), pretty(&manifest)?.as_bytes())
}

/// Durably write `checkpoint.json` over `entries` via
/// [`crate::dataset::commit_file`] (process-unique tmp sibling, fsync,
/// rename, dir fsync), so readers and resumed campaigns never observe a
/// torn manifest and a host crash cannot lose an acknowledged commit.
fn write_checkpoint(dir: &Path, entries: &[CheckpointEntry]) -> io::Result<()> {
    let manifest = CheckpointManifest { entries: entries.to_vec() };
    crate::dataset::commit_file(&dir.join("checkpoint.json"), pretty(&manifest)?.as_bytes())
}

/// Pretty JSON, with a serialisation failure as an I/O error.
pub(crate) fn pretty<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Table 1 aggregates across campaigns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignTotals {
    /// Total network-test minutes.
    pub minutes: f64,
    /// Total data consumed on 5G, bytes.
    pub bytes: u64,
    /// Number of sessions executed.
    pub sessions: u64,
    /// Operators covered.
    pub operators: Vec<String>,
}

impl CampaignTotals {
    /// Fold one session into the totals.
    pub fn add(&mut self, result: &SessionResult) {
        self.minutes += result.minutes();
        self.bytes += result.bytes_delivered();
        self.sessions += 1;
        let name = result.spec.operator.acronym().to_string();
        if !self.operators.contains(&name) {
            self.operators.push(name);
        }
    }

    /// Data consumed in terabytes.
    pub fn terabytes(&self) -> f64 {
        self.bytes as f64 / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_rotate_spots_and_seeds() {
        let c = Campaign { operator: Operator::AttUs, sessions: 4, session_duration_s: 3.0, base_seed: 100 };
        let specs = c.specs();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].seed, 100);
        assert_eq!(specs[3].seed, 103);
        assert!(matches!(specs[2].mobility, MobilityKind::Stationary { spot: 2 }));
    }

    #[test]
    fn totals_accumulate() {
        let c = Campaign { operator: Operator::VodafoneGermany, sessions: 2, session_duration_s: 1.0, base_seed: 5 };
        let mut totals = CampaignTotals::default();
        for r in c.run() {
            totals.add(&r);
        }
        assert_eq!(totals.sessions, 2);
        assert!((totals.minutes - 2.0 / 60.0).abs() < 1e-12);
        assert!(totals.bytes > 0);
        assert_eq!(totals.operators, vec!["V_Ge".to_string()]);
    }

    #[test]
    fn streaming_matches_posthoc_fold() {
        let c = Campaign { operator: Operator::VodafoneItaly, sessions: 3, session_duration_s: 1.0, base_seed: 42 };
        let reducer = Aggregates { bin_s: 0.5 };
        let plan = Plan::clean(Executor::new(2));
        let streamed = reducer.merge(&plan.run(&c.specs(), &reducer).results);
        // Sequential AoS baseline: fold each full trace post-hoc, merge in
        // spec order.
        let mut baseline = OnlineAggregates::new(0.5);
        for result in c.run() {
            let mut agg = OnlineAggregates::new(0.5);
            for r in result.trace.iter() {
                SlotSink::push(&mut agg, &r);
            }
            agg.finish();
            baseline.merge(&agg);
        }
        assert_eq!(streamed, baseline);
        assert!(streamed.records() > 0);
        assert!(streamed.mean_throughput_mbps(ran::kpi::Direction::Dl) > 10.0);
    }

    #[test]
    fn streaming_campaign_bounds_aggregate_memory() {
        // The acceptance bound: each session of the 3-operator standard
        // campaign folds into three series of its duration grid plus the
        // RE sketch, and holds under 10% of its records' columnar bytes.
        let operators = [Operator::VodafoneSpain, Operator::TelekomGermany, Operator::AttUs];
        let sketch_bytes = 8 * (analysis::online::RE_SKETCH_BOUNDS.len() + 1);
        for (i, op) in operators.iter().enumerate() {
            let reducer = Aggregates { bin_s: 1.0 };
            let specs = Campaign::standard(*op, 1000 + i as u64).specs();
            for agg in Plan::clean(Executor::new(4)).run(&specs, &reducer).results {
                let n = ran::kpi::BinGrid::new(1.0, agg.duration_s()).expect("in-cap grid").n();
                let records = usize::try_from(agg.records()).expect("fits");
                let columns = KpiTrace::columns_byte_len(records).expect("fits");
                let held = agg.heap_bytes();
                assert!(n > 0 && held <= 3 * 8 * n + sketch_bytes, "{held} B for {n} bins");
                assert!(held < columns / 10, "{held} B held vs {columns} B of records");
            }
        }
    }
}
