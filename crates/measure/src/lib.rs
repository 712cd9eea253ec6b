#![warn(missing_docs)]

//! # measure — the measurement-campaign framework (paper §2)
//!
//! Orchestrates the simulated equivalent of the paper's 5600+ minutes of
//! experiments: sessions ([`session`]) bind an operator profile to a
//! mobility pattern, a city spot, a traffic workload and a seed;
//! [`iperf`] splits a saturating transfer's NSA trace into its NR and
//! LTE legs; [`latency`]
//! the §4.3 user-plane latency probes; [`campaign`] batches sessions the
//! way the study did (multiple spots, repeated time slots) and produces
//! the Table 1 bookkeeping; [`loadsweep`] sweeps one loaded cell from 1
//! to 10k+ contending UEs for the throughput/fairness-vs-load curves.
//!
//! Every fault-aware session run goes through one [`Plan`] — an
//! [`Executor`], a [`FaultConfig`] and a retry budget — and a
//! [`Reducer`] that keeps either whole traces ([`Traces`]) or
//! bounded-memory aggregates ([`Aggregates`]). [`Plan::run`] returns an
//! [`Outcome`] of survivors, failures and coverage;
//! [`Plan::run_checkpointed`] persists waves of it into a [`Dataset`]
//! directory that [`dist`] shards across worker processes.
//!
//! Every result is bit-reproducible from `(operator, session spec, seed)`.

pub mod campaign;
pub mod dataset;
pub mod dist;
pub mod executor;
pub mod fault;
pub mod iperf;
pub mod latency;
pub mod loadsweep;
pub mod session;

pub use campaign::{
    write_final_manifests, Aggregates, Campaign, CampaignOutcome, CampaignTotals,
    CheckpointEntry, CheckpointManifest, Outcome, Plan, Reducer, SessionCoverage,
    SessionFailure, Traces, DEFAULT_RETRY_BUDGET,
};
pub use dataset::{
    commit_file, decode_session, encode_session, sync_dir, trace_to_csv, Dataset, DatasetManifest,
    DecodeError, LoadError,
};
pub use dist::{
    run_distributed, run_worker, DistConfig, DistJob, DistManifest, DistOutcome, DistStats,
    DistTiming, WorkerReport, HANG_ENV,
};
pub use executor::{Executor, ExecutorError, ItemFailure, ResilientOutcome, THREADS_ENV};
pub use fault::{CheckpointFaultConfig, CheckpointFaultPlan, FaultConfig, FaultPlan, FaultStats};
pub use iperf::nr_only;
pub use latency::{measure_latency, LatencyError, LatencyResult};
pub use loadsweep::{CellLoadPoint, CellLoadSweep, SPOT_DISTANCES_M};
pub use session::{MobilityKind, SessionResult, SessionSpec, WorkloadOutcome, WorkloadResult};
