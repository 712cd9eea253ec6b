#![warn(missing_docs)]

//! # ran — a slot-driven 5G RAN simulator
//!
//! This crate turns the PHY tables of `nr-phy` and the radio environment of
//! `radio-channel` into a running radio access network, reproducing the
//! adaptation loop of the paper's Fig. 21 every 0.5 ms slot:
//!
//! 1. the UE measures the channel and (periodically) reports CSI —
//!    CQI / RI ([`amc`]);
//! 2. the gNB scheduler allocates RBs and picks DCI format, MCS and MIMO
//!    layers ([`scheduler`], [`amc`]);
//! 3. the transport block decodes or fails per the link-level BLER curve;
//!    failures retransmit through HARQ ([`harq`]);
//! 4. every slot is logged as a KPI record — the XCAL-equivalent trace the
//!    `measure` and `analysis` crates consume ([`kpi`]).
//!
//! On top of the single-carrier loop sit:
//!
//! * [`carrier`] / [`sim`] — the per-UE simulator, including carrier
//!   aggregation across mixed numerologies (T-Mobile's n41+n25 combos,
//!   Appendix 10.5);
//! * [`lte`] + NSA uplink routing ([`config::UplinkRouting`]) — the
//!   EN-DC behaviour behind the paper's §4.2 finding that operators often
//!   push UL traffic to LTE;
//! * [`cell`] — the loaded-cell engine: N UEs (1 → 10k+) contending for
//!   one cell's RB budget under proportional-fair, round-robin, max-CQI
//!   or equal-share scheduling, with structure-of-arrays state and
//!   streaming per-UE sinks (the §5.2 / Fig. 14 mechanism at scale).
//!   Both engines run one UE's DL/UL leg through the same transmit
//!   kernel (AMC → TBS → HARQ → BLER draw → flow feedback);
//! * [`latency`] — the slot-aligned PHY user-plane latency probe model of
//!   §4.3 (TDD alignment + processing + HARQ);
//! * [`rrc`] — RRC state promotion costs the paper's methodology controls
//!   for (§2 ❺);
//! * [`workload`] / [`queue`] / [`flow`] — the pluggable traffic layer:
//!   a [`workload::Workload`] releases bits into a per-UE gNB queue
//!   ([`queue::GnbQueue`], FIFO tail-drop or CoDel AQM) that the
//!   scheduler drains, with per-TB delivery/loss fed back — the
//!   closed-loop transport (cwnd) and real-time (frame-delay) models the
//!   paper's §7 QoE analysis needs.

pub mod amc;
pub mod carrier;
pub mod cell;
pub mod config;
pub mod flow;
pub mod harq;
pub mod kpi;
pub mod latency;
mod leg;
pub mod lte;
pub mod queue;
pub mod rrc;
pub mod scheduler;
pub mod sim;
pub mod sink;
pub mod workload;

pub use amc::AmcState;
pub use carrier::Carrier;
pub use cell::{CellParams, CellSim, CellSink, CellTraces, UeSpec};
pub use config::{CellConfig, UplinkRouting};
pub use flow::Flow;
pub use kpi::{KpiTrace, SlotKpi};
pub use latency::{LatencyProbeConfig, LatencySample};
pub use lte::LteAnchor;
pub use queue::{Aqm, GnbQueue, QueueConfig};
pub use sim::{UeSim, UeSimConfig};
pub use sink::{SlotSink, Tee};
pub use workload::{AqmSpec, Cbr, CwndTransport, FullBuffer, RtcFrames, Workload, WorkloadSpec};
