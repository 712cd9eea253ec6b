#![warn(missing_docs)]

//! # nr-phy — 3GPP 5G NR physical-layer substrate
//!
//! This crate implements the parts of the 3GPP NR physical layer that the
//! SIGCOMM 2024 paper *"Unveiling the 5G Mid-Band Landscape"* dissects in its
//! measurement analysis:
//!
//! * [`numerology`] — sub-carrier spacings, slot/symbol timing (TS 38.211);
//! * [`band`] — the NR band catalogue (n25/n41/n77/n78/n261, …), duplexing
//!   modes and NR-ARFCN ↔ frequency conversion (TS 38.104 §5.4.2);
//! * [`bandwidth`] — channel bandwidth → maximum transmission bandwidth
//!   `N_RB` tables (TS 38.101-1/-2 §5.3.2), the quantity in row 7 of the
//!   paper's Tables 2 and 3 and in its Figure 4;
//! * [`tdd`] — TDD-UL-DL slot patterns (`DDDSU`, `DDDDDDDSUU`, …) whose
//!   structure drives the paper's §4.2 uplink and §4.3 latency findings;
//! * [`mcs`] — MCS index tables 1/2/3 (TS 38.214 §5.1.3.1) mapping the MCS
//!   indices signalled in DCI to modulation order and code rate;
//! * [`cqi`] — CQI tables (TS 38.214 §5.2.2.1) and the *vendor-defined*
//!   CQI→MCS mapping policies the paper highlights in §3.1;
//! * [`tbs`] — the complete transport-block-size determination procedure of
//!   TS 38.214 §5.1.3.2, which turns per-slot allocations into bytes;
//! * [`resource`] — resource block / resource element accounting;
//! * [`dci`] / [`csi`] — downlink control information and channel-state
//!   feedback records (paper Appendix 10.2, Fig. 21);
//! * [`harq`] — HARQ redundancy-version sequencing;
//! * [`throughput`] — the TS 38.306 §4.1.2 maximum-data-rate formula the
//!   paper evaluates in §3.2;
//! * [`sib`] — the MIB/SIB-derived channel-information extraction procedure
//!   of the paper's Appendix 10.1.
//!
//! Everything here is deterministic, allocation-light, table-driven code —
//! in the spirit of the smoltcp design rules this workspace follows:
//! simplicity and robustness over type tricks, and documentation on every
//! public item.

pub mod band;
pub mod bandwidth;
pub mod cqi;
pub mod csi;
pub mod dci;
pub mod error;
pub mod harq;
pub mod mcs;
pub mod numerology;
pub mod resource;
pub mod sib;
pub mod tbs;
pub mod tdd;
pub mod throughput;

pub use band::{Band, DuplexMode, FrequencyRange, NrArfcn};
pub use bandwidth::{max_transmission_bandwidth, ChannelBandwidth};
pub use cqi::{Cqi, CqiTable, CqiToMcsPolicy};
pub use csi::CsiReport;
pub use dci::{Dci, DciFormat};
pub use error::PhyError;
pub use harq::RedundancyVersion;
pub use mcs::{McsIndex, McsTable, Modulation};
pub use numerology::Numerology;
pub use resource::{RbAllocation, SLOT_SYMBOLS};
pub use tbs::transport_block_size;
pub use tdd::{SlotType, SpecialSlotConfig, TddPattern};
pub use throughput::{max_data_rate_mbps, CarrierSpec, LinkDirection};
