//! Golden digests: the output bits, pinned across commits.
//!
//! The other byte-identity harnesses compare two paths of one build
//! (thread counts, `Carrier` vs `CellSim`, faults off vs on). A change
//! that shifts every RNG draw the same way on every path passes all of
//! them. These digests do not: each is an FNV-1a hash over the `to_bits`
//! of a whole KPI stream (or innovation stream), and the expected values
//! are a table committed here.
//!
//! A change that means to move output bits updates the table and says
//! why in CHANGES.md. Any other change must leave it as it is.

use midband5g::measure::session::{MobilityKind, SessionResult, SessionSpec};
use midband5g::operators::Operator;
use midband5g::radio_channel::fading::{FadingConfig, FadingProcess};
use midband5g::radio_channel::rng::SeedTree;
use midband5g::radio_channel::shadowing::{ShadowingConfig, ShadowingProcess};
use midband5g::ran::kpi::{Direction, SlotKpi};

/// Session length, seconds: long enough to cross many tile refills,
/// HARQ rounds and CQI reports, short enough for debug-mode Tier-1.
const SESSION_S: f64 = 2.0;

/// FNV-1a over 64-bit words, little-endian byte order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn hash_record(h: &mut Fnv, k: &SlotKpi) {
    h.word(k.slot);
    h.f64(k.time_s);
    h.word(k.carrier as u64);
    h.word(matches!(k.direction, Direction::Ul) as u64);
    h.word(k.scheduled as u64);
    h.word(k.n_prb as u64);
    h.word(k.n_re as u64);
    h.word(k.mcs as u64);
    h.word(k.modulation.bits_per_symbol() as u64);
    h.word(k.layers as u64);
    h.word(k.tbs_bits as u64);
    h.word(k.delivered_bits as u64);
    h.word(k.is_retx as u64);
    h.word(k.block_error as u64);
    h.word(k.cqi as u64);
    h.f64(k.sinr_db);
    h.f64(k.rsrp_dbm);
    h.f64(k.rsrq_db);
    h.word(k.serving_site as u64);
    h.word(k.queue_bits as u64);
    h.f64(k.queue_delay_ms);
}

fn session_digest(spec: SessionSpec) -> (usize, u64) {
    let result = SessionResult::run(spec);
    let mut h = Fnv::new();
    for k in result.trace.iter() {
        hash_record(&mut h, &k);
    }
    (result.trace.len(), h.0)
}

/// `(label, spec, records, digest)`: the three deployments of the
/// benchmark's `session` round, T_Ge, and one driving session.
fn session_table() -> Vec<(&'static str, SessionSpec, usize, u64)> {
    vec![
        (
            "V_Sp stationary",
            SessionSpec::stationary(Operator::VodafoneSpain, 0, SESSION_S, 11),
            5600,
            0x86e5_f20d_8fbf_8fdd,
        ),
        (
            "T-Mobile stationary",
            SessionSpec::stationary(Operator::TMobileUs, 1, SESSION_S, 12),
            21200,
            0xa9ff_b81c_f988_cbcf,
        ),
        (
            "V_It stationary",
            SessionSpec::stationary(Operator::VodafoneItaly, 2, SESSION_S, 13),
            4800,
            0xedca_6fad_39b9_4ad6,
        ),
        (
            "T_Ge stationary",
            SessionSpec::stationary(Operator::TelekomGermany, 0, SESSION_S, 14),
            5600,
            0x7776_642a_f730_0a57,
        ),
        (
            "V_Sp driving",
            SessionSpec {
                mobility: MobilityKind::Driving,
                ..SessionSpec::stationary(Operator::VodafoneSpain, 0, SESSION_S, 15)
            },
            6080,
            0x86ee_3301_f556_621f,
        ),
    ]
}

#[test]
fn session_digests_are_unchanged() {
    let mut failures = Vec::new();
    for (label, spec, records, digest) in session_table() {
        let (n, got) = session_digest(spec);
        if (n, got) != (records, digest) {
            failures.push(format!("{label}: {n} records, digest {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "golden session digests moved:\n{}", failures.join("\n"));
}

/// The Gaussian innovation streams behind shadowing and fading. Both
/// processes draw one scalar Gaussian at construction, so every tile
/// refill after it starts mid-block in the keystream: the offset the
/// production slot loop runs at.
#[test]
fn innovation_stream_digest_is_unchanged() {
    let seeds = SeedTree::new(2024);
    let mut h = Fnv::new();
    for label in ["a", "b", "c"] {
        let mut shadow = ShadowingProcess::new(ShadowingConfig::default(), &seeds, label);
        h.f64(shadow.value_db());
        for _ in 0..1000 {
            h.f64(shadow.advance_with_time(0.0, 0.5e-3));
        }
        let mut fading = FadingProcess::new(FadingConfig::midband(11.0, 3.0), &seeds, label);
        h.f64(fading.value_db());
        for _ in 0..1000 {
            h.f64(fading.advance_slot());
        }
    }
    assert_eq!(h.0, 0x9d8d_b2b7_03d9_0afe, "golden innovation digest moved: {:#018x}", h.0);
}
