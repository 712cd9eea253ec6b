//! Property-based tests of the PHY substrate's invariants.

use nr_phy::band::NrArfcn;
use nr_phy::bandwidth::{guard_bandwidth_khz, max_transmission_bandwidth, ChannelBandwidth};
use nr_phy::cqi::{Cqi, CqiTable, CqiToMcsPolicy};
use nr_phy::mcs::{McsIndex, McsTable};
use nr_phy::resource::RbAllocation;
use nr_phy::tbs::{tbs_bits, transport_block_size};
use nr_phy::tdd::{SpecialSlotConfig, TddPattern};
use nr_phy::throughput::{max_data_rate_mbps, CarrierRange, CarrierSpec, LinkDirection};
use nr_phy::Numerology;
use proptest::prelude::*;

proptest! {
    /// The global frequency raster is a bijection on raster points.
    #[test]
    fn arfcn_roundtrip(n in 0u32..=3_279_165) {
        let khz = NrArfcn(n).to_khz().unwrap();
        prop_assert_eq!(NrArfcn::from_khz(khz).unwrap(), NrArfcn(n));
    }

    /// TBS is monotone in every input dimension.
    #[test]
    fn tbs_monotonicity(
        n_re in 12u32..50_000,
        rate_milli in 100u32..948,
        qm in prop::sample::select(vec![2u8, 4, 6, 8]),
        layers in 1u8..=4,
    ) {
        let rate = f64::from(rate_milli) / 1024.0;
        let base = tbs_bits(n_re, rate, qm, layers);
        prop_assert!(tbs_bits(n_re + 156, rate, qm, layers) >= base);
        prop_assert!(tbs_bits(n_re, (rate + 0.02).min(0.95), qm, layers) >= base);
        if layers < 4 {
            prop_assert!(tbs_bits(n_re, rate, qm, layers + 1) >= base);
        }
        // TBS respects the raw information bound, up to the §5.1.3.2
        // quantisation (which rounds N'_info to a 2^n grid whose step is
        // ≈ N_info/64) plus the small-table slack.
        let n_info = n_re as f64 * rate * f64::from(qm) * f64::from(layers);
        prop_assert!(f64::from(base) <= n_info * (1.0 + 1.0 / 60.0) + 3900.0);
    }

    /// The per-carrier TBS memo is bit-identical to the direct §5.1.3.2
    /// computation across random allocations, MCS tables, MCS indices,
    /// and layer counts — including the out-of-range inputs that bypass
    /// the memo and repeated queries that hit it.
    #[test]
    fn memoised_tbs_bit_identical_to_direct(
        table in prop::sample::select(vec![
            McsTable::Qam64,
            McsTable::Qam256,
            McsTable::Qam64LowSe,
        ]),
        queries in prop::collection::vec(
            (1u16..=273, 1u8..=14, 0u8..=34, 0u8..=5),
            1..100,
        ),
    ) {
        let mut memo = nr_phy::tbs::TbsCache::new();
        for (n_prb, n_symbols, mcs, layers) in queries {
            let alloc = RbAllocation {
                n_prb,
                n_symbols,
                dmrs_re_per_prb: 24,
                overhead_re_per_prb: 12,
            };
            let direct = transport_block_size(&alloc, table, McsIndex(mcs), layers);
            // Ask twice so both the fill and the hit path are checked.
            prop_assert_eq!(
                memo.transport_block_size(&alloc, table, McsIndex(mcs), layers),
                direct
            );
            prop_assert_eq!(
                memo.transport_block_size(&alloc, table, McsIndex(mcs), layers),
                direct
            );
        }
    }

    /// Large transport blocks always come out byte-aligned after CRC
    /// (the (TBS + 24) % 8 == 0 rule of the segmentation arms).
    #[test]
    fn large_tbs_crc_alignment(
        n_prb in 50u16..=273,
        mcs in 10u8..28,
        layers in 2u8..=4,
    ) {
        let alloc = RbAllocation::full_slot(n_prb);
        let bits = transport_block_size(&alloc, McsTable::Qam256, McsIndex(mcs), layers);
        if bits > 3824 {
            prop_assert_eq!((bits + 24) % 8, 0, "bits={}", bits);
        }
    }

    /// Any parseable TDD pattern round-trips through its string form and
    /// keeps its duty cycles in (0, 1) with DL + UL < 1 (guard exists in
    /// the special slot).
    #[test]
    fn tdd_pattern_roundtrip(
        pattern in "[DU]{0,8}S[DU]{0,8}",
        dl in 0u8..=12,
        ul in 0u8..=12,
    ) {
        prop_assume!(dl + ul <= 12); // leave ≥2 guard symbols
        prop_assume!(pattern.contains('D') || dl > 0);
        prop_assume!(pattern.contains('U') || ul > 0);
        let special = SpecialSlotConfig {
            dl_symbols: dl,
            guard_symbols: 14 - dl - ul,
            ul_symbols: ul,
        };
        let p = TddPattern::parse(&pattern, special).unwrap();
        prop_assert_eq!(p.pattern_string(), pattern);
        let (d, u) = (p.dl_duty_cycle(), p.ul_duty_cycle());
        prop_assert!(d + u < 1.0);
        prop_assert!(d > 0.0 && u > 0.0);
        // Alignment search terminates and wraps for every start slot.
        for slot in 0..p.len() as u64 {
            prop_assert!(p.slots_to_next_ul(slot) <= p.len() as u64);
            prop_assert!(p.slots_to_next_dl(slot) <= p.len() as u64);
        }
    }

    /// The vendor mapping is monotone in CQI for any fixed offset.
    #[test]
    fn cqi_policy_monotone(offset in -6i8..=6) {
        for table in [CqiTable::Table1, CqiTable::Table2] {
            let policy = CqiToMcsPolicy { index_offset: offset, ..CqiToMcsPolicy::neutral(table) };
            let mut prev = McsIndex(0);
            for c in 1..=15u8 {
                let m = policy.map(Cqi::new(c).unwrap());
                prop_assert!(m >= prev, "table {:?} cqi {}: {} < {}", table, c, m.0, prev.0);
                prev = m;
            }
        }
    }

    /// The 38.306 data rate is positive, linear in N_RB, and monotone in
    /// layers/modulation, for every valid carrier.
    #[test]
    fn max_rate_properties(
        n_rb in 11u16..=273,
        layers in 1u8..=4,
    ) {
        let cc = |n: u16, l: u8, m: nr_phy::mcs::Modulation| CarrierSpec {
            layers: l,
            modulation: m,
            scaling: 1.0,
            numerology: Numerology::Mu1,
            n_rb: n,
            range: CarrierRange::Fr1,
        };
        use nr_phy::mcs::Modulation;
        let base = max_data_rate_mbps(&[cc(n_rb, layers, Modulation::Qam64)], LinkDirection::Downlink).unwrap();
        prop_assert!(base > 0.0);
        let wider = max_data_rate_mbps(&[cc(n_rb, layers, Modulation::Qam256)], LinkDirection::Downlink).unwrap();
        prop_assert!((wider / base - 8.0 / 6.0).abs() < 1e-9);
        let double = max_data_rate_mbps(
            &[cc(n_rb, layers, Modulation::Qam64), cc(n_rb, layers, Modulation::Qam64)],
            LinkDirection::Downlink,
        ).unwrap();
        prop_assert!((double / base - 2.0).abs() < 1e-9, "CA sums linearly");
    }

    /// Every defined (bandwidth, SCS) pair keeps its occupied bandwidth
    /// inside the channel.
    #[test]
    fn nrb_guard_band_positive(mhz in prop::sample::select(vec![5u32,10,15,20,25,30,40,50,60,80,90,100])) {
        for numerology in [Numerology::Mu0, Numerology::Mu1] {
            let bw = ChannelBandwidth::from_mhz(mhz);
            if max_transmission_bandwidth(bw, numerology).is_ok() {
                let guard = guard_bandwidth_khz(bw, numerology).unwrap();
                prop_assert!(guard > 0);
            }
        }
    }
}
