//! Transport-block-size determination (TS 38.214 §5.1.3.2).
//!
//! Given the REs allocated in a slot, the MCS (code rate and modulation) and
//! the number of MIMO layers, this procedure produces the number of
//! information bits carried by the slot's transport block — the paper's §3.1
//! observation "given the same number of RBs allocated to the UE, a high MCS
//! index produces a larger TB size, translating into high throughput" made
//! exact.

use crate::mcs::{McsIndex, McsTable};
use crate::resource::RbAllocation;

/// TS 38.214 Table 5.1.3.2-1: TBS values for N_info ≤ 3824 bits.
const TBS_TABLE: [u32; 93] = [
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160, 168, 176,
    184, 192, 208, 224, 240, 256, 272, 288, 304, 320, 336, 352, 368, 384, 408, 432, 456, 480,
    504, 528, 552, 576, 608, 640, 672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128,
    1160, 1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736, 1800, 1864,
    1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472, 2536, 2600, 2664, 2728, 2792, 2856, 2976,
    3104, 3240, 3368, 3496, 3624, 3752, 3824,
];

/// Compute the transport block size in **bits**.
///
/// * `n_re` — total resource elements available to the transport block
///   (already capped per-PRB by [`RbAllocation::tbs_re`]);
/// * `code_rate` — target code rate R from the MCS table;
/// * `modulation_bits` — Q_m;
/// * `layers` — number of MIMO layers ν (1..=4 for the deployments studied).
///
/// Implements every quantisation step of §5.1.3.2: intermediate N_info,
/// the ≤3824 table lookup, and the >3824 formula with code-block
/// segmentation (LDPC base-graph boundary at 3824/8424 bits, CRC 24 bits).
pub fn tbs_bits(n_re: u32, code_rate: f64, modulation_bits: u8, layers: u8) -> u32 {
    if n_re == 0 || code_rate <= 0.0 || modulation_bits == 0 || layers == 0 {
        return 0;
    }
    // Step 2: intermediate number of information bits.
    let n_info = n_re as f64 * code_rate * modulation_bits as f64 * layers as f64;
    if n_info <= 3824.0 {
        // Step 3: quantised N'_info, then the table lookup.
        let n = ((n_info.log2().floor() as i32) - 6).max(3) as u32;
        let pow = 1u64 << n;
        let quantised = (pow * (n_info as u64 / pow)).max(24);
        // Smallest table entry ≥ quantised N'_info (quantised ≤ 3824 =
        // TBS_TABLE[92], so the index is always in range and the fallback
        // is defensive only).
        let idx = TBS_TABLE.partition_point(|&t| (t as u64) < quantised);
        TBS_TABLE.get(idx).copied().unwrap_or(3824)
    } else {
        // Step 4: large TBS formula.
        let n = ((n_info - 24.0).log2().floor() as i32 - 5).max(0) as u32;
        let pow = (1u64 << n) as f64;
        let quantised = (pow * ((n_info - 24.0) / pow).round()).max(3840.0);
        let q = quantised as u64;
        if code_rate <= 0.25 {
            let c = (q + 24).div_ceil(3816);
            (8 * c * (q + 24).div_ceil(8 * c) - 24) as u32
        } else if q > 8424 {
            let c = (q + 24).div_ceil(8424);
            (8 * c * (q + 24).div_ceil(8 * c) - 24) as u32
        } else {
            (8 * (q + 24).div_ceil(8) - 24) as u32
        }
    }
}

/// Transport block size for an [`RbAllocation`] and an MCS drawn from a
/// table — the form the RAN scheduler uses each slot.
///
/// Returns 0 for out-of-table MCS indices (defensive: retransmission
/// indices 29..=31 carry no new TBS).
pub fn transport_block_size(
    alloc: &RbAllocation,
    table: McsTable,
    mcs: McsIndex,
    layers: u8,
) -> u32 {
    let Ok(rate) = table.code_rate(mcs) else { return 0 };
    let Ok(modulation) = table.modulation(mcs) else { return 0 };
    tbs_bits(alloc.tbs_re(), rate, modulation.bits_per_symbol(), layers)
}

/// Memo slots per `(n_re, table)` entry: MCS indices 0..32 × layers 1..=4.
const MEMO_MCS: usize = 32;
const MEMO_LAYERS: usize = 4;

/// Sentinel for "not yet computed" (0 is a valid TBS result).
const MEMO_EMPTY: u32 = u32::MAX;

/// A per-carrier transport-block-size memo.
///
/// [`transport_block_size`] is a pure function of
/// `(n_re, table, mcs, layers)`, and on the per-slot scheduling path those
/// inputs cycle with the TDD pattern and the CSI period — a handful of
/// distinct `n_re` values and a slowly-moving MCS — so hit rates are
/// near one. Entries are keyed by `(n_re, table)` with a dense MCS×layers panel
/// inside; a new `(n_re, table)` pair allocates once (construction /
/// warm-up), after which lookups are allocation-free. Out-of-range inputs
/// (MCS ≥ 32, layers 0 or > 4) fall through to the direct computation.
#[derive(Debug, Clone, Default)]
pub struct TbsCache {
    entries: Vec<(u32, McsTable, Box<[u32; MEMO_MCS * MEMO_LAYERS]>)>,
}

impl TbsCache {
    /// An empty memo.
    pub fn new() -> Self {
        TbsCache { entries: Vec::new() }
    }

    /// Memoised [`transport_block_size`] — bit-identical to the direct
    /// computation for every input.
    pub fn transport_block_size(
        &mut self,
        alloc: &RbAllocation,
        table: McsTable,
        mcs: McsIndex,
        layers: u8,
    ) -> u32 {
        let (mcs_i, layers_i) = (mcs.0 as usize, layers as usize);
        if mcs_i >= MEMO_MCS || layers_i == 0 || layers_i > MEMO_LAYERS {
            return transport_block_size(alloc, table, mcs, layers);
        }
        let n_re = alloc.tbs_re();
        let panel = match self.entries.iter_mut().find(|(r, t, _)| *r == n_re && *t == table) {
            Some((_, _, panel)) => panel,
            None => {
                self.entries.push((n_re, table, Box::new([MEMO_EMPTY; MEMO_MCS * MEMO_LAYERS])));
                &mut self.entries.last_mut().expect("just pushed").2
            }
        };
        let base = mcs_i * MEMO_LAYERS;
        if panel[base + layers_i - 1] == MEMO_EMPTY {
            // Fill the whole ν row for this MCS on a miss: rank adaptation
            // sweeps the layer count under a slowly-moving MCS, so one
            // miss warms the other three layer slots the scheduler is
            // about to ask for.
            for l in 1..=MEMO_LAYERS as u8 {
                let slot = &mut panel[base + l as usize - 1];
                if *slot == MEMO_EMPTY {
                    *slot = transport_block_size(alloc, table, mcs, l);
                }
            }
        }
        panel[base + layers_i - 1]
    }
}

/// Convenience: TBS expressed in bytes (floor).
pub fn transport_block_bytes(
    alloc: &RbAllocation,
    table: McsTable,
    mcs: McsIndex,
    layers: u8,
) -> u32 {
    transport_block_size(alloc, table, mcs, layers) / 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbs_table_is_sorted_and_sized() {
        assert_eq!(TBS_TABLE.len(), 93);
        assert!(TBS_TABLE.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(TBS_TABLE[0], 24);
        assert_eq!(TBS_TABLE[92], 3824);
    }

    #[test]
    fn zero_inputs_give_zero() {
        assert_eq!(tbs_bits(0, 0.5, 6, 4), 0);
        assert_eq!(tbs_bits(1000, 0.0, 6, 4), 0);
        assert_eq!(tbs_bits(1000, 0.5, 0, 4), 0);
        assert_eq!(tbs_bits(1000, 0.5, 6, 0), 0);
    }

    #[test]
    fn small_allocation_uses_table() {
        // 1 PRB, 144 REs, QPSK R=120/1024, 1 layer:
        // N_info = 144 · 0.1171875 · 2 = 33.75 → n = max(3, 5-6)=3,
        // N'_info = 8·floor(33.75/8)=32 → TBS = 32.
        let bits = tbs_bits(144, 120.0 / 1024.0, 2, 1);
        assert_eq!(bits, 32);
    }

    #[test]
    fn large_allocation_matches_formula_shape() {
        // Full 273-PRB slot, 256QAM R=948/1024, 4 layers:
        // N_re = 144·273 = 39312, N_info = 39312·0.92578·8·4 ≈ 1_164_711.
        let alloc = RbAllocation::full_slot(273);
        let bits = transport_block_size(&alloc, McsTable::Qam256, McsIndex(27), 4);
        // Expect within a code-block's rounding of N_info.
        let n_info = alloc.tbs_re() as f64 * (948.0 / 1024.0) * 8.0 * 4.0;
        assert!(bits as f64 > n_info * 0.99, "bits={bits} n_info={n_info}");
        assert!((bits as f64) < n_info * 1.02, "bits={bits} n_info={n_info}");
        // And byte-multiple after CRC adjustment: (TBS+24) divisible by 8.
        assert_eq!((bits + 24) % 8, 0);
    }

    #[test]
    fn tbs_monotone_in_mcs() {
        let alloc = RbAllocation::full_slot(106);
        let mut prev = 0;
        for i in 0..28 {
            let b = transport_block_size(&alloc, McsTable::Qam256, McsIndex(i), 2);
            assert!(b >= prev, "MCS {i}: {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn tbs_monotone_in_layers() {
        let alloc = RbAllocation::full_slot(245);
        let mut prev = 0;
        for layers in 1..=4 {
            let b = transport_block_size(&alloc, McsTable::Qam64, McsIndex(20), layers);
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn four_layers_roughly_quadruple_one_layer() {
        // §4.1: "4 MIMO layers essentially quadruples the radio resources".
        let alloc = RbAllocation::full_slot(245);
        let one = transport_block_size(&alloc, McsTable::Qam256, McsIndex(20), 1) as f64;
        let four = transport_block_size(&alloc, McsTable::Qam256, McsIndex(20), 4) as f64;
        assert!((four / one - 4.0).abs() < 0.05, "ratio {}", four / one);
    }

    #[test]
    fn low_rate_triggers_quarter_rate_segmentation() {
        // Huge allocation at R ≤ 1/4 exercises the 3816-bit segmentation arm.
        let bits = tbs_bits(39_312, 0.2, 2, 4);
        assert!(bits > 3824);
        assert_eq!((bits + 24) % 8, 0);
    }

    #[test]
    fn out_of_table_mcs_gives_zero() {
        let alloc = RbAllocation::full_slot(100);
        assert_eq!(transport_block_size(&alloc, McsTable::Qam256, McsIndex(31), 4), 0);
    }

    #[test]
    fn partition_point_matches_linear_scan() {
        // The binary search must agree with the original linear scan
        // ("smallest table entry ≥ quantised N'_info") for the whole
        // quantised domain of the ≤3824 branch.
        for q in 1u64..=3824 {
            let scan = TBS_TABLE.iter().copied().find(|&t| t as u64 >= q).unwrap_or(3824);
            let idx = TBS_TABLE.partition_point(|&t| (t as u64) < q);
            let binary = TBS_TABLE.get(idx).copied().unwrap_or(3824);
            assert_eq!(binary, scan, "N'_info = {q}");
        }
    }

    #[test]
    fn memoised_tbs_matches_direct() {
        let mut cache = TbsCache::new();
        for n_prb in [1u16, 52, 106, 245, 273] {
            let alloc = RbAllocation::full_slot(n_prb);
            for table in [McsTable::Qam64, McsTable::Qam256, McsTable::Qam64LowSe] {
                for mcs in 0..32u8 {
                    for layers in 0..=5u8 {
                        let direct =
                            transport_block_size(&alloc, table, McsIndex(mcs), layers);
                        // Twice: the miss path and the hit path.
                        for _ in 0..2 {
                            let memo = cache.transport_block_size(
                                &alloc,
                                table,
                                McsIndex(mcs),
                                layers,
                            );
                            assert_eq!(memo, direct, "{n_prb} PRB mcs {mcs} ν{layers}");
                        }
                    }
                }
            }
        }
    }
}
