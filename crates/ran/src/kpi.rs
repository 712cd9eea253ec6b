//! Slot-level KPI records — the simulator's XCAL equivalent.
//!
//! The paper collects "detailed 5G lower-layer information at the
//! slot-level (the finest time scale possible)". [`SlotKpi`] carries the
//! same fields its analysis dissects: throughput (TBS delivered), MCS,
//! modulation, MIMO layers, RB/RE allocation, CQI, BLER events and signal
//! measurements. [`KpiTrace`] aggregates them into the time series the
//! `analysis` crate resamples.
//!
//! # Columnar storage
//!
//! A trace is stored **column-wise** (structure-of-arrays), in chunks of
//! [`CHUNK_RECORDS`] records: one parallel vector per scalar field plus
//! bit-packed flag columns for `direction`/`scheduled`/`is_retx`/
//! `block_error`. Aggregations such as [`KpiTrace::throughput_series_mbps`]
//! or [`KpiTrace::modulation_shares`] then touch only the columns they
//! need (a few bytes per record) instead of dragging ~100-byte AoS
//! records through cache. [`SlotKpi`] remains the unit of *exchange*:
//! [`KpiTrace::push`] takes one, [`KpiTrace::push_block`] a slice of them
//! (written column by column, [`BLOCK_RECORDS`] rows at a time),
//! iterators yield them by value, and the streaming
//! [`crate::sink::SlotSink`] trait moves them between producers and sinks
//! without materialising a full trace at all.

pub use nr_phy::mcs::Modulation;
use serde::{DeError, Deserialize, Serialize, Value};

/// Link direction of a KPI record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Downlink.
    Dl,
    /// Uplink.
    Ul,
}

/// One slot's record for one carrier.
///
/// `Deserialize` is hand-written (not derived) so the two queue fields
/// added by the workload refactor are *absent-tolerant*: v1 row-form
/// records and pre-workload v2 datasets decode with both fields zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SlotKpi {
    /// Global slot index (at the carrier's numerology).
    pub slot: u64,
    /// Wall-clock time of the slot start, seconds.
    pub time_s: f64,
    /// Carrier index within the aggregate (0 = PCell).
    pub carrier: u8,
    /// Direction this record describes.
    pub direction: Direction,
    /// Whether the slot carried a grant for our UE in this direction.
    pub scheduled: bool,
    /// PRBs allocated (0 when unscheduled).
    pub n_prb: u16,
    /// Data REs allocated (the paper's Fig. 3 quantity).
    pub n_re: u32,
    /// MCS index (table per the carrier config).
    pub mcs: u8,
    /// Modulation order in force.
    pub modulation: Modulation,
    /// MIMO layers used.
    pub layers: u8,
    /// Transport block size of the grant, bits.
    pub tbs_bits: u32,
    /// Bits credited as *delivered* this slot (TBS on decode success for
    /// new data or on a successful retransmission; 0 otherwise).
    pub delivered_bits: u32,
    /// Whether this grant was a HARQ retransmission.
    pub is_retx: bool,
    /// Whether the transport block failed to decode (a BLER event).
    pub block_error: bool,
    /// CQI in force at the gNB when scheduling the slot.
    pub cqi: u8,
    /// Instantaneous post-equalisation SINR, dB.
    pub sinr_db: f64,
    /// RSRP, dBm.
    pub rsrp_dbm: f64,
    /// RSRQ, dB.
    pub rsrq_db: f64,
    /// Serving site id.
    pub serving_site: u32,
    /// gNB queue depth for this UE/direction after the slot's drain,
    /// bits (0 for saturating full-buffer and legacy traffic paths).
    pub queue_bits: u32,
    /// Queue sojourn of the bits in this slot's transport block,
    /// milliseconds (0 when no queued bits were carried).
    pub queue_delay_ms: f64,
}

impl Deserialize for SlotKpi {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let fields =
            value.as_object().ok_or_else(|| DeError::expected("object", value, "SlotKpi"))?;
        let ctx = "SlotKpi";
        Ok(SlotKpi {
            slot: serde::field(fields, "slot", ctx)?,
            time_s: serde::field(fields, "time_s", ctx)?,
            carrier: serde::field(fields, "carrier", ctx)?,
            direction: serde::field(fields, "direction", ctx)?,
            scheduled: serde::field(fields, "scheduled", ctx)?,
            n_prb: serde::field(fields, "n_prb", ctx)?,
            n_re: serde::field(fields, "n_re", ctx)?,
            mcs: serde::field(fields, "mcs", ctx)?,
            modulation: serde::field(fields, "modulation", ctx)?,
            layers: serde::field(fields, "layers", ctx)?,
            tbs_bits: serde::field(fields, "tbs_bits", ctx)?,
            delivered_bits: serde::field(fields, "delivered_bits", ctx)?,
            is_retx: serde::field(fields, "is_retx", ctx)?,
            block_error: serde::field(fields, "block_error", ctx)?,
            cqi: serde::field(fields, "cqi", ctx)?,
            sinr_db: serde::field(fields, "sinr_db", ctx)?,
            rsrp_dbm: serde::field(fields, "rsrp_dbm", ctx)?,
            rsrq_db: serde::field(fields, "rsrq_db", ctx)?,
            serving_site: serde::field(fields, "serving_site", ctx)?,
            queue_bits: serde::field::<Option<u32>>(fields, "queue_bits", ctx)?.unwrap_or(0),
            queue_delay_ms: serde::field::<Option<f64>>(fields, "queue_delay_ms", ctx)?
                .unwrap_or(0.0),
        })
    }
}

impl SlotKpi {
    /// An unscheduled (idle) slot record.
    #[allow(clippy::too_many_arguments)] // mirrors the record's field set
    pub fn idle(
        slot: u64,
        time_s: f64,
        carrier: u8,
        direction: Direction,
        cqi: u8,
        sinr_db: f64,
        rsrp_dbm: f64,
        rsrq_db: f64,
        serving_site: u32,
    ) -> Self {
        SlotKpi {
            slot,
            time_s,
            carrier,
            direction,
            scheduled: false,
            n_prb: 0,
            n_re: 0,
            mcs: 0,
            modulation: Modulation::Qpsk,
            layers: 0,
            tbs_bits: 0,
            delivered_bits: 0,
            is_retx: false,
            block_error: false,
            cqi,
            sinr_db,
            rsrp_dbm,
            rsrq_db,
            serving_site,
            queue_bits: 0,
            queue_delay_ms: 0.0,
        }
    }
}

/// Records per columnar chunk. A power of two and a multiple of 64, so
/// bit-packed flag columns of full chunks concatenate word-exactly and
/// `index / CHUNK_RECORDS` addressing is a shift.
pub const CHUNK_RECORDS: usize = 4096;

/// Records per block of [`KpiTrace::push_block`] and of the producer's
/// staging in [`crate::sim::UeSim::run_into`]: one flag word.
pub const BLOCK_RECORDS: usize = 64;

/// Stable wire code of a modulation order (the dataset v2 column
/// encoding: one byte per record instead of a variant-name string).
pub fn modulation_code(modulation: Modulation) -> u8 {
    match modulation {
        Modulation::Qpsk => 0,
        Modulation::Qam16 => 1,
        Modulation::Qam64 => 2,
        Modulation::Qam256 => 3,
    }
}

/// Inverse of [`modulation_code`].
pub fn modulation_from_code(code: u8) -> Option<Modulation> {
    match code {
        0 => Some(Modulation::Qpsk),
        1 => Some(Modulation::Qam16),
        2 => Some(Modulation::Qam64),
        3 => Some(Modulation::Qam256),
        _ => None,
    }
}

const MODULATIONS: [Modulation; 4] =
    [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64, Modulation::Qam256];

fn bit_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// Append one flag bit per row to a packed column that already holds
/// `at` bits: the rows' bits are gathered into one word, then OR-ed into
/// the partial last word and, past a word edge, pushed as the next.
/// Takes at most 64 rows.
#[inline(always)]
fn pack_bits(words: &mut Vec<u64>, at: usize, rows: &[SlotKpi], flag: impl Fn(&SlotKpi) -> bool) {
    debug_assert!(rows.len() <= BLOCK_RECORDS);
    if rows.is_empty() {
        return;
    }
    let bits = rows.iter().enumerate().fold(0u64, |w, (j, r)| w | u64::from(flag(r)) << j);
    let shift = at & 63;
    if shift == 0 {
        words.push(bits);
    } else {
        *words.last_mut().expect("a partial word exists") |= bits << shift;
        if shift + rows.len() > 64 {
            words.push(bits >> (64 - shift));
        }
    }
}

/// One fixed-capacity columnar block of up to [`CHUNK_RECORDS`] records.
#[derive(Debug, Clone, Default)]
struct Chunk {
    len: usize,
    slot: Vec<u64>,
    time_s: Vec<f64>,
    carrier: Vec<u8>,
    n_prb: Vec<u16>,
    n_re: Vec<u32>,
    mcs: Vec<u8>,
    modulation: Vec<u8>,
    layers: Vec<u8>,
    tbs_bits: Vec<u32>,
    delivered_bits: Vec<u32>,
    cqi: Vec<u8>,
    sinr_db: Vec<f64>,
    rsrp_dbm: Vec<f64>,
    rsrq_db: Vec<f64>,
    serving_site: Vec<u32>,
    queue_bits: Vec<u32>,
    queue_delay_ms: Vec<f64>,
    /// Bit-packed flag columns, one bit per record.
    ul: Vec<u64>,
    scheduled: Vec<u64>,
    is_retx: Vec<u64>,
    block_error: Vec<u64>,
}

impl Chunk {
    /// A chunk with every column pre-sized to [`CHUNK_RECORDS`], so pushes
    /// into it never reallocate.
    fn preallocated() -> Chunk {
        Chunk {
            len: 0,
            slot: Vec::with_capacity(CHUNK_RECORDS),
            time_s: Vec::with_capacity(CHUNK_RECORDS),
            carrier: Vec::with_capacity(CHUNK_RECORDS),
            n_prb: Vec::with_capacity(CHUNK_RECORDS),
            n_re: Vec::with_capacity(CHUNK_RECORDS),
            mcs: Vec::with_capacity(CHUNK_RECORDS),
            modulation: Vec::with_capacity(CHUNK_RECORDS),
            layers: Vec::with_capacity(CHUNK_RECORDS),
            tbs_bits: Vec::with_capacity(CHUNK_RECORDS),
            delivered_bits: Vec::with_capacity(CHUNK_RECORDS),
            cqi: Vec::with_capacity(CHUNK_RECORDS),
            sinr_db: Vec::with_capacity(CHUNK_RECORDS),
            rsrp_dbm: Vec::with_capacity(CHUNK_RECORDS),
            rsrq_db: Vec::with_capacity(CHUNK_RECORDS),
            serving_site: Vec::with_capacity(CHUNK_RECORDS),
            queue_bits: Vec::with_capacity(CHUNK_RECORDS),
            queue_delay_ms: Vec::with_capacity(CHUNK_RECORDS),
            ul: Vec::with_capacity(CHUNK_RECORDS / 64),
            scheduled: Vec::with_capacity(CHUNK_RECORDS / 64),
            is_retx: Vec::with_capacity(CHUNK_RECORDS / 64),
            block_error: Vec::with_capacity(CHUNK_RECORDS / 64),
        }
    }

    /// The column writer: append up to [`BLOCK_RECORDS`] rows that fit
    /// in this chunk, one pass per column. Always inlined, so a
    /// single-record [`KpiTrace::push`] compiles to one store per column.
    #[inline(always)]
    fn append(&mut self, rows: &[SlotKpi]) {
        let at = self.len;
        debug_assert!(rows.len() <= BLOCK_RECORDS && at + rows.len() <= CHUNK_RECORDS);
        self.slot.extend(rows.iter().map(|k| k.slot));
        self.time_s.extend(rows.iter().map(|k| k.time_s));
        self.carrier.extend(rows.iter().map(|k| k.carrier));
        self.n_prb.extend(rows.iter().map(|k| k.n_prb));
        self.n_re.extend(rows.iter().map(|k| k.n_re));
        self.mcs.extend(rows.iter().map(|k| k.mcs));
        self.modulation.extend(rows.iter().map(|k| modulation_code(k.modulation)));
        self.layers.extend(rows.iter().map(|k| k.layers));
        self.tbs_bits.extend(rows.iter().map(|k| k.tbs_bits));
        self.delivered_bits.extend(rows.iter().map(|k| k.delivered_bits));
        self.cqi.extend(rows.iter().map(|k| k.cqi));
        self.sinr_db.extend(rows.iter().map(|k| k.sinr_db));
        self.rsrp_dbm.extend(rows.iter().map(|k| k.rsrp_dbm));
        self.rsrq_db.extend(rows.iter().map(|k| k.rsrq_db));
        self.serving_site.extend(rows.iter().map(|k| k.serving_site));
        self.queue_bits.extend(rows.iter().map(|k| k.queue_bits));
        self.queue_delay_ms.extend(rows.iter().map(|k| k.queue_delay_ms));
        pack_bits(&mut self.ul, at, rows, |k| k.direction == Direction::Ul);
        pack_bits(&mut self.scheduled, at, rows, |k| k.scheduled);
        pack_bits(&mut self.is_retx, at, rows, |k| k.is_retx);
        pack_bits(&mut self.block_error, at, rows, |k| k.block_error);
        self.len = at + rows.len();
    }

    fn direction_at(&self, i: usize) -> Direction {
        if bit_get(&self.ul, i) {
            Direction::Ul
        } else {
            Direction::Dl
        }
    }

    fn get(&self, i: usize) -> SlotKpi {
        debug_assert!(i < self.len);
        SlotKpi {
            slot: self.slot[i],
            time_s: self.time_s[i],
            carrier: self.carrier[i],
            direction: self.direction_at(i),
            scheduled: bit_get(&self.scheduled, i),
            n_prb: self.n_prb[i],
            n_re: self.n_re[i],
            mcs: self.mcs[i],
            modulation: modulation_from_code(self.modulation[i])
                .expect("chunk stores only valid modulation codes"),
            layers: self.layers[i],
            tbs_bits: self.tbs_bits[i],
            delivered_bits: self.delivered_bits[i],
            is_retx: bit_get(&self.is_retx, i),
            block_error: bit_get(&self.block_error, i),
            cqi: self.cqi[i],
            sinr_db: self.sinr_db[i],
            rsrp_dbm: self.rsrp_dbm[i],
            rsrq_db: self.rsrq_db[i],
            serving_site: self.serving_site[i],
            queue_bits: self.queue_bits[i],
            queue_delay_ms: self.queue_delay_ms[i],
        }
    }

    /// Heap bytes held by this chunk's columns (capacity, not length).
    fn heap_bytes(&self) -> usize {
        self.slot.capacity() * 8
            + self.time_s.capacity() * 8
            + self.carrier.capacity()
            + self.n_prb.capacity() * 2
            + self.n_re.capacity() * 4
            + self.mcs.capacity()
            + self.modulation.capacity()
            + self.layers.capacity()
            + self.tbs_bits.capacity() * 4
            + self.delivered_bits.capacity() * 4
            + self.cqi.capacity()
            + self.sinr_db.capacity() * 8
            + self.rsrp_dbm.capacity() * 8
            + self.rsrq_db.capacity() * 8
            + self.serving_site.capacity() * 4
            + self.queue_bits.capacity() * 4
            + self.queue_delay_ms.capacity() * 8
            + (self.ul.capacity()
                + self.scheduled.capacity()
                + self.is_retx.capacity()
                + self.block_error.capacity())
                * 8
    }
}

/// A full slot-level trace with aggregation helpers, stored column-wise
/// (see the module docs for the layout).
#[derive(Debug, Clone, Default)]
pub struct KpiTrace {
    chunks: Vec<Chunk>,
    len: usize,
}

impl PartialEq for KpiTrace {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl KpiTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        KpiTrace::default()
    }

    /// Create an empty trace with chunk bookkeeping pre-sized for
    /// `capacity` records, so multi-minute sessions (hundreds of
    /// thousands of records) append without growing the chunk table
    /// mid-run. Column storage itself is allocated one fixed-size chunk
    /// at a time.
    pub fn with_capacity(capacity: usize) -> Self {
        KpiTrace { chunks: Vec::with_capacity(capacity.div_ceil(CHUNK_RECORDS)), len: 0 }
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record.
    pub fn push(&mut self, kpi: SlotKpi) {
        self.append(std::slice::from_ref(&kpi));
    }

    /// Append records in order, column by column in blocks of
    /// [`BLOCK_RECORDS`]. The trace equals the one a [`KpiTrace::push`]
    /// per record builds, chunk layout included.
    #[inline]
    pub fn push_block(&mut self, rows: &[SlotKpi]) {
        for block in rows.chunks(BLOCK_RECORDS) {
            self.append(block);
        }
    }

    /// Append at most [`BLOCK_RECORDS`] rows, which may start anywhere in
    /// the last chunk and cross into a fresh one.
    #[inline(always)]
    fn append(&mut self, rows: &[SlotKpi]) {
        let mut rest = rows;
        while !rest.is_empty() {
            let room = self.chunks.last().map_or(0, |c| CHUNK_RECORDS - c.len);
            if room == 0 {
                self.chunks.push(Chunk::preallocated());
                continue;
            }
            let (head, tail) = rest.split_at(rest.len().min(room));
            self.chunks.last_mut().expect("a chunk with room").append(head);
            rest = tail;
        }
        self.len += rows.len();
    }

    /// Drop every record (keeps nothing allocated; the next push starts a
    /// fresh chunk).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// The record at `index`, materialised from the columns.
    pub fn get(&self, index: usize) -> Option<SlotKpi> {
        if index < self.len {
            Some(self.chunks[index / CHUNK_RECORDS].get(index % CHUNK_RECORDS))
        } else {
            None
        }
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<SlotKpi> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Iterate over all records in push order, materialised by value.
    pub fn iter(&self) -> Records<'_> {
        self.iter_from(0)
    }

    /// Iterate from `index` to the end — the bounded-memory way to scan
    /// "records appended since the last look" without re-walking the
    /// whole trace.
    pub fn iter_from(&self, index: usize) -> Records<'_> {
        Records { trace: self, next: index.min(self.len) }
    }

    /// Approximate heap footprint of the column storage, bytes. Divide by
    /// [`KpiTrace::len`] for the tracked bytes-per-record figure.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(Chunk::heap_bytes).sum()
    }

    /// Records of one direction.
    pub fn direction(&self, direction: Direction) -> impl Iterator<Item = SlotKpi> + '_ {
        self.iter().filter(move |r| r.direction == direction)
    }

    /// Total simulated duration, seconds: the **end** of the latest slot
    /// ([`slot_end_s`]), not the start of the last record — so a
    /// one-second, 2000-slot trace reports 1.0 s and mean throughput is
    /// not inflated by a missing slot. A trace that only saw slot 0
    /// reports its latest timestamp.
    pub fn duration_s(&self) -> f64 {
        self.scan_duration_s(every)
    }

    /// Total bits credited as delivered over the whole trace (both
    /// directions, all legs). Summed in 64-bit before any unit
    /// conversion, so byte totals do not truncate per record.
    pub fn delivered_bits_total(&self) -> u64 {
        self.chunks
            .iter()
            .flat_map(|c| c.delivered_bits.iter())
            .map(|&b| u64::from(b))
            .sum()
    }

    /// Mean goodput in Mbps over the trace for a direction (delivered bits
    /// over wall-clock duration — the iPerf-style number of Figs. 1/9/10).
    pub fn mean_throughput_mbps(&self, direction: Direction) -> f64 {
        self.scan_mean_mbps(direction, every)
    }

    /// Throughput time series in Mbps, binned at `bin_s` seconds, for a
    /// direction. Bins cover `[0, duration)`; empty bins yield 0.
    pub fn throughput_series_mbps(&self, direction: Direction, bin_s: f64) -> Vec<f64> {
        self.scan_series_mbps(direction, bin_s, every)
    }

    /// Mean goodput over only the time bins whose mean CQI satisfies
    /// `cqi_at_least` — the paper's "good channel conditions (CQI ≥ 12)"
    /// conditioning of Figs. 2, 9 and 10. Bins of `bin_s` seconds are
    /// classified by their mean CQI; the returned value is total delivered
    /// bits in qualifying bins over their total duration. `None` when no
    /// bin qualifies.
    pub fn mean_throughput_mbps_where_cqi(
        &self,
        direction: Direction,
        bin_s: f64,
        cqi_at_least: u8,
    ) -> Option<f64> {
        self.scan_where_cqi(direction, bin_s, cqi_at_least, true, every)
    }

    /// Like [`Self::mean_throughput_mbps_where_cqi`] but keeping bins whose
    /// mean CQI is *below* the threshold (Fig. 10's CQI < 10 panel).
    pub fn mean_throughput_mbps_where_cqi_below(
        &self,
        direction: Direction,
        bin_s: f64,
        cqi_below: u8,
    ) -> Option<f64> {
        self.scan_where_cqi(direction, bin_s, cqi_below, false, every)
    }

    /// Fraction of scheduled slots using each modulation order (the paper's
    /// Fig. 5), as `(modulation, fraction)` over DL grants.
    pub fn modulation_shares(&self) -> Vec<(Modulation, f64)> {
        let mut counts = [0u64; 4];
        let mut grants = 0u64;
        for c in &self.chunks {
            // Word-at-a-time over the flag bitsets: bits past `c.len` are
            // never set, so the tail word needs no special casing.
            let words = c.scheduled.iter().zip(c.ul.iter().zip(&c.is_retx));
            for (w, (&sch, (&ul, &rtx))) in words.enumerate() {
                let mut mask = sch & !ul & !rtx;
                while mask != 0 {
                    let i = w * 64 + mask.trailing_zeros() as usize;
                    counts[c.modulation[i] as usize] += 1;
                    grants += 1;
                    mask &= mask - 1;
                }
            }
        }
        if grants == 0 {
            return Vec::new();
        }
        MODULATIONS
            .iter()
            .zip(counts)
            .filter(|(_, n)| *n > 0)
            .map(|(&m, n)| (m, n as f64 / grants as f64))
            .collect()
    }

    /// Fraction of scheduled DL slots using each MIMO layer count (the
    /// paper's Fig. 6), indexed `[unused, 1, 2, 3, 4]`.
    pub fn layer_shares(&self) -> [f64; 5] {
        let mut counts = [0u64; 5];
        let mut total = 0u64;
        for c in &self.chunks {
            for (w, (&sch, &ul)) in c.scheduled.iter().zip(&c.ul).enumerate() {
                let mut mask = sch & !ul;
                while mask != 0 {
                    let i = w * 64 + mask.trailing_zeros() as usize;
                    counts[(c.layers[i] as usize).min(4)] += 1;
                    total += 1;
                    mask &= mask - 1;
                }
            }
        }
        let mut shares = [0.0; 5];
        if total > 0 {
            for (share, &n) in shares.iter_mut().zip(&counts) {
                *share = n as f64 / total as f64;
            }
        }
        shares
    }

    /// Block-error rate over scheduled DL slots.
    pub fn dl_bler(&self) -> f64 {
        let mut errors = 0u64;
        let mut total = 0u64;
        for c in &self.chunks {
            for i in 0..c.len {
                if !bit_get(&c.ul, i) && bit_get(&c.scheduled, i) {
                    total += 1;
                    if bit_get(&c.block_error, i) {
                        errors += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            errors as f64 / total as f64
        }
    }

    /// All RE allocations of scheduled DL slots (Fig. 3's CDF input).
    pub fn dl_re_allocations(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for c in &self.chunks {
            for (i, &re) in c.n_re.iter().enumerate() {
                if !bit_get(&c.ul, i) && bit_get(&c.scheduled, i) {
                    out.push(re);
                }
            }
        }
        out
    }

    /// Mean CQI over all records.
    pub fn mean_cqi(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .chunks
            .iter()
            .flat_map(|c| c.cqi.iter())
            .map(|&q| u64::from(q))
            .sum();
        sum as f64 / self.len as f64
    }

    /// Restrict to records of one carrier index. Returns a borrowed view;
    /// no records are cloned.
    pub fn filter_carrier_is(&self, carrier: u8) -> FilteredTrace<'_> {
        FilteredTrace { trace: self, carrier, equal: true }
    }

    /// Restrict to records of every carrier *except* `carrier` (the
    /// NR-only view of an NSA trace). Returns a borrowed view.
    pub fn filter_carrier_not(&self, carrier: u8) -> FilteredTrace<'_> {
        FilteredTrace { trace: self, carrier, equal: false }
    }
}

impl Extend<SlotKpi> for KpiTrace {
    fn extend<I: IntoIterator<Item = SlotKpi>>(&mut self, iter: I) {
        for kpi in iter {
            self.push(kpi);
        }
    }
}

impl FromIterator<SlotKpi> for KpiTrace {
    fn from_iter<I: IntoIterator<Item = SlotKpi>>(iter: I) -> Self {
        let mut trace = KpiTrace::new();
        trace.extend(iter);
        trace
    }
}

/// Iterator over a trace's records, yielding [`SlotKpi`] views by value.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    trace: &'a KpiTrace,
    next: usize,
}

impl Iterator for Records<'_> {
    type Item = SlotKpi;

    fn next(&mut self) -> Option<SlotKpi> {
        let item = self.trace.get(self.next);
        if item.is_some() {
            self.next += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.trace.len - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Records<'_> {}

impl<'a> IntoIterator for &'a KpiTrace {
    type Item = SlotKpi;
    type IntoIter = Records<'a>;

    fn into_iter(self) -> Records<'a> {
        self.iter()
    }
}

/// End of the slot that starts at `t` seconds; `None` at slot 0.
/// Slot-start timestamps lie on a `slot * slot_s` grid, so the slot
/// duration — and with it the slot's end — is recoverable from any
/// record past slot 0.
pub fn slot_end_s(slot: u64, t: f64) -> Option<f64> {
    (slot > 0).then(|| t + t / slot as f64)
}

/// Most bins any dense time series may hold: the longest legitimate
/// series, a 10-day campaign at 1 s bins (864,000), rounded up to a
/// power of two. A 0.01 s series reaches it after 2.9 hours.
pub const MAX_BINS: usize = 1 << 20;

/// The time-bin grid of every dense series: bin `i` covers
/// `[i·bin_s, (i+1)·bin_s)` and `n` bins cover `[0, duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinGrid {
    bin_s: f64,
    n: usize,
}

impl BinGrid {
    /// The grid of `bin_s`-second bins over `[0, duration_s)`: no bins
    /// when `duration_s <= 0`, else `⌈duration_s / bin_s⌉` and at least
    /// one. `None` on a degenerate grid — a non-finite or non-positive
    /// `bin_s`, a non-finite `duration_s`, a ratio that overflows or
    /// more than [`MAX_BINS`] bins — which is counted under
    /// `timeseries.degenerate_grids` (and as an audit violation under
    /// `MIDBAND5G_AUDIT`).
    pub fn new(bin_s: f64, duration_s: f64) -> Option<BinGrid> {
        let ratio = duration_s / bin_s;
        if !(bin_s.is_finite() && bin_s > 0.0 && duration_s.is_finite() && ratio <= MAX_BINS as f64)
        {
            degenerate();
            return None;
        }
        let n = if duration_s <= 0.0 { 0 } else { (ratio.ceil() as usize).max(1) };
        Some(BinGrid { bin_s, n })
    }

    /// Number of bins.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The bin of `t`, clamped to the last one. The grid must have a bin.
    pub fn index(&self, t: f64) -> usize {
        floor_bin(self.bin_s, t).min(self.n - 1)
    }

    /// The bin of `t` on the open-ended `bin_s` grid of a stream whose
    /// duration is not known yet, or `None` — counted as a degenerate
    /// grid — when it lies at or past [`MAX_BINS`].
    pub fn open_index(bin_s: f64, t: f64) -> Option<usize> {
        let bin = floor_bin(bin_s, t);
        if bin < MAX_BINS {
            Some(bin)
        } else {
            degenerate();
            None
        }
    }
}

/// `floor(t / bin_s)`, saturating: NaN and negative `t` give 0.
fn floor_bin(bin_s: f64, t: f64) -> usize {
    (t / bin_s) as usize
}

/// Count one refused grid or over-cap sample.
fn degenerate() {
    obs::registry().counter("timeseries.degenerate_grids").inc();
    if obs::audit::enabled() {
        obs::audit::check(obs::audit::Invariant::ResampleGridDegenerate, false);
    }
}

/// The keep-all record predicate of the whole-trace analytics.
fn every(_: &Chunk, _: usize) -> bool {
    true
}

/// The trace scans behind the paper's figures, each written once and
/// generic over a record predicate `keep(chunk, row)`: [`KpiTrace`]'s
/// methods pass [`every`], a [`FilteredTrace`]'s pass its carrier test.
/// The scans are monomorphised, so the keep-all ones compile to
/// unfiltered loops.
impl KpiTrace {
    /// The end of the latest kept slot ([`slot_end_s`]), else the latest
    /// kept timestamp. Reads the columns in push order.
    fn scan_duration_s(&self, keep: impl Fn(&Chunk, usize) -> bool) -> f64 {
        let mut max_end = 0.0f64;
        let mut max_time = 0.0f64;
        for c in &self.chunks {
            for (i, (&slot, &t)) in c.slot.iter().zip(&c.time_s).enumerate() {
                if !keep(c, i) {
                    continue;
                }
                if let Some(end) = slot_end_s(slot, t) {
                    if end > max_end {
                        max_end = end;
                    }
                }
                if t > max_time {
                    max_time = t;
                }
            }
        }
        if max_end > 0.0 {
            max_end
        } else {
            max_time
        }
    }

    fn scan_mean_mbps(&self, direction: Direction, keep: impl Fn(&Chunk, usize) -> bool) -> f64 {
        let dur = self.scan_duration_s(&keep);
        if dur <= 0.0 {
            return 0.0;
        }
        let want_ul = direction == Direction::Ul;
        let mut bits = 0u64;
        for c in &self.chunks {
            for (i, &b) in c.delivered_bits.iter().enumerate() {
                if keep(c, i) && bit_get(&c.ul, i) == want_ul {
                    bits += u64::from(b);
                }
            }
        }
        bits as f64 / dur / 1e6
    }

    /// The [`BinGrid`] over the kept records' duration, if it has a bin.
    fn scan_grid(&self, bin_s: f64, keep: impl Fn(&Chunk, usize) -> bool) -> Option<BinGrid> {
        BinGrid::new(bin_s, self.scan_duration_s(keep)).filter(|grid| grid.n() > 0)
    }

    fn scan_series_mbps(
        &self,
        direction: Direction,
        bin_s: f64,
        keep: impl Fn(&Chunk, usize) -> bool,
    ) -> Vec<f64> {
        let Some(grid) = self.scan_grid(bin_s, &keep) else {
            return Vec::new();
        };
        let mut bits = vec![0u64; grid.n()];
        let want_ul = direction == Direction::Ul;
        for c in &self.chunks {
            for (i, (&t, &b)) in c.time_s.iter().zip(&c.delivered_bits).enumerate() {
                if keep(c, i) && bit_get(&c.ul, i) == want_ul {
                    bits[grid.index(t)] += u64::from(b);
                }
            }
        }
        bits.into_iter().map(|b| b as f64 / bin_s / 1e6).collect()
    }

    /// Mean goodput over only the time bins whose mean CQI (over the kept
    /// records of both directions) satisfies the threshold (`at_least =
    /// true`: CQI ≥ threshold; `false`: CQI < threshold).
    fn scan_where_cqi(
        &self,
        direction: Direction,
        bin_s: f64,
        threshold: u8,
        at_least: bool,
        keep: impl Fn(&Chunk, usize) -> bool,
    ) -> Option<f64> {
        let grid = self.scan_grid(bin_s, &keep)?;
        let n_bins = grid.n();
        let mut bits = vec![0u64; n_bins];
        let mut cqi_sum = vec![0u64; n_bins];
        let mut cqi_n = vec![0u64; n_bins];
        let want_ul = direction == Direction::Ul;
        for c in &self.chunks {
            for (i, (&t, &q)) in c.time_s.iter().zip(&c.cqi).enumerate() {
                if !keep(c, i) {
                    continue;
                }
                let bin = grid.index(t);
                cqi_sum[bin] += u64::from(q);
                cqi_n[bin] += 1;
                if bit_get(&c.ul, i) == want_ul {
                    bits[bin] += u64::from(c.delivered_bits[i]);
                }
            }
        }
        let mut total_bits = 0u64;
        let mut total_time = 0.0;
        for bin in 0..n_bins {
            if cqi_n[bin] == 0 {
                continue;
            }
            let mean_cqi = cqi_sum[bin] as f64 / cqi_n[bin] as f64;
            let qualifies = if at_least {
                mean_cqi >= f64::from(threshold)
            } else {
                mean_cqi < f64::from(threshold)
            };
            if qualifies {
                total_bits += bits[bin];
                total_time += bin_s;
            }
        }
        if total_time > 0.0 {
            Some(total_bits as f64 / total_time / 1e6)
        } else {
            None
        }
    }
}

/// A borrowed view of the records of one carrier
/// ([`KpiTrace::filter_carrier_is`]) or of every carrier but one
/// ([`KpiTrace::filter_carrier_not`]). Nothing is copied: each analytic
/// runs the owning trace's scan with the view's carrier test as its
/// record predicate, so a view computes exactly what [`Self::to_trace`]
/// followed by the same call would.
#[derive(Debug, Clone, Copy)]
pub struct FilteredTrace<'a> {
    trace: &'a KpiTrace,
    carrier: u8,
    /// Keep the records of `carrier` (`true`) or every other (`false`).
    equal: bool,
}

impl FilteredTrace<'_> {
    fn keeps(&self, carrier: u8) -> bool {
        (carrier == self.carrier) == self.equal
    }

    /// The view's record predicate over the owning trace's columns.
    fn keep(&self) -> impl Fn(&Chunk, usize) -> bool + '_ {
        move |c, i| self.keeps(c.carrier[i])
    }

    /// Number of matching records (a scan of the carrier column).
    pub fn len(&self) -> usize {
        self.trace.chunks.iter().flat_map(|c| &c.carrier).filter(|&&c| self.keeps(c)).count()
    }

    /// Whether no record matches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over the matching records.
    pub fn iter(&self) -> impl Iterator<Item = SlotKpi> + '_ {
        self.trace.iter().filter(move |r| self.keeps(r.carrier))
    }

    /// Materialise the view into an owned columnar trace.
    pub fn to_trace(&self) -> KpiTrace {
        self.iter().collect()
    }

    /// [`KpiTrace::duration_s`] over the matching records.
    pub fn duration_s(&self) -> f64 {
        self.trace.scan_duration_s(self.keep())
    }

    /// [`KpiTrace::mean_throughput_mbps`] over the matching records, with
    /// the view's own [`Self::duration_s`] as the wall clock.
    pub fn mean_throughput_mbps(&self, direction: Direction) -> f64 {
        self.trace.scan_mean_mbps(direction, self.keep())
    }

    /// [`KpiTrace::throughput_series_mbps`] over the matching records:
    /// bins cover `[0, duration)` of the *view's* duration.
    pub fn throughput_series_mbps(&self, direction: Direction, bin_s: f64) -> Vec<f64> {
        self.trace.scan_series_mbps(direction, bin_s, self.keep())
    }

    /// [`KpiTrace::mean_throughput_mbps_where_cqi`] over the matching
    /// records: bins are classified by the mean CQI of those records.
    pub fn mean_throughput_mbps_where_cqi(
        &self,
        direction: Direction,
        bin_s: f64,
        cqi_at_least: u8,
    ) -> Option<f64> {
        self.trace.scan_where_cqi(direction, bin_s, cqi_at_least, true, self.keep())
    }

    /// [`KpiTrace::mean_throughput_mbps_where_cqi_below`] over the
    /// matching records.
    pub fn mean_throughput_mbps_where_cqi_below(
        &self,
        direction: Direction,
        bin_s: f64,
        cqi_below: u8,
    ) -> Option<f64> {
        self.trace.scan_where_cqi(direction, bin_s, cqi_below, false, self.keep())
    }
}

// ---------------------------------------------------------------------------
// Serialisation: dataset v2 columnar wire format, with v1 fallback.
// ---------------------------------------------------------------------------

/// Concatenate one column across chunks into a JSON array value.
fn concat_column<T: Serialize>(chunks: &[Chunk], col: impl Fn(&Chunk) -> &[T]) -> Value {
    Value::Array(chunks.iter().flat_map(|c| col(c).iter()).map(Serialize::to_value).collect())
}

impl Serialize for KpiTrace {
    /// Dataset v2 wire form: one concatenated array per column, flag
    /// columns as packed `u64` words. Chunk boundaries are not
    /// observable on the wire (chunks are 64-record aligned, so word
    /// arrays of full chunks concatenate exactly), which keeps the
    /// encoding canonical — the byte-stability the determinism harness
    /// relies on.
    fn to_value(&self) -> Value {
        let c = &self.chunks;
        Value::Object(vec![
            ("len".to_string(), self.len.to_value()),
            ("slot".to_string(), concat_column(c, |c| &c.slot)),
            ("time_s".to_string(), concat_column(c, |c| &c.time_s)),
            ("carrier".to_string(), concat_column(c, |c| &c.carrier)),
            ("n_prb".to_string(), concat_column(c, |c| &c.n_prb)),
            ("n_re".to_string(), concat_column(c, |c| &c.n_re)),
            ("mcs".to_string(), concat_column(c, |c| &c.mcs)),
            ("modulation".to_string(), concat_column(c, |c| &c.modulation)),
            ("layers".to_string(), concat_column(c, |c| &c.layers)),
            ("tbs_bits".to_string(), concat_column(c, |c| &c.tbs_bits)),
            ("delivered_bits".to_string(), concat_column(c, |c| &c.delivered_bits)),
            ("cqi".to_string(), concat_column(c, |c| &c.cqi)),
            ("sinr_db".to_string(), concat_column(c, |c| &c.sinr_db)),
            ("rsrp_dbm".to_string(), concat_column(c, |c| &c.rsrp_dbm)),
            ("rsrq_db".to_string(), concat_column(c, |c| &c.rsrq_db)),
            ("serving_site".to_string(), concat_column(c, |c| &c.serving_site)),
            ("queue_bits".to_string(), concat_column(c, |c| &c.queue_bits)),
            ("queue_delay_ms".to_string(), concat_column(c, |c| &c.queue_delay_ms)),
            ("ul".to_string(), concat_column(c, |c| &c.ul)),
            ("scheduled".to_string(), concat_column(c, |c| &c.scheduled)),
            ("is_retx".to_string(), concat_column(c, |c| &c.is_retx)),
            ("block_error".to_string(), concat_column(c, |c| &c.block_error)),
        ])
    }
}

fn column_len_check(name: &str, got: usize, want: usize) -> Result<(), DeError> {
    if got == want {
        Ok(())
    } else {
        Err(DeError::msg(format!("KpiTrace.{name}: {got} entries, expected {want}")))
    }
}

impl Deserialize for KpiTrace {
    /// Accepts both wire forms: the columnar v2 object and the legacy v1
    /// `{"records": [...]}` row form, so datasets exported before the
    /// columnar refactor keep loading.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value, "KpiTrace"))?;
        if fields.iter().any(|(k, _)| k == "records") {
            let records: Vec<SlotKpi> = serde::field(fields, "records", "KpiTrace")?;
            return Ok(records.into_iter().collect());
        }
        let ctx = "KpiTrace";
        let len: usize = serde::field(fields, "len", ctx)?;
        let slot: Vec<u64> = serde::field(fields, "slot", ctx)?;
        let time_s: Vec<f64> = serde::field(fields, "time_s", ctx)?;
        let carrier: Vec<u8> = serde::field(fields, "carrier", ctx)?;
        let n_prb: Vec<u16> = serde::field(fields, "n_prb", ctx)?;
        let n_re: Vec<u32> = serde::field(fields, "n_re", ctx)?;
        let mcs: Vec<u8> = serde::field(fields, "mcs", ctx)?;
        let modulation: Vec<u8> = serde::field(fields, "modulation", ctx)?;
        let layers: Vec<u8> = serde::field(fields, "layers", ctx)?;
        let tbs_bits: Vec<u32> = serde::field(fields, "tbs_bits", ctx)?;
        let delivered_bits: Vec<u32> = serde::field(fields, "delivered_bits", ctx)?;
        let cqi: Vec<u8> = serde::field(fields, "cqi", ctx)?;
        let sinr_db: Vec<f64> = serde::field(fields, "sinr_db", ctx)?;
        let rsrp_dbm: Vec<f64> = serde::field(fields, "rsrp_dbm", ctx)?;
        let rsrq_db: Vec<f64> = serde::field(fields, "rsrq_db", ctx)?;
        let serving_site: Vec<u32> = serde::field(fields, "serving_site", ctx)?;
        // Queue columns postdate the workload refactor: absent in older
        // v2 datasets, in which case every record decodes with zeros.
        let queue_bits: Vec<u32> = serde::field::<Option<Vec<u32>>>(fields, "queue_bits", ctx)?
            .unwrap_or_else(|| vec![0; len]);
        let queue_delay_ms: Vec<f64> =
            serde::field::<Option<Vec<f64>>>(fields, "queue_delay_ms", ctx)?
                .unwrap_or_else(|| vec![0.0; len]);
        let ul: Vec<u64> = serde::field(fields, "ul", ctx)?;
        let scheduled: Vec<u64> = serde::field(fields, "scheduled", ctx)?;
        let is_retx: Vec<u64> = serde::field(fields, "is_retx", ctx)?;
        let block_error: Vec<u64> = serde::field(fields, "block_error", ctx)?;

        for (name, got) in [
            ("slot", slot.len()),
            ("time_s", time_s.len()),
            ("carrier", carrier.len()),
            ("n_prb", n_prb.len()),
            ("n_re", n_re.len()),
            ("mcs", mcs.len()),
            ("modulation", modulation.len()),
            ("layers", layers.len()),
            ("tbs_bits", tbs_bits.len()),
            ("delivered_bits", delivered_bits.len()),
            ("cqi", cqi.len()),
            ("sinr_db", sinr_db.len()),
            ("rsrp_dbm", rsrp_dbm.len()),
            ("rsrq_db", rsrq_db.len()),
            ("serving_site", serving_site.len()),
            ("queue_bits", queue_bits.len()),
            ("queue_delay_ms", queue_delay_ms.len()),
        ] {
            column_len_check(name, got, len)?;
        }
        let words = len.div_ceil(64);
        for (name, got) in [
            ("ul", ul.len()),
            ("scheduled", scheduled.len()),
            ("is_retx", is_retx.len()),
            ("block_error", block_error.len()),
        ] {
            column_len_check(name, got, words)?;
        }

        let mut trace = KpiTrace::with_capacity(len);
        for i in 0..len {
            trace.push(SlotKpi {
                slot: slot[i],
                time_s: time_s[i],
                carrier: carrier[i],
                direction: if bit_get(&ul, i) { Direction::Ul } else { Direction::Dl },
                scheduled: bit_get(&scheduled, i),
                n_prb: n_prb[i],
                n_re: n_re[i],
                mcs: mcs[i],
                modulation: modulation_from_code(modulation[i]).ok_or_else(|| {
                    DeError::msg(format!(
                        "KpiTrace.modulation[{i}]: unknown code {}",
                        modulation[i]
                    ))
                })?,
                layers: layers[i],
                tbs_bits: tbs_bits[i],
                delivered_bits: delivered_bits[i],
                is_retx: bit_get(&is_retx, i),
                block_error: bit_get(&block_error, i),
                cqi: cqi[i],
                sinr_db: sinr_db[i],
                rsrp_dbm: rsrp_dbm[i],
                rsrq_db: rsrq_db[i],
                serving_site: serving_site[i],
                queue_bits: queue_bits[i],
                queue_delay_ms: queue_delay_ms[i],
            });
        }
        Ok(trace)
    }
}

// ---------------------------------------------------------------------------
// Binary column dump: the body of a dataset v3 session file.
// ---------------------------------------------------------------------------

/// Byte width of each value column of the binary dump, in dump order:
/// `slot`, `time_s`, `carrier`, `n_prb`, `n_re`, `mcs`, `modulation`,
/// `layers`, `tbs_bits`, `delivered_bits`, `cqi`, `sinr_db`, `rsrp_dbm`,
/// `rsrq_db`, `serving_site`, `queue_bits`, `queue_delay_ms`.
pub const VALUE_COLUMN_WIDTHS: [usize; 17] = [8, 8, 1, 2, 4, 1, 1, 1, 4, 4, 1, 8, 8, 8, 4, 4, 8];

/// Packed flag columns after the value columns, in dump order: `ul`,
/// `scheduled`, `is_retx`, `block_error` — one bit per record,
/// `len.div_ceil(64)` little-endian `u64` words each.
pub const FLAG_COLUMNS: usize = 4;

/// Why [`KpiTrace::read_columns`] refused a column dump.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnError {
    /// The dump is not the size `len` records need.
    LengthMismatch {
        /// Records the caller declared.
        len: usize,
        /// Bytes those records need (`None` when the size overflows).
        expected: Option<usize>,
        /// Bytes supplied.
        found: usize,
    },
    /// A modulation byte outside the [`modulation_code`] table.
    UnknownModulation {
        /// Record index.
        index: usize,
        /// The offending byte.
        code: u8,
    },
    /// A `time_s` that is NaN, infinite or negative.
    ImpossibleTime {
        /// Record index.
        index: usize,
        /// The offending timestamp.
        time_s: f64,
    },
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnError::LengthMismatch { len, expected: Some(want), found } => {
                write!(f, "{len} records need {want} column bytes, found {found}")
            }
            ColumnError::LengthMismatch { len, expected: None, found } => {
                write!(f, "{len} records overflow the column size ({found} bytes found)")
            }
            ColumnError::UnknownModulation { index, code } => {
                write!(f, "record {index}: unknown modulation code {code}")
            }
            ColumnError::ImpossibleTime { index, time_s } => {
                write!(f, "record {index}: impossible time {time_s} s")
            }
        }
    }
}

impl std::error::Error for ColumnError {}

/// A fixed-width scalar of the binary dump, stored little-endian — `f64`
/// as its IEEE-754 bit pattern, so NaN payloads, signed zeros,
/// infinities and subnormals survive exactly.
trait DumpScalar: Copy {
    const WIDTH: usize;
    /// Encode into exactly `WIDTH` bytes.
    fn put(self, out: &mut [u8]);
    /// Decode from exactly `WIDTH` bytes.
    fn take(bytes: &[u8]) -> Self;
}

macro_rules! dump_scalar_int {
    ($($t:ty),*) => {$(
        impl DumpScalar for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn take(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exactly WIDTH bytes"))
            }
        }
    )*};
}

dump_scalar_int!(u8, u16, u32, u64);

impl DumpScalar for f64 {
    const WIDTH: usize = 8;
    fn put(self, out: &mut [u8]) {
        self.to_bits().put(out);
    }
    fn take(bytes: &[u8]) -> Self {
        f64::from_bits(u64::take(bytes))
    }
}

/// Append one column, concatenated across chunks, zero-padded to a
/// multiple of 8 bytes. Each chunk's run is sized with one `resize`,
/// then filled value by value in place.
fn put_column<T: DumpScalar>(out: &mut Vec<u8>, chunks: &[Chunk], col: impl Fn(&Chunk) -> &[T]) {
    let start = out.len();
    for chunk in chunks {
        let values = col(chunk);
        let at = out.len();
        out.resize(at + values.len() * T::WIDTH, 0);
        for (dst, &v) in out[at..].chunks_exact_mut(T::WIDTH).zip(values) {
            v.put(dst);
        }
    }
    out.resize(start + (out.len() - start).next_multiple_of(8), 0);
}

/// Decode the `rows` (in units of `T`) of one dumped column into `dst`.
fn fill<T: DumpScalar>(dst: &mut Vec<T>, column: &[u8], rows: &std::ops::Range<usize>) {
    let bytes = &column[rows.start * T::WIDTH..rows.end * T::WIDTH];
    dst.extend(bytes.chunks_exact(T::WIDTH).map(T::take));
}

impl KpiTrace {
    /// Bytes [`KpiTrace::write_columns`] emits for `len` records, or `None`
    /// when that overflows `usize`.
    pub fn columns_byte_len(len: usize) -> Option<usize> {
        let flags = FLAG_COLUMNS * len.div_ceil(64) * 8;
        VALUE_COLUMN_WIDTHS.iter().try_fold(flags, |total, &width| {
            total.checked_add(len.checked_mul(width)?.checked_next_multiple_of(8)?)
        })
    }

    /// Append the binary column dump of this trace to `out`: the value
    /// columns in [`VALUE_COLUMN_WIDTHS`] order, then the
    /// [`FLAG_COLUMNS`] packed flag columns. Each column is one
    /// contiguous little-endian run over the whole trace, zero-padded to
    /// a multiple of 8 bytes; the record count is the caller's to frame.
    /// Appends exactly [`KpiTrace::columns_byte_len`] bytes.
    pub fn write_columns(&self, out: &mut Vec<u8>) {
        let total = KpiTrace::columns_byte_len(self.len).expect("an in-memory trace's dump fits");
        let start = out.len();
        out.reserve(total);
        let c = &self.chunks;
        put_column(out, c, |c| &c.slot);
        put_column(out, c, |c| &c.time_s);
        put_column(out, c, |c| &c.carrier);
        put_column(out, c, |c| &c.n_prb);
        put_column(out, c, |c| &c.n_re);
        put_column(out, c, |c| &c.mcs);
        put_column(out, c, |c| &c.modulation);
        put_column(out, c, |c| &c.layers);
        put_column(out, c, |c| &c.tbs_bits);
        put_column(out, c, |c| &c.delivered_bits);
        put_column(out, c, |c| &c.cqi);
        put_column(out, c, |c| &c.sinr_db);
        put_column(out, c, |c| &c.rsrp_dbm);
        put_column(out, c, |c| &c.rsrq_db);
        put_column(out, c, |c| &c.serving_site);
        put_column(out, c, |c| &c.queue_bits);
        put_column(out, c, |c| &c.queue_delay_ms);
        put_column(out, c, |c| &c.ul);
        put_column(out, c, |c| &c.scheduled);
        put_column(out, c, |c| &c.is_retx);
        put_column(out, c, |c| &c.block_error);
        debug_assert_eq!(out.len() - start, total);
    }

    /// Decode a dump written by [`KpiTrace::write_columns`] for `len`
    /// records. The size is checked against `len` before anything is
    /// allocated, so a forged `len` cannot make the decoder reserve more
    /// than the input justifies. Column padding and flag bits past `len`
    /// are ignored.
    pub fn read_columns(len: usize, bytes: &[u8]) -> Result<KpiTrace, ColumnError> {
        let expected = KpiTrace::columns_byte_len(len);
        if expected != Some(bytes.len()) {
            return Err(ColumnError::LengthMismatch { len, expected, found: bytes.len() });
        }
        let mut rest = bytes;
        let mut column = |bytes: usize| {
            let (col, tail) = rest.split_at(bytes.next_multiple_of(8));
            rest = tail;
            col
        };
        let [
            slot,
            time_s,
            carrier,
            n_prb,
            n_re,
            mcs,
            modulation,
            layers,
            tbs_bits,
            delivered_bits,
            cqi,
            sinr_db,
            rsrp_dbm,
            rsrq_db,
            serving_site,
            queue_bits,
            queue_delay_ms,
        ] = VALUE_COLUMN_WIDTHS.map(|width| column(len * width));
        let [ul, scheduled, is_retx, block_error] =
            [(); FLAG_COLUMNS].map(|()| column(len.div_ceil(64) * 8));

        let unknown = |&m: &u8| modulation_from_code(m).is_none();
        if let Some(index) = modulation[..len].iter().position(unknown) {
            return Err(ColumnError::UnknownModulation { index, code: modulation[index] });
        }
        let times = time_s[..len * 8].chunks_exact(8).map(f64::take);
        if let Some((index, t)) = times.enumerate().find(|&(_, t)| !(t.is_finite() && t >= 0.0)) {
            return Err(ColumnError::ImpossibleTime { index, time_s: t });
        }

        let mut trace = KpiTrace::with_capacity(len);
        for start in (0..len).step_by(CHUNK_RECORDS) {
            let rows = start..len.min(start + CHUNK_RECORDS);
            let words = start / 64..rows.end.div_ceil(64);
            let mut c = Chunk::preallocated();
            c.len = rows.len();
            fill(&mut c.slot, slot, &rows);
            fill(&mut c.time_s, time_s, &rows);
            fill(&mut c.carrier, carrier, &rows);
            fill(&mut c.n_prb, n_prb, &rows);
            fill(&mut c.n_re, n_re, &rows);
            fill(&mut c.mcs, mcs, &rows);
            fill(&mut c.modulation, modulation, &rows);
            fill(&mut c.layers, layers, &rows);
            fill(&mut c.tbs_bits, tbs_bits, &rows);
            fill(&mut c.delivered_bits, delivered_bits, &rows);
            fill(&mut c.cqi, cqi, &rows);
            fill(&mut c.sinr_db, sinr_db, &rows);
            fill(&mut c.rsrp_dbm, rsrp_dbm, &rows);
            fill(&mut c.rsrq_db, rsrq_db, &rows);
            fill(&mut c.serving_site, serving_site, &rows);
            fill(&mut c.queue_bits, queue_bits, &rows);
            fill(&mut c.queue_delay_ms, queue_delay_ms, &rows);
            for (dst, src) in [
                (&mut c.ul, ul),
                (&mut c.scheduled, scheduled),
                (&mut c.is_retx, is_retx),
                (&mut c.block_error, block_error),
            ] {
                fill(dst, src, &words);
                // Aggregations scan whole flag words and rely on bits past
                // the chunk's length being clear.
                let tail_bits = rows.end % 64;
                if tail_bits != 0 {
                    *dst.last_mut().expect("a partial word exists") &= (1u64 << tail_bits) - 1;
                }
            }
            trace.chunks.push(c);
        }
        trace.len = len;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(slot: u64, time_s: f64, bits: u32, layers: u8, modulation: Modulation) -> SlotKpi {
        SlotKpi {
            slot,
            time_s,
            carrier: 0,
            direction: Direction::Dl,
            scheduled: true,
            n_prb: 245,
            n_re: 245 * 144,
            mcs: 20,
            modulation,
            layers,
            tbs_bits: bits,
            delivered_bits: bits,
            is_retx: false,
            block_error: false,
            cqi: 13,
            sinr_db: 22.0,
            rsrp_dbm: -80.0,
            rsrq_db: -10.0,
            serving_site: 1,
            queue_bits: 0,
            queue_delay_ms: 0.0,
        }
    }

    #[test]
    fn mean_throughput_accounts_delivered_bits_only() {
        let mut t = KpiTrace::new();
        let mut g = grant(0, 0.0, 500_000, 4, Modulation::Qam256);
        t.push(g);
        g.slot = 1;
        g.time_s = 0.0005;
        g.block_error = true;
        g.delivered_bits = 0;
        t.push(g);
        // Two 0.5 ms slots: 500 kbit over 1 ms → 500 Mbps.
        assert!((t.duration_s() - 0.001).abs() < 1e-12);
        assert!((t.mean_throughput_mbps(Direction::Dl) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn duration_extends_to_last_slot_end() {
        let mut t = KpiTrace::new();
        for i in 0..2000u64 {
            t.push(grant(i, i as f64 * 0.0005, 100_000, 4, Modulation::Qam64));
        }
        // 2000 slots of 0.5 ms: a full second, not 999.5 ms.
        assert!((t.duration_s() - 1.0).abs() < 1e-9, "{}", t.duration_s());
    }

    #[test]
    fn series_binning() {
        let mut t = KpiTrace::new();
        for i in 0..100u64 {
            t.push(grant(i, i as f64 * 0.0005, 100_000, 4, Modulation::Qam64));
        }
        let series = t.throughput_series_mbps(Direction::Dl, 0.01);
        assert_eq!(series.len(), 5);
        // 20 slots/bin · 100 kbit / 10 ms = 200 Mbps in every bin.
        for v in &series {
            assert!((v - 200.0).abs() <= 10.0 + 1e-9, "{v}");
        }
        // Conservation: binned bits equal total bits.
        let total_mbit: f64 = series.iter().map(|v| v * 0.01).sum();
        assert!((total_mbit - 10.0).abs() < 1e-9, "{total_mbit}");
    }

    #[test]
    fn shares_and_filters() {
        let mut t = KpiTrace::new();
        t.push(grant(0, 0.0, 1000, 4, Modulation::Qam256));
        t.push(grant(1, 0.0005, 1000, 4, Modulation::Qam64));
        t.push(grant(2, 0.0010, 1000, 3, Modulation::Qam64));
        let mut second_carrier = grant(3, 0.0015, 1000, 2, Modulation::Qam16);
        second_carrier.carrier = 1;
        t.push(second_carrier);

        let shares = t.modulation_shares();
        let q64 = shares.iter().find(|(m, _)| *m == Modulation::Qam64).unwrap().1;
        assert!((q64 - 0.5).abs() < 1e-9);

        let layers = t.layer_shares();
        assert!((layers[4] - 0.5).abs() < 1e-9);
        assert!((layers[3] - 0.25).abs() < 1e-9);

        let pcell = t.filter_carrier_is(0);
        assert_eq!(pcell.len(), 3);
        let others = t.filter_carrier_not(0);
        assert_eq!(others.len(), 1);
        // The views materialise to the same records the lazy iterators see.
        assert_eq!(pcell.to_trace().len(), 3);
        assert!(others.iter().all(|r| r.carrier == 1));
    }

    #[test]
    fn cqi_conditioned_throughput() {
        // Two 100 ms phases: good CQI (13) delivering 100 kbit/slot, then
        // poor CQI (6) delivering 20 kbit/slot.
        let mut t = KpiTrace::new();
        for i in 0..400u64 {
            let good = i < 200;
            let mut g = grant(
                i,
                i as f64 * 0.0005,
                if good { 100_000 } else { 20_000 },
                4,
                Modulation::Qam64,
            );
            g.cqi = if good { 13 } else { 6 };
            t.push(g);
        }
        // Unconditioned mean: (200·100k + 200·20k) / 0.2 s = 120 Mbps.
        assert!((t.mean_throughput_mbps(Direction::Dl) - 120.0).abs() < 1.0);
        // CQI ≥ 12 bins: 100 kbit / 0.5 ms = 200 Mbps.
        let good = t.mean_throughput_mbps_where_cqi(Direction::Dl, 0.01, 12).unwrap();
        assert!((good - 200.0).abs() < 10.0, "good {good}");
        // CQI < 10 bins: 40 Mbps.
        let poor = t.mean_throughput_mbps_where_cqi_below(Direction::Dl, 0.01, 10).unwrap();
        assert!((poor - 40.0).abs() < 5.0, "poor {poor}");
        // A threshold nothing meets returns None.
        assert!(t.mean_throughput_mbps_where_cqi(Direction::Dl, 0.01, 15).is_none());
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = KpiTrace::new();
        assert_eq!(t.mean_throughput_mbps(Direction::Dl), 0.0);
        assert!(t.throughput_series_mbps(Direction::Dl, 0.1).is_empty());
        assert!(t.modulation_shares().is_empty());
        assert_eq!(t.dl_bler(), 0.0);
        assert!(t.last().is_none());
        assert!(t.get(0).is_none());
    }

    #[test]
    fn push_get_iter_agree_across_chunk_boundaries() {
        let mut t = KpiTrace::new();
        let n = CHUNK_RECORDS * 2 + 137;
        let mut reference = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let mut g = grant(i, i as f64 * 0.0005, (i as u32) * 3 + 1, (i % 5) as u8, Modulation::Qam16);
            g.is_retx = i % 7 == 0;
            g.block_error = i % 11 == 0;
            g.direction = if i % 3 == 0 { Direction::Ul } else { Direction::Dl };
            t.push(g);
            reference.push(g);
        }
        assert_eq!(t.len(), n);
        assert!(t.iter().eq(reference.iter().copied()));
        assert_eq!(t.get(CHUNK_RECORDS), Some(reference[CHUNK_RECORDS]));
        assert_eq!(t.last(), reference.last().copied());
        let tail: Vec<SlotKpi> = t.iter_from(n - 10).collect();
        assert_eq!(tail, reference[n - 10..]);
    }

    #[test]
    fn columnar_serde_roundtrips_exactly() {
        let mut t = KpiTrace::new();
        for i in 0..200u64 {
            let mut g = grant(i, i as f64 * 0.0005, 77_000 + i as u32, 2, Modulation::Qam256);
            g.direction = if i % 4 == 0 { Direction::Ul } else { Direction::Dl };
            g.scheduled = i % 5 != 0;
            t.push(g);
        }
        let back = KpiTrace::from_value(&t.to_value()).expect("columnar decode");
        assert_eq!(t, back);
        assert_eq!(t.duration_s(), back.duration_s());
    }

    #[test]
    fn legacy_row_form_still_decodes() {
        let records = vec![grant(0, 0.0, 1000, 4, Modulation::Qam64), grant(1, 0.0005, 2000, 2, Modulation::Qpsk)];
        let v1 = Value::Object(vec![("records".to_string(), records.to_value())]);
        let t = KpiTrace::from_value(&v1).expect("v1 decode");
        assert_eq!(t.len(), 2);
        assert!(t.iter().eq(records.iter().copied()));
    }
}
