//! Streaming consumers of slot-level KPIs.
//!
//! The simulator produces [`SlotKpi`] records slot by slot; a
//! [`SlotSink`] consumes them as they are produced, so campaigns can
//! aggregate online instead of materialising multi-minute traces. A full
//! [`KpiTrace`] is just one sink among several; the
//! `analysis` crate's `OnlineAggregates` is another, and [`Tee`] feeds
//! two at once.
//!
//! # Contract
//!
//! - Records arrive in the producer's emission order (monotone
//!   non-decreasing `time_s` per carrier); sinks may rely on that order.
//! - Records arrive in blocks: [`SlotSink::push_block`] is every sink's
//!   one ingest path, and a block is the next run of records in emission
//!   order (possibly empty, of any length). [`SlotSink::push`] is a
//!   one-row block, so a sink sees the same sequence however the stream
//!   is cut. [`crate::sim::UeSim::run_into`] stages its records in
//!   blocks of [`crate::kpi::BLOCK_RECORDS`] on the stack, flushes the
//!   last, partial block before `finish`, and is the only wrapper
//!   between the simulator and the caller's sink.
//! - [`SlotSink::finish`] is called exactly once, after the last block
//!   of the run. Pushing after `finish` is a contract violation and
//!   sinks may panic or produce unspecified aggregates.

use crate::kpi::{KpiTrace, SlotKpi};

/// A streaming consumer of slot-level KPI records.
pub trait SlotSink {
    /// Consume the next `rows` of the stream, in order.
    fn push_block(&mut self, rows: &[SlotKpi]);

    /// Consume one record: a one-row block.
    #[inline]
    fn push(&mut self, kpi: &SlotKpi) {
        self.push_block(std::slice::from_ref(kpi));
    }

    /// Signal end of stream. Called exactly once, after the last record;
    /// sinks finalise derived state (padding series, sealing sketches)
    /// here. Defaults to a no-op.
    fn finish(&mut self) {}
}

impl SlotSink for KpiTrace {
    // Inline, with `KpiTrace::push_block`, so a one-row `push` from
    // another crate compiles to the one-row column write.
    #[inline]
    fn push_block(&mut self, rows: &[SlotKpi]) {
        KpiTrace::push_block(self, rows);
    }
}

/// Feeds every block to two sinks in order — e.g. retain a full trace
/// while simultaneously folding online aggregates. A block goes to
/// `first` whole, then to `second`.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B> {
    /// The first sink; receives each block before `second`.
    pub first: A,
    /// The second sink.
    pub second: B,
}

impl<A: SlotSink, B: SlotSink> Tee<A, B> {
    /// Combine two sinks.
    pub fn new(first: A, second: B) -> Self {
        Tee { first, second }
    }
}

impl<A: SlotSink, B: SlotSink> SlotSink for Tee<A, B> {
    fn push_block(&mut self, rows: &[SlotKpi]) {
        self.first.push_block(rows);
        self.second.push_block(rows);
    }

    fn finish(&mut self) {
        self.first.finish();
        self.second.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::Direction;

    #[test]
    fn tee_duplicates_the_stream() {
        let mut tee = Tee::new(KpiTrace::new(), KpiTrace::new());
        for i in 0..10u64 {
            let kpi = SlotKpi::idle(i, i as f64 * 0.0005, 0, Direction::Dl, 10, 15.0, -85.0, -11.0, 0);
            tee.push(&kpi);
        }
        tee.finish();
        assert_eq!(tee.first.len(), 10);
        assert_eq!(tee.first, tee.second);
    }
}
