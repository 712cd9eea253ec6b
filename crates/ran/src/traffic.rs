//! Offered-traffic checks on the [`crate::flow::Flow`] pipeline, the
//! backlog every carrier leg drains: a full-buffer flow never empties,
//! and a one-shot transfer drains to exactly its size and then stops
//! asking for grants.

#[cfg(test)]
mod tests {
    use crate::flow::Flow;
    use crate::queue::QueueConfig;
    use crate::workload::{RtcConfig, RtcFrames};

    const SLOT_S: f64 = 0.5e-3;

    #[test]
    fn full_buffer_never_empties() {
        let mut flow = Flow::full_buffer();
        flow.advance(0.0, SLOT_S);
        assert!(flow.needs_grant(false));
        assert_eq!(flow.compose_tb(1_000_000, 0.0), 1_000_000);
        flow.complete_delivered(0.0, 1_000_000);
        flow.advance(SLOT_S, SLOT_S);
        assert!(flow.needs_grant(false));
        assert_eq!(flow.backlog_bits(), f64::INFINITY);
        assert_eq!(flow.queue_bits(), 0);
        assert_eq!(flow.workload_stats().delivered_bits, 1_000_000);
    }

    #[test]
    fn finite_transfer_completes() {
        // One 1 Mbit frame released at t = 0; at 0.01 fps the next one is
        // due at 100 s, far past the slots run here.
        let transfer = RtcFrames::new(RtcConfig { rate_mbps: 0.01, fps: 0.01 });
        assert_eq!(transfer.frame_bits(), 1_000_000);
        let mut flow = Flow::pipeline(Box::new(transfer), QueueConfig::unbounded());
        let mut drained = 0u64;
        for slot in 0..100u32 {
            let now = f64::from(slot) * SLOT_S;
            flow.advance(now, SLOT_S);
            if !flow.needs_grant(false) {
                continue;
            }
            let tb = flow.compose_tb(123_456, now);
            flow.complete_delivered(now, tb);
            drained += u64::from(tb);
        }
        assert_eq!(drained, 1_000_000);
        assert!(!flow.needs_grant(false));
        assert_eq!(flow.backlog_bits(), 0.0);
        let stats = flow.workload_stats();
        assert_eq!(stats.offered_bits, 1_000_000);
        assert_eq!(stats.delivered_bits, 1_000_000);
        assert_eq!(stats.completed_units, 1);
    }
}
