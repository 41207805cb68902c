//! Admission control: a bounded intake queue with typed load shedding.
//!
//! The intake queue is the service's backpressure point. Arrivals that find
//! it full are *shed* — rejected with a typed [`ShedError`] carrying the
//! observed depth — rather than queued without bound. Shedding keeps the
//! latency tail of admitted requests bounded under overload (the classic
//! open-loop failure mode is an unbounded queue whose wait grows without
//! limit; we refuse work instead).

use std::collections::VecDeque;

use crate::request::Request;

/// Typed rejection: the intake queue (or the edge's degraded supervisor
/// rung) refused the request at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedError {
    /// Queue depth observed at rejection.
    pub depth: usize,
    /// Backoff hint: the virtual time after which a retry has a realistic
    /// chance of admission, derived from the observed depth and the
    /// queue's drain-rate estimate. Zero when no estimate is configured.
    pub retry_after_ns: u64,
}

impl ShedError {
    /// The retry hint converted for the wire: **milliseconds**, rounded
    /// *up* (a hint of 1 ns must not truncate to "retry immediately"), and
    /// clamped to `u32::MAX` ms. Protocol frames carry this value — every
    /// edge client and server agrees the on-wire unit is ms, while the
    /// in-process hint stays in virtual ns (see `gfsl-edge`).
    pub fn retry_after_ms(&self) -> u32 {
        let ms = self.retry_after_ns.div_ceil(1_000_000);
        ms.min(u32::MAX as u64) as u32
    }
}

impl std::fmt::Display for ShedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request shed: intake queue full at depth {} (retry after {} ns)",
            self.depth, self.retry_after_ns
        )
    }
}

impl std::error::Error for ShedError {}

/// Bounded FIFO intake queue.
#[derive(Debug)]
pub struct IntakeQueue {
    cap: usize,
    q: VecDeque<Request>,
    sheds: u64,
    drain_ns_per_req: u64,
}

impl IntakeQueue {
    /// A queue admitting at most `cap` requests (`cap > 0`), with no
    /// drain-rate estimate (shed retry hints report 0).
    pub fn new(cap: usize) -> IntakeQueue {
        IntakeQueue::with_drain_hint(cap, 0)
    }

    /// A queue whose shed errors carry a retry-after hint of
    /// `depth × ns_per_req` — the virtual time the service needs to work
    /// off the backlog the rejected request saw.
    pub fn with_drain_hint(cap: usize, ns_per_req: u64) -> IntakeQueue {
        assert!(cap > 0, "intake capacity must be positive");
        IntakeQueue {
            cap,
            q: VecDeque::with_capacity(cap.min(1 << 16)),
            sheds: 0,
            drain_ns_per_req: ns_per_req,
        }
    }

    /// The [`ShedError`] an arrival would receive right now.
    fn shed_error(&self) -> ShedError {
        let depth = self.q.len();
        ShedError {
            depth,
            retry_after_ns: (depth as u64).saturating_mul(self.drain_ns_per_req),
        }
    }

    /// Admit a request, or shed it. On rejection the request is handed back
    /// to the caller (the arrival source decides whether to retry or drop).
    pub fn offer(&mut self, req: Request) -> Result<(), (Request, ShedError)> {
        if self.q.len() >= self.cap {
            self.sheds += 1;
            return Err((req, self.shed_error()));
        }
        self.q.push_back(req);
        Ok(())
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Admission bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Requests shed so far.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Drain up to `n` requests from the front, in admission order.
    pub fn drain_upto(&mut self, n: usize) -> Vec<Request> {
        let take = n.min(self.q.len());
        self.q.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use gfsl_workload::ServeOp;

    fn req(id: u64) -> Request {
        Request {
            client: 0,
            id,
            arrival_ns: id,
            op: ServeOp::Get(1),
        }
    }

    #[test]
    fn sheds_exactly_beyond_capacity() {
        let mut q = IntakeQueue::new(3);
        for id in 0..3 {
            assert!(q.offer(req(id)).is_ok());
        }
        let (back, err) = q.offer(req(3)).unwrap_err();
        assert_eq!(back.id, 3, "rejected request is handed back intact");
        assert_eq!(err.depth, 3);
        assert_eq!(err.retry_after_ns, 0, "no drain estimate, no hint");
        assert_eq!(q.sheds(), 1);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn retry_hint_scales_with_depth_and_drain_rate() {
        let mut q = IntakeQueue::with_drain_hint(4, 250);
        assert_eq!(q.shed_error().retry_after_ns, 0, "empty queue, instant retry");
        for id in 0..4 {
            q.offer(req(id)).unwrap();
        }
        let (_, err) = q.offer(req(9)).unwrap_err();
        assert_eq!(err.depth, 4);
        assert_eq!(err.retry_after_ns, 4 * 250, "hint = backlog x drain estimate");
        q.drain_upto(2);
        assert_eq!(q.shed_error().retry_after_ns, 2 * 250, "hint tracks current depth");
    }

    #[test]
    fn drain_preserves_admission_order_and_frees_space() {
        let mut q = IntakeQueue::new(4);
        for id in 0..4 {
            q.offer(req(id)).unwrap();
        }
        let first = q.drain_upto(2);
        assert_eq!(first.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.len(), 2);
        assert!(q.offer(req(9)).is_ok(), "drained space readmits");
        let rest = q.drain_upto(100);
        assert_eq!(rest.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2, 3, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn retry_after_ms_rounds_up_and_clamps() {
        let e = |ns| ShedError { depth: 1, retry_after_ns: ns };
        assert_eq!(e(0).retry_after_ms(), 0, "no backlog, instant retry");
        assert_eq!(e(1).retry_after_ms(), 1, "sub-ms hints round up, never to zero");
        assert_eq!(e(1_000_000).retry_after_ms(), 1);
        assert_eq!(e(1_000_001).retry_after_ms(), 2);
        assert_eq!(e(250_000_000).retry_after_ms(), 250);
        assert_eq!(e(u64::MAX).retry_after_ms(), u32::MAX, "clamped at the wire bound");
    }

    #[test]
    fn shed_error_is_a_real_error() {
        let e = ShedError {
            depth: 7,
            retry_after_ns: 700,
        };
        let msg = format!("{e}");
        assert!(msg.contains("depth 7") && msg.contains("700 ns"), "{msg}");
        let _: &dyn std::error::Error = &e;
    }
}
