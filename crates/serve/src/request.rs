//! Request/response types.

use gfsl::batch::{BatchOp, BatchReply};
use gfsl::Error as GfslError;
use gfsl_workload::ServeOp;

/// Client identifier (index into the simulated client population).
pub type ClientId = u32;

/// One admitted request, tagged with its issuer and virtual arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Issuing client.
    pub client: ClientId,
    /// Service-unique request id (assigned at issue, monotone per run).
    pub id: u64,
    /// Virtual arrival time, nanoseconds since the run started.
    pub arrival_ns: u64,
    /// The operation.
    pub op: ServeOp,
}

/// Typed reply to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `Get`: the value, if present.
    Got(Option<u32>),
    /// `Insert`: whether a new key was added.
    Inserted(bool),
    /// `Delete`: whether the key was found and removed.
    Deleted(bool),
    /// `Range`: number of keys in the window.
    Ranged(u32),
    /// `MinEntry`: the smallest present entry, if any.
    MinIs(Option<(u32, u32)>),
    /// `PopMin`: the extracted entry, or `None` on an empty structure.
    Popped(Option<(u32, u32)>),
    /// The operation failed structurally (reserved key, pool exhausted).
    Failed(GfslError),
}

impl From<BatchReply> for Reply {
    fn from(r: BatchReply) -> Reply {
        match r {
            BatchReply::Got(v) => Reply::Got(v),
            BatchReply::Inserted(b) => Reply::Inserted(b),
            BatchReply::Removed(b) => Reply::Deleted(b),
            BatchReply::Counted(n) => Reply::Ranged(n),
            BatchReply::MinIs(kv) => Reply::MinIs(kv),
            BatchReply::Popped(kv) => Reply::Popped(kv),
            BatchReply::Failed(e) => Reply::Failed(e),
        }
    }
}

/// Map a serving op onto the structure's batched entry point.
pub fn to_batch_op(op: ServeOp) -> BatchOp {
    match op {
        ServeOp::Get(k) => BatchOp::Get(k),
        ServeOp::Insert(k, v) => BatchOp::Insert(k, v),
        ServeOp::Delete(k) => BatchOp::Remove(k),
        ServeOp::Range(lo, hi) => BatchOp::CountRange(lo, hi),
        ServeOp::MinEntry => BatchOp::MinEntry,
        ServeOp::PopMin => BatchOp::PopMin,
    }
}

/// A completed request routed back to its client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Issuing client.
    pub client: ClientId,
    /// The request's service-unique id.
    pub id: u64,
    /// Virtual arrival time of the request.
    pub arrival_ns: u64,
    /// Virtual time spent queued before dispatch (batch-formation wait).
    pub wait_ns: u64,
    /// Virtual completion time.
    pub done_ns: u64,
    /// The typed reply.
    pub reply: Reply,
}

impl Response {
    /// End-to-end latency: completion minus arrival.
    #[inline]
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.arrival_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(client: u32, id: u64) -> Response {
        Response {
            client,
            id,
            arrival_ns: 0,
            wait_ns: 0,
            done_ns: 10,
            reply: Reply::Got(None),
        }
    }

    #[test]
    fn reply_conversion_covers_every_batch_reply() {
        assert_eq!(Reply::from(BatchReply::Got(Some(3))), Reply::Got(Some(3)));
        assert_eq!(Reply::from(BatchReply::Inserted(true)), Reply::Inserted(true));
        assert_eq!(Reply::from(BatchReply::Removed(false)), Reply::Deleted(false));
        assert_eq!(Reply::from(BatchReply::Counted(9)), Reply::Ranged(9));
        assert_eq!(
            Reply::from(BatchReply::MinIs(Some((1, 2)))),
            Reply::MinIs(Some((1, 2)))
        );
        assert_eq!(Reply::from(BatchReply::Popped(None)), Reply::Popped(None));
        assert_eq!(
            Reply::from(BatchReply::Failed(GfslError::InvalidKey(0))),
            Reply::Failed(GfslError::InvalidKey(0))
        );
    }

    #[test]
    fn latency_is_done_minus_arrival() {
        let mut r = resp(0, 0);
        r.arrival_ns = 100;
        r.done_ns = 350;
        assert_eq!(r.latency_ns(), 250);
    }
}
