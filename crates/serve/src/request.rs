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

/// A stream of timed requests with completion feedback: what [`serve`]
/// pulls from. The service asks *when* the next request arrives
/// ([`peek_ns`](RequestSource::peek_ns)), takes it once the epoch window
/// covers that instant, and hands back each completion
/// ([`on_complete`](RequestSource::on_complete)) and each shed
/// ([`on_shed`](RequestSource::on_shed)); the source decides how its
/// clients react — retry later, give up, or issue their next request.
///
/// [`serve`]: crate::service::serve
pub trait RequestSource {
    /// Virtual arrival time of the next pending request, if any.
    fn peek_ns(&mut self) -> Option<u64>;

    /// Take the next pending request (must follow a `Some` peek).
    fn take(&mut self) -> Request;

    /// A response was delivered to its client.
    fn on_complete(&mut self, resp: &Response);

    /// A request was shed at admission, at virtual time `now_ns`.
    fn on_shed(&mut self, req: Request, now_ns: u64);

    /// True when the source will never yield another request.
    fn exhausted(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
