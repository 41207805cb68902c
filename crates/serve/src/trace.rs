//! Replay-determinism witness: an FNV-1a fold over the service schedule.
//!
//! Uses the same constants and byte-wise fold as the chaos layer's trace
//! (PR 1), so a full service run — epoch closes, batch formation, dispatch
//! grants, sheds — collapses to one `u64`. Two runs with the same seed
//! and config produce the same hash or something is nondeterministic.

/// FNV-1a offset basis (the chaos trace's initial value). Re-exported from
/// the shared [`gfsl_rng::fnv`] helper so every trace fold in the workspace
/// uses one definition.
pub const FNV_OFFSET: u64 = gfsl_rng::fnv::OFFSET;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = gfsl_rng::fnv::PRIME;

const EV_EPOCH: u64 = 0xE1;
const EV_BATCH: u64 = 0xB2;
const EV_GRANT: u64 = 0x64;
const EV_SHED: u64 = 0x5D;

/// Accumulating FNV-1a fold over schedule events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHash {
    h: u64,
}

impl Default for TraceHash {
    fn default() -> TraceHash {
        TraceHash::new()
    }
}

impl TraceHash {
    /// Fresh hash at the offset basis.
    pub fn new() -> TraceHash {
        TraceHash { h: FNV_OFFSET }
    }

    /// Fold one 64-bit value, byte-wise little-endian (the shared
    /// [`gfsl_rng::fnv::fold_u64`] helper).
    #[inline]
    pub fn fold(&mut self, x: u64) {
        self.h = gfsl_rng::fnv::fold_u64(self.h, x);
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.h
    }

    /// An epoch closed at virtual time `close_ns` with `admitted` requests.
    pub fn epoch(&mut self, seq: u64, close_ns: u64, admitted: usize) {
        self.fold(EV_EPOCH);
        self.fold(seq);
        self.fold(close_ns);
        self.fold(admitted as u64);
    }

    /// A batch was formed: its dispatch sequence number, planned worker,
    /// size, and read-only classification.
    pub fn batch(&mut self, seq: u64, worker: usize, len: usize, read_only: bool) {
        self.fold(EV_BATCH);
        self.fold(seq);
        self.fold(worker as u64);
        self.fold((len as u64) << 1 | read_only as u64);
    }

    /// A batch was granted to the worker pool for execution.
    pub fn grant(&mut self, seq: u64) {
        self.fold(EV_GRANT);
        self.fold(seq);
    }

    /// A request was shed at admission.
    pub fn shed(&mut self, client: u64, depth: u64) {
        self.fold(EV_SHED);
        self.fold(client);
        self.fold(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_event_streams_hash_identically() {
        let mut a = TraceHash::new();
        let mut b = TraceHash::new();
        for t in [&mut a, &mut b] {
            t.epoch(0, 100, 32);
            t.batch(0, 1, 32, false);
            t.grant(0);
            t.shed(4, 128);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn event_order_and_kind_matter() {
        let mut a = TraceHash::new();
        a.batch(0, 1, 32, false);
        a.grant(0);
        let mut b = TraceHash::new();
        b.grant(0);
        b.batch(0, 1, 32, false);
        assert_ne!(a.value(), b.value(), "order is part of the schedule");

        let mut c = TraceHash::new();
        c.batch(0, 1, 32, true);
        let mut d = TraceHash::new();
        d.batch(0, 1, 32, false);
        assert_ne!(c.value(), d.value(), "read-only flag is hashed");
    }

    #[test]
    fn fold_matches_reference_fnv1a() {
        // Folding 0u64 must equal hashing eight zero bytes with FNV-1a.
        let mut t = TraceHash::new();
        t.fold(0);
        let mut h = FNV_OFFSET;
        for byte in [0u64; 8] {
            h = (h ^ byte).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(t.value(), h);
    }
}
