//! FNV-1a trace hashing — the single home for the fold that previously
//! lived as four copy-pasted implementations (`serve::trace`, the schedule
//! turnstile now at `gfsl::mc::controller`, the `harness` stress binary,
//! and the kernel-parity suite's commentary).
//!
//! Two fold shapes exist in the codebase and **both are load-bearing**:
//!
//! * [`fold_u64`] — the textbook byte-wise little-endian FNV-1a fold, used
//!   by the serve-layer schedule trace and the stress campaign's per-seed
//!   rollup hash.
//! * [`fold_word`] — the schedule turnstile's word-wise variant (xor the
//!   whole 64-bit value, one multiply). It is *not* byte-wise FNV-1a, but
//!   every recorded schedule trace hash since PR 1 is built from it, so
//!   replay stability demands it stay bit-identical.
//!
//! Changing either fold (or the constants) silently invalidates every
//! pinned trace hash in CI and every historical replay transcript; the
//! tests below pin reference values so a well-meaning "cleanup" fails loud.

/// FNV-1a 64-bit offset basis — the initial value of every trace hash.
pub const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold one 64-bit value into `h`, byte-wise little-endian (standard
/// FNV-1a over `x.to_le_bytes()`).
#[inline]
pub fn fold_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Fold one 64-bit value into `h`, word-wise: xor the whole value, then a
/// single multiply by [`PRIME`]. This is the schedule turnstile's
/// historical fold; it must never be "fixed" to the byte-wise form.
#[inline]
pub fn fold_word(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(PRIME)
}

/// Standard FNV-1a over a byte slice, starting from [`OFFSET`].
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_reference_vectors() {
        // Landon Curt Noll's published FNV-1a 64-bit test vectors. These pin
        // the constants: if OFFSET or PRIME drift, every replay hash in the
        // repo silently changes, so fail here first.
        assert_eq!(hash_bytes(b""), OFFSET);
        assert_eq!(hash_bytes(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fold_u64_is_bytewise_fnv1a() {
        // Folding a u64 must equal hashing its 8 little-endian bytes.
        let x = 0x0123_4567_89AB_CDEFu64;
        assert_eq!(fold_u64(OFFSET, x), hash_bytes(&x.to_le_bytes()));
        assert_eq!(fold_u64(OFFSET, 0), hash_bytes(&[0u8; 8]));
    }

    #[test]
    fn fold_word_pins_the_chaos_fold_shape() {
        // The turnstile's trace folds (id, kind, address) word-wise. Pin the exact
        // arithmetic so the shared helper can never drift from the histories
        // recorded by PR 1's campaigns.
        let h = fold_word(fold_word(OFFSET, 3), 0x42);
        let manual = {
            let mut t = OFFSET;
            t ^= 3;
            t = t.wrapping_mul(PRIME);
            t ^= 0x42;
            t.wrapping_mul(PRIME)
        };
        assert_eq!(h, manual);
        // And pin the concrete value: a change to OFFSET/PRIME or the fold
        // order lands here.
        assert_eq!(h, 0x0836_2C07_B4EE_BC70);
    }

    #[test]
    fn the_two_folds_differ() {
        // Guard against "simplifying" one into the other.
        assert_ne!(fold_u64(OFFSET, 7), fold_word(OFFSET, 7));
    }
}
