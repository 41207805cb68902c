//! The device-memory word pool and its bump allocator.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::layout::WordAddr;
use crate::schedule::ScheduledAtomicU64;

/// Error returned when the pool's fixed capacity is exhausted.
///
/// The paper's implementation preallocates a memory pool at initialization
/// and M&C famously "runs out of memory for larger structures" (§5.3); we
/// surface exhaustion as an error instead of undefined behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Words requested by the failing allocation.
    pub requested: u32,
    /// Total pool capacity in words.
    pub capacity: u32,
}

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device memory pool exhausted (requested {} words, capacity {} words)",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// A flat pool of 64-bit atomic words addressed by 32-bit word index.
///
/// Allocation is a lock-free bump pointer ("allocations from the memory pool
/// are performed by incrementing a global counter and using the resulting
/// index as a pointer", §4.1). There is no free: like the paper's
/// implementation, removed chunks/nodes are never reclaimed within a run.
pub struct WordPool {
    /// `offset` words of padding, then the pool's words.
    words: Vec<ScheduledAtomicU64>,
    /// Where word 0 sits in `words`: the first [`CHUNK_ALIGN`]-byte
    /// boundary of the allocation.
    offset: usize,
    next: AtomicU32,
}

/// The byte alignment of the pool's word 0, and so of every chunk
/// [`WordPool::alloc`] aligns to its size: a 32-lane chunk of 8-byte words
/// fills four 64-byte lines exactly, and never straddles a page.
const CHUNK_ALIGN: usize = 256;

impl WordPool {
    /// Create a pool of `capacity_words` zeroed words.
    ///
    /// # Panics
    /// Panics if `capacity_words` exceeds `u32::MAX - 1` (addresses must fit
    /// the 32-bit index space; `u32::MAX` is reserved as the NIL pointer).
    pub fn new(capacity_words: usize) -> WordPool {
        assert!(
            capacity_words < u32::MAX as usize,
            "pool capacity must fit 32-bit word addressing"
        );
        // The allocator aligns the words to 8 bytes only (a large pool's
        // mmap header puts word 0 16 bytes past a page boundary), so
        // allocate one chunk less a word of slack and start at the first
        // boundary inside it.
        let slack = CHUNK_ALIGN / std::mem::size_of::<ScheduledAtomicU64>() - 1;
        let mut v = Vec::with_capacity(capacity_words + slack);
        v.resize_with(capacity_words + slack, || ScheduledAtomicU64::new(0));
        let offset = v.as_ptr().align_offset(CHUNK_ALIGN).min(slack);
        // Truncating never moves the buffer; the tail slack goes, so the
        // one bounds check of `span` is the pool's own.
        v.truncate(offset + capacity_words);
        WordPool {
            words: v,
            offset,
            next: AtomicU32::new(0),
        }
    }

    /// Pool capacity in words.
    #[inline]
    pub fn capacity(&self) -> u32 {
        (self.words.len() - self.offset) as u32
    }

    /// Words handed out so far (bump pointer position).
    #[inline]
    pub fn used(&self) -> u32 {
        self.next.load(Ordering::Relaxed).min(self.capacity())
    }

    /// Allocate `n` words aligned to `align` words. Returns the base address.
    ///
    /// Alignment matters for the memory model: GFSL chunks must be
    /// line-aligned so a chunk read covers the minimum number of cache lines.
    /// Word 0 sits on a 256-byte boundary, so a block aligned to its own
    /// size of up to 32 words is aligned in memory too.
    pub fn alloc(&self, n: u32, align: u32) -> Result<WordAddr, PoolExhausted> {
        debug_assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let base = (cur + align - 1) & !(align - 1);
            let end = base.saturating_add(n);
            if end > self.capacity() {
                return Err(PoolExhausted {
                    requested: n,
                    capacity: self.capacity(),
                });
            }
            // The bump counter is not a pool word, but concurrent alloc
            // races are real schedules; gate each CAS attempt on the
            // reserved synthetic address so the model checker can
            // interleave allocators too.
            #[cfg(feature = "sched")]
            crate::schedule::yield_point(
                crate::schedule::AccessKind::Rmw,
                crate::schedule::SYNTH_ALLOC,
            );
            match self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Ok(base),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Acquire-load the word at `addr`.
    #[inline]
    pub fn read(&self, addr: WordAddr) -> u64 {
        self.words[self.offset + addr as usize].load(addr, Ordering::Acquire)
    }

    /// Release-store the word at `addr` (the paper's `AtomicWrite`).
    #[inline]
    pub fn write(&self, addr: WordAddr, value: u64) {
        self.words[self.offset + addr as usize].store(addr, value, Ordering::Release);
    }

    /// Compare-and-swap the word at `addr` (used for lock words and for
    /// M&C's marked next-pointers). Returns `Ok(current)` on success and
    /// `Err(current)` on failure.
    #[inline]
    pub fn cas(&self, addr: WordAddr, expected: u64, new: u64) -> Result<u64, u64> {
        self.words[self.offset + addr as usize].compare_exchange(
            addr,
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Read the `N` consecutive words starting at `base` into `dst`: one
    /// lockstep team read of a chunk. Each lane's load is individually
    /// atomic, the combination is not — exactly the GPU's guarantee. Words
    /// are loaded once each, in ascending address order (NotFound
    /// certification rests on the lock lane, the highest address, being
    /// read last), behind one bounds check for the whole chunk.
    #[inline]
    pub fn read_words<const N: usize>(&self, base: WordAddr, dst: &mut [u64; N]) {
        let words: &[ScheduledAtomicU64; N] = self
            .span(base, N as u32)
            .words
            .try_into()
            .expect("a span of N words");
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = words[i].load(base + i as u32, Ordering::Acquire);
        }
    }

    /// The `n` consecutive words starting at `base`, bounds-checked once:
    /// what a loop over one chunk's lanes stores through.
    ///
    /// # Panics
    /// If the span does not lie inside the pool.
    #[inline]
    pub fn span(&self, base: WordAddr, n: u32) -> WordSpan<'_> {
        let start = self.offset + base as usize;
        match self.words.get(start..start.wrapping_add(n as usize)) {
            Some(words) => WordSpan { words, base },
            None => span_out_of_bounds(base, n, self.capacity()),
        }
    }
}

#[cold]
#[inline(never)]
fn span_out_of_bounds(base: WordAddr, n: u32, len: u32) -> ! {
    panic!("index out of bounds: the pool holds {len} words but words {base}..{base}+{n} were addressed")
}

/// A run of consecutive pool words (one chunk) behind a single bounds check,
/// indexed by lane. See [`WordPool::span`].
#[derive(Clone, Copy)]
pub struct WordSpan<'a> {
    words: &'a [ScheduledAtomicU64],
    base: WordAddr,
}

impl WordSpan<'_> {
    /// Pool address of word `i` of the span.
    #[inline]
    pub fn addr(&self, i: usize) -> WordAddr {
        self.base + i as u32
    }

    /// Release-store word `i` of the span (the paper's `AtomicWrite`).
    #[inline]
    pub fn write(&self, i: usize, value: u64) {
        self.words[i].store(self.addr(i), value, Ordering::Release);
    }
}

impl std::fmt::Debug for WordPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordPool")
            .field("capacity", &self.capacity())
            .field("used", &self.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bumps_and_aligns() {
        let p = WordPool::new(1024);
        let a = p.alloc(10, 1).unwrap();
        assert_eq!(a, 0);
        let b = p.alloc(16, 16).unwrap();
        assert_eq!(b, 16, "should round up to next 16-word boundary");
        let c = p.alloc(16, 16).unwrap();
        assert_eq!(c, 32);
        assert_eq!(p.used(), 48);
    }

    #[test]
    fn alloc_exhaustion_is_an_error_not_a_panic() {
        let p = WordPool::new(32);
        assert!(p.alloc(32, 1).is_ok());
        let err = p.alloc(1, 1).unwrap_err();
        assert_eq!(err.capacity, 32);
        assert_eq!(err.requested, 1);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn alloc_exhaustion_via_alignment_padding() {
        let p = WordPool::new(20);
        assert_eq!(p.alloc(4, 1).unwrap(), 0);
        // 16-word-aligned 16-word block would end at 32 > 20.
        assert!(p.alloc(16, 16).is_err());
    }

    #[test]
    fn read_write_roundtrip() {
        let p = WordPool::new(64);
        p.write(7, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read(7), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read(8), 0, "fresh words are zeroed");
    }

    #[test]
    fn cas_success_and_failure() {
        let p = WordPool::new(8);
        p.write(0, 5);
        assert_eq!(p.cas(0, 5, 9), Ok(5));
        assert_eq!(p.read(0), 9);
        assert_eq!(p.cas(0, 5, 11), Err(9));
        assert_eq!(p.read(0), 9);
    }

    #[test]
    fn read_words_reads_consecutive() {
        let p = WordPool::new(64);
        for i in 0..32u32 {
            p.write(i, i as u64 * 10);
        }
        let mut buf = [0u64; 8];
        p.read_words(4, &mut buf);
        assert_eq!(buf, [40, 50, 60, 70, 80, 90, 100, 110]);
        p.read_words(56, &mut buf); // the pool's last eight words
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn span_writes_land_at_base_plus_lane() {
        let p = WordPool::new(64);
        let s = p.span(16, 16);
        s.write(0, 7);
        s.write(15, 9);
        assert_eq!(s.addr(15), 31);
        assert_eq!((p.read(16), p.read(31)), (7, 9));
    }

    /// An out-of-range chunk (a walk that followed a NIL or recycled
    /// pointer) must stop at the pool's bounds check, not read past it or
    /// wrap.
    #[test]
    #[should_panic(expected = "index out of bounds: the pool holds 64 words")]
    fn chunk_read_past_the_pool_panics() {
        let p = WordPool::new(64);
        p.read_words(60, &mut [0u64; 8]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the pool holds 64 words")]
    fn span_at_a_wrapped_nil_base_panics() {
        let p = WordPool::new(64);
        p.span(u32::MAX - 31, 32);
    }

    /// Word 0, and with it every chunk, starts a 256-byte line group,
    /// also in a pool large enough for the allocator to map it fresh.
    #[test]
    fn word_zero_is_chunk_aligned() {
        for words in [64, 1 << 16, 1 << 20] {
            let p = WordPool::new(words);
            let word0 = p.span(0, 1).words.as_ptr() as usize;
            assert_eq!(word0 % 256, 0, "a pool of {words} words");
            assert_eq!(p.capacity() as usize, words);
        }
    }

    #[test]
    fn concurrent_alloc_hands_out_disjoint_blocks() {
        let p = WordPool::new(16 * 1024);
        let bases: Vec<WordAddr> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).map(|_| p.alloc(16, 16).unwrap()).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let unique: std::collections::HashSet<_> = bases.iter().collect();
        assert_eq!(unique.len(), 400, "all allocations disjoint");
        assert!(bases.iter().all(|b| b % 16 == 0));
    }
}
