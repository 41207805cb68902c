//! Lock-free range scans over the bottom level.
//!
//! Ordered traversal is the reason to use a skiplist instead of a hash
//! table (the paper contrasts GFSL with the GPU hash tables of MegaKV and
//! Stadium Hashing, which cannot serve range queries). The scan walks the
//! bottom level like `searchLateral`, so it is lock-free and sees a
//! best-effort consistent view: every key that is present for the whole
//! scan is reported exactly once; keys inserted/removed concurrently may or
//! may not appear, exactly like the point operations.

use gfsl_gpu_mem::MemProbe;
use gfsl_simt::Team;

use crate::chunk::{is_user_key, ChunkView, NIL};
use crate::skiplist::GfslHandle;

/// The per-chunk half of a bottom-level scan, shared by the live walk
/// ([`GfslHandle::for_each_in_range`]) and the versioned one
/// ([`GfslHandle::for_each_in_range_at`]): each walk reads its chunks its
/// own way and hands every non-zombie view here, left to right.
///
/// A key can appear in two consecutive chunk views while a merge is in
/// flight (the rightmost copy is authoritative), so the largest key seen is
/// held back until a larger one proves it final: a later copy of the same
/// key replaces it, a smaller key is a stale copy and is skipped. Keys are
/// never yielded out of order.
pub(crate) struct RangeEmit<'f> {
    lo: u32,
    hi: u32,
    pending: Option<(u32, u32)>,
    count: usize,
    f: &'f mut dyn FnMut(u32, u32),
}

impl<'f> RangeEmit<'f> {
    pub(crate) fn new(lo: u32, hi: u32, f: &'f mut dyn FnMut(u32, u32)) -> RangeEmit<'f> {
        RangeEmit {
            lo,
            hi,
            pending: None,
            count: 0,
            f,
        }
    }

    /// Emit `view`'s keys in `[lo, hi]`. Returns whether the scan is
    /// complete: data arrays are sorted, so a live key above `hi` means
    /// every later chunk holds only larger keys.
    pub(crate) fn chunk(&mut self, team: &Team, view: &ChunkView) -> bool {
        let in_range = view.keys_in_range(team, self.lo, self.hi);
        for lane in 0..team.dsize() {
            if !in_range.is_set(lane) {
                continue;
            }
            let e = view.entry(lane);
            let k = e.key();
            match self.pending {
                Some((pk, _)) if k < pk => continue,
                Some((pk, pv)) if k > pk => {
                    (self.f)(pk, pv);
                    self.count += 1;
                }
                _ => {}
            }
            self.pending = Some((k, e.val()));
        }
        view.keys_live(team).bits() & !view.keys_le(team, self.hi).bits() != 0
    }

    /// Emit the held-back key; returns the number of keys emitted.
    pub(crate) fn finish(self) -> usize {
        if let Some((k, v)) = self.pending {
            (self.f)(k, v);
            return self.count + 1;
        }
        self.count
    }
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// Visit every `(key, value)` with `lo <= key <= hi` in ascending key
    /// order, each key once (see `RangeEmit` for keys a merge in flight
    /// shows twice). Returns the number of entries visited.
    pub fn for_each_in_range(
        &mut self,
        lo: u32,
        hi: u32,
        mut f: impl FnMut(u32, u32),
    ) -> usize {
        if lo > hi {
            return 0;
        }
        let lo = lo.max(1); // 0 is the -inf sentinel
        if !is_user_key(lo) && lo != 1 {
            return 0;
        }
        self.with_pin(|h| h.range_pinned(lo, hi, &mut f))
    }

    fn range_pinned(&mut self, lo: u32, hi: u32, f: &mut dyn FnMut(u32, u32)) -> usize {
        let team = self.list.team;
        // Hinted start with the same walk budget as point lookups: chunks
        // left of `lo`'s enclosing chunk contribute nothing to the scan, so
        // a far-left hint would silently lengthen it by the whole gap.
        let mut cur = self.hinted_lateral(lo).enclosing;
        let mut emit = RangeEmit::new(lo, hi, f);
        let mut noted = false;
        let mut view = ChunkView::BLANK;
        // Certified reads throughout: a torn single read racing a remove's
        // left-shift can miss a key that is present for the whole scan,
        // which the scan contract forbids.
        loop {
            let (c, cert) = self.next_live_certified(cur, &mut view);
            if !noted {
                // The first live chunk encloses `lo`: cache it as the next
                // scan's descent shortcut.
                noted = true;
                self.note_hint(c, Some(cert.word()));
            }
            if emit.chunk(&team, &view) {
                break;
            }
            let next = view.next(&team);
            if next == NIL {
                break;
            }
            cur = next;
        }
        emit.finish()
    }

    /// Collect `lo..=hi` into a vector (see
    /// [`for_each_in_range`](Self::for_each_in_range)).
    pub fn range(&mut self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.for_each_in_range(lo, hi, |k, v| out.push((k, v)));
        out
    }

    /// Number of keys in `lo..=hi`.
    pub fn count_range(&mut self, lo: u32, hi: u32) -> usize {
        self.for_each_in_range(lo, hi, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn built(n: u32) -> Gfsl {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap();
        {
            let mut h = list.handle();
            for k in 1..=n {
                h.insert(k * 3, k).unwrap(); // keys 3, 6, 9, ...
            }
        }
        list
    }

    #[test]
    fn range_returns_sorted_window() {
        let list = built(500);
        let mut h = list.handle();
        let got = h.range(30, 60);
        let want: Vec<(u32, u32)> = (10..=20).map(|k| (k * 3, k)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_edges_and_empties() {
        let list = built(100);
        let mut h = list.handle();
        assert_eq!(h.range(1, 2), vec![]);
        assert_eq!(h.range(3, 3), vec![(3, 1)]);
        assert_eq!(h.range(301, 400), vec![]);
        assert_eq!(h.range(10, 5), vec![], "inverted bounds");
        assert_eq!(h.count_range(1, u32::MAX - 1), 100);
    }

    #[test]
    fn range_spans_many_chunks() {
        let list = built(2000);
        let mut h = list.handle();
        assert_eq!(h.count_range(1, 6000), 2000);
        let window = h.range(2998, 3302);
        assert!(window.len() > 90, "spans several 14-entry chunks");
        assert!(window.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn range_skips_deleted_keys() {
        let list = built(200);
        let mut h = list.handle();
        for k in (30..=120u32).filter(|k| k % 3 == 0).step_by(2) {
            assert!(h.remove(k));
        }
        // Deleted: every other multiple of 3 in [30,120] = multiples of 6.
        let got = h.range(30, 120);
        assert!(!got.is_empty());
        assert!(got.iter().all(|&(k, _)| k % 3 == 0 && k % 6 != 0),
            "only odd multiples of 3 survive: {got:?}");
        assert_eq!(got.len(), (30..=120).filter(|k| k % 3 == 0 && k % 6 != 0).count());
    }

    #[test]
    fn range_concurrent_with_writers_is_sane() {
        let list = built(1000);
        std::thread::scope(|s| {
            let list_ref = &list;
            s.spawn(move || {
                let mut h = list_ref.handle();
                for k in 1..=1000u32 {
                    if k % 2 == 0 {
                        h.remove(k * 3);
                    }
                }
            });
            s.spawn(move || {
                let mut h = list_ref.handle();
                for _ in 0..50 {
                    let got = h.range(1, 3000);
                    // Sorted, unique, and within the original key universe.
                    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                    assert!(got.iter().all(|&(k, _)| k % 3 == 0));
                }
            });
        });
        list.assert_valid();
    }
}
