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

use crate::chunk::{is_user_key, ChunkView, NIL};
use crate::skiplist::GfslHandle;

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// Visit every `(key, value)` with `lo <= key <= hi` in ascending key
    /// order. Returns the number of entries visited.
    ///
    /// A key can appear in two consecutive chunk snapshots while a merge is
    /// in flight (the rightmost copy is authoritative); the scan
    /// deduplicates by keeping the last copy seen and never yields keys out
    /// of order.
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
        let mut pending: Option<(u32, u32)> = None;
        let mut noted = false;
        let mut count = 0usize;
        let mut view = ChunkView::BLANK;
        // Certified reads throughout: a torn single read racing a remove's
        // left-shift can miss a key that is present for the whole scan,
        // which the scan contract forbids.
        while let Some(c) = self.next_live_certified(cur, &mut view) {
            if !noted {
                // The first live chunk encloses `lo`: cache it as the next
                // scan's descent shortcut. A certified view's lock word was
                // observed unlocked, but re-derive defensively.
                noted = true;
                self.note_hint(c, view.unlocked_word(&team));
            }
            let in_range = view.keys_in_range(&team, lo, hi);
            for lane in 0..team.dsize() {
                if !in_range.is_set(lane) {
                    continue;
                }
                let e = view.entry(lane);
                let k = e.key();
                match pending {
                    Some((pk, _)) if k == pk => {
                        // Cross-chunk duplicate mid-merge: rightmost wins.
                        pending = Some((k, e.val()));
                    }
                    Some((pk, pv)) if k > pk => {
                        f(pk, pv);
                        count += 1;
                        pending = Some((k, e.val()));
                    }
                    Some(_) => {
                        // Out-of-order artifact mid-merge: skip the stale
                        // smaller copy.
                    }
                    None => pending = Some((k, e.val())),
                }
            }
            // Data arrays are sorted, so a live key above `hi` means every
            // later chunk only holds larger keys: the scan is complete.
            let live = view.keys_live(&team).bits();
            let le_hi = view.keys_le(&team, hi).bits();
            if live & !le_hi != 0 {
                break;
            }
            let next = view.next(&team);
            if next == NIL {
                break;
            }
            cur = next;
        }
        if let Some((pk, pv)) = pending.take() {
            f(pk, pv);
            count += 1;
        }
        count
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
