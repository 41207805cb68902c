//! A concurrent in-memory session store built on GFSL.
//!
//! The paper's motivation (§1): skiplists are "a basis for key-value
//! stores"; GFSL's 32-bit value field "may be used to indicate the address
//! of a larger object in the main memory as in Zhang et al. [MegaKV]".
//! This example does exactly that: session records live in a flat arena and
//! the skiplist maps session id -> arena slot, with expiry sweeps using the
//! ordered structure (ids encode creation time in their high bits, so a
//! range of ids is a time window).
//!
//! ```text
//! cargo run --release --example session_store
//! ```

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use gfsl::{Gfsl, GfslParams};

/// A session record in the side arena (the "larger object in main memory").
#[derive(Debug, Default)]
struct Session {
    user: AtomicU64,
    logins: AtomicU32,
}

/// Session id layout: high 12 bits = coarse epoch (creation window),
/// low 20 bits = sequence. Ordered ids give time-ordered expiry sweeps.
fn session_id(epoch: u32, seq: u32) -> u32 {
    assert!(epoch < (1 << 12) && seq < (1 << 20));
    (epoch << 20 | seq) + 1 // +1 keeps 0 reserved for -inf
}

struct SessionStore {
    index: Gfsl,
    arena: Vec<Session>,
    next_slot: AtomicU32,
}

impl SessionStore {
    fn new(capacity: usize) -> SessionStore {
        SessionStore {
            index: Gfsl::new(GfslParams::sized_for(capacity as u64)).unwrap(),
            arena: (0..capacity).map(|_| Session::default()).collect(),
            next_slot: AtomicU32::new(0),
        }
    }

    /// Create a session; returns false if the id already exists.
    fn create(&self, h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>, id: u32, user: u64) -> bool {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let rec = &self.arena[slot as usize];
        rec.user.store(user, Ordering::Relaxed);
        rec.logins.store(1, Ordering::Relaxed);
        // Publish: the index entry makes the slot reachable.
        h.try_insert(id, slot).expect("arena sized with the index")
    }

    fn lookup(&self, h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>, id: u32) -> Option<u64> {
        let slot = h.try_get(id).unwrap()?;
        Some(self.arena[slot as usize].user.load(Ordering::Relaxed))
    }

    fn touch(&self, h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>, id: u32) -> bool {
        match h.try_get(id).unwrap() {
            Some(slot) => {
                self.arena[slot as usize].logins.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn end(&self, h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>, id: u32) -> bool {
        h.try_remove(id).unwrap()
    }

    /// Expire every session created in `epoch` (a contiguous id range —
    /// this is where the *ordered* index pays off vs a hash table).
    fn expire_epoch(&self, h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>, epoch: u32) -> usize {
        let lo = session_id(epoch, 0);
        let hi = session_id(epoch, (1 << 20) - 1);
        // Ordered sweep over the quiescent snapshot; delete through the
        // handle so the structure stays consistent.
        let victims: Vec<u32> = self
            .index
            .keys()
            .into_iter()
            .filter(|&k| (lo..=hi).contains(&k))
            .collect();
        let mut n = 0;
        for id in victims {
            if h.try_remove(id).unwrap() {
                n += 1;
            }
        }
        n
    }
}

fn main() {
    let store = SessionStore::new(200_000);

    // Four frontend threads create/touch/end sessions concurrently.
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let store = &store;
            s.spawn(move || {
                let mut h = store.index.handle();
                for i in 0..30_000u32 {
                    let seq = i * 4 + t;
                    let epoch = seq % 3;
                    let id = session_id(epoch, seq);
                    assert!(store.create(&mut h, id, (t as u64) << 32 | i as u64));
                    assert!(store.touch(&mut h, id));
                    if i % 5 == 0 {
                        assert!(store.end(&mut h, id));
                    }
                }
            });
        }
    });

    let live_before = store.index.len();
    println!("live sessions after churn : {live_before}");

    // Nightly job: expire epoch 1.
    let mut h = store.index.handle();
    let expired = store.expire_epoch(&mut h, 1);
    println!("expired from epoch 1      : {expired}");
    let live_after = store.index.len();
    assert_eq!(live_after, live_before - expired);
    println!("live sessions after sweep : {live_after}");

    // Lookups still resolve through the arena.
    let probe_id = store.index.keys()[0];
    let user = store.lookup(&mut h, probe_id).expect("live session resolves");
    println!("sample lookup {probe_id} -> user {user:#x}");

    store.index.assert_valid();
    println!("index invariants hold");
}
