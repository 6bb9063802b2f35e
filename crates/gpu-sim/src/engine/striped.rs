//! Lock-striped, thread-safe access mode for the bucketized store.
//!
//! [`StripedStore`] holds the same logical content as a
//! `BucketStore<u32, u32>` — bucketed key/value lanes with an optional
//! fingerprint lane — laid out flat: one `AtomicU32` key lane, one value
//! lane and one `AtomicU16` fingerprint lane for the whole subtable, slot
//! `(b, s)` at index `b * slots + s`. The buckets are partitioned into
//! contiguous **stripes**, each with its own writer mutex, so real OS
//! threads can write disjoint stripes concurrently. This is the storage
//! half of the `host-par` backend: the simulated path keeps using
//! [`BucketStore`] under the round scheduler's `atomicCAS` bucket locks,
//! while the host-parallel path locks a stripe and performs the identical
//! slot transitions under it.
//!
//! ## Locking protocol
//!
//! * A bucket `b` belongs to exactly one stripe, [`StripedStore::stripe_of`]
//!   `(b)`. Every **write** of a bucket's slots, and every read that a
//!   write decides on, requires holding that stripe's guard
//!   ([`StripedStore::lock_stripe`]).
//! * Operations that touch several buckets (cuckoo inserts probe every
//!   candidate bucket of a key) must acquire the distinct stripes in
//!   **canonical order** — ascending `(table index, stripe index)` — and
//!   never acquire a lower-ordered stripe while holding a higher one.
//!   Callers own this ordering; `vendor/interleave`'s exhaustive schedule
//!   explorer pins the protocol (canonical order is deadlock-free, the
//!   reversed order deadlocks) and the claim semantics (a slot is claimed
//!   only while its stripe is held, so concurrent inserts cannot lose
//!   updates the way the `inject_lock_elision` fault does).
//! * [`StripedStore::try_lock_stripe`] is the voter-style non-blocking
//!   acquire: a failed attempt is counted (the host-par analogue of a
//!   failed `atomicCAS` re-vote) and the caller may go do other work.
//!   Only writers lock, so the count measures writer contention only.
//! * [`StripedStore::read_unlocked`] is the lock-free find: it probes one
//!   bucket with no guard. It is correct only while **no writer runs**;
//!   the caller proves that (`ParTable::find_batch` takes `&mut self`, so
//!   no insert or delete batch can overlap its scoped readers). A read
//!   racing a writer could pair a key with another key's value. Should
//!   finds ever run beside writers (a `&self` find), each bucket needs a
//!   version word the reader checks before and after its probe.
//!
//! ## Memory ordering
//!
//! Every slot word is an atomic accessed with `Relaxed` loads and stores,
//! so no access is a data race. Writers order their slot words through the
//! stripe mutexes' release/acquire pairs. Unlocked readers are ordered
//! after the last write by the thread spawn/join edges around them: the
//! write batch's `std::thread::scope` joins every writer before it
//! returns, and the read batch's workers are spawned afterwards. The
//! bookkeeping counters (`occupied`, `contended`) are relaxed too, read at
//! those same quiesce points.

use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use super::layout::LayoutConfig;
use super::store::{BucketStore, SlotWord};

/// The empty-slot sentinel of the key lane.
const EMPTY: u32 = <u32 as SlotWord>::EMPTY;

/// A flat lane of `n` zeroed atomic words.
fn lane<A>(n: usize, zero: impl Fn() -> A) -> Box<[A]> {
    (0..n).map(|_| zero()).collect()
}

/// A bucketized `u32 → u32` store in flat atomic lanes, with one writer
/// mutex per stripe of buckets. Logical slot transitions (`write_new`,
/// `update_val`, `swap`, `erase`) are exactly [`BucketStore`]'s, so a
/// store converted in either direction holds the identical content.
#[derive(Debug)]
pub struct StripedStore {
    keys: Box<[AtomicU32]>,
    vals: Box<[AtomicU32]>,
    /// Per-slot fingerprints; empty when the layout carries no lane.
    /// Invariant (mirrors [`BucketStore`]): `fps[idx] == 0` ⟺ empty slot.
    fps: Box<[AtomicU16]>,
    /// One writer lock per stripe. It guards no data of its own: holding
    /// it is the right to write the stripe's slots.
    locks: Box<[Mutex<()>]>,
    /// Buckets per stripe (the last stripe may be shorter).
    buckets_per_stripe: usize,
    n_buckets: usize,
    layout: LayoutConfig,
    fp_fn: fn(u32) -> u64,
    /// Live slots across all stripes. Relaxed: a monotonic counter whose
    /// exact value is only inspected at quiesce points.
    occupied: AtomicU64,
    /// Failed [`StripedStore::try_lock_stripe`] attempts (the host-par
    /// analogue of failed `atomicCAS` lock acquisitions).
    contended: AtomicU64,
}

impl StripedStore {
    /// Create an empty striped store of `n_buckets` buckets under
    /// `layout`, with `buckets_per_stripe` buckets per lock.
    pub fn new(n_buckets: usize, layout: LayoutConfig, buckets_per_stripe: usize) -> Self {
        assert!(n_buckets >= 1, "bucket count must be positive");
        assert!(buckets_per_stripe >= 1, "stripe width must be positive");
        let n = n_buckets * layout.slots;
        let n_fps = if layout.has_fp() { n } else { 0 };
        Self {
            keys: lane(n, || AtomicU32::new(EMPTY)),
            vals: lane(n, || AtomicU32::new(EMPTY)),
            fps: lane(n_fps, || AtomicU16::new(0)),
            locks: lane(n_buckets.div_ceil(buckets_per_stripe), || Mutex::new(())),
            buckets_per_stripe,
            n_buckets,
            layout,
            fp_fn: <u32 as SlotWord>::fp_hash,
            occupied: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Install a custom fingerprint hash. Must be called before any key
    /// is stored — the lane is not recomputed retroactively.
    pub fn set_fp_fn(&mut self, f: fn(u32) -> u64) {
        debug_assert_eq!(self.occupied(), 0, "set_fp_fn on a populated store");
        self.fp_fn = f;
    }

    /// The stripe bucket `b` belongs to.
    #[inline]
    pub fn stripe_of(&self, b: usize) -> usize {
        debug_assert!(b < self.n_buckets);
        b / self.buckets_per_stripe
    }

    /// Number of stripes (locks).
    #[inline]
    pub fn n_stripes(&self) -> usize {
        self.locks.len()
    }

    /// Number of buckets.
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// The layout this store was created under.
    #[inline]
    pub fn layout(&self) -> &LayoutConfig {
        &self.layout
    }

    /// Slots per bucket.
    #[inline]
    pub fn slots_per_bucket(&self) -> usize {
        self.layout.slots
    }

    /// Total key slots.
    #[inline]
    pub fn capacity_slots(&self) -> u64 {
        (self.n_buckets * self.layout.slots) as u64
    }

    /// Live slots. Exact only at quiesce points (no stripe held for
    /// writing elsewhere).
    #[inline]
    pub fn occupied(&self) -> u64 {
        self.occupied.load(Relaxed)
    }

    /// Filled factor `θ_i`. Exact only at quiesce points.
    #[inline]
    pub fn fill_factor(&self) -> f64 {
        self.occupied() as f64 / self.capacity_slots() as f64
    }

    /// Device bytes under the layout (same accounting as the bucket
    /// store: padded bucket strides plus one lock word per bucket).
    pub fn device_bytes(&self) -> u64 {
        self.layout.device_bytes_for(self.n_buckets)
    }

    /// Failed non-blocking lock attempts so far.
    #[inline]
    pub fn contended(&self) -> u64 {
        self.contended.load(Relaxed)
    }

    /// The key lane of bucket `b`.
    #[inline]
    fn bucket_keys(&self, b: usize) -> &[AtomicU32] {
        debug_assert!(b < self.n_buckets);
        let lo = b * self.layout.slots;
        &self.keys[lo..lo + self.layout.slots]
    }

    /// The slot in bucket `b` holding `key`, if any.
    #[inline]
    fn position(&self, b: usize, key: u32) -> Option<usize> {
        self.bucket_keys(b)
            .iter()
            .position(|k| k.load(Relaxed) == key)
    }

    /// Lock-free lookup: the value `key` holds in bucket `b`, if any. No
    /// stripe is locked, so this is correct only while no writer runs
    /// (see the module docs); the caller proves quiescence.
    #[inline]
    pub fn read_unlocked(&self, b: usize, key: u32) -> Option<u32> {
        self.position(b, key)
            .map(|s| self.vals[b * self.layout.slots + s].load(Relaxed))
    }

    /// Fingerprint-lane word for `key`: the hash folded into
    /// `1..=fp_max` (0 is the empty-slot sentinel).
    #[inline]
    fn fp_of(&self, key: u32) -> u16 {
        ((self.fp_fn)(key) % self.layout.fp_max() + 1) as u16
    }

    /// Block until stripe `s` is held. Callers locking several stripes
    /// must acquire them in ascending `(table, stripe)` order.
    pub fn lock_stripe(&self, s: usize) -> StripeGuard<'_> {
        StripeGuard {
            store: self,
            stripe: s,
            _held: self.locks[s].lock().expect("stripe lock poisoned"),
        }
    }

    /// Voter-style non-blocking acquire: `None` (counted as contention)
    /// when another thread holds stripe `s`.
    pub fn try_lock_stripe(&self, s: usize) -> Option<StripeGuard<'_>> {
        match self.locks[s].try_lock() {
            Ok(held) => Some(StripeGuard {
                store: self,
                stripe: s,
                _held: held,
            }),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Relaxed);
                None
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("stripe lock poisoned"),
        }
    }

    /// Live slots as `(flat index, key, value)`, in bucket-then-slot
    /// order. `&mut self` proves quiescence.
    fn live_slots(&mut self) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        self.keys
            .iter_mut()
            .zip(self.vals.iter_mut())
            .enumerate()
            .filter_map(|(i, (k, v))| {
                let k = *k.get_mut();
                (k != EMPTY).then(|| (i, k, *v.get_mut()))
            })
    }

    /// All live `(key, value)` pairs, in bucket-then-slot order.
    pub fn live_pairs(&mut self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.occupied() as usize);
        out.extend(self.live_slots().map(|(_, k, v)| (k, v)));
        out
    }

    /// Recount occupancy from the key lane (accounting-drift checks).
    pub fn recount(&mut self) -> u64 {
        self.live_slots().count() as u64
    }

    /// Copy this store's content into a fresh [`BucketStore`] (same
    /// layout, same bucket/slot placement).
    pub fn to_bucket_store(&mut self) -> BucketStore<u32, u32> {
        let mut out = BucketStore::new(self.n_buckets, self.layout);
        out.set_fp_fn(self.fp_fn);
        let slots = self.layout.slots;
        for (i, k, v) in self.live_slots() {
            out.write_new(i / slots, i % slots, k, v);
        }
        out
    }
}

impl BucketStore<u32, u32> {
    /// Copy this store's content into a striped thread-safe twin (same
    /// layout, same bucket/slot placement, same fingerprint hash).
    pub fn to_striped(&self, buckets_per_stripe: usize) -> StripedStore {
        let mut out = StripedStore::new(self.n_buckets(), *self.layout(), buckets_per_stripe);
        out.set_fp_fn(self.fp_fn());
        for b in 0..self.n_buckets() {
            let mut g = out.lock_stripe(out.stripe_of(b));
            for (s, &k) in self.bucket_keys(b).iter().enumerate() {
                if !k.is_empty_word() {
                    g.write_new(b, s, k, self.bucket_vals(b)[s]);
                }
            }
        }
        out
    }
}

/// The right to write one stripe's buckets. All slot writes — and the
/// probes they decide on — go through this guard; releasing it publishes
/// the writes to the next holder.
#[derive(Debug)]
pub struct StripeGuard<'a> {
    store: &'a StripedStore,
    _held: MutexGuard<'a, ()>,
    stripe: usize,
}

impl StripeGuard<'_> {
    /// The stripe this guard holds.
    #[inline]
    pub fn stripe(&self) -> usize {
        self.stripe
    }

    /// Flat lane index of `(b, s)`; `b` must belong to this stripe.
    #[inline]
    fn idx(&self, b: usize, s: usize) -> usize {
        debug_assert_eq!(
            self.store.stripe_of(b),
            self.stripe,
            "bucket outside stripe"
        );
        debug_assert!(s < self.store.layout.slots);
        b * self.store.layout.slots + s
    }

    /// The slot in bucket `b` holding `key`, if any.
    #[inline]
    pub fn find_slot(&self, b: usize, key: u32) -> Option<usize> {
        debug_assert_eq!(self.store.stripe_of(b), self.stripe);
        self.store.position(b, key)
    }

    /// An empty slot in bucket `b`, if any.
    #[inline]
    pub fn find_empty(&self, b: usize) -> Option<usize> {
        self.find_slot(b, EMPTY)
    }

    /// Read the KV pair at `(bucket, slot)`.
    #[inline]
    pub fn slot(&self, b: usize, s: usize) -> (u32, u32) {
        let idx = self.idx(b, s);
        (
            self.store.keys[idx].load(Relaxed),
            self.store.vals[idx].load(Relaxed),
        )
    }

    /// Store `key`/`val` and the key's fingerprint at lane index `idx`.
    #[inline]
    fn put(&mut self, idx: usize, key: u32, val: u32) {
        let store = self.store;
        if store.layout.has_fp() {
            store.fps[idx].store(store.fp_of(key), Relaxed);
        }
        store.keys[idx].store(key, Relaxed);
        store.vals[idx].store(val, Relaxed);
    }

    /// Write a KV pair into an **empty** slot, growing the occupancy
    /// count and maintaining the fingerprint lane.
    pub fn write_new(&mut self, b: usize, s: usize, key: u32, val: u32) {
        let idx = self.idx(b, s);
        debug_assert_eq!(
            self.store.keys[idx].load(Relaxed),
            EMPTY,
            "write_new over a live slot"
        );
        debug_assert_ne!(key, EMPTY);
        self.put(idx, key, val);
        self.store.occupied.fetch_add(1, Relaxed);
    }

    /// Overwrite the value of a live slot (in-place update).
    pub fn update_val(&mut self, b: usize, s: usize, val: u32) {
        let idx = self.idx(b, s);
        debug_assert_ne!(self.store.keys[idx].load(Relaxed), EMPTY);
        self.store.vals[idx].store(val, Relaxed);
    }

    /// Swap the KV at `(b, s)` with the given pair, returning the evicted
    /// occupant. Occupancy is unchanged; the fingerprint lane follows.
    pub fn swap(&mut self, b: usize, s: usize, key: u32, val: u32) -> (u32, u32) {
        let old = self.slot(b, s);
        debug_assert_ne!(old.0, EMPTY, "swap with an empty slot");
        self.put(self.idx(b, s), key, val);
        old
    }

    /// Erase the key at `(b, s)`, shrinking the occupancy count. The
    /// value is deliberately untouched (SoA deletion pays no value
    /// traffic), matching [`BucketStore::erase`].
    pub fn erase(&mut self, b: usize, s: usize) {
        let idx = self.idx(b, s);
        let store = self.store;
        debug_assert_ne!(
            store.keys[idx].load(Relaxed),
            EMPTY,
            "erasing an empty slot"
        );
        if store.layout.has_fp() {
            store.fps[idx].store(0, Relaxed);
        }
        store.keys[idx].store(EMPTY, Relaxed);
        store.occupied.fetch_sub(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n_buckets: usize) -> StripedStore {
        StripedStore::new(n_buckets, LayoutConfig::default(), 2)
    }

    #[test]
    fn roundtrip_matches_bucket_store_semantics() {
        let mut t = store(8);
        {
            let mut g = t.lock_stripe(t.stripe_of(5));
            let s = g.find_empty(5).unwrap();
            g.write_new(5, s, 99, 7);
            assert_eq!(g.find_slot(5, 99), Some(s));
            assert_eq!(g.slot(5, s), (99, 7));
            g.update_val(5, s, 8);
            assert_eq!(g.slot(5, s), (99, 8));
            let old = g.swap(5, s, 100, 9);
            assert_eq!(old, (99, 8));
        }
        assert_eq!(t.occupied(), 1);
        {
            let mut g = t.lock_stripe(t.stripe_of(5));
            let s = g.find_slot(5, 100).unwrap();
            g.erase(5, s);
        }
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.recount(), 0);
    }

    #[test]
    fn stripe_mapping_partitions_buckets() {
        let t = store(7); // 2 buckets per stripe → stripes {0,1} {2,3} {4,5} {6}
        assert_eq!(t.n_stripes(), 4);
        assert_eq!(t.stripe_of(0), 0);
        assert_eq!(t.stripe_of(1), 0);
        assert_eq!(t.stripe_of(6), 3);
        // The short tail stripe still addresses its bucket.
        let mut g = t.lock_stripe(3);
        g.write_new(6, 0, 42, 1);
        assert_eq!(g.find_slot(6, 42), Some(0));
    }

    #[test]
    fn fp_lane_tracks_mutations() {
        let mut t = StripedStore::new(4, LayoutConfig::default().with_fp(8), 2);
        let reference: BucketStore<u32, u32> =
            BucketStore::new(4, LayoutConfig::default().with_fp(8));
        {
            let mut g = t.lock_stripe(0);
            g.write_new(1, 3, 42, 7);
            let old = g.swap(1, 3, 99, 8);
            assert_eq!(old, (42, 7));
            g.erase(1, 3);
            g.write_new(1, 3, 42, 7);
        }
        // Same fingerprint value as the bucket store computes for the key.
        let bs = t.to_bucket_store();
        assert_eq!(bs.bucket_fps(1)[3], reference.fp_of(42));
    }

    #[test]
    fn conversions_preserve_placement_and_content() {
        let mut bs: BucketStore<u32, u32> = BucketStore::new(6, LayoutConfig::default());
        for k in 1..=50u32 {
            let b = (k % 6) as usize;
            if let Some(s) = bs.find_empty(b) {
                bs.write_new(b, s, k, k * 3);
            }
        }
        let mut striped = bs.to_striped(2);
        assert_eq!(striped.occupied(), bs.occupied());
        let back = striped.to_bucket_store();
        assert_eq!(back.occupied(), bs.occupied());
        for b in 0..6 {
            assert_eq!(back.bucket_keys(b), bs.bucket_keys(b), "bucket {b}");
            assert_eq!(back.bucket_vals(b), bs.bucket_vals(b), "bucket {b}");
        }
    }

    /// Drive a seeded mix of `write_new` / `swap` / `update_val` / `erase`
    /// against `t`, with keys from `1..=max_key` routed to `key % n_buckets`.
    fn mixed_sequence(t: &StripedStore, max_key: u32, steps: u32) {
        let n = t.n_buckets();
        let mut x = 0x9E37_79B9u32;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = 1 + x % max_key;
            let b = key as usize % n;
            let mut g = t.lock_stripe(t.stripe_of(b));
            match (g.find_slot(b, key), x >> 28) {
                (Some(s), 0..=5) => g.update_val(b, s, x),
                (Some(s), 6..=9) => g.erase(b, s),
                (Some(s), _) => {
                    // Swap in a key of the same bucket that is not present.
                    let fresh = key + (max_key / n as u32 + 1) * n as u32;
                    if g.find_slot(b, fresh).is_none() {
                        assert_eq!(g.swap(b, s, fresh, x).0, key);
                    }
                }
                (None, _) => {
                    if let Some(s) = g.find_empty(b) {
                        g.write_new(b, s, key, x);
                    }
                }
            }
        }
    }

    #[test]
    fn unlocked_read_agrees_with_guarded_read() {
        // 7 buckets, 3 per stripe: stripes {0,1,2} {3,4,5} and a short
        // tail stripe {6}. Narrow buckets so buckets fill and keys swap.
        for layout in [
            LayoutConfig::soa(8, 4, 4),
            LayoutConfig::soa(8, 4, 4).with_fp(8),
        ] {
            let mut t = StripedStore::new(7, layout, 3);
            assert_eq!(t.n_stripes(), 3);
            mixed_sequence(&t, 120, 4000);
            assert!(t.occupied() > 0);
            assert_eq!(t.recount(), t.occupied());
            for b in 0..t.n_buckets() {
                let g = t.lock_stripe(t.stripe_of(b));
                for key in 1..=400u32 {
                    let guarded = g.find_slot(b, key).map(|s| g.slot(b, s).1);
                    assert_eq!(t.read_unlocked(b, key), guarded, "{layout:?} b{b} k{key}");
                }
            }
            // Round trips keep placement, values and the fingerprint lane.
            let bs = t.to_bucket_store();
            let mut again = bs.to_striped(3);
            let back = again.to_bucket_store();
            let reference: BucketStore<u32, u32> = BucketStore::new(7, layout);
            for b in 0..7 {
                assert_eq!(back.bucket_keys(b), bs.bucket_keys(b), "bucket {b}");
                assert_eq!(back.bucket_vals(b), bs.bucket_vals(b), "bucket {b}");
                if layout.has_fp() {
                    assert_eq!(back.bucket_fps(b), bs.bucket_fps(b), "bucket {b}");
                    for (s, &k) in bs.bucket_keys(b).iter().enumerate() {
                        let want = if k == EMPTY { 0 } else { reference.fp_of(k) };
                        assert_eq!(bs.bucket_fps(b)[s], want, "bucket {b} slot {s}");
                    }
                }
                for (s, &k) in bs.bucket_keys(b).iter().enumerate() {
                    if k != EMPTY {
                        assert_eq!(t.read_unlocked(b, k), Some(bs.bucket_vals(b)[s]));
                    }
                }
            }
            assert_eq!(back.occupied(), t.occupied());
        }
    }

    #[test]
    fn try_lock_counts_contention() {
        let t = store(4);
        let g = t.lock_stripe(0);
        assert!(t.try_lock_stripe(0).is_none());
        assert!(t.try_lock_stripe(1).is_some());
        drop(g);
        assert!(t.try_lock_stripe(0).is_some());
        assert_eq!(t.contended(), 1);
    }

    #[test]
    fn threads_on_disjoint_stripes_do_not_lose_updates() {
        let t = store(8); // 4 stripes
        let key_of = |stripe: usize, i: u32| 1 + stripe as u32 * 1000 + i;
        std::thread::scope(|scope| {
            for stripe in 0..4usize {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..40u32 {
                        let b = stripe * 2 + (i % 2) as usize;
                        let mut g = t.lock_stripe(stripe);
                        if let Some(s) = g.find_empty(b) {
                            g.write_new(b, s, key_of(stripe, i), i);
                        }
                    }
                });
            }
        });
        // Lock-free readers on fresh threads, after the writers' join.
        std::thread::scope(|scope| {
            for stripe in 0..4usize {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..40u32 {
                        let b = stripe * 2 + (i % 2) as usize;
                        assert_eq!(t.read_unlocked(b, key_of(stripe, i)), Some(i));
                    }
                });
            }
        });
        let mut t = t;
        assert_eq!(t.occupied(), 4 * 40);
        assert_eq!(t.recount(), 4 * 40);
        assert_eq!(t.live_pairs().len(), 4 * 40);
    }

    #[test]
    fn contending_threads_on_one_stripe_serialize() {
        let t = store(2); // a single stripe: every write contends
        std::thread::scope(|scope| {
            for thread in 0..4u32 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..16u32 {
                        let key = 1 + thread * 100 + i;
                        loop {
                            // Voter-style: retry on a contended stripe.
                            let Some(mut g) = t.try_lock_stripe(0) else {
                                std::hint::spin_loop();
                                continue;
                            };
                            let b = (key % 2) as usize;
                            if let Some(s) = g.find_empty(b) {
                                g.write_new(b, s, key, i);
                            }
                            break;
                        }
                    }
                });
            }
        });
        let mut t = t;
        // 64 slots per bucket-pair; all 64 distinct keys must have landed.
        assert_eq!(t.recount(), 64);
        assert_eq!(t.occupied(), 64);
    }
}
