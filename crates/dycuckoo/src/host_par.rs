//! `host-par`: the dynamic cuckoo table on real OS threads.
//!
//! [`ParTable`] is the second execution backend of this crate. It shares
//! the sim backend's decision core — [`crate::table`]'s `TableShape`
//! (hash parameters, candidate routing, eviction destinations) and
//! [`crate::distribute`]'s Theorem-1 steering — but executes against the
//! engine's lock-striped store ([`StripedStore`]: flat atomic lanes per
//! subtable, one writer mutex per stripe) with `std::thread::scope`
//! workers instead of simulated warps, so throughput
//! is bounded by the host machine, not by the model.
//!
//! ## Concurrency protocol
//!
//! * **Insert (concurrent phase).** Each worker owns a contiguous chunk
//!   of the batch. Per key it locks the stripes covering *every*
//!   candidate bucket, in canonical ascending `(table, stripe)` order
//!   (deadlock-free; `vendor/interleave` pins the protocol), then — with
//!   all candidates visible and claimed — upserts a duplicate in place or
//!   writes the first empty slot of the steered candidate. Because no key
//!   is ever invisible (moves happen only in the sequential phase) and
//!   the whole candidate set is held, the duplicate check is sound and
//!   concurrent inserts of distinct keys commute.
//! * **Insert (sequential overflow drain).** Keys whose candidate buckets
//!   were all full are collected per worker and drained by the calling
//!   thread after the join: classic cuckoo eviction chains, with a
//!   conflict-free subtable doubling when a chain exhausts
//!   `eviction_limit` — the quiesce-point analogue of the sim backend's
//!   upsize-and-retry.
//! * **Find.** Lock-free: a find probes its candidate buckets in order
//!   with plain relaxed loads and takes no stripe guard. This is sound
//!   because [`ParTable::find_batch`] takes `&mut self`, so no insert or
//!   delete can run beside it, and the previous batch's join orders every
//!   write before the finds. `LockFailures` therefore counts writer
//!   contention only. If `find_batch` ever becomes `&self` (finds beside
//!   writers), each bucket needs a version word that a reader checks
//!   around its probe, or a find could pair a key with another's value.
//! * **Delete.** A per-key, single-bucket critical section: the
//!   probe-and-erase happens under one guard, so double deletes of the
//!   same key serialize and erase exactly once.
//! * **Workers.** Every batch splits its keys into one contiguous chunk
//!   per thread. The first chunk runs on the calling thread, the rest on
//!   `threads − 1` scoped workers, all through one helper whose join is
//!   the single place a worker panic surfaces.
//!
//! ## Determinism boundary
//!
//! The **logical** outcome — the final key→value map, `len()`, reply
//! values for find/delete batches whose inputs don't race — is
//! schedule-independent: insert batches of distinct keys commute, and the
//! fuzz oracle's differential gate holds `ParTable` to byte-equality with
//! the `gpu-sim` reference map on every seed × policy sweep. The
//! **physical** outcome — which slot a key lands in, which keys overflow,
//! how many grows trigger, contention counters — depends on the OS
//! schedule and is deliberately excluded from the oracle's digest.
//!
//! Metrics and attribution are per-thread (worker-local [`Metrics`],
//! thread-local [`obs::attr`] state) and merged at quiesce points in
//! thread-index order; merging is associative and commutative, so the
//! totals are schedule-independent even though per-thread splits are not.

use gpu_sim::engine::striped::{StripeGuard, StripedStore};
use gpu_sim::{ChargeKind, Metrics};
use obs::attr::{self, Attribution};

use crate::config::Config;
use crate::distribute;
use crate::error::{Error, Result};
use crate::hashfn::splitmix64;
use crate::rmw::MergeRule;
use crate::table::{TableShape, MAX_INSERT_RETRIES};

/// What one insert chunk hands back at the join: its overflow keys (in
/// chunk order) and its inserted/updated counts.
type InsertWindow = (Vec<(u32, u32)>, u64, u64);

/// Run `work` over `items` split into one contiguous chunk per thread:
/// the first chunk on the calling thread, the others on `threads − 1`
/// scoped workers. Each chunk charges a private [`Metrics`] (and, while
/// profiling, its thread's attribution window); at the quiesce point they
/// are merged into `metrics` / `attribution` in chunk order, and the
/// chunk results come back in the same order. This is the one join site,
/// so a worker's panic surfaces here.
fn run_chunked<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    profile: bool,
    metrics: &mut Metrics,
    attribution: &mut Attribution,
    work: impl Fn(&[T], &mut Metrics) -> R + Sync,
) -> Vec<R> {
    let run = |chunk: &[T]| {
        if profile {
            attr::start();
        }
        let mut m = Metrics::default();
        let r = work(chunk, &mut m);
        (r, m, profile.then(attr::stop))
    };
    let run = &run;
    let mut chunks = items.chunks(items.len().div_ceil(threads).max(1));
    let first = chunks.next();
    let windows: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = chunks.map(|c| scope.spawn(move || run(c))).collect();
        first
            .map(run)
            .into_iter()
            .chain(
                workers
                    .into_iter()
                    .map(|h| h.join().expect("host-par worker panicked")),
            )
            .collect()
    });
    windows
        .into_iter()
        .map(|(r, m, a)| {
            metrics.merge(&m);
            if let Some(a) = a {
                attribution.merge(&a);
            }
            r
        })
        .collect()
}

/// What one batch did, from the caller's point of view.
///
/// `inserted` and `updated` are logical counts and schedule-independent;
/// `overflowed` (keys that took the sequential drain) and `grows` are
/// physical counts that may vary run to run under contention.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParReport {
    /// Fresh keys placed (concurrent phase or drain).
    pub inserted: u64,
    /// Existing keys whose value was overwritten in place.
    pub updated: u64,
    /// Keys that fell through to the sequential overflow drain.
    pub overflowed: u64,
    /// Subtable doublings performed by the drain.
    pub grows: u64,
}

/// The host-parallel dynamic cuckoo table. See the module docs for the
/// locking protocol and the determinism boundary.
pub struct ParTable {
    shape: TableShape,
    tables: Vec<StripedStore>,
    threads: usize,
    buckets_per_stripe: usize,
    metrics: Metrics,
    attribution: Attribution,
    profile: bool,
    grows: u64,
}

/// Outcome of the concurrent-phase placement attempt for one key.
enum Placed {
    Updated,
    Inserted,
    Overflow,
}

/// Candidate-stripe guards held in canonical `(table, stripe)` order.
struct CandGuards<'a> {
    keys: Vec<(usize, usize)>,
    guards: Vec<StripeGuard<'a>>,
}

impl<'a> CandGuards<'a> {
    /// Acquire every listed stripe, canonically ordered. Each acquire is
    /// voter-style: a failed `try_lock` is charged as a lock failure,
    /// then the worker blocks on the same stripe (order is preserved, so
    /// the protocol stays deadlock-free).
    fn acquire(tables: &'a [StripedStore], mut keys: Vec<(usize, usize)>, m: &mut Metrics) -> Self {
        keys.sort_unstable();
        keys.dedup();
        let guards = keys
            .iter()
            .map(|&(t, s)| match tables[t].try_lock_stripe(s) {
                Some(g) => g,
                None => {
                    m.charge(ChargeKind::LockFailures, 1);
                    tables[t].lock_stripe(s)
                }
            })
            .collect();
        Self { keys, guards }
    }

    fn guard_mut(&mut self, t: usize, s: usize) -> &mut StripeGuard<'a> {
        let i = self
            .keys
            .iter()
            .position(|&k| k == (t, s))
            .expect("stripe not locked");
        &mut self.guards[i]
    }
}

/// Concurrent-phase placement of one key: all candidate stripes held,
/// merge a duplicate in place (inside the probe-duplicate-then-claim
/// critical section — the guards cover every candidate, so the duplicate
/// check and the merge are one atomic step) or claim an empty slot; full
/// candidates overflow to the drain.
fn par_insert_one(
    shape: &TableShape,
    tables: &[StripedStore],
    key: u32,
    val: u32,
    rule: MergeRule,
    m: &mut Metrics,
) -> Placed {
    let cands = shape.candidates(key);
    let locs: Vec<(usize, usize, usize)> = cands
        .iter()
        .map(|t| {
            let b = shape.hashes[t].bucket(key, tables[t].n_buckets());
            (t, tables[t].stripe_of(b), b)
        })
        .collect();
    let mut held = CandGuards::acquire(tables, locs.iter().map(|&(t, s, _)| (t, s)).collect(), m);
    // Upsert: with every candidate bucket claimed, a duplicate anywhere
    // is visible — the check is sound under concurrency.
    for &(t, s, b) in &locs {
        m.charge(ChargeKind::Lookups, 1);
        let g = held.guard_mut(t, s);
        if let Some(slot) = g.find_slot(b, key) {
            let new = if rule.reads_old() {
                rule.merge(g.slot(b, slot).1, val)
            } else {
                val
            };
            g.update_val(b, slot, new);
            m.charge(ChargeKind::Ops, 1);
            return Placed::Updated;
        }
    }
    // Fresh insert: steered candidate first, then any other with room.
    let steered = distribute::choose_among_by(
        shape.cfg.distribution,
        |c| distribute::weight_of(tables[c].capacity_slots(), tables[c].occupied()),
        &cands.as_slice_vec(),
        shape.cfg.seed,
        key,
        0,
    );
    let order = locs
        .iter()
        .copied()
        .filter(|&(t, _, _)| t == steered)
        .chain(locs.iter().copied().filter(|&(t, _, _)| t != steered));
    for (t, s, b) in order {
        let g = held.guard_mut(t, s);
        if let Some(slot) = g.find_empty(b) {
            g.write_new(b, slot, key, rule.initial(val));
            m.charge(ChargeKind::Ops, 1);
            return Placed::Inserted;
        }
    }
    Placed::Overflow
}

/// Fold a batch's duplicate keys into one `(key, arg)` per unique key in
/// first-touch order, returning the effective rule (`Count` occurrences
/// normalize to one `Add` of the occurrence count). With unique keys, the
/// concurrent phase applies at most one merge per key against the
/// pre-batch value, so the final map is schedule-independent.
fn coalesce_rmw(kvs: &[(u32, u32)], rule: MergeRule) -> (MergeRule, Vec<(u32, u32)>) {
    let eff = match rule {
        MergeRule::Count => MergeRule::Add,
        r => r,
    };
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(kvs.len());
    let mut index: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &(k, arg) in kvs {
        let a = if rule == MergeRule::Count { 1 } else { arg };
        match index.entry(k) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let i = *e.get();
                out[i].1 = eff.fold_args(out[i].1, a).expect("Count normalized to Add");
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((k, a));
            }
        }
    }
    (eff, out)
}

impl ParTable {
    /// Create a table with per-bucket striping (the closest analogue of
    /// the sim backend's per-bucket `atomicCAS` locks).
    pub fn new(cfg: Config, threads: usize) -> Result<Self> {
        Self::with_striping(cfg, threads, 1)
    }

    /// Create a table with `buckets_per_stripe` buckets per lock.
    pub fn with_striping(cfg: Config, threads: usize, buckets_per_stripe: usize) -> Result<Self> {
        cfg.validate()?;
        if threads == 0 {
            return Err(Error::InvalidConfig(
                "host-par needs at least one worker thread".to_string(),
            ));
        }
        let shape = TableShape::from_config(cfg);
        let tables = (0..cfg.num_tables)
            .map(|_| StripedStore::new(cfg.initial_buckets, cfg.layout, buckets_per_stripe))
            .collect();
        Ok(Self {
            shape,
            tables,
            threads,
            buckets_per_stripe,
            metrics: Metrics::default(),
            attribution: Attribution::default(),
            profile: false,
            grows: 0,
        })
    }

    /// The table's configuration.
    pub fn config(&self) -> &Config {
        &self.shape.cfg
    }

    /// Worker threads used per batch.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Change the worker-thread count (takes effect on the next batch).
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "host-par needs at least one worker thread");
        self.threads = threads;
    }

    /// Live KV pairs.
    pub fn len(&self) -> u64 {
        self.tables.iter().map(|t| t.occupied()).sum()
    }

    /// Whether the table holds no KV pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total key slots across all subtables.
    pub fn capacity_slots(&self) -> u64 {
        self.tables.iter().map(|t| t.capacity_slots()).sum()
    }

    /// Subtable doublings performed so far.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Metrics merged from every worker so far (thread-index merge order;
    /// totals are schedule-independent).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Reset the metrics window, returning what was accumulated.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Enable/disable per-thread cost attribution. While enabled, batch
    /// calls own the **calling thread's** thread-local `obs::attr` state
    /// while it runs the first chunk and the sequential drain (an active
    /// caller profiler would be clobbered), and every chunk's attribution
    /// window is merged into [`ParTable::take_attribution`].
    pub fn set_profiling(&mut self, on: bool) {
        self.profile = on;
    }

    /// Drain the merged per-thread attribution accumulated while
    /// profiling was enabled.
    pub fn take_attribution(&mut self) -> Attribution {
        std::mem::take(&mut self.attribution)
    }

    fn bucket_of(&self, t: usize, key: u32) -> usize {
        self.shape.hashes[t].bucket(key, self.tables[t].n_buckets())
    }

    /// Insert (upsert) a batch. Concurrent phase on scoped worker
    /// threads, then the sequential overflow drain; returns the batch
    /// report. Key 0 is reserved and rejected, as in the sim backend.
    pub fn insert_batch(&mut self, kvs: &[(u32, u32)]) -> Result<ParReport> {
        if kvs.iter().any(|&(k, _)| k == 0) {
            return Err(Error::ZeroKey);
        }
        self.batch_impl(kvs, MergeRule::LastWrite)
    }

    /// Read-modify-write a batch under `rule` (host-par analogue of
    /// [`crate::DyCuckoo::upsert_batch`]): absent keys insert
    /// `rule.initial(arg)`, present keys merge inside the candidate-guard
    /// critical section. Duplicate keys are pre-coalesced in submission
    /// order, so the final logical map matches the sim backend at any
    /// thread count.
    pub fn upsert_batch(&mut self, kvs: &[(u32, u32)], rule: MergeRule) -> Result<ParReport> {
        if kvs.iter().any(|&(k, _)| k == 0) {
            return Err(Error::ZeroKey);
        }
        let (eff, entries) = coalesce_rmw(kvs, rule);
        self.batch_impl(&entries, eff)
    }

    /// Counting-table special case: bump each key's counter by its number
    /// of occurrences in the batch, inserting absent keys at their count.
    pub fn increment_batch(&mut self, keys: &[u32]) -> Result<ParReport> {
        let kvs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, 0)).collect();
        self.upsert_batch(&kvs, MergeRule::Count)
    }

    fn batch_impl(&mut self, kvs: &[(u32, u32)], rule: MergeRule) -> Result<ParReport> {
        let mut report = ParReport::default();
        if kvs.is_empty() {
            return Ok(report);
        }
        let grows_before = self.grows;
        let shape = &self.shape;
        let tables = &self.tables;
        let profile = self.profile;
        let results: Vec<InsertWindow> = run_chunked(
            kvs,
            self.threads,
            profile,
            &mut self.metrics,
            &mut self.attribution,
            |chunk, m| {
                let mut overflow = Vec::new();
                let (mut inserted, mut updated) = (0u64, 0u64);
                for &(k, v) in chunk {
                    match par_insert_one(shape, tables, k, v, rule, m) {
                        Placed::Updated => updated += 1,
                        Placed::Inserted => inserted += 1,
                        Placed::Overflow => overflow.push((k, v)),
                    }
                }
                (overflow, inserted, updated)
            },
        );
        // Quiesce point: collect the overflow in chunk order.
        let mut overflow = Vec::new();
        for (chunk_overflow, inserted, updated) in results {
            report.inserted += inserted;
            report.updated += updated;
            overflow.extend(chunk_overflow);
        }
        // Sequential drain: eviction chains and grows, one thread, locks
        // uncontended.
        report.overflowed = overflow.len() as u64;
        if profile {
            attr::start();
        }
        let mut drain_result = Ok(());
        for (k, v) in overflow {
            // An overflowed key is absent (batch keys are unique after
            // coalescing and the dup scan held every candidate), so the
            // drain inserts the materialized initial value.
            if let Err(e) = self.seq_insert(k, rule.initial(v)) {
                drain_result = Err(e);
                break;
            }
            report.inserted += 1;
        }
        if profile {
            let a = attr::stop();
            self.attribution.merge(&a);
        }
        drain_result?;
        report.grows = self.grows - grows_before;
        Ok(report)
    }

    /// Place one key sequentially, doubling a subtable and retrying with
    /// the homeless pair whenever an eviction chain exhausts the limit.
    fn seq_insert(&mut self, key: u32, val: u32) -> Result<()> {
        let (mut k, mut v) = (key, val);
        for _ in 0..MAX_INSERT_RETRIES {
            match self.seq_try_place(k, v) {
                None => return Ok(()),
                Some((hk, hv)) => {
                    self.grow_smallest();
                    (k, v) = (hk, hv);
                }
            }
        }
        Err(Error::InsertStuck { failed_ops: 1 })
    }

    /// One sequential placement attempt. `None` on success; on eviction
    /// failure, the pair left holding no slot (for retry after a grow).
    fn seq_try_place(&mut self, key: u32, val: u32) -> Option<(u32, u32)> {
        let cands = self.shape.candidates(key);
        // Upsert check across all candidates.
        for t in cands.iter() {
            let b = self.bucket_of(t, key);
            self.metrics.charge(ChargeKind::Lookups, 1);
            let store = &self.tables[t];
            let mut g = store.lock_stripe(store.stripe_of(b));
            if let Some(s) = g.find_slot(b, key) {
                g.update_val(b, s, val);
                self.metrics.charge(ChargeKind::Ops, 1);
                return None;
            }
        }
        let steered = distribute::choose_among_by(
            self.shape.cfg.distribution,
            |c| distribute::weight_of(self.tables[c].capacity_slots(), self.tables[c].occupied()),
            &cands.as_slice_vec(),
            self.shape.cfg.seed,
            key,
            0,
        );
        // Room in any candidate, steered first?
        for t in std::iter::once(steered).chain(cands.iter().filter(|&t| t != steered)) {
            let b = self.bucket_of(t, key);
            let store = &self.tables[t];
            let mut g = store.lock_stripe(store.stripe_of(b));
            if let Some(s) = g.find_empty(b) {
                g.write_new(b, s, key, val);
                self.metrics.charge(ChargeKind::Ops, 1);
                return None;
            }
        }
        // Eviction chain from the steered bucket.
        let (mut k, mut v, mut t) = (key, val, steered);
        for depth in 0..self.shape.cfg.eviction_limit as u64 {
            let b = self.bucket_of(t, k);
            let store = &self.tables[t];
            let mut g = store.lock_stripe(store.stripe_of(b));
            if let Some(s) = g.find_empty(b) {
                g.write_new(b, s, k, v);
                self.metrics.charge(ChargeKind::Ops, 1);
                return None;
            }
            // Uniform deterministic victim (randomized so chains don't
            // cycle; physical placement is outside the oracle's digest).
            let slots = store.slots_per_bucket() as u64;
            let slot =
                (splitmix64(self.shape.cfg.seed ^ ((k as u64) << 20) ^ depth) % slots) as usize;
            let (vk, vv) = g.swap(b, slot, k, v);
            drop(g);
            self.metrics.charge(ChargeKind::Evictions, 1);
            let vc = self.shape.candidates(vk);
            let viable: Vec<usize> = vc.iter().filter(|&c| c != t).collect();
            debug_assert!(!viable.is_empty(), "victim with no alternate subtable");
            let dest = distribute::choose_among_by(
                self.shape.cfg.distribution,
                |c| {
                    distribute::weight_of(
                        self.tables[c].capacity_slots(),
                        self.tables[c].occupied(),
                    )
                },
                &viable,
                self.shape.cfg.seed,
                vk,
                depth + 1,
            );
            (k, v, t) = (vk, vv, dest);
        }
        Some((k, v))
    }

    /// Double the smallest subtable, rehashing its pairs. Conflict-free:
    /// under doubling, a key's bucket either stays or moves up by the old
    /// count, so no destination bucket can overfill.
    fn grow_smallest(&mut self) {
        let t = (0..self.tables.len())
            .min_by_key(|&i| (self.tables[i].capacity_slots(), i))
            .expect("at least two subtables");
        let n_new = self.tables[t].n_buckets() * 2;
        let mut old = std::mem::replace(
            &mut self.tables[t],
            StripedStore::new(n_new, self.shape.cfg.layout, self.buckets_per_stripe),
        );
        for (k, v) in old.live_pairs() {
            let b = self.shape.hashes[t].bucket(k, n_new);
            let store = &self.tables[t];
            let mut g = store.lock_stripe(store.stripe_of(b));
            let s = g
                .find_empty(b)
                .expect("conflict-free doubling cannot overfill a bucket");
            g.write_new(b, s, k, v);
        }
        self.grows += 1;
    }

    /// Look up a batch of keys on the worker threads; results align with
    /// `keys`. Key 0 (the empty sentinel) always misses. Lock-free:
    /// `&mut self` keeps every writer out while the probes run.
    pub fn find_batch(&mut self, keys: &[u32]) -> Vec<Option<u32>> {
        let shape = &self.shape;
        let tables = &self.tables;
        let outs = run_chunked(
            keys,
            self.threads,
            self.profile,
            &mut self.metrics,
            &mut self.attribution,
            |chunk, m| {
                chunk
                    .iter()
                    .map(|&key| {
                        if key == 0 {
                            return None;
                        }
                        let mut hit = None;
                        for t in shape.candidates(key).iter() {
                            let b = shape.hashes[t].bucket(key, tables[t].n_buckets());
                            m.charge(ChargeKind::Lookups, 1);
                            hit = tables[t].read_unlocked(b, key);
                            if hit.is_some() {
                                break;
                            }
                        }
                        m.charge(ChargeKind::Ops, 1);
                        hit
                    })
                    .collect::<Vec<_>>()
            },
        );
        outs.concat()
    }

    /// Delete a batch of keys on the worker threads, returning how many
    /// live keys were erased. Probe-and-erase is a single critical
    /// section per bucket, so duplicate keys in one batch erase once.
    pub fn delete_batch(&mut self, keys: &[u32]) -> u64 {
        let shape = &self.shape;
        let tables = &self.tables;
        let erased = run_chunked(
            keys,
            self.threads,
            self.profile,
            &mut self.metrics,
            &mut self.attribution,
            |chunk, m| {
                let mut erased = 0u64;
                for &key in chunk {
                    if key == 0 {
                        continue;
                    }
                    for t in shape.candidates(key).iter() {
                        let b = shape.hashes[t].bucket(key, tables[t].n_buckets());
                        m.charge(ChargeKind::Lookups, 1);
                        let stripe = tables[t].stripe_of(b);
                        let mut g = tables[t].try_lock_stripe(stripe).unwrap_or_else(|| {
                            m.charge(ChargeKind::LockFailures, 1);
                            tables[t].lock_stripe(stripe)
                        });
                        if let Some(s) = g.find_slot(b, key) {
                            g.erase(b, s);
                            erased += 1;
                            break;
                        }
                    }
                    m.charge(ChargeKind::Ops, 1);
                }
                erased
            },
        );
        erased.iter().sum()
    }

    /// All live `(key, value)` pairs (unordered across subtables;
    /// oracle-side comparisons sort or build a map). `&mut self` proves
    /// quiescence.
    pub fn live_pairs(&mut self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for t in &mut self.tables {
            out.extend(t.live_pairs());
        }
        out
    }

    /// Structural integrity sweep: occupancy counters match the key
    /// lanes, every live key sits in its hash bucket of a candidate
    /// subtable, and no key is stored twice. Test/debug helper.
    pub fn verify(&mut self) -> std::result::Result<(), String> {
        let mut seen = std::collections::HashMap::new();
        for t in 0..self.tables.len() {
            let occ = self.tables[t].occupied();
            let rec = self.tables[t].recount();
            if occ != rec {
                return Err(format!("table {t}: occupied() = {occ}, recount = {rec}"));
            }
            let bs = self.tables[t].to_bucket_store();
            for b in 0..bs.n_buckets() {
                for &k in bs.bucket_keys(b) {
                    if k == 0 {
                        continue;
                    }
                    let want = self.shape.hashes[t].bucket(k, bs.n_buckets());
                    if want != b {
                        return Err(format!(
                            "table {t}: key {k} in bucket {b}, hashes to {want}"
                        ));
                    }
                    if !self.shape.candidates(k).contains(t) {
                        return Err(format!("key {k} stored outside its candidate set"));
                    }
                    *seen.entry(k).or_insert(0u32) += 1;
                }
            }
        }
        if let Some((k, n)) = seen.iter().find(|&(_, &n)| n > 1) {
            return Err(format!("key {k} stored {n} times"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg() -> Config {
        Config {
            initial_buckets: 4,
            ..Config::default()
        }
    }

    #[test]
    fn insert_find_delete_roundtrip() {
        let mut t = ParTable::new(cfg(), 4).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=500u32).map(|k| (k, k * 7)).collect();
        let r = t.insert_batch(&kvs).unwrap();
        assert_eq!(r.inserted, 500);
        assert_eq!(r.updated, 0);
        assert_eq!(t.len(), 500);
        t.verify().unwrap();
        let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
        let got = t.find_batch(&keys);
        for (&(k, v), g) in kvs.iter().zip(&got) {
            assert_eq!(*g, Some(v), "key {k}");
        }
        assert_eq!(t.find_batch(&[0, 100_000]), vec![None, None]);
        let erased = t.delete_batch(&keys[..100]);
        assert_eq!(erased, 100);
        assert_eq!(t.len(), 400);
        t.verify().unwrap();
    }

    #[test]
    fn upsert_overwrites_in_place() {
        let mut t = ParTable::new(cfg(), 2).unwrap();
        t.insert_batch(&[(7, 1), (8, 2)]).unwrap();
        let r = t.insert_batch(&[(7, 9)]).unwrap();
        assert_eq!(r.updated, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.find_batch(&[7]), vec![Some(9)]);
    }

    #[test]
    fn final_map_is_schedule_independent() {
        // Same batches under 1 and 8 threads: identical logical content,
        // whatever the interleaving did to physical placement.
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let mut maps = Vec::new();
        for threads in [1usize, 8] {
            let mut t = ParTable::new(cfg(), threads).unwrap();
            for round in 0..6u32 {
                let kvs: Vec<(u32, u32)> = (1..=400u32)
                    .map(|k| (k + (round % 3) * 100, k * 31 + round))
                    .collect();
                t.insert_batch(&kvs).unwrap();
                if threads == 1 {
                    for &(k, v) in &kvs {
                        reference.insert(k, v);
                    }
                }
                let dels: Vec<u32> = (1..=40u32).map(|k| k * 7 + round).collect();
                t.delete_batch(&dels);
                if threads == 1 {
                    for k in &dels {
                        reference.remove(k);
                    }
                }
            }
            t.verify().unwrap();
            let mut pairs = t.live_pairs();
            pairs.sort_unstable();
            maps.push(pairs);
        }
        assert_eq!(maps[0], maps[1]);
        let as_map: HashMap<u32, u32> = maps[0].iter().copied().collect();
        assert_eq!(as_map, reference);
    }

    #[test]
    fn grows_absorb_overfull_batches() {
        // 4 subtables × 4 buckets × 32 slots = 512 slots; 2000 distinct
        // keys force repeated doublings through the overflow drain.
        let mut t = ParTable::new(cfg(), 4).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=2000u32).map(|k| (k, k)).collect();
        let r = t.insert_batch(&kvs).unwrap();
        assert_eq!(r.inserted, 2000);
        assert!(t.grows() > 0, "2000 keys into 512 slots must grow");
        assert_eq!(t.len(), 2000);
        t.verify().unwrap();
        let got = t.find_batch(&kvs.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        assert!(got.iter().all(|g| g.is_some()));
    }

    #[test]
    fn coarse_stripes_with_fp_lane_grow_and_read_back_lock_free() {
        // 4 buckets per stripe over 4-bucket subtables: every subtable
        // starts as one stripe, so 8 threads contend on few locks, and
        // 3000 keys overflow into the drain and grow.
        let cfg = Config {
            layout: gpu_sim::LayoutConfig::default().with_fp(8),
            ..cfg()
        };
        let mut t = ParTable::with_striping(cfg, 8, 4).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=3000u32).map(|k| (k, k ^ 0xABCD)).collect();
        let r = t.insert_batch(&kvs).unwrap();
        assert_eq!(r.inserted, 3000);
        assert!(r.overflowed > 0, "3000 keys into 512 slots must overflow");
        assert!(r.grows > 0, "3000 keys into 512 slots must grow");
        t.verify().unwrap();
        t.take_metrics();
        let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
        let got = t.find_batch(&keys);
        for (&(k, v), g) in kvs.iter().zip(&got) {
            assert_eq!(*g, Some(v), "key {k}");
        }
        // Finds take no stripe lock, so they can never fail to get one.
        let m = t.take_metrics();
        assert_eq!(m.ops, 3000);
        assert_eq!(m.lock_failures, 0);
    }

    #[test]
    fn zero_key_is_rejected() {
        let mut t = ParTable::new(cfg(), 2).unwrap();
        assert!(matches!(t.insert_batch(&[(0, 1)]), Err(Error::ZeroKey)));
    }

    #[test]
    fn metrics_accumulate_and_conserve_into_attribution() {
        let mut t = ParTable::new(cfg(), 4).unwrap();
        t.set_profiling(true);
        let kvs: Vec<(u32, u32)> = (1..=600u32).map(|k| (k, k)).collect();
        t.insert_batch(&kvs).unwrap();
        t.find_batch(&[1, 2, 3, 700]);
        t.delete_batch(&[1, 2]);
        let m = t.take_metrics();
        assert_eq!(m.ops, 600 + 4 + 2);
        assert!(m.lookups >= m.ops);
        let a = t.take_attribution();
        for kind in ChargeKind::ALL {
            assert_eq!(a.total(kind), m.get(kind), "{kind:?}");
        }
    }
}
