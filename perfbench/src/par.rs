//! `par_read_mostly`: `host_par::ParTable` on real threads, prefilled with
//! 1M keys, driven closed-loop by read-mostly batches that keep the live
//! set at 1M.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use dycuckoo::{Config, ParTable};
use gpu_sim::{CostModel, DeviceConfig, Metrics};
use workloads::keygen::Feistel;

use crate::report::{call_waits, table_request_ticks};
use crate::rng::Rng;
use crate::stats::secs;
use crate::{Outcome, RunCfg};

pub const THREADS: usize = 2;
pub const PREFILL: usize = 1_000_000;
/// One batch: 80% finds (half hits, half misses), 10% overwrites of live
/// keys, 5% deletes, 5% fresh inserts — 8,192 operations.
pub const FIND_HITS: usize = 3_276;
pub const FIND_MISSES: usize = 3_276;
pub const OVERWRITES: usize = 820;
pub const DELETES: usize = 410;
pub const FRESH: usize = 410;
/// Runs of the stream per run, each on a fresh set-up; `setup_s` is their
/// median and the wall-clock metrics read the fastest of them per call.
const REPEATS: u64 = 4;
/// Batches per measured second, so a run's work is fixed by its seed and
/// `--seconds` alone.
const BATCHES_PER_SECOND: u64 = 202;
/// Enough batches for a p99 with ten samples beyond it.
const MIN_BATCHES: usize = 1_010;
const PREFILL_CHUNK: usize = 1 << 16;

/// The operations of one batch, issued as three calls in this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub finds: Vec<u32>,
    pub inserts: Vec<(u32, u32)>,
    pub deletes: Vec<u32>,
}

/// Every input of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub prefill: Vec<(u32, u32)>,
    pub batches: Vec<Batch>,
}

/// Keys come from a seeded bijection of `u32`: counters below 2^31 name
/// keys that get inserted, counters from 2^31 name keys that never are.
fn next_key(keys: &Feistel, counter: &mut u32) -> u32 {
    loop {
        let k = keys.permute(*counter);
        *counter += 1;
        if k != 0 {
            return k;
        }
    }
}

/// Generate the inputs of seed `seed`. Keys are unique within each call.
pub fn generate(seed: u64, n_batches: usize) -> Stream {
    let mut rng = Rng::new(seed, 0x5041_5200);
    let keys = Feistel::new(rng.next_u64());
    let mut next_live = 0u32;
    let mut next_miss = 1u32 << 31;
    let prefill: Vec<(u32, u32)> = (0..PREFILL)
        .map(|_| (next_key(&keys, &mut next_live), rng.next_u64() as u32))
        .collect();
    let mut live: Vec<u32> = prefill.iter().map(|&(k, _)| k).collect();
    let mut picked: HashSet<u32> = HashSet::with_capacity(2 * FIND_HITS);
    let mut batches = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        picked.clear();
        let mut finds = Vec::with_capacity(FIND_HITS + FIND_MISSES);
        while finds.len() < FIND_HITS {
            let k = live[rng.below(live.len())];
            if picked.insert(k) {
                finds.push(k);
            }
        }
        finds.extend((0..FIND_MISSES).map(|_| next_key(&keys, &mut next_miss)));
        rng.shuffle(&mut finds);
        // Writes are a separate call: overwrites and deletes are disjoint
        // live keys, fresh keys join the live set after the batch.
        picked.clear();
        let mut inserts = Vec::with_capacity(OVERWRITES + FRESH);
        while inserts.len() < OVERWRITES {
            let k = live[rng.below(live.len())];
            if picked.insert(k) {
                inserts.push((k, rng.next_u64() as u32));
            }
        }
        let mut deletes = Vec::with_capacity(DELETES);
        while deletes.len() < DELETES {
            let i = rng.below(live.len());
            if picked.insert(live[i]) {
                deletes.push(live.swap_remove(i));
            }
        }
        for _ in 0..FRESH {
            let k = next_key(&keys, &mut next_live);
            inserts.push((k, rng.next_u64() as u32));
            live.push(k);
        }
        rng.shuffle(&mut inserts);
        batches.push(Batch {
            finds,
            inserts,
            deletes,
        });
    }
    Stream { prefill, batches }
}

/// Per-layer sums over every measured batch.
#[derive(Default)]
struct Layer {
    finds: u64,
    inserts: u64,
    deletes: u64,
    find_s: f64,
    insert_s: f64,
    delete_s: f64,
    ref_find_s: f64,
    find_read_tx: u64,
    lock_failures: u64,
    fresh_inserted: u64,
    overflowed: u64,
    grows: u64,
}

/// `ParTable` charges bucket probes, not memory transactions. For the cost
/// model, each probe is priced as one read line and each slot written
/// (placed, overwritten, evicted or erased) as one write line.
fn priced(m: &Metrics, writes: u64) -> Metrics {
    Metrics {
        read_transactions: m.lookups,
        write_transactions: writes,
        ops: m.ops,
        ..Metrics::default()
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let n_batches = ((BATCHES_PER_SECOND * cfg.seconds / REPEATS) as usize).max(MIN_BATCHES);
    let cost = CostModel::new(&DeviceConfig::default());
    let sim_ns = |m: &Metrics| cost.kernel_time_ns(m);
    let table_cfg = Config::default();
    let mut out = Outcome::new("par_read_mostly", cfg.seed);
    let mut layer = Layer::default();
    let mut sim_calls: Vec<Vec<(u64, f64)>> = Vec::new();
    for rep in 0..REPEATS {
        let setup = Instant::now();
        let stream = generate(cfg.seed, n_batches);
        let mut table =
            ParTable::new(table_cfg, THREADS).map_err(|e| format!("ParTable::new: {e}"))?;
        for chunk in stream.prefill.chunks(PREFILL_CHUNK) {
            table
                .insert_batch(chunk)
                .map_err(|e| format!("prefill insert_batch: {e}"))?;
        }
        let mut model: HashMap<u32, u32> = stream.prefill.iter().copied().collect();
        table.take_metrics();
        out.e2e.setup_s.push(setup.elapsed().as_secs_f64());
        out.e2e.start_repeat(0);
        if table.len() != model.len() as u64 {
            let diff = table.len().abs_diff(model.len() as u64);
            out.tally.fail(
                diff,
                &format!("repeat {rep} prefill"),
                "-",
                format!("len={}", model.len()),
                format!("len={}", table.len()),
            );
        }

        let grows_before = table.grows();
        for (b, batch) in stream.batches.iter().enumerate() {
            let step = rep * n_batches as u64 + b as u64;
            let traced = cfg.trace && b % 2 == 0;
            table.set_profiling(traced);
            let t0 = Instant::now();
            let found = table.find_batch(&batch.finds);
            let t1 = Instant::now();
            let m_find = table.take_metrics();
            let t2 = Instant::now();
            let inserted = table.insert_batch(&batch.inserts);
            let t3 = Instant::now();
            let m_ins = table.take_metrics();
            let t4 = Instant::now();
            let deleted = table.delete_batch(&batch.deletes);
            let t5 = Instant::now();
            let m_del = table.take_metrics();
            let report = inserted.map_err(|e| format!("repeat {rep} batch {b}: {e}"))?;
            let (d_find, d_ins, d_del) = (secs(t0, t1), secs(t2, t3), secs(t4, t5));
            let batch_s = d_find + d_ins + d_del;

            // Same-run baseline: std's HashMap answering the same finds.
            let h0 = Instant::now();
            let expect: Vec<Option<u32>> =
                batch.finds.iter().map(|k| model.get(k).copied()).collect();
            let h1 = Instant::now();
            black_box(&expect);

            if traced {
                out.attribution.merge(&table.take_attribution());
                let t = &mut out.tracer;
                let parent = t.record("par_read_mostly.batch", t0, t5, None, step);
                t.record("host_par.find_batch", t0, t1, Some(parent), step);
                t.record("host_par.insert_batch", t2, t3, Some(parent), step);
                t.record("host_par.delete_batch", t4, t5, Some(parent), step);
                t.record("ref.hashmap_find", h0, h1, None, step);
            }

            // Oracle: finds see the state before the batch's writes.
            let label = |call: &str| format!("repeat {rep} batch {b} {call}");
            out.tally.attempt(batch.finds.len() as u64);
            for ((k, e), g) in batch.finds.iter().zip(&expect).zip(&found) {
                if e != g {
                    out.tally
                        .fail(1, &label("find"), k, format!("{e:?}"), format!("{g:?}"));
                }
            }
            out.tally.attempt(batch.inserts.len() as u64);
            let fresh = batch
                .inserts
                .iter()
                .filter(|(k, _)| !model.contains_key(k))
                .count() as u64;
            let updated = batch.inserts.len() as u64 - fresh;
            if report.inserted != fresh || report.updated != updated {
                out.tally.fail(
                    report
                        .inserted
                        .abs_diff(fresh)
                        .max(report.updated.abs_diff(updated)),
                    &label("insert"),
                    "-",
                    format!("inserted={fresh},updated={updated}"),
                    format!("inserted={},updated={}", report.inserted, report.updated),
                );
            }
            model.extend(batch.inserts.iter().copied());
            out.tally.attempt(batch.deletes.len() as u64);
            let present = batch
                .deletes
                .iter()
                .filter(|k| model.remove(k).is_some())
                .count() as u64;
            if deleted != present {
                out.tally.fail(
                    deleted.abs_diff(present),
                    &label("delete"),
                    "-",
                    format!("deleted={present}"),
                    format!("deleted={deleted}"),
                );
            }

            let ops = [
                batch.finds.len() as u64,
                batch.inserts.len() as u64,
                batch.deletes.len() as u64,
            ];
            let total_ops: u64 = ops.iter().sum();
            let e2e = &mut out.e2e;
            e2e.step(
                &[d_find, d_ins, d_del],
                total_ops,
                true,
                &call_waits(b, &ops),
            );
            let writes = report.inserted + report.updated + m_ins.evictions;
            let calls = vec![
                (ops[0], sim_ns(&priced(&m_find, 0))),
                (ops[1], sim_ns(&priced(&m_ins, writes))),
                (ops[2], sim_ns(&priced(&m_del, deleted))),
            ];
            e2e.sim_ops += total_ops;
            e2e.sim_ns += calls.iter().map(|c| c.1).sum::<f64>();
            sim_calls.push(calls);
            let buckets = (table.capacity_slots() / table_cfg.layout.slots as u64) as usize;
            let bytes = table_cfg.layout.device_bytes_for(buckets);
            e2e.bytes_per_kv.push(bytes as f64 / table.len() as f64);
            e2e.split[traced as usize].0 += total_ops;
            e2e.split[traced as usize].1 += batch_s;

            layer.finds += ops[0];
            layer.inserts += ops[1];
            layer.deletes += ops[2];
            layer.find_s += d_find;
            layer.insert_s += d_ins;
            layer.delete_s += d_del;
            layer.ref_find_s += secs(h0, h1);
            layer.find_read_tx += m_find.lookups;
            layer.lock_failures += m_find.lock_failures + m_ins.lock_failures + m_del.lock_failures;
            layer.fresh_inserted += report.inserted;
            layer.overflowed += report.overflowed;
        }
        table.set_profiling(false);
        layer.grows += table.grows() - grows_before;
    }
    out.e2e.request_ticks = table_request_ticks(&sim_calls);

    let per_key = |s: f64, n: u64| s * 1e9 / n as f64;
    let find_ns = per_key(layer.find_s, layer.finds);
    let ref_ns = per_key(layer.ref_find_s, layer.finds);
    let ops = layer.finds + layer.inserts + layer.deletes;
    let m: BTreeMap<&'static str, f64> = [
        ("host_par.find_ns_per_key", find_ns),
        (
            "host_par.insert_ns_per_key",
            per_key(layer.insert_s, layer.inserts),
        ),
        (
            "host_par.delete_ns_per_key",
            per_key(layer.delete_s, layer.deletes),
        ),
        (
            "host_par.read_tx_per_find",
            layer.find_read_tx as f64 / layer.finds as f64,
        ),
        (
            "host_par.lock_failures_per_op",
            layer.lock_failures as f64 / ops as f64,
        ),
        (
            "host_par.overflow_frac",
            layer.overflowed as f64 / layer.fresh_inserted.max(1) as f64,
        ),
        ("host_par.grows", layer.grows as f64),
        ("ref.hashmap_find_ns_per_key", ref_ns),
        ("host_par.find_vs_hashmap", find_ns / ref_ns),
    ]
    .into_iter()
    .collect();
    out.notes.push(format!(
        "reference: ParTable find {find_ns:.1} ns/key on {THREADS} threads vs std HashMap {ref_ns:.1} ns/key on 1 thread, ratio {:.2} (same finds, same run; {} finds)",
        find_ns / ref_ns,
        layer.finds
    ));
    out.layer = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream_two_seeds_two_streams() {
        let a = generate(11, 3);
        assert_eq!(a, generate(11, 3));
        assert_ne!(a, generate(12, 3));
    }

    #[test]
    fn batches_keep_the_live_set_and_calls_hold_unique_keys() {
        let s = generate(5, 4);
        let mut live: HashSet<u32> = s.prefill.iter().map(|&(k, _)| k).collect();
        assert_eq!(live.len(), PREFILL);
        for b in &s.batches {
            assert_eq!(b.finds.len() + b.inserts.len() + b.deletes.len(), 8192);
            let finds: HashSet<u32> = b.finds.iter().copied().collect();
            assert_eq!(finds.len(), b.finds.len());
            assert_eq!(finds.iter().filter(|k| live.contains(k)).count(), FIND_HITS);
            let writes: HashSet<u32> = b
                .inserts
                .iter()
                .map(|&(k, _)| k)
                .chain(b.deletes.iter().copied())
                .collect();
            assert_eq!(writes.len(), b.inserts.len() + b.deletes.len());
            assert!(b.deletes.iter().all(|k| live.remove(k)));
            let fresh = b.inserts.iter().filter(|(k, _)| live.insert(*k)).count();
            assert_eq!(fresh, FRESH);
            assert_eq!(live.len(), PREFILL);
        }
    }
}
