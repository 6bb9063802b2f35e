//! `sim_dynamic`: the paper's two-phase dynamic workload on a COM-profile
//! dataset, run on the simulated `DyCuckoo` with the default `Config`.

use std::collections::BTreeMap;
use std::time::Instant;

use dycuckoo::{BatchReport, Config, DyCuckoo, ResizeOp};
use gpu_sim::{CostModel, SimContext};
use workloads::{dataset_by_name, DynamicWorkload};

use crate::oracle::TableModel;
use crate::report::{call_waits, table_request_ticks};
use crate::stats::{self, secs};
use crate::{Outcome, RunCfg};

/// Runs of the workload per run, each on a fresh set-up (dataset,
/// workload, table); `setup_s` is their median and the wall-clock metrics
/// read the fastest of them per call.
const REPEATS: u64 = 8;
/// Inserts per batch.
pub const BATCH: usize = 2_048;
/// Deletes per insert (the paper's r).
pub const R: f64 = 0.2;
/// COM pairs run per measured second, over all repeats, so a run's work is
/// fixed by its seed and `--seconds` alone.
const PAIRS_PER_SECOND: f64 = 420_000.0;
/// Floor that still yields a p99 with ten batches beyond it.
const MIN_PAIRS: f64 = 1_050_000.0;

/// Generate the workload of seed `seed`.
pub fn generate(seed: u64, seconds: u64) -> DynamicWorkload {
    let spec = dataset_by_name("COM").expect("COM is a paper dataset");
    let pairs = (PAIRS_PER_SECOND * seconds as f64 / REPEATS as f64).max(MIN_PAIRS);
    let spec = spec.scaled(pairs / spec.total_pairs as f64);
    let data_seed = workloads::mix64(seed ^ 0x5349_4D00);
    let dataset = spec.generate(data_seed);
    DynamicWorkload::build(&dataset, BATCH, R, workloads::mix64(data_seed))
}

#[derive(Default)]
struct Layer {
    inserts: u64,
    finds: u64,
    deletes: u64,
    insert_s: f64,
    find_s: f64,
    delete_s: f64,
    find_read_tx: u64,
    write_tx: u64,
    insert_evictions: u64,
    lock_failures: u64,
    rounds: u64,
    insert_retries: u64,
    resizes_up: u64,
    resizes_down: u64,
    moved_kvs: u64,
    resize_batch_us: Vec<f64>,
}

impl Layer {
    fn note_resizes(&mut self, rep: &BatchReport) {
        for ev in &rep.resizes {
            match ev.op {
                ResizeOp::Upsize(_) => self.resizes_up += 1,
                ResizeOp::Downsize(_) => self.resizes_down += 1,
            }
        }
        self.moved_kvs += rep.total_moved();
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::new("sim_dynamic", cfg.seed);
    let mut layer = Layer::default();
    let mut sim_calls: Vec<Vec<(u64, f64)>> = Vec::new();
    let mut step = 0u64;
    for rep in 0..REPEATS {
        let setup = Instant::now();
        let wl = generate(cfg.seed, cfg.seconds);
        let mut sim = SimContext::new();
        let cost = CostModel::new(sim.device.config());
        let mut table = DyCuckoo::new(Config::default(), &mut sim)
            .map_err(|e| format!("DyCuckoo::new: {e}"))?;
        sim.take_metrics();
        let mut model = TableModel::default();
        out.e2e.setup_s.push(setup.elapsed().as_secs_f64());
        out.e2e.start_repeat(0);

        for (b, batch) in wl.batches.iter().enumerate() {
            let traced = cfg.trace && b % 2 == 0;
            if traced {
                obs::attr::start();
            }
            let t0 = Instant::now();
            let ins = table.insert_batch(&mut sim, &batch.inserts);
            let t1 = Instant::now();
            let m_ins = sim.take_metrics();
            let t2 = Instant::now();
            let found = table.find_batch(&mut sim, &batch.finds);
            let t3 = Instant::now();
            let m_find = sim.take_metrics();
            let t4 = Instant::now();
            let del = table.delete_batch(&mut sim, &batch.deletes);
            let t5 = Instant::now();
            let m_del = sim.take_metrics();
            if traced {
                out.attribution.merge(&obs::attr::stop());
                let t = &mut out.tracer;
                let parent = t.record("sim_dynamic.batch", t0, t5, None, step);
                t.record("table.insert_batch", t0, t1, Some(parent), step);
                t.record("table.find_batch", t2, t3, Some(parent), step);
                t.record("table.delete_batch", t4, t5, Some(parent), step);
            }
            let label = |call: &str| format!("repeat {rep} batch {b} {call}");
            let ins = ins.map_err(|e| label(&format!("insert_batch: {e}")))?;
            let del = del.map_err(|e| label(&format!("delete_batch: {e}")))?;
            let (d_ins, d_find, d_del) = (secs(t0, t1), secs(t2, t3), secs(t4, t5));
            let batch_s = d_ins + d_find + d_del;

            // Oracle, in call order: inserts, finds, deletes.
            let tally = &mut out.tally;
            tally.attempt(batch.inserts.len() as u64);
            let fresh = model.insert_batch(&batch.inserts);
            let attempted = batch.inserts.len() as u64;
            if ins.inserted != fresh || ins.inserted + ins.updated != attempted {
                tally.fail(
                    ins.inserted
                        .abs_diff(fresh)
                        .max((ins.inserted + ins.updated).abs_diff(attempted)),
                    &label("insert"),
                    "-",
                    format!("inserted={fresh},inserted+updated={attempted}"),
                    format!("inserted={},updated={}", ins.inserted, ins.updated),
                );
            }
            tally.attempt(batch.finds.len() as u64);
            for (&k, &got) in batch.finds.iter().zip(&found) {
                if let Err(expected) = model.check_find(k, got) {
                    tally.fail(1, &label("find"), k, expected, format!("{got:?}"));
                }
            }
            tally.attempt(batch.deletes.len() as u64);
            let present = model.delete_batch(&batch.deletes);
            if del.deleted != present {
                tally.fail(
                    del.deleted.abs_diff(present),
                    &label("delete"),
                    "-",
                    format!("deleted={present}"),
                    format!("deleted={}", del.deleted),
                );
            }

            let ops = [
                batch.inserts.len() as u64,
                batch.finds.len() as u64,
                batch.deletes.len() as u64,
            ];
            let total_ops: u64 = ops.iter().sum();
            let e2e = &mut out.e2e;
            e2e.step(
                &[d_ins, d_find, d_del],
                total_ops,
                true,
                &call_waits(b, &ops),
            );
            let calls = vec![
                (ops[0], cost.kernel_time_ns(&m_ins)),
                (ops[1], cost.kernel_time_ns(&m_find)),
                (ops[2], cost.kernel_time_ns(&m_del)),
            ];
            e2e.sim_ops += total_ops;
            e2e.sim_ns += calls.iter().map(|c| c.1).sum::<f64>();
            sim_calls.push(calls);
            if !table.is_empty() {
                e2e.bytes_per_kv
                    .push(table.device_bytes() as f64 / table.len() as f64);
            }
            e2e.split[traced as usize].0 += total_ops;
            e2e.split[traced as usize].1 += batch_s;

            layer.inserts += ops[0];
            layer.finds += ops[1];
            layer.deletes += ops[2];
            layer.insert_s += d_ins;
            layer.find_s += d_find;
            layer.delete_s += d_del;
            layer.find_read_tx += m_find.read_transactions;
            layer.insert_evictions += m_ins.evictions;
            for m in [&m_ins, &m_find, &m_del] {
                layer.write_tx += m.write_transactions;
                layer.lock_failures += m.lock_failures;
                layer.rounds += m.rounds;
            }
            layer.insert_retries += u64::from(ins.retries);
            layer.note_resizes(&ins);
            layer.note_resizes(&del);
            if !ins.resizes.is_empty() || !del.resizes.is_empty() {
                layer.resize_batch_us.push(batch_s * 1e6);
            }
            step += 1;
        }
        if table.len() != model.len() as u64 {
            out.notes.push(format!(
                "repeat {rep}: table holds {} keys, model {}",
                table.len(),
                model.len()
            ));
        }
    }
    out.e2e.request_ticks = table_request_ticks(&sim_calls);

    let per_key = |s: f64, n: u64| s * 1e9 / n as f64;
    let resize_batch_us = if layer.resize_batch_us.is_empty() {
        0.0
    } else {
        stats::median(&layer.resize_batch_us)
    };
    let m: BTreeMap<&'static str, f64> = [
        (
            "table.insert_ns_per_key",
            per_key(layer.insert_s, layer.inserts),
        ),
        ("table.find_ns_per_key", per_key(layer.find_s, layer.finds)),
        (
            "table.delete_ns_per_key",
            per_key(layer.delete_s, layer.deletes),
        ),
        (
            "table.read_tx_per_find",
            layer.find_read_tx as f64 / layer.finds as f64,
        ),
        ("table.write_tx", layer.write_tx as f64),
        (
            "table.evictions_per_insert",
            layer.insert_evictions as f64 / layer.inserts as f64,
        ),
        ("table.lock_failures", layer.lock_failures as f64),
        ("table.rounds", layer.rounds as f64),
        ("table.insert_retries", layer.insert_retries as f64),
        ("maintenance.resizes_up", layer.resizes_up as f64),
        ("maintenance.resizes_down", layer.resizes_down as f64),
        ("maintenance.moved_kvs", layer.moved_kvs as f64),
        ("maintenance.resize_batch_us", resize_batch_us),
    ]
    .into_iter()
    .collect();
    out.notes.push(format!(
        "maintenance: {} up / {} down resizes moved {} kvs; {} resizing batches of {} (median {:.1} us)",
        layer.resizes_up,
        layer.resizes_down,
        layer.moved_kvs,
        layer.resize_batch_us.len(),
        step,
        resize_batch_us
    ));
    out.layer = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(w: &DynamicWorkload) -> Vec<u32> {
        w.batches
            .iter()
            .flat_map(|b| {
                b.inserts
                    .iter()
                    .map(|&(k, v)| k ^ v)
                    .chain(b.finds.iter().copied())
                    .chain(b.deletes.iter().copied())
            })
            .collect()
    }

    #[test]
    fn one_seed_one_stream_two_seeds_two_streams() {
        let a = keys(&generate(3, 1));
        assert_eq!(a, keys(&generate(3, 1)));
        assert_ne!(a, keys(&generate(4, 1)));
    }

    #[test]
    fn workload_has_enough_batches_for_a_p99() {
        let w = generate(3, 1);
        assert!(w.batches.len() >= 1_010, "{}", w.batches.len());
    }
}
