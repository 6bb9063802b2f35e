//! `service_zipf`: `kv-service` with its default configuration and the
//! unsized byte tier, offered open-loop Poisson load at 0.8 × capacity
//! over Zipf-distributed keys.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use gpu_sim::SimContext;
use kv_service::{ByteOp, KvService, Op, ServiceConfig, Tier};
use workloads::keygen::unique_keys;
use workloads::zipf::Zipf;
use workloads::{LengthDist, StrDatasetSpec};

use crate::oracle::{Got, ServiceOracle, Sub};
use crate::report::Wait;
use crate::rng::Rng;
use crate::stats::{self, secs};
use crate::{Outcome, RunCfg};

/// Distinct key ids per tier.
pub const KEY_IDS: u64 = 100_000;
pub const ZIPF_S: f64 = 0.99;
pub const GET_FRAC: f64 = 0.70;
pub const PUT_FRAC: f64 = 0.25;
/// Share of requests that are byte-string operations.
pub const BYTES_FRAC: f64 = 0.20;
/// Offered load as a share of `shards × max_batch` requests per tick.
pub const LOAD: f64 = 0.8;
/// Input streams per run, each generated from the seed.
const STREAMS: u64 = 3;
/// Runs of each stream, each on a fresh set-up; `setup_s` is their median
/// and the wall-clock metrics read the fastest of them per call.
const REPEATS: u64 = 16;
/// Ticks per measured second, so a run's work is fixed by its seed and
/// `--seconds` alone.
const TICKS_PER_SECOND: u64 = 960;
/// Enough ticks over the streams for a p99 of step wall time with ten
/// samples beyond it.
const MIN_TICKS: usize = 1_050;
/// Resolution of the simulated-latency histogram.
const TICK_BINS: f64 = 10_000.0;

pub fn config() -> ServiceConfig {
    ServiceConfig {
        tier: Tier::Unsized,
        ..ServiceConfig::default()
    }
}

/// The bytes a byte-tier put with value id `vid` stores (8–24 bytes).
pub fn byte_value(vid: u64) -> Vec<u8> {
    let len = 8 + (vid % 17) as usize;
    let mut v = vid.to_le_bytes().to_vec();
    v.extend((0..len - 8).map(|i| b'a' + ((vid >> (i % 8 * 8)) as u8 % 26)));
    v
}

/// One request as it will be submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    Fixed(Op),
    Bytes(ByteOp),
}

/// One arrival: when it was due, in ticks, and what it asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: f64,
    pub sub: Sub,
}

/// Every input of one run: the byte keys, by id, and the arrivals
/// grouped by the step that submits them: step `i` submits everything due
/// in `(i - 1, i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub byte_keys: Vec<Vec<u8>>,
    pub steps: Vec<Vec<Arrival>>,
}

impl Stream {
    /// The request an arrival submits.
    pub fn request(&self, sub: Sub) -> Req {
        let key = |id: u32| self.byte_keys[id as usize].clone();
        match sub {
            Sub::Get(k) => Req::Fixed(Op::Get(k)),
            Sub::Put(k, v) => Req::Fixed(Op::Put(k, v)),
            Sub::Delete(k) => Req::Fixed(Op::Delete(k)),
            Sub::BytesGet(id) => Req::Bytes(ByteOp::Get(key(id))),
            Sub::BytesPut(id, vid) => Req::Bytes(ByteOp::Put(key(id), byte_value(vid))),
            Sub::BytesDelete(id) => Req::Bytes(ByteOp::Delete(key(id))),
        }
    }
}

pub fn generate(seed: u64, stream: u64, ticks: usize) -> Stream {
    let mut rng = Rng::new(seed, 0x5356_4300 + stream);
    let fixed_keys: Vec<u32> = unique_keys(rng.next_u64(), KEY_IDS as usize).collect();
    let byte_keys: Vec<Vec<u8>> = StrDatasetSpec {
        pairs: KEY_IDS as usize,
        key_dist: LengthDist::Mixed,
        val_len: (0, 0),
        seed: rng.next_u64(),
    }
    .generate()
    .into_iter()
    .map(|(k, _)| k)
    .collect();
    let zipf = Zipf::new(KEY_IDS, ZIPF_S);
    let cfg = config();
    let rate = LOAD * (cfg.shards * cfg.max_batch) as f64;
    let mut next_due = -(1.0 - rng.unit()).ln() / rate;
    let mut steps = Vec::with_capacity(ticks);
    for i in 0..ticks {
        let mut arrivals = Vec::with_capacity(rate as usize * 2);
        while next_due <= i as f64 {
            let id = (zipf.sample(rng.next_u64()) - 1) as u32;
            let kind = rng.unit();
            let sub = if rng.unit() < BYTES_FRAC {
                if kind < GET_FRAC {
                    Sub::BytesGet(id)
                } else if kind < GET_FRAC + PUT_FRAC {
                    Sub::BytesPut(id, rng.next_u64())
                } else {
                    Sub::BytesDelete(id)
                }
            } else {
                let key = fixed_keys[id as usize];
                if kind < GET_FRAC {
                    Sub::Get(key)
                } else if kind < GET_FRAC + PUT_FRAC {
                    Sub::Put(key, rng.next_u64() as u32)
                } else {
                    Sub::Delete(key)
                }
            };
            arrivals.push(Arrival { due: next_due, sub });
            next_due += -(1.0 - rng.unit()).ln() / rate;
        }
        steps.push(arrivals);
    }
    Stream { byte_keys, steps }
}

#[derive(Default)]
struct Layer {
    submitted: u64,
    completed: u64,
    submit_s: f64,
    tick_s: f64,
    drain_s: f64,
    tick_us: Vec<f64>,
    coalesced_local: u64,
    metric_completed: u64,
    dedup_saved: u64,
    batches: u64,
    batched_requests: u64,
    flush_by_size: u64,
    max_queue_depth: usize,
    shed: u64,
    byte_batches: u64,
    arena_live_bytes: Vec<f64>,
    arena_frag_bytes: Vec<f64>,
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let ticks = ((TICKS_PER_SECOND * cfg.seconds / (STREAMS * REPEATS)) as usize)
        .max(MIN_TICKS / STREAMS as usize);
    let mut out = Outcome::new("service_zipf", cfg.seed);
    let mut layer = Layer::default();
    let mut sim_ticks: HashMap<u64, u64> = HashMap::new();
    let mut step_no = 0u64;
    let mut byte_waits: Vec<Vec<Wait>> = vec![Vec::new(); STREAMS as usize];
    for (rep, s) in (0..REPEATS).flat_map(|r| (0..STREAMS).map(move |s| (r, s))) {
        let setup = Instant::now();
        let stream = generate(cfg.seed, s, ticks);
        let mut sim = SimContext::new();
        let mut svc =
            KvService::new(config(), &mut sim).map_err(|e| format!("KvService::new: {e}"))?;
        let mut oracle = ServiceOracle::new(byte_value);
        out.e2e.setup_s.push(setup.elapsed().as_secs_f64());
        out.e2e.start_repeat(s as usize);

        let mut ids: Vec<Option<u64>> = Vec::new();
        let no_arrivals = Vec::new();
        for i in 0..=ticks {
            // Step `ticks` submits nothing and drains every queue.
            let arrivals = stream.steps.get(i).unwrap_or(&no_arrivals);
            let reqs: Vec<Req> = arrivals.iter().map(|a| stream.request(a.sub)).collect();
            ids.clear();
            let traced = cfg.trace && i % 2 == 0;
            if traced {
                obs::attr::start();
            }
            let t0 = Instant::now();
            for req in reqs {
                ids.push(match req {
                    Req::Fixed(op) => svc.submit(0, op).ok(),
                    Req::Bytes(op) => svc.submit_bytes(0, op).ok(),
                });
            }
            let t1 = Instant::now();
            let ticked = if i < ticks {
                svc.tick(&mut sim)
            } else {
                svc.flush_all(&mut sim)
            };
            let t2 = Instant::now();
            let comps = svc.drain_completions();
            let byte_comps = svc.drain_byte_completions();
            let t3 = Instant::now();
            if traced {
                out.attribution.merge(&obs::attr::stop());
                let t = &mut out.tracer;
                let parent = t.record("service_zipf.step", t0, t3, None, step_no);
                t.record("service.submit", t0, t1, Some(parent), step_no);
                t.record("service.tick", t1, t2, Some(parent), step_no);
                t.record("service.drain", t2, t3, Some(parent), step_no);
            }
            let clock = svc.clock();
            if let Err(e) = ticked {
                out.notes
                    .push(format!("stream {s} repeat {rep} tick {clock}: {e}"));
            }

            // Oracle: apply submissions in order, then check completions.
            // Requests are grouped by submission step: [fixed, bytes].
            for (a, &id) in arrivals.iter().zip(&ids) {
                oracle.submit(a.sub, id, i as u64, a.due, &mut out.tally);
            }
            let mut by_step: [HashMap<u64, u64>; 2] = Default::default();
            let mut record = |due: Option<f64>, c_sub: u64, c_done: u64, bytes: usize| {
                if let Some(due) = due {
                    let ticks = c_done as f64 - due;
                    *sim_ticks
                        .entry((ticks * TICK_BINS).round() as u64)
                        .or_default() += 1;
                    *by_step[bytes].entry(c_sub).or_default() += 1;
                }
            };
            for c in &comps {
                let due = oracle.complete(c.id, Got::Fixed(c.reply), clock, &mut out.tally);
                record(due, c.submitted_tick, c.completed_tick, 0);
            }
            for c in &byte_comps {
                let due = oracle.complete(c.id, Got::Bytes(&c.reply), clock, &mut out.tally);
                record(due, c.submitted_tick, c.completed_tick, 1);
            }
            // A request was due when its step started and completes when
            // the `tick` (segment 1) that answers it returns.
            let mut waits = Vec::new();
            for (bytes, group) in by_step.iter().enumerate() {
                for (&sub_step, &n) in group {
                    let w = Wait {
                        from: sub_step as usize,
                        to: i,
                        segment: 1,
                        n,
                    };
                    waits.push(w);
                    if bytes == 1 && rep == 0 {
                        byte_waits[s as usize].push(w);
                    }
                }
            }

            let done = (comps.len() + byte_comps.len()) as u64;
            let step_s = secs(t0, t3);
            if i < ticks {
                layer.tick_us.push(secs(t1, t2) * 1e6);
                let keys = svc.total_keys();
                if keys > 0 {
                    out.e2e
                        .bytes_per_kv
                        .push(sim.device.allocated_bytes() as f64 / keys as f64);
                }
            }
            out.e2e.split[traced as usize].0 += done;
            out.e2e.split[traced as usize].1 += step_s;
            let segments = [secs(t0, t1), secs(t1, t2), secs(t2, t3)];
            out.e2e.step(&segments, done, i < ticks, &waits);
            layer.submitted += ids.len() as u64;
            layer.completed += done;
            layer.submit_s += secs(t0, t1);
            layer.tick_s += secs(t1, t2);
            layer.drain_s += secs(t2, t3);
            step_no += 1;
        }
        oracle.finish(svc.clock(), &mut out.tally);

        let m = svc.metrics().total();
        out.e2e.sim_ops += m.completed;
        out.e2e.sim_ns += m.service_ns;
        layer.coalesced_local += m.coalesced_local;
        layer.metric_completed += m.completed;
        layer.dedup_saved += m.dedup_saved;
        layer.batches += m.batches;
        layer.batched_requests += m.batched_requests;
        layer.flush_by_size += m.flush_by_size;
        layer.max_queue_depth = layer.max_queue_depth.max(m.max_queue_depth);
        layer.shed += m.shed_total();
        layer.byte_batches += m.byte_batches;
        layer.arena_live_bytes.push(m.arena_live_bytes as f64);
        layer.arena_frag_bytes.push(m.arena_frag_bytes as f64);
        out.notes.push(format!(
            "stream {s} repeat {rep}: {} submitted, {} admitted, {} completed, {} refused, {} lost; peak device bytes {}",
            oracle.admitted + oracle.refused,
            oracle.admitted,
            oracle.completed,
            oracle.refused,
            oracle.lost,
            sim.device.peak_bytes()
        ));
    }
    out.e2e.request_ticks = sim_ticks
        .into_iter()
        .map(|(k, n)| (k as f64 / TICK_BINS, n))
        .collect();

    let mut byte_us: Vec<(f64, u64)> = byte_waits
        .iter()
        .enumerate()
        .flat_map(|(s, waits)| out.e2e.wait_us(s, waits))
        .collect();
    let byte_p50 = stats::percentile(&mut byte_us, 0.5)?;
    out.notes.push(format!(
        "unsized.request_p50_us = {:.3} us (n={}, {} beyond)",
        byte_p50.value, byte_p50.n, byte_p50.beyond
    ));
    let per_req = |s: f64, n: u64| s * 1e9 / n as f64;
    let m: BTreeMap<&'static str, f64> = [
        (
            "service.submit_ns_per_req",
            per_req(layer.submit_s, layer.submitted),
        ),
        ("service.tick_us", stats::median(&layer.tick_us)),
        (
            "service.tick_ns_per_req",
            per_req(layer.tick_s, layer.completed),
        ),
        (
            "service.drain_ns_per_req",
            per_req(layer.drain_s, layer.completed),
        ),
        (
            "service.coalesced_frac",
            layer.coalesced_local as f64 / layer.metric_completed as f64,
        ),
        ("service.dedup_saved", layer.dedup_saved as f64),
        (
            "service.batch_occupancy",
            layer.batched_requests as f64 / layer.batches as f64,
        ),
        (
            "service.flush_by_size_frac",
            layer.flush_by_size as f64 / layer.batches as f64,
        ),
        ("service.max_queue_depth", layer.max_queue_depth as f64),
        ("service.shed", layer.shed as f64),
        ("unsized.request_p50_us", byte_p50.value),
        ("unsized.byte_batches", layer.byte_batches as f64),
        (
            "unsized.arena_live_bytes",
            stats::mean(&layer.arena_live_bytes),
        ),
        (
            "unsized.arena_frag_bytes",
            stats::mean(&layer.arena_frag_bytes),
        ),
    ]
    .into_iter()
    .collect();
    out.layer = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream_two_seeds_two_streams() {
        let a = generate(21, 0, 50);
        assert_eq!(a, generate(21, 0, 50));
        assert_ne!(a, generate(22, 0, 50));
        assert_ne!(a, generate(21, 1, 50));
    }

    #[test]
    fn stream_has_the_stated_rate_and_mix() {
        let stream = generate(9, 0, 400);
        let steps = &stream.steps;
        let all: Vec<&Arrival> = steps.iter().flatten().collect();
        let per_tick = all.len() as f64 / 399.0;
        assert!((per_tick / 819.2 - 1.0).abs() < 0.02, "{per_tick} per tick");
        for (i, step) in steps.iter().enumerate() {
            assert!(step
                .iter()
                .all(|a| a.due <= i as f64 && a.due > i as f64 - 1.0));
        }
        let bytes = all
            .iter()
            .filter(|a| matches!(stream.request(a.sub), Req::Bytes(_)))
            .count();
        assert!((bytes as f64 / all.len() as f64 - BYTES_FRAC).abs() < 0.01);
        let gets = all
            .iter()
            .filter(|a| matches!(a.sub, Sub::Get(_) | Sub::BytesGet(_)))
            .count();
        assert!((gets as f64 / all.len() as f64 - GET_FRAC).abs() < 0.01);
    }

    #[test]
    fn byte_values_are_distinct_per_id() {
        assert_ne!(byte_value(1), byte_value(2));
        assert_eq!(byte_value(5), byte_value(5));
        assert!((8..=24).contains(&byte_value(u64::MAX).len()));
    }
}
