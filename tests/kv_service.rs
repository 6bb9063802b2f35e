//! Cross-crate integration of the `kv-service` layer: semantic
//! equivalence with a reference map across shard boundaries, shard/bucket
//! hash independence, typed overload behaviour, and determinism.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

use dycuckoo::hashfn::UniversalHash;
use dycuckoo::{Config, MergeRule, UnsizedConfig};
use gpu_sim::{DeviceConfig, SchedulePolicy, SimContext};
use kv_service::{
    AdmitError, Backend, ByteOp, Completion, KvService, Op, Reply, ServiceConfig, ShardRouter, Tier,
};
use obs::Event;

/// A service sized so nothing is ever shed (queues exceed the op count).
fn roomy_cfg(shards: usize, ops: usize, seed: u64) -> ServiceConfig {
    ServiceConfig {
        shards,
        table: Config {
            initial_buckets: 8,
            ..Config::default()
        },
        max_batch: 32,
        max_delay_ticks: 3,
        queue_capacity: (ops + 1).max(32),
        shed_watermark: (ops + 1).max(32),
        seed,
        ..ServiceConfig::default()
    }
}

/// Drive `ops` through a service, ticking every `tick_every` submissions,
/// and return the reply observed for each submission index.
fn run_service(ops: &[Op], shards: usize, seed: u64, tick_every: usize) -> Vec<(u32, Reply)> {
    let mut sim = SimContext::new();
    let mut svc = KvService::new(roomy_cfg(shards, ops.len(), seed), &mut sim).unwrap();
    let mut id_to_index = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let id = svc.submit((i % 5) as u32, op).unwrap();
        id_to_index.insert(id, i);
        if (i + 1) % tick_every == 0 {
            svc.tick(&mut sim).unwrap();
        }
    }
    while svc.queue_depths().iter().any(|&d| d > 0) {
        svc.tick(&mut sim).unwrap();
    }
    let mut replies = vec![None; ops.len()];
    for c in svc.drain_completions() {
        replies[id_to_index[&c.id]] = Some((c.key, c.reply));
    }
    replies
        .into_iter()
        .map(|r| r.expect("every op completes"))
        .collect()
}

/// Replay the same sequence into a reference `HashMap`, recording the value
/// each Get would observe at its submission point. The service preserves
/// per-key order (same key → same shard FIFO; coalescing is order-aware),
/// so its Get replies must match these exactly.
fn reference_replies(ops: &[Op]) -> Vec<Option<Option<u32>>> {
    let mut map: HashMap<u32, u32> = HashMap::new();
    ops.iter()
        .map(|&op| match op {
            Op::Get(k) => Some(map.get(&k).copied()),
            Op::Put(k, v) => {
                map.insert(k, v);
                None
            }
            Op::Delete(k) => {
                map.remove(&k);
                None
            }
            Op::Upsert(k, arg, rule) => {
                let merged = match map.get(&k) {
                    Some(&old) => rule.merge(old, arg),
                    None => rule.initial(arg),
                };
                map.insert(k, merged);
                None
            }
            Op::Increment(k) => {
                let merged = match map.get(&k) {
                    Some(&old) => MergeRule::Count.merge(old, 0),
                    None => MergeRule::Count.initial(0),
                };
                map.insert(k, merged);
                None
            }
        })
        .collect()
}

/// Strategy: an op over a small key space (collisions and cross-shard
/// traffic are the interesting cases).
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..400).prop_map(Op::Get),
        4 => ((1u32..400), any::<u32>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (1u32..400).prop_map(Op::Delete),
        2 => ((1u32..400), (0u32..1000), (0usize..5))
            .prop_map(|(k, v, r)| Op::Upsert(k, v, MergeRule::ALL[r])),
        1 => (1u32..400).prop_map(Op::Increment),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Find-after-insert/delete equivalence with a reference map, across
    /// shard boundaries and interleaved batching/ticking.
    #[test]
    fn service_matches_reference_map(
        ops in vec(op_strategy(), 1..500),
        seed in 1u64..10_000,
    ) {
        let expected = reference_replies(&ops);
        let got = run_service(&ops, 4, seed, 17);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            if let Some(exp) = e {
                prop_assert_eq!(g.1, Reply::Value(*exp), "op {} ({:?})", i, ops[i]);
            }
        }
    }

    /// Shard count is semantically invisible: the same sequence through 1
    /// shard and through 8 shards yields identical replies.
    #[test]
    fn sharding_is_transparent(
        ops in vec(op_strategy(), 1..300),
        seed in 1u64..10_000,
    ) {
        let one = run_service(&ops, 1, seed, 13);
        let eight = run_service(&ops, 8, seed, 13);
        prop_assert_eq!(one, eight);
    }
}

/// The router's partitioning bits are independent of the bits any subtable
/// hashes on: conditioning keys on their shard leaves every subtable's
/// bucket distribution near-uniform. (The router uses a salted splitmix64
/// stream; the tables use seeded universal hashing over fmix32 — disjoint
/// families with no shared parameters.)
#[test]
fn shard_bits_do_not_constrain_bucket_bits() {
    let table_seed = Config::default().seed;
    let router = ShardRouter::new(4, 0x5E1C_E000).unwrap();
    // The same per-subtable hash construction DyCuckoo::new uses.
    let subtable_hashes: Vec<UniversalHash> = (0..4)
        .map(|i| {
            UniversalHash::from_seed(
                table_seed.wrapping_add(0x517C_C1B7_2722_0A95u64.wrapping_mul(i as u64 + 1)),
            )
        })
        .collect();
    let n_buckets = 64;
    let keys_per_shard = 64_000u32;

    for shard in 0..4 {
        // Collect keys routed to this shard.
        let mut histograms = vec![vec![0u32; n_buckets]; subtable_hashes.len()];
        let mut collected = 0u32;
        let mut k = 0u32;
        while collected < keys_per_shard {
            k += 1;
            if router.shard_of(k) != shard {
                continue;
            }
            collected += 1;
            for (h, hist) in subtable_hashes.iter().zip(histograms.iter_mut()) {
                hist[h.bucket(k, n_buckets)] += 1;
            }
        }
        // If shard bits overlapped a subtable's hash bits, conditioning on
        // the shard would empty (or overfill) some buckets. Require every
        // bucket within ±25% of uniform — far tighter than any overlap
        // failure mode, far looser than random fluctuation at 1000/bucket.
        let expect = keys_per_shard / n_buckets as u32;
        for (t, hist) in histograms.iter().enumerate() {
            for (b, &count) in hist.iter().enumerate() {
                assert!(
                    count > expect * 3 / 4 && count < expect * 5 / 4,
                    "shard {shard}, subtable {t}, bucket {b}: {count} keys vs uniform {expect}"
                );
            }
        }
    }
}

/// Offered load beyond the configured bounds surfaces as typed errors and
/// the queues never exceed their capacity — no unbounded growth.
#[test]
fn overload_is_typed_and_bounded() {
    let mut sim = SimContext::new();
    let cfg = ServiceConfig {
        shards: 2,
        table: Config {
            initial_buckets: 8,
            ..Config::default()
        },
        max_batch: 16,
        max_delay_ticks: 4,
        queue_capacity: 100,
        shed_watermark: 60,
        seed: 3,
        ..ServiceConfig::default()
    };
    let mut svc = KvService::new(cfg, &mut sim).unwrap();
    let (mut shed, mut overloaded) = (0, 0);
    for k in 1..=2_000u32 {
        match svc.submit(0, Op::Put(k, k)) {
            Ok(_) => {}
            Err(AdmitError::Overloaded {
                shard,
                depth,
                capacity,
            }) => {
                overloaded += 1;
                assert!(shard < 2 && depth >= capacity && capacity == 100);
            }
            Err(e) => panic!("unexpected admission error {e:?}"),
        }
        match svc.submit(0, Op::Get(k)) {
            Ok(_) => {}
            Err(AdmitError::Shed {
                depth, watermark, ..
            }) => {
                shed += 1;
                assert!(depth >= watermark && watermark == 60);
            }
            Err(AdmitError::Overloaded { .. }) => overloaded += 1,
            Err(e) => panic!("unexpected admission error {e:?}"),
        }
        for depth in svc.queue_depths() {
            assert!(depth <= 100, "queue exceeded its bound: {depth}");
        }
    }
    assert!(shed > 0, "watermark never shed a read");
    assert!(overloaded > 0, "hard cap never refused a write");
    let m = svc.metrics().total();
    assert_eq!(m.shed_overloaded + m.shed_reads, shed + overloaded);
}

/// Two identical runs — including resizes under load — produce
/// bit-identical metrics CSVs and identical completion streams.
#[test]
fn end_to_end_determinism_with_resizes() {
    let run = || {
        let mut sim = SimContext::new();
        let cfg = ServiceConfig {
            shards: 4,
            table: Config {
                initial_buckets: 4,
                ..Config::default()
            },
            max_batch: 64,
            max_delay_ticks: 2,
            queue_capacity: 100_000,
            shed_watermark: 100_000,
            seed: 77,
            ..ServiceConfig::default()
        };
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        for k in 1..=6_000u32 {
            svc.submit(k % 11, Op::Put(k, k.rotate_left(7))).unwrap();
            if k % 40 == 0 {
                svc.tick(&mut sim).unwrap();
            }
        }
        while svc.queue_depths().iter().any(|&d| d > 0) {
            svc.tick(&mut sim).unwrap();
        }
        (svc.snapshot().to_csv(), svc.drain_completions())
    };
    let (csv_a, comp_a) = run();
    let (csv_b, comp_b) = run();
    assert_eq!(csv_a, csv_b, "metrics CSV must be bit-identical");
    assert_eq!(comp_a, comp_b);
    // Under this load at least one shard must have resized, so the
    // determinism claim covers the resize path too.
    assert!(
        csv_a.lines().skip(1).any(|l| {
            l.split(',')
                .nth(20)
                .is_some_and(|v| v.parse::<u64>().unwrap_or(0) > 0)
        }),
        "no resize occurred; the determinism check did not exercise resizing"
    );
}

/// Submit `ops` into a single coalesced flush window (no intermediate
/// ticks), flush every shard under `flush_order`, and return each
/// submission's reply in submission order.
fn run_one_window(ops: &[Op], flush_order: SchedulePolicy) -> Vec<(u32, Reply)> {
    let mut sim = SimContext::new();
    let mut cfg = roomy_cfg(4, ops.len(), 0xF1_005);
    cfg.flush_order = flush_order;
    let mut svc = KvService::new(cfg, &mut sim).unwrap();
    let mut id_to_index = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let id = svc.submit((i % 5) as u32, op).unwrap();
        id_to_index.insert(id, i);
    }
    svc.flush_all(&mut sim).unwrap();
    while svc.queue_depths().iter().any(|&d| d > 0) {
        svc.flush_all(&mut sim).unwrap();
    }
    let mut replies = vec![None; ops.len()];
    for c in svc.drain_completions() {
        replies[id_to_index[&c.id]] = Some((c.key, c.reply));
    }
    replies
        .into_iter()
        .map(|r| r.expect("every op completes"))
        .collect()
}

/// A coalesced flush window containing insert → delete → find of the same
/// key yields identical replies no matter in which order the shards flush:
/// within-window coalescing is per-key FIFO, and shards are independent, so
/// the shard visit order must be semantically invisible.
#[test]
fn coalesced_window_identical_across_shard_flush_orders() {
    // Per-key chains that only make sense if submission order is the
    // linearization order: a Get between Put and Delete sees the value, a
    // Get after Delete sees nothing, a re-Put resurrects. Keys are spread
    // across all 4 shards by the router.
    let mut ops = Vec::new();
    for k in (1u32..=40).step_by(3) {
        ops.push(Op::Put(k, k * 100));
        ops.push(Op::Get(k));
        ops.push(Op::Delete(k));
        ops.push(Op::Get(k));
        ops.push(Op::Put(k, k * 100 + 1));
        ops.push(Op::Get(k));
    }
    // Interleave some cross-key traffic so coalescing windows hold more
    // than one key per shard.
    for k in 500u32..540 {
        ops.push(Op::Put(k, k));
        ops.push(Op::Get(k));
    }
    let expected = reference_replies(&ops);

    let orders = [
        SchedulePolicy::FixedOrder,
        SchedulePolicy::Reversed,
        SchedulePolicy::Rotating { stride: 1 },
        SchedulePolicy::Rotating { stride: 3 },
        SchedulePolicy::Shuffled { seed: 1 },
        SchedulePolicy::Shuffled { seed: 0xDEAD_BEEF },
        SchedulePolicy::ContendedFirst { seed: 7 },
    ];
    let baseline = run_one_window(&ops, orders[0]);
    // The fixed-order run must match the reference map exactly.
    for (i, (got, exp)) in baseline.iter().zip(&expected).enumerate() {
        if let Some(exp) = exp {
            assert_eq!(got.1, Reply::Value(*exp), "op {i} ({:?})", ops[i]);
        }
    }
    // And every other shard-flush order must be indistinguishable.
    for order in &orders[1..] {
        let run = run_one_window(&ops, *order);
        assert_eq!(
            run, baseline,
            "flush order {:?} changed visible replies",
            order
        );
    }
}

/// A table error in one shard must not cost another shard its completions.
/// Shard 0 takes a stream of puts until its device runs out of memory and
/// every later flush of it fails; shard 1 only serves gets. Under every
/// backend each request admitted to shard 1 is completed or still queued,
/// and shard 1's completion stream is the same.
#[test]
fn table_error_in_one_shard_keeps_other_shards_completions() {
    // Shard 0 first fails around tick 55 under Sim (both shards share one
    // device) and tick 82 under HostPar (a device per shard).
    const TICKS: u64 = 90;
    let run = |backend: Backend| -> Vec<Completion> {
        let mut sim = SimContext::with_config(DeviceConfig {
            memory_bytes: 256 * 1024,
            ..DeviceConfig::default()
        });
        let cfg = ServiceConfig {
            shards: 2,
            max_batch: 256,
            queue_capacity: 4096,
            shed_watermark: 4096,
            backend,
            ..ServiceConfig::default()
        };
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        let router = *svc.router();
        let mut keys = (1u32..).map(|k| (k, router.shard_of(k)));
        let mut errors = 0;
        for _ in 0..TICKS {
            let puts: Vec<u32> = keys
                .by_ref()
                .filter(|&(_, s)| s == 0)
                .map(|(k, _)| k)
                .take(256)
                .collect();
            for k in puts {
                svc.submit(0, Op::Put(k, k)).unwrap();
            }
            let gets: Vec<u32> = (1u32..)
                .filter(|&k| router.shard_of(k) == 1)
                .take(8)
                .collect();
            for k in gets {
                svc.submit(1, Op::Get(k)).unwrap();
            }
            errors += usize::from(svc.tick(&mut sim).is_err());
        }
        errors += usize::from(svc.flush_all(&mut sim).is_err());
        assert!(errors > 0, "{backend:?}: shard 0 never failed");
        let m = &svc.metrics().per_shard[1];
        let queued = svc.queue_depths()[1] as u64;
        assert_eq!(m.admitted, TICKS * 8, "{backend:?}");
        assert_eq!(
            m.admitted,
            m.completed + queued,
            "{backend:?}: shard 1 lost completions to shard 0's error"
        );
        svc.drain_completions()
            .into_iter()
            .filter(|c| router.shard_of(c.key) == 1)
            .collect()
    };
    let sim_run = run(Backend::Sim);
    assert_eq!(sim_run.len() as u64, TICKS * 8);
    for threads in [1usize, 2] {
        assert_eq!(
            run(Backend::HostPar { threads }),
            sim_run,
            "{threads} threads: shard 1 completions"
        );
    }
}

/// Run a mixed fixed + byte + RMW workload that ends in `flush_all` with
/// the flight recorder and the attribution profiler armed; return the
/// `BatchFlush` / `BatchEnd` payloads in emission order and the
/// attribution text.
fn flush_span_trace(backend: Backend) -> (Vec<Event>, String) {
    let mut sim = SimContext::new();
    let cfg = ServiceConfig {
        shards: 4,
        table: Config {
            initial_buckets: 8,
            ..Config::default()
        },
        max_batch: 8,
        max_delay_ticks: 2,
        queue_capacity: 4096,
        shed_watermark: 4096,
        seed: 11,
        tier: Tier::Unsized,
        unsized_table: UnsizedConfig {
            n_buckets: 8,
            ..UnsizedConfig::default()
        },
        miss_filter_bits: 8,
        migration_quantum: 4,
        backend,
        ..ServiceConfig::default()
    };
    let bkey = |i: u32| format!("key-{i:05}-{}", "x".repeat((i % 3 * 8) as usize)).into_bytes();
    let mut svc = KvService::new(cfg, &mut sim).unwrap();
    obs::start(1 << 20);
    obs::attr::start();
    for i in 1..=300u32 {
        let _ = svc.submit(i % 5, Op::Put(i, i ^ 0x5EED));
        if i % 3 == 0 {
            let _ = svc.submit(i % 5, Op::Get(i / 3));
        }
        if i % 4 == 0 {
            let _ = svc.submit(i % 5, Op::Upsert(i % 40 + 1, i, MergeRule::Add));
            let _ = svc.submit(i % 5, Op::Increment(i % 25 + 1));
        }
        if i % 7 == 0 {
            let _ = svc.submit(i % 5, Op::Delete(i / 7));
        }
        if i % 2 == 0 {
            let _ = svc.submit_bytes(i % 5, ByteOp::Put(bkey(i), bkey(i ^ 3)));
        }
        if i % 5 == 0 {
            let _ = svc.submit_bytes(i % 5, ByteOp::Get(bkey(i - 2)));
        }
        if i % 9 == 0 {
            let _ = svc.submit_bytes(i % 5, ByteOp::Delete(bkey(i / 2)));
        }
        if i % 16 == 0 {
            svc.tick(&mut sim).unwrap();
        }
    }
    assert!(svc.queue_depths().iter().filter(|&&d| d > 0).count() > 1);
    assert!(svc.byte_queue_depths().iter().filter(|&&d| d > 0).count() > 1);
    svc.flush_all(&mut sim).unwrap();
    let attr = obs::attr::stop();
    let trace = obs::stop();
    assert_eq!(trace.dropped, 0, "recorder ring too small");
    let spans = trace
        .events
        .into_iter()
        .map(|te| te.event)
        .filter(|e| matches!(e, Event::BatchFlush { .. } | Event::BatchEnd { .. }))
        .collect();
    (spans, attr.to_text())
}

/// `flush_all` emits its flush spans in the same order under every
/// backend: each shard's fixed-tier windows, then its byte windows, shard
/// by shard. The attribution tree is the same too.
#[test]
fn host_par_flush_spans_match_sim_order() {
    let (sim_spans, sim_attr) = flush_span_trace(Backend::Sim);
    assert!(sim_spans.len() > 100, "workload flushed too little");
    for threads in [1usize, 2, 8] {
        let (spans, attr) = flush_span_trace(Backend::HostPar { threads });
        let diverge = spans.iter().zip(&sim_spans).position(|(a, b)| a != b);
        assert_eq!(
            (diverge, spans.len()),
            (None, sim_spans.len()),
            "{threads} threads: span sequences diverge"
        );
        assert_eq!(attr, sim_attr, "{threads} threads: attribution");
    }
}
