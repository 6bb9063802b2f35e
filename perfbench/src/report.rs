//! The metrics the benchmark reports, how the end-to-end ones are derived
//! from a run's samples, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{self, Pct};

/// End-to-end metrics, printed by every untraced run (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_mops", "Mops"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("request_p50_us", "us"),
    ("request_p99_us", "us"),
    ("request_p99_ticks", "ticks"),
    ("sim_mops", "Mops"),
    ("bytes_per_kv", "bytes/kv"),
];

/// Per-layer metrics, printed by every traced run (name, unit). A layer a
/// workload does not drive reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host_par.find_ns_per_key", "ns/key"),
    ("host_par.insert_ns_per_key", "ns/key"),
    ("host_par.delete_ns_per_key", "ns/key"),
    ("host_par.read_tx_per_find", "tx/find"),
    ("host_par.lock_failures_per_op", "1/op"),
    ("host_par.overflow_frac", "frac"),
    ("host_par.grows", "count"),
    ("ref.hashmap_find_ns_per_key", "ns/key"),
    ("host_par.find_vs_hashmap", "ratio"),
    ("table.insert_ns_per_key", "ns/key"),
    ("table.find_ns_per_key", "ns/key"),
    ("table.delete_ns_per_key", "ns/key"),
    ("table.read_tx_per_find", "tx/find"),
    ("table.write_tx", "count"),
    ("table.evictions_per_insert", "1/insert"),
    ("table.lock_failures", "count"),
    ("table.rounds", "count"),
    ("table.insert_retries", "count"),
    ("maintenance.resizes_up", "count"),
    ("maintenance.resizes_down", "count"),
    ("maintenance.moved_kvs", "count"),
    ("maintenance.resize_batch_us", "us"),
    ("service.submit_ns_per_req", "ns/req"),
    ("service.tick_us", "us"),
    ("service.tick_ns_per_req", "ns/req"),
    ("service.drain_ns_per_req", "ns/req"),
    ("service.coalesced_frac", "frac"),
    ("service.dedup_saved", "count"),
    ("service.batch_occupancy", "req/batch"),
    ("service.flush_by_size_frac", "frac"),
    ("service.max_queue_depth", "count"),
    ("service.shed", "count"),
    ("unsized.request_p50_us", "us"),
    ("unsized.byte_batches", "count"),
    ("unsized.arena_live_bytes", "bytes"),
    ("unsized.arena_frag_bytes", "bytes"),
    ("trace.host_mops", "Mops"),
    ("trace.untraced_host_mops", "Mops"),
    ("trace.overhead_frac", "frac"),
];

/// A group of requests completed by one step: they were due at the start
/// of step `from` and completed at the end of segment `segment` of step
/// `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wait {
    pub from: usize,
    pub to: usize,
    pub segment: usize,
    pub n: u64,
}

/// One input stream's steps, each timed segment (one layer call) at its
/// fastest over the stream's repeats.
#[derive(Debug, Default)]
struct Timeline {
    /// Per step: the fastest wall seconds of each segment so far.
    fastest: Vec<Vec<f64>>,
    /// Per step of the first repeat: operations it completed, and whether
    /// it is a workload step (a table batch or a service tick) rather than
    /// a final drain.
    step_ops: Vec<(u64, bool)>,
    /// The requests of the first repeat, by the step that completed them.
    waits: Vec<Wait>,
    repeats: usize,
}

impl Timeline {
    /// Wall seconds from the start of the timeline to the start of each
    /// step, and one past the last.
    fn step_starts(&self) -> Vec<f64> {
        let mut starts = Vec::with_capacity(self.fastest.len() + 1);
        let mut t = 0.0;
        starts.push(t);
        for segs in &self.fastest {
            t += segs.iter().sum::<f64>();
            starts.push(t);
        }
        starts
    }

    fn wait_us(&self, waits: &[Wait]) -> Vec<(f64, u64)> {
        let starts = self.step_starts();
        waits
            .iter()
            .map(|w| {
                let end = starts[w.to] + self.fastest[w.to][..=w.segment].iter().sum::<f64>();
                ((end - starts[w.from]) * 1e6, w.n)
            })
            .collect()
    }
}

/// The samples a run collects for its end-to-end metrics.
///
/// A run generates one or more input streams from its seed and runs each
/// several times, every repeat on a fresh set-up. The host is shared, and
/// a step runs up to twice as slow while a neighbour holds its core, so
/// the wall-clock metrics are read from each stream's *fastest timeline*:
/// every timed segment of every step (one layer call) at its fastest over
/// the repeats. The work of a step is the same in every repeat; what the
/// repeats differ in is how much of it the host slowed down. Percentiles
/// pool the samples of all streams.
#[derive(Debug, Default)]
pub struct E2e {
    /// Wall seconds of each set-up (input generation, construction, prefill).
    pub setup_s: Vec<f64>,
    streams: Vec<Timeline>,
    current: usize,
    next_step: usize,
    /// Wall seconds of the timed segments of each repeat, in run order.
    repeat_s: Vec<f64>,
    /// Request latency on the simulated clock, in ticks.
    pub request_ticks: Vec<(f64, u64)>,
    /// Operations and simulated nanoseconds on the cost model's clock.
    pub sim_ops: u64,
    pub sim_ns: f64,
    /// The table's reported bytes per live key, one sample per step.
    pub bytes_per_kv: Vec<f64>,
    /// Operations and layer-call seconds of untraced ([0]) and traced ([1])
    /// steps of a traced run.
    pub split: [(u64, f64); 2],
}

fn pct_note(name: &str, unit: &str, p: &Pct) -> String {
    format!(
        "{name} = {:.3} {unit} (n={}, {} beyond)",
        p.value, p.n, p.beyond
    )
}

impl E2e {
    /// Start a repeat of input stream `stream`; its steps follow. Streams
    /// are numbered from 0 in the order they first run.
    pub fn start_repeat(&mut self, stream: usize) {
        if stream == self.streams.len() {
            self.streams.push(Timeline::default());
        }
        self.streams[stream].repeats += 1;
        self.current = stream;
        self.next_step = 0;
        self.repeat_s.push(0.0);
    }

    /// Record the next step of the current repeat: the wall seconds of its
    /// timed segments, the operations it completed, whether it is a
    /// workload step, and the requests it completed. Only the first
    /// repeat's operations and requests are kept; every repeat of a stream
    /// runs the same steps.
    pub fn step(&mut self, segments: &[f64], ops: u64, workload_step: bool, waits: &[Wait]) {
        let i = self.next_step;
        self.next_step += 1;
        *self.repeat_s.last_mut().expect("a repeat was started") += segments.iter().sum::<f64>();
        let t = &mut self.streams[self.current];
        if t.repeats == 1 {
            t.fastest.push(segments.to_vec());
            t.step_ops.push((ops, workload_step));
            t.waits.extend_from_slice(waits);
            return;
        }
        let fastest = t
            .fastest
            .get_mut(i)
            .expect("every repeat runs the first repeat's steps");
        for (f, &s) in fastest.iter_mut().zip(segments) {
            *f = f.min(s);
        }
    }

    /// Latency samples, in microseconds on stream `stream`'s fastest
    /// timeline, of the requests in `waits`, weighted by their counts.
    pub fn wait_us(&self, stream: usize, waits: &[Wait]) -> Vec<(f64, u64)> {
        self.streams[stream].wait_us(waits)
    }

    /// Compute every end-to-end metric, adding one human-readable line per
    /// metric (percentiles with their sample counts) to `notes`.
    pub fn finish(
        &mut self,
        notes: &mut Vec<String>,
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut m = BTreeMap::new();
        let setup = stats::median(&self.setup_s);
        notes.push(format!(
            "setup_s = {setup:.4} s (median of {} set-ups)",
            self.setup_s.len()
        ));
        m.insert("setup_s", setup);
        let mut ops = 0u64;
        let mut fastest_s = 0.0;
        let mut batch_us: Vec<(f64, u64)> = Vec::new();
        let mut request_us: Vec<(f64, u64)> = Vec::new();
        for t in &self.streams {
            for (segs, &(n, workload_step)) in t.fastest.iter().zip(&t.step_ops) {
                let step_s: f64 = segs.iter().sum();
                ops += n;
                fastest_s += step_s;
                if workload_step {
                    batch_us.push((step_s * 1e6, 1));
                }
            }
            request_us.extend(t.wait_us(&t.waits));
        }
        let host = ops as f64 / fastest_s / 1e6;
        let repeats: Vec<String> = self.streams.iter().map(|t| t.repeats.to_string()).collect();
        notes.push(format!(
            "host_mops = {host:.4} Mops ({ops} ops over {} steps of {} streams, each segment the fastest of {} repeats)",
            batch_us.len(),
            self.streams.len(),
            repeats.join("/")
        ));
        m.insert("host_mops", host);
        let repeat_s: Vec<String> = self.repeat_s.iter().map(|s| format!("{s:.3}")).collect();
        notes.push(format!(
            "timed seconds per repeat, in run order: {}; fastest timelines: {fastest_s:.3}",
            repeat_s.join(", ")
        ));
        for (names, samples) in [
            (["batch_p50_us", "batch_p99_us"], &mut batch_us),
            (["request_p50_us", "request_p99_us"], &mut request_us),
        ] {
            for (name, q) in names.into_iter().zip([0.5, 0.99]) {
                let p = stats::percentile(samples, q)?;
                notes.push(pct_note(name, "us", &p));
                m.insert(name, p.value);
            }
        }
        let p = stats::percentile(&mut self.request_ticks, 0.99)?;
        notes.push(pct_note("request_p99_ticks", "ticks", &p));
        m.insert("request_p99_ticks", p.value);
        let sim = self.sim_ops as f64 / self.sim_ns * 1e3;
        notes.push(format!(
            "sim_mops = {sim:.4} Mops ({} ops in {:.0} simulated ns)",
            self.sim_ops, self.sim_ns
        ));
        m.insert("sim_mops", sim);
        let bpk = stats::mean(&self.bytes_per_kv);
        notes.push(format!(
            "bytes_per_kv = {bpk:.3} bytes/kv (mean of {} steps)",
            self.bytes_per_kv.len()
        ));
        m.insert("bytes_per_kv", bpk);
        Ok(m)
    }

    /// The traced run's `trace.*` metrics: host throughput of its traced
    /// and untraced steps, and the share tracing costs.
    pub fn trace_split(&self) -> [(&'static str, f64); 3] {
        let mops = |(ops, s): (u64, f64)| if s > 0.0 { ops as f64 / s / 1e6 } else { 0.0 };
        let untraced = mops(self.split[0]);
        let traced = mops(self.split[1]);
        let overhead = if untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        };
        [
            ("trace.host_mops", traced),
            ("trace.untraced_host_mops", untraced),
            ("trace.overhead_frac", overhead),
        ]
    }
}

/// The requests of table batch `step`, whose calls completed `ops[i]`
/// operations each, in issue order: an operation is due when the batch
/// starts and completes when its call returns.
pub fn call_waits(step: usize, ops: &[u64]) -> Vec<Wait> {
    ops.iter()
        .enumerate()
        .map(|(segment, &n)| Wait {
            from: step,
            to: step,
            segment,
            n,
        })
        .collect()
}

/// Latency samples of closed-loop table batches on the simulated clock.
///
/// Each batch issues its calls in order; an operation completes when its
/// call returns. A table workload has no service tick, so one tick is the
/// median batch's simulated time: an operation of a slow (resizing) batch
/// reads several ticks. `calls` holds, per batch, `(ops, simulated ns)` of
/// each call in issue order.
pub fn table_request_ticks(calls: &[Vec<(u64, f64)>]) -> Vec<(f64, u64)> {
    let totals: Vec<f64> = calls
        .iter()
        .map(|b| b.iter().map(|&(_, ns)| ns).sum())
        .collect();
    let tick = stats::median(&totals);
    let mut out = Vec::with_capacity(calls.len() * 3);
    for batch in calls {
        let mut elapsed = 0.0;
        for &(ops, ns) in batch {
            elapsed += ns;
            if ops > 0 {
                out.push((elapsed / tick, ops));
            }
        }
    }
    out
}

/// Render the result line. Every value must be finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn wall_metrics_read_the_fastest_segment_of_each_step() {
        let mut e = E2e::default();
        let steps: [[[f64; 2]; 2]; 2] = [[[3.0, 1.0], [1.0, 4.0]], [[1.0, 2.0], [2.0, 1.0]]];
        for rep in steps {
            e.start_repeat(0);
            for (i, segs) in rep.iter().enumerate() {
                let waits = [Wait {
                    from: 0,
                    to: i,
                    segment: 0,
                    n: 2,
                }];
                e.step(segs, 10, true, &waits);
            }
        }
        // Fastest timeline: step 0 = [1, 1], step 1 = [1, 1].
        let t = &e.streams[0];
        assert_eq!(t.step_starts(), vec![0.0, 2.0, 4.0]);
        assert_eq!(t.wait_us(&t.waits), vec![(1e6, 2), (3e6, 2)]);
        let split = Wait {
            from: 1,
            to: 1,
            segment: 1,
            n: 1,
        };
        assert_eq!(e.wait_us(0, &[split]), vec![(2e6, 1)]);
    }

    #[test]
    fn streams_keep_their_own_timelines() {
        let mut e = E2e::default();
        for (stream, secs) in [(0, 4.0), (1, 1.0), (0, 2.0), (1, 3.0)] {
            e.start_repeat(stream);
            e.step(&[secs], 1, true, &[]);
        }
        assert_eq!(e.streams[0].fastest, vec![vec![2.0]]);
        assert_eq!(e.streams[1].fastest, vec![vec![1.0]]);
        assert_eq!(e.repeat_s, vec![4.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn table_ticks_are_relative_to_the_median_batch() {
        let calls = vec![
            vec![(10, 50.0), (5, 50.0)],
            vec![(10, 100.0), (5, 100.0)],
            vec![(10, 150.0), (5, 150.0)],
        ];
        let ticks = table_request_ticks(&calls);
        assert_eq!(ticks[0], (0.25, 10));
        assert_eq!(ticks[3], (1.0, 5));
        assert_eq!(ticks[5], (1.5, 5));
    }

    #[test]
    fn result_json_shape() {
        let line = result_json(true, 3, 1, &[("a", 1.5, "s"), ("b", 2.0, "count")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(result_json(true, 1, 0, &[("a", f64::NAN, "s")]).is_err());
    }
}
