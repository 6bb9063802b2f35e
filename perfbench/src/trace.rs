//! Benchmark-side spans around every call into a layer, kept in memory and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or one whole workload step, the parent of its calls).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Batch or tick the span belongs to.
    pub step: u64,
}

/// Span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        step: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            step,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Render every span as CSV (`name,start_ns,end_ns,parent,step`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,start_ns,end_ns,parent,step\n");
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.step
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let base = t.epoch;
        let at = |us: u64| base + Duration::from_micros(us);
        let parent = t.record("batch", at(0), at(100), None, 0);
        t.record("find", at(10), at(40), Some(parent), 0);
        t.record("insert", at(40), at(90), Some(parent), 0);
        let times = t.layer_times();
        assert_eq!(times["batch"].total_ns, 100_000);
        assert_eq!(times["batch"].self_ns, 20_000);
        assert_eq!(times["find"].self_ns, 30_000);
        assert_eq!(times["insert"].count, 1);
        assert!(t.to_csv().contains("find,10000,40000,0,0"));
    }
}
