//! The repository benchmark. One run drives one workload for a fixed
//! amount of seeded work, checks every reply against a reference model,
//! and prints its metrics; the last line of standard output is the JSON
//! result. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <par_read_mostly|sim_dynamic|service_zipf>
//!           --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]
//! ```

mod oracle;
mod par;
mod report;
mod rng;
mod sim;
mod stats;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use obs::attr::Attribution;

use crate::oracle::Tally;
use crate::report::{E2e, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

pub const WORKLOADS: &[&str] = &["par_read_mostly", "sim_dynamic", "service_zipf"];

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    /// Record spans and attribution on every other step.
    pub trace: bool,
}

/// What a workload hands back.
pub struct Outcome {
    pub workload: &'static str,
    pub e2e: E2e,
    pub layer: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub notes: Vec<String>,
    pub tracer: Tracer,
    pub attribution: Attribution,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            e2e: E2e::default(),
            layer: BTreeMap::new(),
            tally: Tally::new(workload, seed),
            notes: Vec::new(),
            tracer: Tracer::new(),
            attribution: Attribution::default(),
        }
    }
}

struct Args {
    workload: String,
    cfg: RunCfg,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
        out_dir,
    })
}

/// Write the traced run's spans, per-layer self times and attribution tree.
fn write_trace(out: &Outcome, args: &Args, self_times: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let stem = format!("{}-seed{}", out.workload, args.cfg.seed);
    let files = [
        (format!("{stem}.spans.csv"), out.tracer.to_csv()),
        (format!("{stem}.self_times.txt"), self_times.to_string()),
        (format!("{stem}.attr.txt"), out.attribution.to_text()),
    ];
    for (name, body) in &files {
        let path = args.out_dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(args.out_dir.join(format!("{stem}.spans.csv")))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = &args.cfg;
    let mut out = match args.workload.as_str() {
        "par_read_mostly" => par::run(cfg)?,
        "sim_dynamic" => sim::run(cfg)?,
        "service_zipf" => svc::run(cfg)?,
        other => unreachable!("workload {other} was validated"),
    };
    let e2e = out.e2e.finish(&mut out.notes)?;
    for (name, _) in out.layer.iter() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not declared"
        );
    }
    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        let split = out.e2e.trace_split();
        out.layer.extend(split);
        out.notes.push(format!(
            "tracing overhead: {:.4} of host_mops ({:.4} Mops traced vs {:.4} Mops untraced, interleaved steps)",
            split[2].1, split[0].1, split[1].1
        ));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.layer.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e[name], unit))
            .collect()
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        out.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for note in &out.notes {
        println!("{note}");
    }
    if cfg.trace {
        let mut self_times = String::from("layer,count,total_ms,self_ms\n");
        for (name, t) in out.tracer.layer_times() {
            let line = format!(
                "{name},{},{:.3},{:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
            println!("span {line}");
            self_times.push_str(&line);
            self_times.push('\n');
        }
        for (path, tx) in out.attribution.top_paths(8) {
            println!("attr_tx {path} {tx}");
        }
        let spans = write_trace(&out, &args, &self_times)?;
        println!(
            "trace: {} spans written to {}",
            out.tracer.spans().len(),
            spans.display()
        );
        for (name, value, unit) in &metrics {
            println!("{name} = {value} {unit}");
        }
    }
    let tally = &out.tally;
    for line in tally.repro_lines() {
        println!("{line}");
    }
    println!(
        "oracle: {} operations checked, {} failed, {} unexplained replies",
        tally.attempted, tally.failed, tally.unexplained
    );
    let correct = tally.unexplained == 0 && tally.attempted > 0;
    println!(
        "{}",
        report::result_json(correct, tally.attempted, tally.failed, &metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
