//! The repository benchmark: three workloads over the ISL HLS flow and its
//! service, end-to-end metrics from untraced runs and per-layer metrics
//! from a traced run. See `README.md` next to this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

#![forbid(unsafe_code)]

mod common;
mod faults;
mod flow;
mod frames;
mod layers;
mod mix;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Args, Outcome};

/// The workloads, with the one-line reason each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    ("flow_cold", flow::WHY),
    ("serve_mixed", serve::WHY),
    ("frames_1080p", frames::WHY),
];

/// End-to-end metrics of an untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 47] = [
    ("symexec.compile_ms", "ms"),
    ("ir.cone_build_ms", "ms"),
    ("sim.compile_ms", "ms"),
    ("sim.cone_instrs", "count"),
    ("sim.tiled_q_ms", "ms"),
    ("sim.tiled_q_ref_ms", "ms"),
    ("sim.cone_dag_q_ms", "ms"),
    ("sim.cone_dag_q_ref_ms", "ms"),
    ("sim.frame_float_ms", "ms"),
    ("sim.frame_q_ms", "ms"),
    ("sim.frame_q_1t_ms", "ms"),
    ("dse.calibrate_ms", "ms"),
    ("dse.enumerate_ms", "ms"),
    ("dse.points", "count"),
    ("fpga.synth_ms", "ms"),
    ("fpga.area_luts", "LUT"),
    ("cosim.golden_vectors_ms", "ms"),
    ("cosim.cone_levels_ms", "ms"),
    ("cosim.campaign_ms", "ms"),
    ("cosim.replay_ms", "ms"),
    ("cosim.faults", "count"),
    ("cosim.faults_detected", "count"),
    ("cosim.predicted_silent", "count"),
    ("vhdl.verify_vectors_ms", "ms"),
    ("vhdl.codegen_ms", "ms"),
    ("vhdl.vector_words", "count"),
    ("vhdl.bundle_bytes", "bytes"),
    ("analyze.of_cone_ms", "ms"),
    ("analyze.verify_cone_ms", "ms"),
    ("core.explore_ms", "ms"),
    ("core.certify_ms", "ms"),
    ("core.search_format_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("core.probes", "count"),
    ("core.probes_pruned", "count"),
    ("core.store_hits", "count"),
    ("core.store_misses", "count"),
    ("core.store_hit_ratio", "ratio"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.bytes_on_disk", "bytes"),
    ("persist.load_ms", "ms"),
    ("serve.ping_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p95_ms", "ms"),
    ("serve.build_misses", "count"),
    ("trace_overhead_pct", "%"),
];

/// The per-layer metric name of a span: `<span>_ms`, interned from
/// [`PER_LAYER`].
pub fn metric_ms(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_suffix("_ms") == Some(span))
        .unwrap_or_else(|| panic!("span {span} has no per-layer metric"))
}

/// Where runs leave their traces and scratch state, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = [false; 4];
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = value;
                seen[0] = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
                seen[3] = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seen.contains(&false) {
        return Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>".into());
    }
    Ok(args)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// Fill every per-layer metric the workload's own traced run did not
/// reach with a short tour of that layer group: the result line of a
/// traced run must carry every per-layer metric. A tour never replaces a
/// metric the workload measured itself, and the metrics it fills are
/// listed in `out.toured` (printed before the result line).
fn complete_layers(args: &Args, out: &mut Outcome) -> Result<(), String> {
    type Tour = fn(u64, &mut Outcome) -> Result<(), String>;
    let tours: [(&[&str], Tour); 4] = [
        (&["core.certify_ms", "symexec.compile_ms"], flow::tour),
        (&["serve.ping_ms", "persist.load_ms"], serve::tour),
        (&["sim.frame_q_ms"], frames::tour),
        (&["cosim.campaign_ms"], faults::tour),
    ];
    for (names, tour) in tours {
        if names.iter().all(|n| out.layers.contains_key(n)) {
            continue;
        }
        let mut toured = Outcome::default();
        tour(args.seed, &mut toured)?;
        if let Some(e) = toured.errors.into_iter().chain(toured.refusals).next() {
            return Err(format!("layer tour: {e}"));
        }
        for (name, value) in toured.layers {
            if !out.layers.contains_key(name) {
                out.layers.insert(name, value);
                out.toured.push(name);
            }
        }
        out.spans.extend(toured.spans);
    }
    Ok(())
}

fn result_line(correct: bool, out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; a non-finite value fails the run and reads null.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let mut out = match args.workload.as_str() {
        "flow_cold" => flow::run(args)?,
        "serve_mixed" => serve::run(args)?,
        "frames_1080p" => frames::run(args)?,
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {other} (known: {})",
                known.join(", ")
            ));
        }
    };
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |(_, w)| w);
    let peak = peak_rss_mb()?;
    let log = out.log.clone();
    let e2e = [
        out.setup_s,
        peak,
        log.throughput(),
        log.median_ms(),
        log.pooled_ms(95.0),
    ];

    // The workload's own figures and its record, before the result line.
    let mut detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"why\": \"{why}\", \"cores\": {}, \"ops\": {}, \"measured_s\": {:.3}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        log.ops(),
        log.elapsed,
    );
    for (name, value, unit) in out
        .detail
        .iter()
        .copied()
        .chain([("setup_s", out.setup_s, "s"), ("peak_rss_mb", peak, "MB")])
    {
        let _ = write!(
            detail,
            ", \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    detail.push('}');
    println!("{detail}");
    for e in &out.refusals {
        println!("refused: {e}");
    }
    for e in &out.errors {
        println!("error: {e}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        complete_layers(args, &mut out)?;
        if !out.toured.is_empty() {
            println!(
                "from layer tours, not this workload: {}",
                out.toured.join(", ")
            );
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, trace::to_json(&out.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            out.spans.len(),
            path.display()
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                out.layers
                    .get(name)
                    .map(|v| (name, *v, unit))
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect::<Result<_, _>>()?
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.errors.is_empty() && log.ops() > 0 && finite;
    if !finite {
        println!("error: a metric is not finite");
    }
    Ok((correct, result_line(correct, &out, &metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn workloads_and_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, why) in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\",\n      \"why\": \"{why}\"")),
                "{name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
                )),
                "{name}"
            );
        }
    }

    #[test]
    fn every_span_maps_to_a_metric() {
        for span in layers::FLOW_LAYER_SPANS
            .iter()
            .chain(flow::STAGE_SPANS.iter())
        {
            assert!(metric_ms(span).ends_with("_ms"));
        }
    }

    #[test]
    fn result_line_shape() {
        let out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_line(true, &out, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
