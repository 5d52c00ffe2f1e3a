//! `frames_1080p`: compiled whole-frame runs, float (`run`) and Q8.10
//! (`run_quantized`), of igf and chambolle over a stream of seeded 1080p
//! noise frames on the worker pool.

use std::time::Instant;

use isl_hls::prelude::*;
use isl_hls::sim::Quantizer;

use crate::common::{fnv1a, repeated_setup, seeded_kernels, Args, Kernel, OpLog, Outcome};
use crate::stats;
use crate::trace::{self, Tracer};

pub const WHY: &str = "1080p float and Q8.10 frame streams: sim lane kernels, VM and worker pool do all the work; store, cosim and serve do none";

const WIDTH: usize = 1920;
const HEIGHT: usize = 1080;
/// Iterations per frame.
const ITERS: u32 = 2;
/// Distinct frames per kernel in the stream.
const STREAM: usize = 2;
const KERNELS: [&str; 2] = ["igf", "chambolle"];
/// Rows of the first frame the reference engines re-run (full width, from
/// the top edge): the tree-walk references take seconds per 1080p frame.
const REFERENCE_ROWS: usize = 64;

/// The Q8.10 datapath format of the quantised runs.
fn q8_10() -> Quantizer {
    Quantizer::q18_10()
}

/// Output rows of a top band of `rows` input rows that do not depend on
/// anything below the band.
fn exact_rows(k: &Kernel, rows: usize) -> usize {
    rows - (ITERS * k.pattern.radius()) as usize
}

/// A fingerprint of the exact bits of the first `rows` rows of every field.
fn fingerprint(fs: &FrameSet, rows: usize) -> u64 {
    fnv1a((0..fs.len()).flat_map(|fi| {
        let frame = fs.frame(fi);
        frame.as_slice()[..rows * frame.width()]
            .iter()
            .map(|v| v.to_bits())
    }))
}

fn top_rows(fs: &FrameSet, rows: usize) -> Result<FrameSet, String> {
    FrameSet::from_frames(
        (0..fs.len())
            .map(|fi| {
                let frame = fs.frame(fi);
                Frame::from_fn(frame.width(), rows, |x, y| frame.get(x, y))
            })
            .collect(),
    )
    .map_err(|e| e.to_string())
}

fn simulator(k: &Kernel, threads: usize) -> Result<Simulator<'_>, String> {
    Ok(Simulator::new(&k.pattern)
        .map_err(|e| e.to_string())?
        .with_border(k.border)
        .with_threads(threads))
}

/// One frame of the stream: `quantised` selects `run_quantized`.
fn run_frame(sim: &Simulator<'_>, frame: &FrameSet, quantised: bool) -> Result<FrameSet, String> {
    let out = if quantised {
        sim.run_quantized(frame, ITERS, q8_10())
    } else {
        sim.run(frame, ITERS)
    };
    out.map_err(|e| e.to_string())
}

/// What the stream saw: per (kernel, mode, frame) the fingerprint of the
/// whole output and of its reference-checked top band.
struct Seen {
    prints: Vec<Option<(u64, u64)>>,
}

impl Seen {
    fn new() -> Self {
        Seen {
            prints: vec![None; KERNELS.len() * 2 * STREAM],
        }
    }

    fn slot(k: usize, quantised: bool, f: usize) -> usize {
        (k * 2 + usize::from(quantised)) * STREAM + f
    }
}

/// Stream throughput per mode over the frames' own time: `[float, quantised]`
/// element-iterations per second.
type ElemRates = [f64; 2];

/// Complete rounds over the stream until `seconds` have passed: each round
/// runs every kernel's next frame, float then quantised. The log's elapsed
/// time is the time spent in frames (fingerprinting between frames is the
/// benchmark's, not the stream's).
fn measure(
    ks: &[Kernel],
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    seen: &mut Seen,
) -> Result<(OpLog, ElemRates), String> {
    let sims = ks
        .iter()
        .map(|k| simulator(k, 0))
        .collect::<Result<Vec<_>, _>>()?;
    let mut log = OpLog::default();
    let (mut busy, mut elems) = ([0.0f64; 2], [0.0f64; 2]);
    let t0 = Instant::now();
    let mut round = 0;
    while round < STREAM || t0.elapsed().as_secs_f64() < seconds {
        let f = round % STREAM;
        for (k, (kernel, sim)) in ks.iter().zip(&sims).enumerate() {
            for quantised in [false, true] {
                let mode = usize::from(quantised);
                let frame = &kernel.inputs[f];
                let span_name = ["sim.frame_float", "sim.frame_q"][mode];
                let kind = format!("{}.{}#{f}", kernel.algo.name, ["float", "q"][mode]);
                out.attempted += 1;
                let t = Instant::now();
                let result = tracer.time(span_name, kernel.algo.name, None, || {
                    run_frame(sim, frame, quantised)
                });
                let secs = t.elapsed().as_secs_f64();
                let output = match result {
                    Ok(output) => output,
                    Err(e) => {
                        out.fail(format!("{kind}: {e}"));
                        continue;
                    }
                };
                log.push(&kind, secs);
                log.items_per_op.insert(kind.clone(), 1.0);
                log.elapsed += secs;
                busy[mode] += secs;
                let first = frame.frame(0);
                elems[mode] += (first.width() * first.height()) as f64 * f64::from(ITERS);
                let print = (
                    fingerprint(&output, output.frame(0).height()),
                    fingerprint(
                        &output,
                        exact_rows(kernel, REFERENCE_ROWS.min(first.height())),
                    ),
                );
                match &mut seen.prints[Seen::slot(k, quantised, f)] {
                    slot @ None => *slot = Some(print),
                    Some(earlier) => out.guard(&format!("{kind} output"), earlier, &print),
                }
            }
        }
        round += 1;
    }
    Ok((log, [elems[0] / busy[0], elems[1] / busy[1]]))
}

/// The first streamed frame of every kernel and mode against the
/// reference engines, over a full-width top band (outside the measured
/// region).
fn check_references(ks: &[Kernel], seen: &Seen, out: &mut Outcome) -> Result<(), String> {
    for (k, kernel) in ks.iter().enumerate() {
        let sim = simulator(kernel, 0)?;
        let rows = REFERENCE_ROWS.min(kernel.inputs[0].frame(0).height());
        let band = top_rows(&kernel.inputs[0], rows)?;
        let float_ref = sim.run_reference(&band, ITERS).map_err(|e| e.to_string())?;
        let q_ref = sim
            .run_quantized_reference(&band, ITERS, q8_10())
            .map_err(|e| e.to_string())?;
        for (quantised, reference) in [(false, float_ref), (true, q_ref)] {
            let streamed = seen.prints[Seen::slot(k, quantised, 0)].map(|(_, band)| band);
            if streamed != Some(fingerprint(&reference, exact_rows(kernel, rows))) {
                out.fail(format!(
                    "{}: first {} frame differs from the reference engine",
                    kernel.algo.name,
                    ["float", "quantised"][usize::from(quantised)]
                ));
            }
        }
    }
    Ok(())
}

/// The per-layer frame metrics: span medians plus a one-thread quantised
/// run of each kernel's first frame.
fn layer_metrics(ks: &[Kernel], tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    for kernel in ks {
        let sim = simulator(kernel, 1)?;
        tracer
            .time("sim.frame_q_1t", kernel.algo.name, None, || {
                run_frame(&sim, &kernel.inputs[0], true)
            })
            .map_err(|e| format!("{}: {e}", kernel.algo.name))?;
    }
    let spans = tracer.spans();
    for name in ["sim.frame_float", "sim.frame_q", "sim.frame_q_1t"] {
        let ms = trace::layer_ms(&spans, name).ok_or_else(|| format!("no {name} span"))?;
        out.layers.insert(crate::metric_ms(name), ms);
    }
    out.spans.extend(spans);
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ks = repeated_setup(&mut out, || {
        let ks = seeded_kernels(args.seed, &KERNELS, (WIDTH, HEIGHT), STREAM)?;
        // Compile every program and start the pool on a small frame, so
        // the first measured frame pays neither.
        let mut counts = Vec::new();
        for kernel in &ks {
            let sim = simulator(kernel, 0)?;
            let small = top_rows(&kernel.inputs[0], 16)?;
            for quantised in [false, true] {
                counts.push(fingerprint(&run_frame(&sim, &small, quantised)?, 16));
            }
        }
        Ok((ks, counts))
    })?;

    let seconds = args.measured_seconds();
    let mut seen = Seen::new();
    let (log, rates) = measure(&ks, seconds, &Tracer::new(false), &mut out, &mut seen)?;
    out.log = log;
    check_references(&ks, &seen, &mut out)?;
    out.detail
        .push(("sim_float_melem_s", rates[0] / 1e6, "Melem/s"));
    out.detail
        .push(("sim_quant_melem_s", rates[1] / 1e6, "Melem/s"));
    for (kind, xs) in &out.log.latencies {
        println!(
            "frames_1080p {kind:<16} median {:.1} ms over {} frames",
            stats::median(xs).unwrap_or(f64::NAN) * 1e3,
            xs.len()
        );
    }

    if args.trace {
        let tracer = Tracer::new(true);
        let (traced, _) = measure(&ks, seconds, &tracer, &mut out, &mut seen)?;
        out.trace_overhead(&traced);
        layer_metrics(&ks, &tracer, &mut out)?;
    }
    Ok(out)
}

/// Frame metrics for runs whose own workload does not stream frames: the
/// same stream on 256×256 frames.
pub fn tour(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let ks = seeded_kernels(seed, &KERNELS, (256, 256), STREAM)?;
    let tracer = Tracer::new(true);
    measure(&ks, 0.0, &tracer, out, &mut Seen::new())?;
    layer_metrics(&ks, &tracer, out)
}
