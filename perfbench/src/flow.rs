//! `flow_cold`: the paper's flow as a user runs it, once per built-in
//! kernel, each on a fresh session with an empty store — Spec → explore →
//! certify the DSE-fastest point → format search → VHDL bundle.

use std::time::Instant;

use isl_hls::algorithms::Algorithm;
use isl_hls::prelude::*;
use isl_hls::vhdl::{check, verify_vectors, VectorFile};

use crate::common::{fnv1a, repeated_setup, seeded_kernels, Args, Kernel, OpLog, Outcome};
use crate::layers::{self, Case};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};

pub const WHY: &str = "the paper's flow cold per built-in kernel: certification and format search do almost all the work; serve and persist do none";

/// Every built-in kernel.
const KERNELS: [&str; 6] = ["igf", "chambolle", "jacobi", "heat", "life", "sobel"];

/// Side of the seeded square frames every kernel is certified on.
pub const SIZE: usize = 32;

/// Stage spans of one flow (each becomes the per-layer `<name>_ms`).
pub const STAGE_SPANS: [&str; 4] = [
    "core.explore",
    "core.certify",
    "core.search_format",
    "core.synthesize",
];

/// Seeded input sets per kernel. Pass `p` runs every kernel on set
/// `p % INPUTS` and a run makes at least `INPUTS` passes, so every run
/// covers the same input mix however fast the machine is: the cost of a
/// format search moves with its input (probe counts differ).
pub const INPUTS: usize = 4;

/// The count metrics of one cold flow; equal inputs must give equal
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCounts {
    pub probes: u64,
    pub probes_pruned: u64,
    pub area_luts: u64,
    pub bundle_bytes: u64,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl FlowCounts {
    fn to_vec(self) -> Vec<u64> {
        vec![
            self.probes,
            self.probes_pruned,
            self.area_luts,
            self.bundle_bytes,
            self.store_hits,
            self.store_misses,
        ]
    }
}

/// One completed cold flow.
pub struct FlowRun {
    /// Index of the kernel's input set the flow ran on.
    pub input: usize,
    pub secs: f64,
    pub counts: FlowCounts,
    pub arch: Architecture,
    pub format: FixedFormat,
    /// FNV-1a over the bundle's file names and contents.
    pub bundle_digest: u64,
}

/// Why a cold flow did not complete.
pub enum FlowFailure {
    /// `search_format` found no certifiable format that meets the budget
    /// (`FlowError::Format`): a documented refusal, not a wrong answer.
    Refused(String),
    /// Any other error, among them a certification that caught its own
    /// quantised run or golden vectors diverging (`FlowError::Verification`).
    Failed(String),
}

impl FlowFailure {
    fn record(self, out: &mut Outcome) {
        match self {
            FlowFailure::Refused(e) => out.refused(e),
            FlowFailure::Failed(e) => out.fail(e),
        }
    }

    fn message(self) -> String {
        match self {
            FlowFailure::Refused(e) | FlowFailure::Failed(e) => e,
        }
    }
}

fn digest(bundle: &VhdlBundle) -> u64 {
    fnv1a(bundle.files().into_iter().flat_map(|(name, contents)| {
        name.bytes()
            .chain([0])
            .chain(contents.bytes())
            .map(u64::from)
            .collect::<Vec<_>>()
    }))
}

/// Run the whole flow for one kernel on a fresh session; returns the run
/// and the VHDL bundle it produced.
pub fn flow_once(
    algo: &Algorithm,
    init: &FrameSet,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(FlowRun, VhdlBundle), FlowFailure> {
    let kind = algo.name;
    let e = |stage: &str, err: FlowError| FlowFailure::Failed(format!("{kind}: {stage}: {err}"));
    let t0 = Instant::now();
    let root = tracer.span("flow", kind, parent);
    let parent = root.id();
    let session = tracer
        .time("core.spec", kind, parent, || {
            IslSession::from_algorithm(algo)
        })
        .map_err(|err| e("spec", err))?;
    let device = Device::virtex6_xc6vlx760();
    let (w, h) = (init.frame(0).width() as u32, init.frame(0).height() as u32);
    let explored = tracer
        .time("core.explore", kind, parent, || {
            session.explore(&device, session.workload(w, h), &layers::design_space())
        })
        .map_err(|err| e("explore", err))?;
    let arch = explored
        .fastest()
        .ok_or_else(|| FlowFailure::Failed(format!("{kind}: no feasible design point")))?
        .arch;
    let certified = tracer
        .time("core.certify", kind, parent, || session.certify(init, arch))
        .map_err(|err| e("certify", err))?;
    // The default format's own error is the budget: "the narrowest format
    // at least as accurate as the default". A budget must be positive, so
    // an exact default (life's 0/1 cells can be) asks for an exact format.
    let budget = ErrorBudget::max_abs(
        certified
            .certificate()
            .max_quant_error
            .max(f64::MIN_POSITIVE),
    );
    let searched = tracer
        .time("core.search_format", kind, parent, || {
            session.search_format(&device, init, arch, budget)
        })
        .map_err(|err| match err {
            FlowError::Format(_) => FlowFailure::Refused(format!("{kind}: search_format: {err}")),
            err => e("search_format", err),
        })?;
    let synthesized = tracer
        .time("core.synthesize", kind, parent, || {
            searched.session().certify(init, arch)?.synthesize()
        })
        .map_err(|err| e("synthesize", err))?;
    root.end();
    let secs = t0.elapsed().as_secs_f64();

    let stats = session.store_stats();
    let bundle = synthesized.into_bundle();
    let counts = FlowCounts {
        probes: searched.probes().len() as u64,
        probes_pruned: stats.analysis_pruned_probes as u64,
        area_luts: searched.outcome().chosen_area_luts,
        bundle_bytes: bundle.files().iter().map(|(_, c)| c.len() as u64).sum(),
        store_hits: stats.total_hits() as u64,
        store_misses: stats.total_misses() as u64,
    };
    let run = FlowRun {
        input: 0,
        secs,
        counts,
        arch,
        format: searched.format(),
        bundle_digest: digest(&bundle),
    };
    Ok((run, bundle))
}

/// Every file of a bundle through the structural checker, and every
/// shipped golden-vector file re-derived word for word.
pub fn check_bundle(kernel: &Kernel, bundle: &VhdlBundle) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", kernel.algo.name);
    check::validate_package(&bundle.package).map_err(|e| fail("package", &e))?;
    check::validate(&bundle.entity).map_err(|e| fail("entity", &e))?;
    check::balance_only(&bundle.wrapper).map_err(|e| fail("wrapper", &e))?;
    check::balance_only(&bundle.testbench).map_err(|e| fail("testbench", &e))?;
    for set in &bundle.vectors {
        if let Some(entity) = &set.entity {
            check::validate(entity).map_err(|e| fail(&set.entity_name, &e))?;
        }
        check::balance_only(&set.testbench).map_err(|e| fail(&set.testbench_name, &e))?;
        let file = VectorFile::parse(&set.vectors).map_err(|e| fail(&set.vectors_name, &e))?;
        let cone =
            Cone::build(&kernel.pattern, file.window, file.depth).map_err(|e| fail("cone", &e))?;
        verify_vectors(&cone, file.format, &file).map_err(|e| fail(&set.vectors_name, &e))?;
    }
    let script = bundle.ghdl_script();
    if !script.contains(&format!("ghdl -r --std=93 tb_{}", bundle.entity_name)) {
        return Err(fail("run_ghdl.sh", &"main testbench not run"));
    }
    Ok(())
}

/// Complete passes over every kernel until `seconds` have passed, at least
/// one per input set, pass `p` on input set `p % inputs`. Each bundle is
/// checked as soon as its flow returns and then dropped, so memory does not
/// grow with the pass count; the log's elapsed time is the flows' own time,
/// without the checks. Latencies are logged per (kernel, input set).
/// Returns the log and each kernel's runs in pass order.
fn measure(
    ks: &[Kernel],
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (OpLog, Vec<Vec<FlowRun>>) {
    let inputs = ks.first().map_or(0, |k| k.inputs.len());
    let mut log = OpLog::default();
    let mut runs: Vec<Vec<FlowRun>> = ks.iter().map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    let mut pass = 0;
    while pass < inputs || t0.elapsed().as_secs_f64() < seconds {
        let input = pass % inputs;
        for (kernel, kernel_runs) in ks.iter().zip(runs.iter_mut()) {
            out.attempted += 1;
            match flow_once(&kernel.algo, &kernel.inputs[input], tracer, None) {
                Ok((mut run, bundle)) => {
                    run.input = input;
                    log.push(&format!("{}#{input}", kernel.algo.name), run.secs);
                    log.items += 1.0;
                    log.elapsed += run.secs;
                    kernel_runs.push(run);
                    if let Err(e) = check_bundle(kernel, &bundle) {
                        out.fail(e);
                    }
                }
                Err(failure) => failure.record(out),
            }
        }
        pass += 1;
    }
    (log, runs)
}

/// The determinism guard's second computation: every kernel's flow on
/// input set 0 once more, outside the measured region.
fn guard_pass(ks: &[Kernel], runs: &mut [Vec<FlowRun>], out: &mut Outcome) {
    for (kernel, kernel_runs) in ks.iter().zip(runs.iter_mut()) {
        out.attempted += 1;
        match flow_once(&kernel.algo, &kernel.inputs[0], &Tracer::new(false), None) {
            Ok((run, _)) => kernel_runs.push(run),
            Err(failure) => failure.record(out),
        }
    }
}

/// The determinism guard, outside the measured region: every later run on
/// an input set must repeat the first one's counts and bundle exactly, and
/// each certified cone compiles to the same program twice.
fn check_runs(ks: &[Kernel], runs: &[Vec<FlowRun>], out: &mut Outcome) {
    for (kernel, kernel_runs) in ks.iter().zip(runs) {
        let name = kernel.algo.name;
        for (p, run) in kernel_runs.iter().enumerate() {
            if let Some(first) = kernel_runs[..p].iter().find(|r| r.input == run.input) {
                out.guard(&format!("{name} flow counts"), &first.counts, &run.counts);
                out.guard(
                    &format!("{name} bundle"),
                    &first.bundle_digest,
                    &run.bundle_digest,
                );
                continue;
            }
            let case = Case {
                algo: &kernel.algo,
                init: &kernel.inputs[run.input],
                arch: run.arch,
            };
            match (layers::cone_instrs(&case), layers::cone_instrs(&case)) {
                (Ok(a), Ok(b)) => out.guard(&format!("{name} sim.cone_instrs"), &a, &b),
                (Err(e), _) | (_, Err(e)) => out.fail(e),
            }
        }
    }
}

/// The first run on each input set of every kernel.
fn firsts(runs: &[Vec<FlowRun>]) -> Vec<&FlowRun> {
    runs.iter()
        .flat_map(|r| {
            r.iter()
                .enumerate()
                .filter(|(p, run)| r[..*p].iter().all(|e| e.input != run.input))
                .map(|(_, run)| run)
        })
        .collect()
}

/// Geometric mean over kernels and input sets of the chosen format's area.
fn area_luts(runs: &[Vec<FlowRun>]) -> f64 {
    let areas: Vec<f64> = firsts(runs)
        .iter()
        .map(|r| r.counts.area_luts as f64)
        .collect();
    stats::geomean(&areas).unwrap_or(f64::NAN)
}

/// Per-layer metrics of the traced region: stage spans, layer probes on
/// each kernel's first certified case, and the flow counts over every
/// input set.
fn layer_metrics(
    ks: &[Kernel],
    runs: &[Vec<FlowRun>],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut probe_counts = Vec::new();
    for (kernel, kernel_runs) in ks.iter().zip(runs) {
        let Some(first) = kernel_runs.first() else {
            continue;
        };
        let case = Case {
            algo: &kernel.algo,
            init: &kernel.inputs[first.input],
            arch: first.arch,
        };
        let probe = tracer.span("layer_probe", kernel.algo.name, None);
        probe_counts.push(layers::probe(tracer, &case, probe.id())?);
    }
    let spans = tracer.spans();
    for name in layers::FLOW_LAYER_SPANS.iter().chain(STAGE_SPANS.iter()) {
        if let Some(ms) = trace::layer_ms(&spans, name) {
            out.layers.insert(crate::metric_ms(name), ms);
        }
    }
    let firsts = firsts(runs);
    let sum =
        |f: &dyn Fn(&FlowCounts) -> u64| firsts.iter().map(|r| f(&r.counts)).sum::<u64>() as f64;
    let hits = sum(&|c| c.store_hits);
    let misses = sum(&|c| c.store_misses);
    out.layers.insert("core.probes", sum(&|c| c.probes));
    out.layers
        .insert("core.probes_pruned", sum(&|c| c.probes_pruned));
    out.layers.insert("core.store_hits", hits);
    out.layers.insert("core.store_misses", misses);
    out.layers
        .insert("core.store_hit_ratio", hits / (hits + misses));
    out.layers.insert("fpga.area_luts", area_luts(runs));
    out.layers
        .insert("vhdl.bundle_bytes", sum(&|c| c.bundle_bytes));
    let probe_sum =
        |f: &dyn Fn(&layers::LayerCounts) -> u64| probe_counts.iter().map(f).sum::<u64>() as f64;
    out.layers
        .insert("sim.cone_instrs", probe_sum(&|c| c.cone_instrs));
    out.layers
        .insert("dse.points", probe_sum(&|c| c.dse_points));
    out.layers
        .insert("vhdl.vector_words", probe_sum(&|c| c.vector_words));
    out.spans.extend(spans);
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ks = repeated_setup(&mut out, || {
        let ks = seeded_kernels(args.seed, &KERNELS, (SIZE, SIZE), INPUTS)?;
        // One cold flow of the cheapest kernel starts the worker pool and
        // settles the allocator, so the first measured flow pays neither.
        let sobel = ks
            .iter()
            .find(|k| k.algo.name == "sobel")
            .ok_or("sobel kernel missing")?;
        let (warm, _) = flow_once(&sobel.algo, &sobel.inputs[0], &Tracer::new(false), None)
            .map_err(FlowFailure::message)?;
        Ok((ks, warm.counts.to_vec()))
    })?;

    let seconds = args.measured_seconds();
    let (log, mut runs) = measure(&ks, seconds, &Tracer::new(false), &mut out);
    out.log = log;
    for (kernel, kernel_runs) in ks.iter().zip(&runs) {
        let formats: Vec<String> = firsts(std::slice::from_ref(kernel_runs))
            .iter()
            .map(|r| {
                format!(
                    "w{} d{} c{} {} {} LUT {} probes",
                    r.arch.window.w,
                    r.arch.depth,
                    r.arch.cores,
                    r.format,
                    r.counts.area_luts,
                    r.counts.probes
                )
            })
            .collect();
        let secs: Vec<f64> = kernel_runs.iter().map(|r| r.secs).collect();
        println!(
            "flow_cold {:<9} median {:.1} ms over {} flows; per input set: {}",
            kernel.algo.name,
            stats::median(&secs).unwrap_or(f64::NAN) * 1e3,
            secs.len(),
            formats.join(" | "),
        );
    }
    guard_pass(&ks, &mut runs, &mut out);
    check_runs(&ks, &runs, &mut out);
    out.detail.push(("flow_s", out.log.median_ms() / 1e3, "s"));
    out.detail
        .push(("searched_area_luts", area_luts(&runs), "LUT"));

    if args.trace {
        let tracer = Tracer::new(true);
        let (traced, traced_runs) = measure(&ks, seconds, &tracer, &mut out);
        out.trace_overhead(&traced);
        layer_metrics(&ks, &traced_runs, &tracer, &mut out)?;
    }
    Ok(out)
}

/// A short traced flow for runs whose own workload does not reach the
/// flow layers: one cold flow of `jacobi` on one small input, plus its
/// layer probes.
pub fn tour(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let ks = seeded_kernels(seed, &["jacobi"], (16, 16), 1)?;
    let tracer = Tracer::new(true);
    let (_, runs) = measure(&ks, 0.0, &tracer, out);
    layer_metrics(&ks, &runs, &tracer, out)
}
