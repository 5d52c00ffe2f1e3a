//! Per-layer probes: the calls one cold flow makes into each layer,
//! re-issued by the benchmark on the workload's own inputs, each inside a
//! span. The program has no spans of its own, so this is how a traced run
//! splits a stage's time over the layers underneath it.

use isl_hls::algorithms::Algorithm;
use isl_hls::analyze::{verify_cone, Analysis, WordRange};
use isl_hls::cosim::{quantizer_of, CoSimulator};
use isl_hls::prelude::*;
use isl_hls::sim::{CompiledCone, QuantizedCone};
use isl_hls::vhdl::{
    generate_cone, generate_testbench, generate_wrapper, verify_vectors, VhdlOptions,
};

use crate::common::compile;
use crate::trace::{SpanId, Tracer};

/// Every span name a flow-layer probe records (each becomes the per-layer
/// metric `<name>_ms`).
pub const FLOW_LAYER_SPANS: [&str; 16] = [
    "symexec.compile",
    "ir.cone_build",
    "sim.compile",
    "sim.tiled_q",
    "sim.tiled_q_ref",
    "sim.cone_dag_q",
    "sim.cone_dag_q_ref",
    "dse.calibrate",
    "dse.enumerate",
    "fpga.synth",
    "cosim.golden_vectors",
    "cosim.cone_levels",
    "vhdl.verify_vectors",
    "vhdl.codegen",
    "analyze.of_cone",
    "analyze.verify_cone",
];

/// The exploration every flow runs (the paper's window × depth × cores
/// space, trimmed to small windows for small frames).
pub fn design_space() -> DesignSpace {
    DesignSpace::new(1..=6, 1..=4, 8)
}

/// One flow input the probes re-issue: a kernel, its frames, and the
/// architecture its flow certified.
pub struct Case<'a> {
    pub algo: &'a Algorithm,
    pub init: &'a FrameSet,
    pub arch: Architecture,
}

/// Counts the flow-layer probes produce for one case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Instructions of the quantised cone program at the certified shape.
    pub cone_instrs: u64,
    /// Design points the enumeration produced.
    pub dse_points: u64,
    /// Response words the vector check re-derived.
    pub vector_words: u64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// The quantised cone program length of `case` (computed outside any
/// span; the determinism guard's `sim.cone_instrs`).
pub fn cone_instrs(case: &Case<'_>) -> Result<u64, String> {
    let (pattern, _, _) = compile(case.algo)?;
    let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
    let cone =
        Cone::build(&pattern, case.arch.window, case.arch.depth).map_err(|e| err("cone", e))?;
    Ok(QuantizedCone::compile(&cone, &params, FixedFormat::default()).len() as u64)
}

/// Re-issue every layer call of one cold flow on `case`, each in a span
/// of kind `algo.name` under `parent`.
pub fn probe(
    tracer: &Tracer,
    case: &Case<'_>,
    parent: Option<SpanId>,
) -> Result<LayerCounts, String> {
    let kind = case.algo.name;
    let fmt = FixedFormat::default();
    let Architecture {
        window,
        depth,
        cores,
    } = case.arch;
    let (pattern, border, iterations) =
        tracer.time("symexec.compile", kind, parent, || compile(case.algo))?;
    let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
    let mut counts = LayerCounts::default();

    let cone = tracer
        .time("ir.cone_build", kind, parent, || {
            Cone::build(&pattern, window, depth)
        })
        .map_err(|e| err("cone", e))?;
    let program = tracer.time("sim.compile", kind, parent, || {
        QuantizedCone::compile(&cone, &params, fmt)
    });
    counts.cone_instrs = program.len() as u64;

    // The four engine runs one certification performs.
    let sim = Simulator::new(&pattern)
        .map_err(|e| err("simulator", e))?
        .with_border(border);
    let q = quantizer_of(fmt);
    let tiled = tracer.time("sim.tiled_q", kind, parent, || {
        sim.run_tiled_quantized(case.init, iterations, window, depth, q)
    });
    let tiled_ref = tracer.time("sim.tiled_q_ref", kind, parent, || {
        sim.run_tiled_quantized_reference(case.init, iterations, window, depth, q)
    });
    let dag = tracer.time("sim.cone_dag_q", kind, parent, || {
        sim.run_cone_dag_quantized(case.init, iterations, window, depth, q)
    });
    let dag_ref = tracer.time("sim.cone_dag_q_ref", kind, parent, || {
        sim.run_cone_dag_quantized_reference(case.init, iterations, window, depth, q)
    });
    let (tiled, tiled_ref) = (
        tiled.map_err(|e| err("tiled", e))?,
        tiled_ref.map_err(|e| err("tiled ref", e))?,
    );
    let (dag, dag_ref) = (
        dag.map_err(|e| err("dag", e))?,
        dag_ref.map_err(|e| err("dag ref", e))?,
    );
    if tiled != tiled_ref || dag != dag_ref {
        return Err(format!("{kind}: quantised engine and reference diverged"));
    }

    // Estimation and exploration.
    let device = Device::virtex6_xc6vlx760();
    let space = design_space();
    let explorer = isl_hls::dse::Explorer::new(&device);
    let calibration = tracer
        .time("dse.calibrate", kind, parent, || {
            explorer.calibrate(&pattern, iterations, &space)
        })
        .map_err(|e| err("calibrate", e))?;
    let (w, h) = (
        case.init.frame(0).width() as u32,
        case.init.frame(0).height() as u32,
    );
    let exploration = tracer
        .time("dse.enumerate", kind, parent, || {
            explorer.enumerate(
                &pattern,
                Workload::image(w, h, iterations),
                &space,
                &calibration,
            )
        })
        .map_err(|e| err("enumerate", e))?;
    counts.dse_points = exploration.points().len() as u64;
    tracer
        .time("fpga.synth", kind, parent, || {
            Synthesizer::new(&device).synthesize(&pattern, window, depth, cores)
        })
        .map_err(|e| err("synth", e))?;

    // Bit-true co-simulation.
    let cosim = CoSimulator::new(&pattern, fmt)
        .map_err(|e| err("cosim", e))?
        .with_border(border);
    let files = tracer
        .time("cosim.golden_vectors", kind, parent, || {
            cosim.golden_vectors(case.init, iterations, window, depth)
        })
        .map_err(|e| err("golden vectors", e))?;
    tracer
        .time("cosim.cone_levels", kind, parent, || {
            cosim.run_cone_levels(case.init, iterations, window, depth)
        })
        .map_err(|e| err("cone levels", e))?;

    // VHDL: vector re-derivation through the independent interpreter, and
    // code generation for the main cone.
    let file_cones = files
        .iter()
        .map(|f| Cone::build(&pattern, f.window, f.depth).map_err(|e| err("cone", e)))
        .collect::<Result<Vec<_>, _>>()?;
    let span = tracer.span("vhdl.verify_vectors", kind, parent);
    for (file, file_cone) in files.iter().zip(&file_cones) {
        let report = verify_vectors(file_cone, fmt, file).map_err(|e| err("verify vectors", e))?;
        counts.vector_words += report.words as u64;
    }
    span.end();
    tracer.time("vhdl.codegen", kind, parent, || {
        let module = generate_cone(&cone, &VhdlOptions { format: fmt });
        let testbench = generate_testbench(&cone, &module, fmt);
        let wrapper = generate_wrapper(&cone, &module);
        std::hint::black_box((module, testbench, wrapper));
    });

    // Static analysis of the fold-free cone program.
    let compiled = CompiledCone::compile_with(&cone, &params, false);
    tracer
        .time("analyze.of_cone", kind, parent, || {
            Analysis::of_cone(&compiled, fmt, WordRange::full(fmt))
        })
        .map_err(|e| err("analyze", e))?;
    tracer
        .time("analyze.verify_cone", kind, parent, || {
            verify_cone(&compiled)
        })
        .map_err(|e| err("verify cone", e))?;
    Ok(counts)
}
