//! Quickstart: from a C stencil kernel to Pareto-optimal FPGA
//! architectures, through the staged session API
//! (`Spec → Decomposed → Estimated → Explored → Synthesized`).
//!
//! Run with `cargo run -p isl-examples --bin quickstart`.

#![forbid(unsafe_code)]

use isl_hls::prelude::*;

const KERNEL: &str = r#"
#pragma isl iterations 10
#pragma isl border clamp
void blur(const float in[H][W], float out[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            out[y][x] = (1.0f * in[y-1][x-1] + 2.0f * in[y-1][x] + 1.0f * in[y-1][x+1]
                       + 2.0f * in[y][x-1]   + 4.0f * in[y][x]   + 2.0f * in[y][x+1]
                       + 1.0f * in[y+1][x-1] + 2.0f * in[y+1][x] + 1.0f * in[y+1][x+1]) / 16.0f;
        }
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stage 1 (Spec): dependency analysis by symbolic execution. The
    // session owns the artifact store every later stage reads and writes —
    // here backed by a persistent file, so artifacts outlive the process.
    let store = std::env::temp_dir().join("isl-quickstart.islstore");
    std::fs::remove_file(&store).ok();
    let session = IslSession::from_source(KERNEL)?.with_persistent_store(&store)?;
    println!("== extracted stencil pattern ==");
    println!("{}", session.pattern());
    println!("iterations per frame: {}", session.iterations());

    // Stage 2 (Decomposed): one architecture shape, its cones Arc-shared
    // out of the store.
    let decomposed = session.decompose(Window::square(4), 2)?;
    let cone = decomposed.main_cone();
    println!("\n== cone {} (levels {:?}) ==", cone.signature(), decomposed.levels());
    println!("  inputs (window + halo): {}", cone.inputs().len());
    println!("  outputs:                {}", cone.outputs().len());
    println!("  registers after reuse:  {}", cone.registers());
    println!("  ops without reuse:      {:.0}", cone.tree_op_count());
    println!(
        "  reuse factor:           {:.1}x",
        cone.tree_op_count() / cone.registers() as f64
    );

    // Stage 3 (Estimated): α calibration + cone facts for the space — the
    // expensive half, stored and reusable across workloads.
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(1..=6, 1..=5, 8);
    let cold_start = std::time::Instant::now();
    let estimated = session.estimate(&device, &space)?;
    let cold_estimate = cold_start.elapsed();
    println!(
        "\n(alpha calibration used {} syntheses in total)",
        estimated.syntheses()
    );

    // Stage 4 (Explored): enumerate 1024x768 frames against the stored
    // calibration — pure arithmetic from here.
    let explored = estimated.explore(session.workload(1024, 768))?;
    println!(
        "== design space: {} feasible points, {} on the Pareto front ==",
        explored.points().len(),
        explored.pareto().len()
    );
    println!("\n  window  depth  cores |      LUTs  time/frame        fps");
    println!("  --------------------------------------------------------");
    for p in explored.pareto() {
        println!(
            "  {:>6}  {:>5}  {:>5} | {:>9.0}  {:>9.2} ms  {:>8.1}",
            p.arch.window.to_string(),
            p.arch.depth,
            p.arch.cores,
            p.estimated_luts,
            p.time_per_frame_s * 1e3,
            p.fps
        );
    }

    // Stage 5 (Synthesized): VHDL for the fastest architecture.
    let synthesized = explored.synthesize_fastest()?;
    let bundle = synthesized.bundle();
    println!(
        "\n== VHDL for the fastest point: entity `{}`, {} pipeline stages ==",
        bundle.entity_name, bundle.pipeline_stages
    );
    for line in bundle.entity.lines().take(12) {
        println!("  {line}");
    }
    println!("  ...");

    // Stage 6 (FormatSearched): shrink the datapath word under an error
    // budget. Every probe is a light error measurement; only the chosen
    // format is certified in full. `isl-analyze`, an abstract interpreter
    // over the compiled cone bytecode, checks each escalation width in the
    // raw fixed-point word domain for saturation on the measured value
    // range. A bright three-digit input drives the blur's 16x
    // pre-normalisation sum over the early widths' rails, so those probes
    // are *statically doomed*; each that misses the budget is counted
    // under `analysis pruned probes` below.
    let search_session = IslSession::from_source(KERNEL)?;
    let bright = FrameSet::from_frames(vec![Frame::from_fn(20, 14, |x, y| {
        100.0 + ((x * 7 + y * 13) % 100) as f64
    })])?;
    let arch = Architecture::new(Window::square(4), 2, 1);
    let searched =
        search_session.search_format(&device, &bright, arch, ErrorBudget::max_abs(1e-3))?;
    let search_stats = search_session.store_stats();
    println!(
        "\n== format search on bright input: {} after {} probes ({} flagged by saturation proofs) ==",
        searched.format(),
        searched.probes().len(),
        search_stats.analysis_pruned_probes,
    );
    // The same analyzer hands out the positive certificate: at the chosen
    // format, no instruction of the cone program can clamp for any input
    // in the bright band — `first_overflow() == None` is a proof over
    // *all* such inputs, not a sampled observation.
    let fmt = searched.format();
    let gate_cone = search_session.cone(arch.window, arch.depth)?;
    let cone_program = isl_hls::sim::CompiledCone::compile_with(&gate_cone, &[], false);
    let proof = isl_hls::analyze::Analysis::of_cone(
        &cone_program,
        fmt,
        isl_hls::analyze::WordRange::new(fmt.quantize(-200.0), fmt.quantize(200.0)),
    )?;
    println!(
        "   saturation-freedom certificate at {fmt}: first possible overflow = {:?}",
        proof.first_overflow(),
    );

    // The store makes repeats free: a second explore of the same inputs
    // rebuilds nothing (the session serves every artifact from the store).
    let before = session.store_stats();
    let again = session.explore(&device, session.workload(1024, 768), &space)?;
    let after = session.store_stats();
    assert_eq!(explored.points(), again.points());
    println!(
        "\n== warm re-explore: {} store hits, {} new builds (cold pass built {}) ==",
        after.total_hits() - before.total_hits(),
        after.total_misses() - before.total_misses(),
        before.total_misses(),
    );

    // Per-cache breakdown of the whole run (`StoreStats` is `Display`).
    println!("\n== artifact store, per cache ==\n{after}");

    // The disk tier makes *restarts* nearly free too: flush, then open a
    // brand-new session on the same file — a stand-in for a second
    // process — and replay the expensive calibration from disk.
    let flushed = session.checkpoint()?;
    let warm_start = std::time::Instant::now();
    let second = IslSession::from_source(KERNEL)?.with_persistent_store(&store)?;
    let replayed = second.explore(&device, second.workload(1024, 768), &space)?;
    let warm_estimate = warm_start.elapsed();
    assert_eq!(explored.points(), replayed.points());
    let disk = second.store_stats();
    println!("\n== cold process vs warm disk ==");
    println!("  cold calibration:        {:>8.1} ms", cold_estimate.as_secs_f64() * 1e3);
    println!(
        "  warm-disk replay:        {:>8.1} ms  ({:.0}x, {} bytes on disk, {flushed} flushed)",
        warm_estimate.as_secs_f64() * 1e3,
        cold_estimate.as_secs_f64() / warm_estimate.as_secs_f64().max(1e-9),
        disk.bytes_on_disk,
    );
    println!(
        "  second process built     {} artifacts (disk hits {}, corrupt skips {})",
        disk.total_misses(),
        disk.disk_hits,
        disk.load_skipped_corrupt,
    );
    std::fs::remove_file(&store).ok();
    Ok(())
}
