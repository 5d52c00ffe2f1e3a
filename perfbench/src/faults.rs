//! The fault-campaign layer group, measured by a tour in every traced run:
//! the exhaustive LSB stuck-at and bit-flip fault campaign of the
//! co-simulator at window 8, depth 2, on small seeded frames, for igf,
//! jacobi and heat. No workload of its own times it end to end: the
//! campaign is the co-simulator's scalar VM, an interpreter, and its speed
//! followed the shared host's phases far more than the other workloads'
//! (see the README's Steadiness section).

use isl_hls::cosim::{CoSimulator, FaultCoverageReport, MaskSchedule};
use isl_hls::prelude::*;

use crate::common::{seeded_kernels, Kernel, Outcome};
use crate::trace::{self, Tracer};

/// Side of the seeded square frames.
const SIZE: usize = 8;
const ITERS: u32 = 2;
const WINDOW: u32 = 8;
const DEPTH: u32 = 2;
const KERNELS: [&str; 3] = ["igf", "jacobi", "heat"];

fn cosim(k: &Kernel) -> Result<CoSimulator<'_>, String> {
    Ok(CoSimulator::new(&k.pattern, FixedFormat::default())
        .map_err(|e| format!("{}: {e}", k.algo.name))?
        .with_border(k.border))
}

fn campaign(k: &Kernel) -> Result<FaultCoverageReport, String> {
    cosim(k)?
        .fault_campaign(
            &k.inputs[0],
            ITERS,
            Window::square(WINDOW),
            DEPTH,
            &MaskSchedule::lsb(),
        )
        .map_err(|e| format!("{}: campaign: {e}", k.algo.name))
}

/// `(faults, detected, predicted silent)` of one campaign.
fn counts(r: &FaultCoverageReport) -> [u64; 3] {
    [
        r.faults as u64,
        r.detected as u64,
        r.predicted_silent as u64,
    ]
}

/// Static silence predictions may only name faults that really were
/// masked or silent.
fn check_report(r: &FaultCoverageReport, out: &mut Outcome) {
    if r.predicted_silent > r.masked + r.silent {
        out.fail(format!(
            "{}: {} faults predicted silent, only {} masked or silent",
            r.entity,
            r.predicted_silent,
            r.masked + r.silent
        ));
    }
}

/// Campaign metrics: every kernel's campaign inside a span, then once more
/// untraced, whose counts must repeat (the determinism guard), and one
/// fault-free replay per kernel.
pub fn tour(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let ks = seeded_kernels(seed, &KERNELS, (SIZE, SIZE), 1)?;
    let tracer = Tracer::new(true);
    let mut totals = [0u64; 3];
    for k in &ks {
        out.attempted += 2;
        let report = tracer.time("cosim.campaign", k.algo.name, None, || campaign(k))?;
        check_report(&report, out);
        let again = campaign(k)?;
        out.guard(
            &format!("{} campaign counts", report.entity),
            &counts(&report),
            &counts(&again),
        );
        for (total, n) in totals.iter_mut().zip(counts(&report)) {
            *total += n;
        }
        let sim = cosim(k)?;
        tracer
            .time("cosim.replay", k.algo.name, None, || {
                sim.run_cone_levels(&k.inputs[0], ITERS, Window::square(WINDOW), DEPTH)
            })
            .map_err(|e| format!("{}: replay: {e}", k.algo.name))?;
    }
    let spans = tracer.spans();
    for name in ["cosim.campaign", "cosim.replay"] {
        let ms = trace::layer_ms(&spans, name).ok_or_else(|| format!("no {name} span"))?;
        out.layers.insert(crate::metric_ms(name), ms);
    }
    out.layers.insert("cosim.faults", totals[0] as f64);
    out.layers.insert("cosim.faults_detected", totals[1] as f64);
    out.layers.insert("cosim.predicted_silent", totals[2] as f64);
    out.spans.extend(spans);
    Ok(())
}
