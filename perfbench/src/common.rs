//! What every workload shares: arguments, seeded kernel inputs, the
//! operation log behind the end-to-end metrics, repeated set-up and the
//! run outcome.

use std::collections::BTreeMap;
use std::time::Instant;

use isl_hls::algorithms::{self, Algorithm};
use isl_hls::prelude::{BorderMode, Frame, FrameSet, StencilPattern};
use isl_hls::sim::synthetic;

use crate::mix::derive;
use crate::stats;
use crate::trace::Span;

/// Each workload sets up at least this many times per run, and more while
/// the set-ups take under [`SETUP_BUDGET_S`] in total (up to
/// [`SETUP_MAX_REPEATS`]); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 25;

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// How long each measured region runs: a traced run measures twice,
    /// untraced then traced, half the time each.
    pub fn measured_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The built-in kernel named `name`.
pub fn algorithm(name: &str) -> Result<Algorithm, String> {
    algorithms::all()
        .into_iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("built-in kernel {name} missing"))
}

/// A kernel through the frontend and symbolic execution: its pattern, the
/// border mode and iteration count its pragmas ask for.
pub fn compile(algo: &Algorithm) -> Result<(StencilPattern, BorderMode, u32), String> {
    let (pattern, info) = algo.compile().map_err(|e| format!("{}: {e}", algo.name))?;
    let border = info
        .border
        .as_deref()
        .and_then(BorderMode::parse)
        .unwrap_or_default();
    Ok((pattern, border, info.iterations.unwrap_or(1)))
}

/// A built-in kernel through the frontend, with seeded input frame sets.
pub struct Kernel {
    pub algo: Algorithm,
    pub pattern: StencilPattern,
    pub border: BorderMode,
    pub inputs: Vec<FrameSet>,
}

/// The kernels named in `names`, each with `inputs` frame sets of
/// `width` × `height` noise. Field `i` of set `n` of the `k`-th kernel is
/// seeded by `derive(seed, k·256 + n·16 + i)`. Game of Life gets binary
/// cells, the states it is defined on.
pub fn seeded_kernels(
    seed: u64,
    names: &[&str],
    (width, height): (usize, usize),
    inputs: usize,
) -> Result<Vec<Kernel>, String> {
    let mut kernels = Vec::new();
    for (k, name) in names.iter().enumerate() {
        let algo = algorithm(name)?;
        let (pattern, border, _) = compile(&algo)?;
        let inputs = (0..inputs)
            .map(|n| {
                let frames = (0..pattern.fields().len())
                    .map(|i| {
                        let noise = synthetic::noise(
                            width,
                            height,
                            derive(seed, (k * 256 + n * 16 + i) as u64),
                        );
                        if algo.name == "life" {
                            Frame::from_fn(width, height, |x, y| {
                                if noise.get(x, y) < 0.5 {
                                    0.0
                                } else {
                                    1.0
                                }
                            })
                        } else {
                            noise
                        }
                    })
                    .collect();
                FrameSet::from_frames(frames).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        kernels.push(Kernel {
            algo,
            pattern,
            border,
            inputs,
        });
    }
    Ok(kernels)
}

/// FNV-1a folded over 64-bit words: a fingerprint of exact output bits.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Completed operations of the measured region, by kind. A kind is one
/// fixed input of the workload (a kernel on one input set, a frame of one
/// mode, a request stream), so a slower run takes fewer samples of each
/// kind but keeps the same mix.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Latency samples in seconds, per operation kind.
    pub latencies: BTreeMap<String, Vec<f64>>,
    /// Work items completed (the throughput numerator without
    /// [`OpLog::items_per_op`]).
    pub items: f64,
    /// Wall time of the measured region, seconds.
    pub elapsed: f64,
    /// Work items one operation of each kind completes, for a workload
    /// that runs one operation at a time. When set, throughput is taken
    /// over per-kind medians (see [`OpLog::throughput`]).
    pub items_per_op: BTreeMap<String, f64>,
}

impl OpLog {
    pub fn push(&mut self, kind: &str, secs: f64) {
        self.latencies
            .entry(kind.to_string())
            .or_default()
            .push(secs);
    }

    pub fn ops(&self) -> usize {
        self.latencies.values().map(Vec::len).sum()
    }

    /// Per-kind median in milliseconds, geometric-meaned over kinds.
    pub fn median_ms(&self) -> f64 {
        let per_kind: Vec<f64> = self
            .latencies
            .values()
            .filter_map(|xs| stats::median(xs))
            .map(|s| s * 1e3)
            .collect();
        stats::geomean(&per_kind).unwrap_or(f64::NAN)
    }

    /// The `p`-th percentile of every sample pooled, in milliseconds. A
    /// kind has too few samples in one run for its own tail.
    pub fn pooled_ms(&self, p: f64) -> f64 {
        let all: Vec<f64> = self.latencies.values().flatten().copied().collect();
        stats::percentile(&all, p).map_or(f64::NAN, |s| s * 1e3)
    }

    /// Work items per second. Without [`OpLog::items_per_op`], over the
    /// whole measured region. With it, one operation of every kind at its
    /// median time: `Σ items / Σ median seconds` over the kinds, so a stall
    /// of the machine during a few operations does not move it.
    pub fn throughput(&self) -> f64 {
        if self.items_per_op.is_empty() {
            return self.items / self.elapsed;
        }
        let (items, secs) = self
            .items_per_op
            .iter()
            .filter_map(|(kind, items)| {
                let median = stats::median(self.latencies.get(kind)?)?;
                Some((*items, median))
            })
            .fold((0.0, 0.0), |(i, s), (items, median)| (i + items, s + median));
        items / secs
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (failed = returned an error or
    /// failed an output check).
    pub attempted: u64,
    pub failed: u64,
    /// Why an operation returned an error, an output check failed or the
    /// determinism guard fired (empty on a correct run).
    pub errors: Vec<String>,
    /// Documented refusals: the program declined a request it may decline
    /// (no certifiable format meets the budget). These count as failed but
    /// leave the run correct.
    pub refusals: Vec<String>,
    pub setup_s: f64,
    /// The untraced measured region.
    pub log: OpLog,
    /// The workload's own figures (named as in the benchmark's README),
    /// printed before the result line.
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer metrics a layer tour filled in, not the workload itself.
    pub toured: Vec<&'static str>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record an operation that returned an error or an output that failed
    /// its check: the run is not correct.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// Record a documented refusal of the program.
    pub fn refused(&mut self, what: String) {
        self.failed += 1;
        self.refusals.push(what);
    }

    /// Record a determinism-guard result: `a` and `b` are the same count
    /// metrics computed twice.
    pub fn guard<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: &T, b: &T) {
        if a != b {
            self.errors
                .push(format!("determinism guard: {what}: {a:?} vs {b:?}"));
        }
    }

    /// Record `trace_overhead_pct` from the untraced and traced logs of the
    /// same operations.
    pub fn trace_overhead(&mut self, traced: &OpLog) {
        let (plain, with) = (self.log.median_ms(), traced.median_ms());
        self.layers
            .insert("trace_overhead_pct", 100.0 * (with / plain - 1.0));
    }
}

/// Run `setup` [`SETUP_REPEATS`] times or more (see there), keep the last
/// result and return it with the median set-up time. Each set-up also
/// returns the count metrics it computed; they must agree across repeats
/// (the determinism guard for set-up work).
pub fn repeated_setup<T>(
    outcome: &mut Outcome,
    mut setup: impl FnMut() -> Result<(T, Vec<u64>), String>,
) -> Result<T, String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept: Option<(T, Vec<u64>)> = None;
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Release the previous set-up before timing the next one.
        let previous_counts = kept.take().map(|(value, counts)| {
            drop(value);
            counts
        });
        let t0 = Instant::now();
        let (value, counts) = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = previous_counts {
            outcome.guard("set-up counts", &previous, &counts);
        }
        kept = Some((value, counts));
    }
    outcome.setup_s = stats::median(&times).expect("at least one set-up");
    Ok(kept.expect("at least one set-up").0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_log_summaries() {
        let mut log = OpLog::default();
        for s in [0.001, 0.002, 0.003] {
            log.push("a", s);
        }
        for s in [0.004, 0.004, 0.004, 0.010] {
            log.push("b", s);
        }
        log.items = 7.0;
        log.elapsed = 2.0;
        assert_eq!(log.ops(), 7);
        assert!((log.throughput() - 3.5).abs() < 1e-12);
        // medians 2 ms and 4 ms → geomean sqrt(8) ms
        assert!((log.median_ms() - 8f64.sqrt()).abs() < 1e-9);
        // pooled samples 1, 2, 3, 4, 4, 4, 10 ms: the maximum and the median
        assert!((log.pooled_ms(100.0) - 10.0).abs() < 1e-9);
        assert!((log.pooled_ms(50.0) - 4.0).abs() < 1e-9);

        // Per-kind medians: a's 2 ms for 10 items and b's 4 ms for 20
        // items, whatever the slow outlier of b.
        log.items_per_op.insert("a".into(), 10.0);
        log.items_per_op.insert("b".into(), 20.0);
        assert!((log.throughput() - 30.0 / 0.006).abs() < 1e-6);
    }

    #[test]
    fn repeated_setup_takes_the_median_and_guards_counts() {
        let mut outcome = Outcome::default();
        let mut calls = 0;
        let kept = repeated_setup(&mut outcome, || {
            calls += 1;
            Ok((calls, vec![7]))
        })
        .unwrap();
        // Instant set-ups repeat up to the cap; the last one is kept.
        assert_eq!(kept, SETUP_MAX_REPEATS);
        assert!(outcome.setup_s >= 0.0);
        assert!(outcome.errors.is_empty());

        let mut calls: usize = 0;
        let mut outcome = Outcome::default();
        repeated_setup(&mut outcome, || {
            calls += 1;
            Ok(((), vec![calls as u64]))
        })
        .unwrap();
        assert_eq!(outcome.errors.len(), calls - 1);
    }

    #[test]
    fn seeded_kernels_are_reproducible_and_distinct() {
        let a = seeded_kernels(9, &["jacobi", "life"], (8, 6), 2).unwrap();
        let b = seeded_kernels(9, &["jacobi", "life"], (8, 6), 2).unwrap();
        let c = seeded_kernels(10, &["jacobi", "life"], (8, 6), 2).unwrap();
        let bits = |k: &Kernel, n: usize| {
            fnv1a(k.inputs[n].frame(0).as_slice().iter().map(|v| v.to_bits()))
        };
        assert_eq!(bits(&a[0], 0), bits(&b[0], 0));
        assert_ne!(bits(&a[0], 0), bits(&a[0], 1));
        assert_ne!(bits(&a[0], 0), bits(&c[0], 0));
        let life = a[1].inputs[0].frame(0);
        assert_eq!((life.width(), life.height()), (8, 6));
        assert!(life.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn fnv1a_matches_the_reference_constants() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        // One byte through FNV-1a 64: "a" → af63dc4c8601ec8c.
        assert_eq!(fnv1a([u64::from(b'a')]), 0xaf63_dc4c_8601_ec8c);
    }
}
