//! `serve_mixed`: an in-process `isl-serve` server with its deployed
//! defaults (5 ms admission window, one worker per core) and a state
//! directory, driven by closed-loop clients over a seeded mix of about
//! 90 % store-served reads and 10 % cold-certify writes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use isl_hls::isl_telemetry::json::Value;
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_serve::{Client, Op, Request, ServeConfig, Server, ServerHandle};

use crate::common::{algorithm, repeated_setup, Args, OpLog, Outcome};
use crate::layers::{self, Case};
use crate::mix::{self, client_sequence, hot_keys, Rng, ServeOp, MAX_CLIENTS, SERVE_ALGOS};
use crate::stats;
use crate::trace::{self, Tracer};

pub const WHY: &str = "the served path: 90% store-served reads through protocol and admission batching, 10% cold-certify writes that checkpoint and block the dispatcher";

/// Closed-loop client connections (one per core of the reference box).
const CLIENTS: u64 = MAX_CLIENTS;
/// Requests generated per client: far more than one measured region sends.
const SEQUENCE: usize = 1 << 16;
/// Served certificates re-derived in process after each run.
const SAMPLE: usize = 3;

/// The wire request of one mix operation (frame size, window, depth and
/// cores are the protocol defaults).
fn request(op: ServeOp) -> Request {
    match op {
        ServeOp::ReadExplore { algo } => Request {
            op: Op::Explore,
            algo: algo.into(),
            ..Request::default()
        },
        ServeOp::ReadCertify { algo, seed } | ServeOp::Write { algo, seed } => Request {
            op: Op::Certify,
            algo: algo.into(),
            seed,
            ..Request::default()
        },
    }
}

/// The init frames the server derives from a request, rebuilt here for
/// the in-process comparison (one noise frame per field, seeded by the
/// request seed and field index).
fn init_frames(session: &IslSession, req: &Request) -> Result<FrameSet, String> {
    FrameSet::from_frames(
        (0..session.pattern().fields().len())
            .map(|i| {
                synthetic::noise(
                    req.width as usize,
                    req.height as usize,
                    req.seed ^ ((i as u64) << 32),
                )
            })
            .collect(),
    )
    .map_err(|e| e.to_string())
}

fn arch_of(req: &Request) -> Architecture {
    Architecture::new(Window::square(req.window), req.depth, req.cores)
}

/// A running service over a fresh state directory, its hot keys warmed.
struct Service {
    handle: ServerHandle,
    dir: PathBuf,
    /// Artifacts the warm-up built, over every served algorithm.
    warm_build_misses: u64,
    /// Persistent store bytes after the warm-up.
    warm_bytes_on_disk: u64,
}

/// Start a service on an empty state directory and warm `keys` through
/// the wire (set-up: store open and warm-up count toward `setup_s`).
fn start(dir: &Path, keys: &[ServeOp]) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let handle = Server::start(ServeConfig {
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for key in keys {
        client
            .request(request(*key))
            .map_err(|e| format!("warm {key:?}: {e}"))?;
    }
    let (mut misses, mut bytes) = (0, 0);
    for algo in SERVE_ALGOS {
        let stats = client
            .stats(algo)
            .map_err(|e| format!("stats {algo}: {e}"))?;
        misses += stats.build_misses();
        bytes += stats.bytes_on_disk;
    }
    Ok(Service {
        handle,
        dir: dir.to_path_buf(),
        warm_build_misses: misses,
        warm_bytes_on_disk: bytes,
    })
}

impl Service {
    fn stop(self) {
        self.handle.shutdown();
    }
}

/// One answered (or failed) request.
struct Reply {
    op: ServeOp,
    secs: f64,
    result: Result<Value, String>,
}

/// Closed-loop clients, each sending its next request of the seeded mix
/// of run half `half` once the previous reply is in, until `seconds` have
/// passed.
fn drive(
    service: &Service,
    seed: u64,
    half: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<(Vec<Reply>, f64), String> {
    let addr = service.handle.addr();
    let t0 = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Reply>, String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut replies = Vec::new();
                    let sequence = client_sequence(seed, half, c, SEQUENCE);
                    for (i, op) in sequence.into_iter().enumerate() {
                        if t0.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let kind = if op.is_write() { "write" } else { "read" };
                        let id = (c << 32) | i as u64;
                        let span = tracer.request_span("serve.request", kind, None, id);
                        let t = Instant::now();
                        let result = client.request(request(op)).map_err(|e| e.to_string());
                        let secs = t.elapsed().as_secs_f64();
                        span.end();
                        replies.push(Reply { op, secs, result });
                    }
                    Ok(replies)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((
        per_client.into_iter().flatten().collect(),
        t0.elapsed().as_secs_f64(),
    ))
}

/// Every reply counts, failed or not: a failed reply already makes the run
/// incorrect, and leaving it out would flatter the figures.
fn log_of(replies: &[Reply], elapsed: f64) -> OpLog {
    let mut log = OpLog::default();
    for r in replies {
        log.push("request", r.secs);
        log.items += 1.0;
    }
    log.elapsed = elapsed;
    log
}

/// The served certificate `v` against an in-process certify of `req`.
fn same_certificate(req: &Request, v: &Value) -> Result<(), String> {
    let session = IslSession::from_algorithm(&algorithm(&req.algo)?).map_err(|e| e.to_string())?;
    let init = init_frames(&session, req)?;
    let certified = session
        .certify(&init, arch_of(req))
        .map_err(|e| e.to_string())?;
    let c = certified.certificate();
    let expect: [(&str, f64); 10] = [
        ("window", f64::from(c.arch.window.w)),
        ("depth", f64::from(c.arch.depth)),
        ("cores", f64::from(c.arch.cores)),
        ("format_width", f64::from(c.format.width)),
        ("format_frac", f64::from(c.format.frac)),
        ("quantized_elements", c.quantized_elements as f64),
        ("vector_records", c.vector_records as f64),
        ("vector_words", c.vector_words as f64),
        ("max_fixed_error", c.max_fixed_error),
        ("max_quant_error", c.max_quant_error),
    ];
    for (key, want) in expect {
        let got = v.get(key).and_then(Value::as_num);
        if got.map(f64::to_bits) != Some(want.to_bits()) {
            return Err(format!(
                "{} seed {}: served {key} {got:?}, in process {want}",
                req.algo, req.seed
            ));
        }
    }
    Ok(())
}

/// Every reply must be ok (the protocol's error text cannot tell a
/// refusal from a mismatch, so any error fails the run); a seeded sample
/// of served certificates (at least one write when there was one) must
/// equal in-process certifies.
fn check_replies(replies: &[Reply], seed: u64, out: &mut Outcome) {
    for r in replies {
        if let Err(e) = &r.result {
            out.fail(format!("{:?}: {e}", r.op));
        }
    }
    let certifies: Vec<&Reply> = replies
        .iter()
        .filter(|r| r.result.is_ok() && !matches!(r.op, ServeOp::ReadExplore { .. }))
        .collect();
    let writes: Vec<&&Reply> = certifies.iter().filter(|r| r.op.is_write()).collect();
    let mut rng = Rng::new(mix::derive(seed, 0xC4EC));
    let mut sample: Vec<&Reply> = Vec::new();
    if !writes.is_empty() {
        sample.push(writes[rng.below(writes.len())]);
    }
    while sample.len() < SAMPLE && !certifies.is_empty() {
        sample.push(certifies[rng.below(certifies.len())]);
    }
    for r in sample {
        if let (req, Ok(v)) = (request(r.op), &r.result) {
            if let Err(e) = same_certificate(&req, v) {
                out.fail(e);
            }
        }
    }
}

/// Persist-layer probes on a stopped service's state files: open (load)
/// each algorithm's store, certify one fresh request, checkpoint it.
fn probe_persist(dir: &Path, algos: &[&'static str], tracer: &Tracer) -> Result<(), String> {
    for (i, algo) in algos.iter().enumerate() {
        let path = dir.join(format!("{algo}.islstore"));
        let definition = algorithm(algo)?;
        let session = tracer
            .time("persist.load", algo, None, || {
                IslSession::from_algorithm(&definition).and_then(|s| s.with_persistent_store(&path))
            })
            .map_err(|e| format!("{algo}: open store: {e}"))?;
        let req = request(ServeOp::Write {
            algo,
            seed: (1 << 51) | i as u64,
        });
        session
            .certify(&init_frames(&session, &req)?, arch_of(&req))
            .map_err(|e| format!("{algo}: certify: {e}"))?;
        tracer
            .time("persist.checkpoint", algo, None, || session.checkpoint())
            .map_err(|e| format!("{algo}: checkpoint: {e}"))?;
    }
    Ok(())
}

/// Per-layer serve and persist metrics of a traced region.
fn layer_metrics(
    service: Service,
    replies: &[Reply],
    algos: &[&'static str],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = Client::connect(service.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for _ in 0..50 {
        tracer
            .time("serve.ping", "", None, || client.ping())
            .map_err(|e| format!("ping: {e}"))?;
    }
    drop(client);
    let dir = service.dir.clone();
    out.layers
        .insert("serve.build_misses", service.warm_build_misses as f64);
    out.layers
        .insert("persist.bytes_on_disk", service.warm_bytes_on_disk as f64);
    service.stop();
    probe_persist(&dir, algos, tracer)?;
    let _ = std::fs::remove_dir_all(&dir);

    let ok_secs = |write: bool| -> Vec<f64> {
        replies
            .iter()
            .filter(|r| r.result.is_ok() && r.op.is_write() == write)
            .map(|r| r.secs * 1e3)
            .collect()
    };
    let (hits, misses) = (ok_secs(false), ok_secs(true));
    let pick = |xs: &[f64], p: f64, what: &str| {
        stats::percentile(xs, p).ok_or_else(|| format!("no {what} replies"))
    };
    out.layers
        .insert("serve.hit_p50_ms", pick(&hits, 50.0, "read")?);
    out.layers
        .insert("serve.miss_p50_ms", pick(&misses, 50.0, "write")?);
    out.layers
        .insert("serve.miss_p95_ms", pick(&misses, 95.0, "write")?);
    let spans = tracer.spans();
    for name in ["serve.ping", "persist.load", "persist.checkpoint"] {
        let ms = trace::layer_ms(&spans, name).ok_or_else(|| format!("no {name} span"))?;
        out.layers.insert(crate::metric_ms(name), ms);
    }
    out.spans.extend(spans);
    Ok(())
}

fn state_dir(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("serve-{tag}-{}", std::process::id()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = state_dir("mixed");
    let keys = hot_keys();
    let service = repeated_setup(&mut out, || {
        let service = start(&dir, &keys)?;
        let counts = vec![service.warm_build_misses];
        Ok((service, counts))
    })?;

    let seconds = args.measured_seconds();
    let (replies, elapsed) = drive(&service, args.seed, 0, seconds, &Tracer::new(false))?;
    out.attempted += replies.len() as u64;
    out.log = log_of(&replies, elapsed);
    check_replies(&replies, args.seed, &mut out);
    let writes = replies.iter().filter(|r| r.op.is_write()).count();
    out.detail.push(("serve_rps", out.log.throughput(), "1/s"));
    out.detail.push(("serve_p50_ms", out.log.median_ms(), "ms"));
    out.detail
        .push(("serve_p95_ms", out.log.pooled_ms(95.0), "ms"));
    println!(
        "serve_mixed {} requests ({} writes) from {CLIENTS} closed-loop clients in {elapsed:.2} s",
        replies.len(),
        writes
    );

    service.stop();
    if args.trace {
        // The traced half runs on a freshly warmed service, so its writes
        // checkpoint a store of the same size as the untraced half's did.
        let service = start(&dir, &keys)?;
        let tracer = Tracer::new(true);
        let (traced_replies, traced_elapsed) = drive(&service, args.seed, 1, seconds, &tracer)?;
        out.attempted += traced_replies.len() as u64;
        check_replies(&traced_replies, args.seed, &mut out);
        out.trace_overhead(&log_of(&traced_replies, traced_elapsed));
        // Flow-layer probes on the hot certify keys' inputs.
        for algo in SERVE_ALGOS {
            let definition = algorithm(algo)?;
            let req = request(ServeOp::ReadCertify {
                algo,
                seed: mix::HOT_CERTIFY_SEEDS[0],
            });
            let session = IslSession::from_algorithm(&definition).map_err(|e| e.to_string())?;
            let init = init_frames(&session, &req)?;
            let case = Case {
                algo: &definition,
                init: &init,
                arch: arch_of(&req),
            };
            let probe = tracer.span("layer_probe", algo, None);
            layers::probe(&tracer, &case, probe.id())?;
        }
        let spans = tracer.spans();
        for name in layers::FLOW_LAYER_SPANS {
            if let Some(ms) = trace::layer_ms(&spans, name) {
                out.layers.insert(crate::metric_ms(name), ms);
            }
        }
        layer_metrics(service, &traced_replies, &SERVE_ALGOS, &tracer, &mut out)?;
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

/// Serve and persist metrics for runs whose own workload does not serve:
/// a service warmed on igf's hot keys, one client and a short mix.
pub fn tour(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let keys: Vec<ServeOp> = hot_keys()
        .into_iter()
        .filter(|k| request(*k).algo == "igf")
        .collect();
    let service = start(&state_dir("tour"), &keys)?;
    let tracer = Tracer::new(true);
    let mut client = Client::connect(service.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut replies = Vec::new();
    for (i, op) in keys
        .iter()
        .cycle()
        .take(10)
        .copied()
        .chain((0..3).map(|i| ServeOp::Write {
            algo: "igf",
            seed: (1 << 51) | (mix::derive(seed, i) & 0xFFFF_FFFF),
        }))
        .enumerate()
    {
        let _span = tracer.request_span(
            "serve.request",
            if op.is_write() { "write" } else { "read" },
            None,
            i as u64,
        );
        let t = Instant::now();
        let result = client.request(request(op)).map_err(|e| e.to_string());
        replies.push(Reply {
            op,
            secs: t.elapsed().as_secs_f64(),
            result,
        });
    }
    drop(client);
    check_replies(&replies, seed, out);
    layer_metrics(service, &replies, &["igf"], &tracer, out)
}
