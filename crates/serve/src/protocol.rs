//! The line-oriented JSON wire protocol of `isl-served`.
//!
//! One request per line, one response per line, in order. Requests are
//! JSON objects with an `op` discriminant plus op-specific fields (all
//! optional — [`Request::default`] supplies the defaults); responses are
//! `{"id": …, "ok": true, "result": {…}}` or
//! `{"id": …, "ok": false, "error": "…"}`. Both directions reuse the
//! in-repo JSON support from `isl-telemetry` — no external dependencies.
//!
//! ```text
//! → {"op":"explore","id":1,"algo":"igf","width":64,"height":48}
//! ← {"id":1,"ok":true,"result":{"points":12,"pareto":3,"fastest":{…}}}
//! ```

use std::fmt::Write as _;

use isl_telemetry::json::{escape_into, parse, Value};

/// The operations the service answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; echoes the id.
    Ping,
    /// Per-algorithm [`isl_hls::StoreStats`] snapshot (the warm-restart
    /// evidence: a warm service answers with zero build misses).
    Stats,
    /// Design-space exploration (stage 4) of one built-in algorithm.
    Explore,
    /// Architecture certification (stage 6) of one explored instance.
    Certify,
    /// Precision format search (stage 7) under a max-abs error budget.
    SearchFormat,
    /// Graceful shutdown: drain in-flight requests, flush every
    /// persistent store, stop accepting.
    Shutdown,
}

impl Op {
    /// Wire name of the op.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Explore => "explore",
            Op::Certify => "certify",
            Op::SearchFormat => "search_format",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "explore" => Op::Explore,
            "certify" => Op::Certify,
            "search_format" => Op::SearchFormat,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// One decoded request line. Fields not meaningful for the op are carried
/// at their defaults and ignored by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Built-in algorithm name (`isl_algorithms::all`).
    pub algo: String,
    /// Target device name: `virtex6`, `virtex2pro` or `small`.
    pub device: String,
    /// Frame width of the workload / init frames.
    pub width: u32,
    /// Frame height of the workload / init frames.
    pub height: u32,
    /// Seed of the deterministic init frames (certify / search).
    pub seed: u64,
    /// Largest window side of the explored design space.
    pub max_side: u32,
    /// Largest cone depth of the explored design space.
    pub max_depth: u32,
    /// Largest core count of the explored design space.
    pub max_cores: u32,
    /// Window side of the certified instance (square windows).
    pub window: u32,
    /// Cone depth of the certified instance.
    pub depth: u32,
    /// Core count of the certified instance.
    pub cores: u32,
    /// Max-abs error bound of the format-search budget.
    pub max_abs: f64,
    /// RMS error bound of the budget (`inf` = unbounded).
    pub rms: f64,
    /// Widest word the format search may probe.
    pub max_width: u32,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: 0,
            op: Op::Ping,
            algo: "igf".into(),
            device: "virtex6".into(),
            width: 48,
            height: 32,
            seed: 42,
            max_side: 4,
            max_depth: 2,
            max_cores: 4,
            window: 2,
            depth: 1,
            cores: 1,
            max_abs: 1e-3,
            rms: f64::INFINITY,
            max_width: 54,
        }
    }
}

/// Largest `width` or `height` a request may ask for, pixels.
pub const MAX_FRAME_SIDE: u32 = 4096;
/// Largest frame (`width × height`) a request may ask for, pixels: a
/// 1920×1080 frame fits.
pub const MAX_FRAME_PIXELS: u64 = 1 << 21;
/// Largest window side (`window`, `max_side`).
pub const MAX_WINDOW: u32 = 16;
/// Largest cone depth (`depth`, `max_depth`).
pub const MAX_DEPTH: u32 = 8;
/// Largest core count (`cores`, `max_cores`).
pub const MAX_CORES: u32 = 64;
/// Widest word the format search may probe (`max_width`): the fixed-point
/// datapath's limit.
pub const MAX_WORD_WIDTH: u32 = 64;
/// `id` and `seed` travel as JSON numbers (doubles), which hold every
/// integer below 2^53 exactly and no wider range: larger values are
/// rejected rather than silently rounded.
pub const MAX_EXACT_INT: u64 = 1 << 53;

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_num)
}

/// The integer field `key`, or `default` when absent. Anything but a
/// number holding an integer in `[0, max]` is an error.
fn int_field(v: &Value, key: &str, default: u64, max: u64) -> Result<u64, String> {
    let Some(field) = v.get(key) else {
        return Ok(default);
    };
    match field.as_num() {
        Some(n) if n.fract() == 0.0 && n >= 0.0 && n <= max as f64 => Ok(n as u64),
        _ => Err(format!("\"{key}\" must be an integer in [0, {max}]")),
    }
}

/// [`int_field`] for a `u32` field: `max` is inclusive, and values below
/// `min` are raised to it.
fn u32_field(v: &Value, key: &str, default: u32, min: u32, max: u32) -> Result<u32, String> {
    let n = int_field(v, key, u64::from(default), u64::from(max))?;
    Ok((n as u32).max(min))
}

/// The number field `key`, or `default` when absent; `ok` says which
/// values are acceptable, `what` describes them in the error.
fn f64_field(
    v: &Value,
    key: &str,
    default: f64,
    ok: impl Fn(f64) -> bool,
    what: &str,
) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(field) => match field.as_num() {
            Some(n) if ok(n) => Ok(n),
            _ => Err(format!("\"{key}\" must be {what}")),
        },
    }
}

impl Request {
    /// Decode and validate one request line. Absent fields take their
    /// [`Request::default`] values; sizes below their minimum are raised
    /// to it (frames to 4 pixels a side, the others to 1).
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a missing/unknown `op`,
    /// a non-object document, or a field outside its bounds: `id` and
    /// `seed` must be integers below [`MAX_EXACT_INT`]; `width`/`height`
    /// integers up to [`MAX_FRAME_SIDE`] whose product is at most
    /// [`MAX_FRAME_PIXELS`]; `window`/`max_side` up to [`MAX_WINDOW`],
    /// `depth`/`max_depth` up to [`MAX_DEPTH`], `cores`/`max_cores` up to
    /// [`MAX_CORES`] and `max_width` up to [`MAX_WORD_WIDTH`], all
    /// integers; `max_abs` finite and positive; `rms` not NaN. A rejected
    /// request allocates nothing.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        if !matches!(v, Value::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        let op = Op::parse(op).ok_or_else(|| format!("unknown op {op:?}"))?;
        let d = Request::default();
        let width = u32_field(&v, "width", d.width, 4, MAX_FRAME_SIDE)?;
        let height = u32_field(&v, "height", d.height, 4, MAX_FRAME_SIDE)?;
        if u64::from(width) * u64::from(height) > MAX_FRAME_PIXELS {
            return Err(format!(
                "frame {width}x{height} exceeds {MAX_FRAME_PIXELS} pixels"
            ));
        }
        Ok(Request {
            id: int_field(&v, "id", 0, MAX_EXACT_INT - 1)?,
            op,
            algo: v
                .get("algo")
                .and_then(Value::as_str)
                .unwrap_or(&d.algo)
                .to_string(),
            device: v
                .get("device")
                .and_then(Value::as_str)
                .unwrap_or(&d.device)
                .to_string(),
            width,
            height,
            seed: int_field(&v, "seed", d.seed, MAX_EXACT_INT - 1)?,
            max_side: u32_field(&v, "max_side", d.max_side, 1, MAX_WINDOW)?,
            max_depth: u32_field(&v, "max_depth", d.max_depth, 1, MAX_DEPTH)?,
            max_cores: u32_field(&v, "max_cores", d.max_cores, 1, MAX_CORES)?,
            window: u32_field(&v, "window", d.window, 1, MAX_WINDOW)?,
            depth: u32_field(&v, "depth", d.depth, 1, MAX_DEPTH)?,
            cores: u32_field(&v, "cores", d.cores, 1, MAX_CORES)?,
            max_abs: f64_field(
                &v,
                "max_abs",
                d.max_abs,
                |x| x.is_finite() && x > 0.0,
                "a finite positive number",
            )?,
            rms: f64_field(&v, "rms", d.rms, |x| !x.is_nan(), "a number")?,
            max_width: u32_field(&v, "max_width", d.max_width, 0, MAX_WORD_WIDTH)?,
        })
    }

    /// Encode as one request line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(s, "{{\"op\":\"{}\",\"id\":{}", self.op.as_str(), self.id);
        if self.op != Op::Ping && self.op != Op::Shutdown {
            s.push_str(",\"algo\":");
            escape_into(&mut s, &self.algo);
        }
        match self.op {
            Op::Ping | Op::Stats | Op::Shutdown => {}
            Op::Explore => {
                let _ = write!(
                    s,
                    ",\"device\":{},\"width\":{},\"height\":{},\"max_side\":{},\"max_depth\":{},\"max_cores\":{}",
                    isl_telemetry::json::escape(&self.device),
                    self.width, self.height, self.max_side, self.max_depth, self.max_cores
                );
            }
            Op::Certify => {
                let _ = write!(
                    s,
                    ",\"width\":{},\"height\":{},\"seed\":{},\"window\":{},\"depth\":{},\"cores\":{}",
                    self.width, self.height, self.seed, self.window, self.depth, self.cores
                );
            }
            Op::SearchFormat => {
                let _ = write!(
                    s,
                    ",\"device\":{},\"width\":{},\"height\":{},\"seed\":{},\"window\":{},\"depth\":{},\"cores\":{},\"max_abs\":{}",
                    isl_telemetry::json::escape(&self.device),
                    self.width, self.height, self.seed,
                    self.window, self.depth, self.cores, self.max_abs
                );
                if self.rms.is_finite() {
                    let _ = write!(s, ",\"rms\":{}", self.rms);
                }
                let _ = write!(s, ",\"max_width\":{}", self.max_width);
            }
        }
        s.push('}');
        s
    }
}

/// Re-serialise a parsed [`Value`] as JSON (object keys sorted — the
/// parser holds objects in a `BTreeMap`). Non-finite numbers become
/// `null`, keeping the output parseable.
pub fn value_to_json(v: &Value) -> String {
    let mut s = String::new();
    write_value(&mut s, v);
    s
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => escape_into(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Encode a success response line: `{"id":…,"ok":true,"result":RESULT}`.
/// `result` must already be a JSON document.
pub fn ok_line(id: u64, result: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}")
}

/// Encode an error response line.
pub fn err_line(id: u64, error: &str) -> String {
    let mut s = format!("{{\"id\":{id},\"ok\":false,\"error\":");
    escape_into(&mut s, error);
    s.push('}');
    s
}

/// Decode one response line into `(id, Ok(result) | Err(message))`.
///
/// # Errors
///
/// A message when the line is not a protocol response at all.
pub fn parse_response(line: &str) -> Result<(u64, Result<Value, String>), String> {
    let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = num(&v, "id").map_or(0, |n| n as u64);
    match v.get("ok") {
        Some(Value::Bool(true)) => {
            let result = v.get("result").cloned().unwrap_or(Value::Null);
            Ok((id, Ok(result)))
        }
        Some(Value::Bool(false)) => {
            let msg = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error")
                .to_string();
            Ok((id, Err(msg)))
        }
        _ => Err("response missing \"ok\"".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        for op in [
            Op::Ping,
            Op::Stats,
            Op::Explore,
            Op::Certify,
            Op::SearchFormat,
            Op::Shutdown,
        ] {
            let req = Request {
                id: 7,
                op,
                algo: "jacobi4".into(),
                ..Request::default()
            };
            let back = Request::from_line(&req.to_line()).unwrap();
            assert_eq!(back.op, op);
            assert_eq!(back.id, 7);
            if !matches!(op, Op::Ping | Op::Shutdown) {
                assert_eq!(back.algo, "jacobi4");
            }
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let req = Request::from_line(r#"{"op":"explore"}"#).unwrap();
        assert_eq!(req, Request { op: Op::Explore, ..Request::default() });
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in ["", "{", "42", r#"{"op":"launch_missiles"}"#, r#"{"id":1}"#] {
            assert!(Request::from_line(line).is_err(), "{line:?}");
        }
    }

    fn rejects(line: &str, field: &str) {
        match Request::from_line(line) {
            Err(e) => assert!(e.contains(field), "{line}: error {e:?} does not name {field}"),
            Ok(r) => panic!("{line} accepted as {r:?}"),
        }
    }

    #[test]
    fn ids_and_seeds_must_be_exact_integers() {
        let top = MAX_EXACT_INT - 1;
        let req = Request::from_line(&format!(r#"{{"op":"certify","id":{top},"seed":{top}}}"#))
            .unwrap();
        assert_eq!((req.id, req.seed), (top, top));
        for bad in ["9007199254740992", "18446744073709551615", "-1", "1.5", "1e300", "\"7\"", "null"] {
            rejects(&format!(r#"{{"op":"certify","seed":{bad}}}"#), "seed");
            rejects(&format!(r#"{{"op":"ping","id":{bad}}}"#), "id");
        }
    }

    #[test]
    fn error_budget_fields_are_validated() {
        for bad in ["0", "-0.001", "1e999", "-1e999", "\"x\""] {
            rejects(&format!(r#"{{"op":"search_format","max_abs":{bad}}}"#), "max_abs");
        }
        let req = Request::from_line(r#"{"op":"search_format","max_abs":2e-4,"rms":1e999}"#)
            .unwrap();
        assert_eq!(req.max_abs, 2e-4);
        assert!(req.rms.is_infinite(), "an infinite rms means unbounded");
        rejects(r#"{"op":"search_format","rms":"NaN"}"#, "rms");
    }

    #[test]
    fn sizes_have_fixed_upper_bounds() {
        rejects(r#"{"op":"certify","width":4e9}"#, "width");
        rejects(&format!(r#"{{"op":"certify","height":{}}}"#, MAX_FRAME_SIDE + 1), "height");
        rejects(r#"{"op":"certify","width":4096,"height":4096}"#, "pixels");
        let hd = Request::from_line(r#"{"op":"certify","width":1920,"height":1080}"#).unwrap();
        assert_eq!((hd.width, hd.height), (1920, 1080));
        for (field, max) in [
            ("window", MAX_WINDOW),
            ("max_side", MAX_WINDOW),
            ("depth", MAX_DEPTH),
            ("max_depth", MAX_DEPTH),
            ("cores", MAX_CORES),
            ("max_cores", MAX_CORES),
            ("max_width", MAX_WORD_WIDTH),
        ] {
            assert!(Request::from_line(&format!(r#"{{"op":"explore","{field}":{max}}}"#)).is_ok());
            rejects(&format!(r#"{{"op":"explore","{field}":{}}}"#, max + 1), field);
            rejects(&format!(r#"{{"op":"explore","{field}":2.5}}"#), field);
        }
        // Minimums still clamp from below, as before.
        let small = Request::from_line(r#"{"op":"certify","width":0,"window":0}"#).unwrap();
        assert_eq!((small.width, small.window), (4, 1));
    }

    #[test]
    fn response_lines_round_trip() {
        let (id, res) = parse_response(&ok_line(3, r#"{"points":5}"#)).unwrap();
        assert_eq!(id, 3);
        assert_eq!(res.unwrap().get("points").and_then(Value::as_num), Some(5.0));
        let (id, res) = parse_response(&err_line(9, "no \"such\" algo")).unwrap();
        assert_eq!(id, 9);
        assert_eq!(res.unwrap_err(), "no \"such\" algo");
    }
}
