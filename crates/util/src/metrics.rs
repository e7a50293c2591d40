//! Machine-readable metrics: a dependency-free JSON layer and the
//! `BENCH_profile.json` report schema.
//!
//! The workspace builds offline (no serde), so this module provides the
//! small JSON subset the bench pipeline needs: a [`Json`] value type, a
//! deterministic pretty writer, and a strict, depth-bounded parser. On top
//! of it,
//! [`profile_report`] renders a [`crate::trace::TraceNode`] snapshot as the
//! profile document consumed by `mqmd-parallel`'s machine model, and
//! [`kernel_table`] extracts the flattened per-kernel
//! `(calls, seconds, flops)` aggregates back out of a parsed document.
//!
//! Schema (`mqmd-profile-v8`, the one tag the reader accepts; every
//! number in it was measured on the host that wrote it):
//!
//! ```json
//! {
//!   "schema": "mqmd-profile-v8",
//!   "trace": { "name": "root", "calls": 1, "wall_secs": ..., "flops": ...,
//!              "bytes": ..., "comm_msgs": ..., "comm_bytes": ...,
//!              "alloc_count": ..., "alloc_bytes": ...,
//!              "children": [ ... ] },
//!   "kernels": { "gemm": { "calls": ..., "seconds": ..., "flops": ...,
//!                          "gflops": ..., "p50_secs": ..., "p95_secs": ...,
//!                          "p99_secs": ..., "std_err_secs": ...,
//!                          "alloc_count": ..., "alloc_bytes": ... }, ... },
//!   "atoms": ..., "scf_iterations": ..., "domain_solve_fig5_secs": ...,
//!   "twin": { "machine": ..., "collectives": [ ... ] },
//!   "rank_recovery": { "restarts": ..., "quarantines": ..., "suspects": ...,
//!                      "detect_ms": [...], "respawn_ms": [...],
//!                      "rejoin_ms": [...] }
//! }
//! ```
//!
//! The per-kernel quantiles come from the span histograms
//! ([`crate::hist`]), `std_err_secs` is the standard error of one call's
//! wall time reconstructed from the histogram buckets, and
//! `alloc_count`/`alloc_bytes` count the heap allocations recorded via
//! [`crate::trace::add_alloc`] under the kernel's spans. `repro_profile`
//! appends the top-level fields after `kernels`; the `twin` block comes
//! from `mqmd_parallel::twin` and the `rank_recovery` block from the
//! process runtime's recovery stats. The only number a program reads
//! back is `domain_solve_fig5_secs` (`mqmd_parallel::measured`).

use crate::error::{MqmdError, Result};
use crate::trace::TraceNode;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order via a `Vec` of pairs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as f64; integers round-trip to 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (ordered key → value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value (numbers that are whole and in u64 range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialises on a single line with no whitespace (the JSONL event
    /// encoding).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no Inf/NaN
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:e}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level and reads bytes other processes wrote (rank
/// event streams, profiles, benchmark result lines), so unbounded input
/// nesting would overflow the stack and abort. The deepest document the
/// repository writes is the profile: its span tree is 6 spans deep, 12
/// JSON levels under the document's own object, 13 in all.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (strict; trailing garbage is an error, and so is
/// nesting deeper than 128 levels).
pub fn parse_json(text: &str) -> Result<Json> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(MqmdError::Parse(format!("trailing data at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<()> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(MqmdError::Parse(format!(
            "expected '{}' at byte {}",
            c as char, pos
        )))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(b, pos);
    if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(MqmdError::Parse(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )));
    }
    match b.get(*pos) {
        None => Err(MqmdError::Parse("unexpected end of input".into())),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(MqmdError::Parse(format!("invalid literal at byte {pos}")))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| MqmdError::Parse(format!("invalid number '{text}' at byte {start}")))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(MqmdError::Parse("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| MqmdError::Parse("truncated \\u escape".into()))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| MqmdError::Parse("bad \\u escape".into()))?,
                            16,
                        )
                        .map_err(|_| MqmdError::Parse("bad \\u escape".into()))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(MqmdError::Parse("bad escape".into())),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| MqmdError::Parse("invalid utf-8".into()))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(MqmdError::Parse(format!(
                    "expected ',' or ']' at byte {pos}"
                )))
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => {
                return Err(MqmdError::Parse(format!(
                    "expected ',' or '}}' at byte {pos}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Profile report
// ---------------------------------------------------------------------------

/// Schema identifier written into profile documents, and the only one
/// [`kernel_table`] accepts.
pub const PROFILE_SCHEMA: &str = "mqmd-profile-v8";

/// Renders a trace node (and recursively its children) as JSON. Nodes
/// with a non-empty latency histogram carry their p50/p95/p99.
fn trace_to_json(node: &TraceNode) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(node.name.clone())),
        ("calls".to_string(), Json::Num(node.calls as f64)),
        ("wall_secs".to_string(), Json::Num(node.wall_secs)),
        ("flops".to_string(), Json::Num(node.flops as f64)),
        ("bytes".to_string(), Json::Num(node.bytes as f64)),
        ("comm_msgs".to_string(), Json::Num(node.comm_msgs as f64)),
        ("comm_bytes".to_string(), Json::Num(node.comm_bytes as f64)),
        (
            "alloc_count".to_string(),
            Json::Num(node.alloc_count as f64),
        ),
        (
            "alloc_bytes".to_string(),
            Json::Num(node.alloc_bytes as f64),
        ),
    ];
    if !node.hist.is_empty() {
        for (key, q) in [("p50_secs", 0.5), ("p95_secs", 0.95), ("p99_secs", 0.99)] {
            pairs.push((key.to_string(), Json::Num(node.wall_quantile_secs(q))));
        }
    }
    pairs.push((
        "children".to_string(),
        Json::Arr(node.children.iter().map(trace_to_json).collect()),
    ));
    Json::Obj(pairs)
}

/// Flattened per-kernel aggregate read back out of a profile.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Number of span entries.
    pub calls: u64,
    /// Accumulated wall seconds.
    pub seconds: f64,
    /// Accumulated FLOPs.
    pub flops: u64,
    /// Heap allocations attributed to the kernel.
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl KernelStats {
    /// Mean seconds per call (0 when never called).
    pub fn secs_per_call(&self) -> f64 {
        if self.calls > 0 {
            self.seconds / self.calls as f64
        } else {
            0.0
        }
    }

    /// Sustained GFLOP/s (0 when no time elapsed).
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

/// Builds the profile document for a trace snapshot. `kernel_names`
/// selects the spans summarised in the flattened `kernels` table
/// (aggregated across all positions in the tree); names never entered are
/// omitted. `extra` appends caller-specific top-level fields.
pub fn profile_report(
    trace: &TraceNode,
    kernel_names: &[&str],
    extra: Vec<(String, Json)>,
) -> Json {
    let mut kernels = Vec::new();
    for &name in kernel_names {
        if let Some(agg) = trace.aggregate(name) {
            let std_err_secs = agg.hist.running_stats().std_err() * 1e-9;
            kernels.push((
                name.to_string(),
                Json::obj([
                    ("calls", Json::Num(agg.calls as f64)),
                    ("seconds", Json::Num(agg.wall_secs)),
                    ("flops", Json::Num(agg.flops as f64)),
                    ("gflops", Json::Num(agg.gflops())),
                    ("p50_secs", Json::Num(agg.wall_quantile_secs(0.5))),
                    ("p95_secs", Json::Num(agg.wall_quantile_secs(0.95))),
                    ("p99_secs", Json::Num(agg.wall_quantile_secs(0.99))),
                    ("std_err_secs", Json::Num(std_err_secs)),
                    ("alloc_count", Json::Num(agg.alloc_count as f64)),
                    ("alloc_bytes", Json::Num(agg.alloc_bytes as f64)),
                ]),
            ));
        }
    }
    let mut pairs = vec![
        ("schema".to_string(), Json::Str(PROFILE_SCHEMA.into())),
        ("trace".to_string(), trace_to_json(trace)),
        ("kernels".to_string(), Json::Obj(kernels)),
    ];
    pairs.extend(extra);
    Json::Obj(pairs)
}

/// Returns a parsed profile document's flattened kernel table. A missing
/// schema tag, or any tag but [`PROFILE_SCHEMA`], is a typed
/// [`MqmdError::Parse`] that names the expected tag.
pub fn kernel_table(doc: &Json) -> Result<BTreeMap<String, KernelStats>> {
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != PROFILE_SCHEMA {
        return Err(MqmdError::Parse(format!(
            "expected schema {PROFILE_SCHEMA:?}, found {schema:?}"
        )));
    }
    let Some(Json::Obj(pairs)) = doc.get("kernels") else {
        return Err(MqmdError::Parse("profile needs a 'kernels' object".into()));
    };
    let u = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(pairs
        .iter()
        .map(|(name, entry)| {
            let stats = KernelStats {
                calls: u(entry, "calls"),
                seconds: entry.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                flops: u(entry, "flops"),
                alloc_count: u(entry, "alloc_count"),
                alloc_bytes: u(entry, "alloc_bytes"),
            };
            (name.clone(), stats)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::hist::HistSnapshot;

    fn sample_node() -> TraceNode {
        TraceNode {
            name: "root".into(),
            calls: 1,
            wall_secs: 2.0,
            flops: 1000,
            bytes: 0,
            comm_msgs: 3,
            comm_bytes: 96,
            alloc_count: 0,
            alloc_bytes: 0,
            hist: HistSnapshot::empty(),
            children: vec![TraceNode {
                name: "gemm".into(),
                calls: 4,
                wall_secs: 1.5,
                flops: 900,
                bytes: 0,
                comm_msgs: 0,
                comm_bytes: 0,
                alloc_count: 12,
                alloc_bytes: 6144,
                // four per-call latencies in ns, roughly matching wall_secs
                hist: HistSnapshot::from_samples(&[
                    300_000_000,
                    350_000_000,
                    400_000_000,
                    450_000_000,
                ]),
                children: Vec::new(),
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let v = Json::obj([
            ("a", Json::Num(1.0)),
            ("b", Json::Str("x\"y\n".into())),
            (
                "c",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-2.5e-3)]),
            ),
            ("d", Json::Obj(vec![])),
        ]);
        let text = v.pretty();
        let back = parse_json(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn deep_arrays_are_a_typed_error() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_bound).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(matches!(parse_json(&over), Err(MqmdError::Parse(_))));
        // A million unclosed brackets once overflowed the stack.
        assert!(matches!(
            parse_json(&"[".repeat(1_000_000)),
            Err(MqmdError::Parse(_))
        ));
    }

    #[test]
    fn deep_objects_are_a_typed_error() {
        let deep = "{\"k\":".repeat(1_000_000);
        match parse_json(&deep) {
            Err(MqmdError::Parse(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn numbers_round_trip_integers_exactly() {
        let text = Json::Num(123456789.0).pretty();
        assert!(text.starts_with("123456789"));
        assert_eq!(parse_json("123456789").unwrap().as_u64(), Some(123456789));
    }

    #[test]
    fn profile_report_round_trips_kernels() {
        let node = sample_node();
        let doc = profile_report(&node, &["gemm", "never_entered"], vec![]);
        let parsed = parse_json(&doc.pretty()).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
        let table = kernel_table(&parsed).unwrap();
        assert_eq!(table.len(), 1, "absent kernels omitted");
        let g = &table["gemm"];
        assert_eq!(g.calls, 4);
        assert_eq!(g.flops, 900);
        assert!((g.seconds - 1.5).abs() < 1e-12);
        assert!((g.gflops() - 900.0 / 1.5 / 1e9).abs() < 1e-15);
        assert_eq!(g.alloc_count, 12);
        assert_eq!(g.alloc_bytes, 6144);
        // The written quantiles come from the per-call histogram (samples
        // 0.3..0.45 s), within the 6.25% bucket resolution.
        let entry = parsed.get("kernels").unwrap().get("gemm").unwrap();
        let q = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap();
        assert!((q("p50_secs") - 0.35).abs() / 0.35 < 0.0625);
        assert!((q("p99_secs") - 0.45).abs() / 0.45 < 0.0625);
        assert!(q("p50_secs") <= q("p95_secs") && q("p95_secs") <= q("p99_secs"));
        assert!(q("std_err_secs") > 0.0);
    }

    #[test]
    fn kernel_table_requires_the_one_schema() {
        let doc = |text: &str| parse_json(text).unwrap();
        assert!(kernel_table(&doc("{\"kernels\": {}}")).is_err());
        for tag in ["other", "mqmd-profile-v7", "mqmd-profile-v1"] {
            let text = format!("{{\"schema\": \"{tag}\", \"kernels\": {{}}}}");
            match kernel_table(&doc(&text)) {
                Err(MqmdError::Parse(msg)) => assert!(msg.contains(PROFILE_SCHEMA), "{msg}"),
                other => panic!("{tag}: expected a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_json_preserves_hierarchy() {
        let doc = trace_to_json(&sample_node());
        let child = &doc.get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(child.get("name").unwrap().as_str(), Some("gemm"));
        assert_eq!(child.get("flops").unwrap().as_u64(), Some(900));
    }
}
