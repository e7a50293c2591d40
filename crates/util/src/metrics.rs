//! Machine-readable metrics: a dependency-free JSON layer and the
//! `BENCH_profile.json` report schema.
//!
//! The workspace builds offline (no serde), so this module provides the
//! small JSON subset the bench pipeline needs: a [`Json`] value type, a
//! deterministic pretty writer, and a strict parser. On top of it,
//! [`profile_report`] renders a [`trace::TraceNode`] snapshot as the
//! profile document consumed by `mqmd-parallel`'s machine model, and
//! [`kernel_table`] extracts the flattened per-kernel
//! `(calls, seconds, flops)` aggregates back out of a parsed document.
//!
//! Schema (`mqmd-profile-v8`; the parser also accepts every earlier
//! generation: `mqmd-profile-v7` lacks the rank_recovery block, `v6`
//! additionally the twin block, `v5` the service block, `v4` the
//! roofline block, `v3` the recovery block, `v2` the allocation
//! fields, and `v1` additionally the latency-distribution fields):
//!
//! ```json
//! {
//!   "schema": "mqmd-profile-v8",
//!   "trace": { "name": "root", "calls": 1, "wall_secs": ..., "flops": ...,
//!              "bytes": ..., "comm_msgs": ..., "comm_bytes": ...,
//!              "comm_cost_secs": ..., "alloc_count": ..., "alloc_bytes": ...,
//!              "children": [ ... ] },
//!   "kernels": { "gemm": { "calls": ..., "seconds": ..., "flops": ...,
//!                          "gflops": ..., "p50_secs": ..., "p95_secs": ...,
//!                          "p99_secs": ..., "std_err_secs": ...,
//!                          "alloc_count": ..., "alloc_bytes": ... }, ... },
//!   "alloc": { "workspace_hits": ..., "workspace_misses": ...,
//!              "workspace_miss_bytes": ...,
//!              "steady_scf_workspace_misses": ... },
//!   "recovery": { "faults_injected": ..., "faults_recovered": ...,
//!                 "faults_aborted": ..., "recompute_seconds": ...,
//!                 "by_kind": { ... }, "by_action": { ... } },
//!   "roofline": { "peak_gflops": ..., "peak_bw_gbps": ...,
//!                 "kernels": { "gemm": { "achieved_gflops": ...,
//!                                        "intensity_flops_per_byte": ...,
//!                                        "roofline_gflops": ...,
//!                                        "fraction_of_peak": ... }, ... } }
//! }
//! ```
//!
//! The v2 per-kernel quantiles come from the span histograms
//! ([`crate::hist`]); `std_err_secs` is the standard error of one call's
//! wall time, reconstructed from the histogram buckets — the noise floor
//! `repro_compare` uses to separate regressions from jitter. The v3
//! `alloc_count`/`alloc_bytes` fields count per-phase heap allocations
//! (workspace misses plus instrumented fresh `Vec`s) recorded via
//! [`crate::trace::add_alloc`]; the top-level `alloc` block (written by
//! [`alloc_block`]) summarises the [`crate::workspace`] arena traffic, and
//! its `steady_scf_workspace_misses` gauge is what `repro_compare
//! --gate-allocs` hard-fails on. The v4 `recovery` block (written by
//! [`recovery_block`] from [`crate::faults::FaultStats`]) counts fault
//! injections, recovery-ladder rungs, aborts, and the recomputation cost
//! recovery paid; `repro_compare --gate-recovery` fails a candidate whose
//! injected faults were neither recovered nor cleanly aborted. The v5
//! `roofline` block (written by [`roofline_block`] from a measured
//! [`Roofline`]) records machine peaks measured on the running host —
//! FMA-ladder FLOP/s and streaming-triad bandwidth — plus each kernel's
//! achieved GFLOP/s and its fraction of the roofline
//! `min(peak_gflops, intensity · peak_bw)`; `repro_compare
//! --gate-roofline` fails a candidate whose kernels fall under a
//! fraction-of-peak floor.

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

/// Parses a JSON document (strict; trailing garbage is an error).
pub fn parse_json(text: &str) -> Result<Json> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(MqmdError::Parse("unexpected end of input".into())),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
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

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
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

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json> {
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
        let value = parse_value(b, pos)?;
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

/// Current schema identifier written into profile documents.
pub const PROFILE_SCHEMA: &str = "mqmd-profile-v8";
/// Previous schema, still accepted (lacks the rank_recovery block).
pub const PROFILE_SCHEMA_V7: &str = "mqmd-profile-v7";
/// Still accepted (additionally lacks the twin-validation block).
pub const PROFILE_SCHEMA_V6: &str = "mqmd-profile-v6";
/// Still accepted (additionally lacks the service block).
pub const PROFILE_SCHEMA_V5: &str = "mqmd-profile-v5";
/// Still accepted (additionally lacks the roofline block).
pub const PROFILE_SCHEMA_V4: &str = "mqmd-profile-v4";
/// Still accepted (additionally lacks the recovery block).
pub const PROFILE_SCHEMA_V3: &str = "mqmd-profile-v3";
/// Still accepted by [`kernel_table`] (its kernel entries lack the
/// allocation fields).
pub const PROFILE_SCHEMA_V2: &str = "mqmd-profile-v2";
/// Oldest accepted schema (lacks both the latency-quantile and the
/// allocation fields).
pub const PROFILE_SCHEMA_V1: &str = "mqmd-profile-v1";

/// Renders a trace node (and recursively its children) as JSON. Nodes
/// with a non-empty latency histogram carry their p50/p95/p99.
pub fn trace_to_json(node: &TraceNode) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(node.name.clone())),
        ("calls".to_string(), Json::Num(node.calls as f64)),
        ("wall_secs".to_string(), Json::Num(node.wall_secs)),
        ("flops".to_string(), Json::Num(node.flops as f64)),
        ("bytes".to_string(), Json::Num(node.bytes as f64)),
        ("comm_msgs".to_string(), Json::Num(node.comm_msgs as f64)),
        ("comm_bytes".to_string(), Json::Num(node.comm_bytes as f64)),
        ("comm_cost_secs".to_string(), Json::Num(node.comm_cost_secs)),
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

/// Flattened per-kernel aggregate extracted from a profile. The quantile
/// and noise fields are zero for `mqmd-profile-v1` documents (which did
/// not record distributions).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Number of span entries.
    pub calls: u64,
    /// Accumulated wall seconds.
    pub seconds: f64,
    /// Accumulated FLOPs.
    pub flops: u64,
    /// Median wall seconds of one call.
    pub p50_secs: f64,
    /// 95th-percentile wall seconds of one call.
    pub p95_secs: f64,
    /// 99th-percentile wall seconds of one call.
    pub p99_secs: f64,
    /// Standard error of one call's wall time (histogram-derived).
    pub std_err_secs: f64,
    /// Heap allocations attributed to the kernel (0 for pre-v3 profiles).
    pub alloc_count: u64,
    /// Bytes requested by those allocations (0 for pre-v3 profiles).
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

    /// Mean heap allocations per call (0 when never called).
    pub fn allocs_per_call(&self) -> f64 {
        if self.calls > 0 {
            self.alloc_count as f64 / self.calls as f64
        } else {
            0.0
        }
    }
}

/// Builds the `mqmd-profile-v2` document for a trace snapshot.
/// `kernel_names` selects the spans summarised in the flattened `kernels`
/// table (aggregated across all positions in the tree); names never entered
/// are omitted. `extra` appends caller-specific fields (e.g. config).
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

/// Validates a profile document's schema tag (v1 through v8).
fn check_schema(doc: &Json) -> Result<()> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(PROFILE_SCHEMA)
        | Some(PROFILE_SCHEMA_V7)
        | Some(PROFILE_SCHEMA_V6)
        | Some(PROFILE_SCHEMA_V5)
        | Some(PROFILE_SCHEMA_V4)
        | Some(PROFILE_SCHEMA_V3)
        | Some(PROFILE_SCHEMA_V2)
        | Some(PROFILE_SCHEMA_V1) => Ok(()),
        other => Err(MqmdError::Parse(format!(
            "expected schema {PROFILE_SCHEMA:?}, {PROFILE_SCHEMA_V7:?}, \
             {PROFILE_SCHEMA_V6:?}, {PROFILE_SCHEMA_V5:?}, \
             {PROFILE_SCHEMA_V4:?}, {PROFILE_SCHEMA_V3:?}, \
             {PROFILE_SCHEMA_V2:?} or {PROFILE_SCHEMA_V1:?}, found {other:?}"
        ))),
    }
}

/// Parses a profile document (schema v1 through v8) and returns its
/// flattened kernel table. Rejects documents with a missing or unknown
/// schema tag. Fields a document's schema generation predates (quantiles
/// before v2, allocation counters before v3) parse as zero.
pub fn kernel_table(text: &str) -> Result<BTreeMap<String, KernelStats>> {
    let doc = parse_json(text)?;
    check_schema(&doc)?;
    let kernels = doc
        .get("kernels")
        .ok_or_else(|| MqmdError::Parse("profile missing 'kernels'".into()))?;
    let Json::Obj(pairs) = kernels else {
        return Err(MqmdError::Parse("'kernels' must be an object".into()));
    };
    let f = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = BTreeMap::new();
    for (name, entry) in pairs {
        let stats = KernelStats {
            calls: entry.get("calls").and_then(Json::as_u64).unwrap_or(0),
            seconds: f(entry, "seconds"),
            flops: entry.get("flops").and_then(Json::as_u64).unwrap_or(0),
            p50_secs: f(entry, "p50_secs"),
            p95_secs: f(entry, "p95_secs"),
            p99_secs: f(entry, "p99_secs"),
            std_err_secs: f(entry, "std_err_secs"),
            alloc_count: entry.get("alloc_count").and_then(Json::as_u64).unwrap_or(0),
            alloc_bytes: entry.get("alloc_bytes").and_then(Json::as_u64).unwrap_or(0),
        };
        out.insert(name.clone(), stats);
    }
    Ok(out)
}

/// Builds the v3 top-level `alloc` block from the process-wide workspace
/// counters plus the directly measured steady-state miss gauge (workspace
/// misses during one post-warm-up QMD step — 0 when every hot-path borrow
/// is a reuse).
pub fn alloc_block(
    total: &crate::workspace::AllocSnapshot,
    steady_scf_workspace_misses: u64,
) -> Json {
    Json::obj([
        ("workspace_hits", Json::Num(total.hits as f64)),
        ("workspace_misses", Json::Num(total.misses as f64)),
        ("workspace_miss_bytes", Json::Num(total.miss_bytes as f64)),
        (
            "steady_scf_workspace_misses",
            Json::Num(steady_scf_workspace_misses as f64),
        ),
    ])
}

/// Reads the steady-state SCF workspace-miss gauge from a profile
/// document. `Ok(None)` for pre-v3 profiles (no `alloc` block).
pub fn steady_scf_misses(text: &str) -> Result<Option<u64>> {
    let doc = parse_json(text)?;
    check_schema(&doc)?;
    Ok(doc
        .get("alloc")
        .and_then(|a| a.get("steady_scf_workspace_misses"))
        .and_then(Json::as_u64))
}

/// Builds the v4 top-level `recovery` block from the fault plane's
/// campaign counters ([`crate::faults::stats`]). All-zero in a healthy
/// run with the plane idle.
pub fn recovery_block(stats: &crate::faults::FaultStats) -> Json {
    let map_to_json = |m: &BTreeMap<String, u64>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        )
    };
    Json::obj([
        ("faults_injected", Json::Num(stats.injected as f64)),
        ("faults_recovered", Json::Num(stats.recovered as f64)),
        ("faults_aborted", Json::Num(stats.aborted as f64)),
        ("recompute_seconds", Json::Num(stats.recompute_seconds)),
        ("by_kind", map_to_json(&stats.by_kind)),
        ("by_action", map_to_json(&stats.by_action)),
    ])
}

/// Recovery counters read back out of a profile document's `recovery`
/// block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryCounters {
    /// Faults the plane injected.
    pub injected: u64,
    /// Recovery rungs that handled a failure.
    pub recovered: u64,
    /// Failures surfaced as typed errors after exhausting recovery.
    pub aborted: u64,
    /// Wall seconds recovery spent recomputing.
    pub recompute_seconds: f64,
}

/// Reads the recovery counters from a profile document. `Ok(None)` for
/// pre-v4 profiles (no `recovery` block).
pub fn recovery_counters(text: &str) -> Result<Option<RecoveryCounters>> {
    let doc = parse_json(text)?;
    check_schema(&doc)?;
    let Some(block) = doc.get("recovery") else {
        return Ok(None);
    };
    let u = |key: &str| block.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(Some(RecoveryCounters {
        injected: u("faults_injected"),
        recovered: u("faults_recovered"),
        aborted: u("faults_aborted"),
        recompute_seconds: block
            .get("recompute_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    }))
}

// ---------------------------------------------------------------------------
// Rank recovery (v8)
// ---------------------------------------------------------------------------

/// Rank-supervisor recovery counters — the v8 top-level `rank_recovery`
/// block. `mqmd-util` cannot see the process runtime, so callers convert
/// the supervisor's native stats into this plain struct before reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankRecoveryCounters {
    /// Ranks respawned in place.
    pub restarts: u64,
    /// Ranks quarantined after exhausting the restart budget.
    pub quarantines: u64,
    /// Heartbeat suspect transitions (slow, not yet declared dead).
    pub suspects: u64,
    /// Per-death milliseconds from last frame seen to the death verdict.
    pub detect_ms: Vec<f64>,
    /// Per-restart milliseconds spent in backoff plus fork/exec.
    pub respawn_ms: Vec<f64>,
    /// Per-restart milliseconds from spawn to completed re-rendezvous.
    pub rejoin_ms: Vec<f64>,
}

/// Builds the v8 top-level `rank_recovery` block.
pub fn rank_recovery_block(c: &RankRecoveryCounters) -> Json {
    let arr = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    Json::obj([
        ("restarts", Json::Num(c.restarts as f64)),
        ("quarantines", Json::Num(c.quarantines as f64)),
        ("suspects", Json::Num(c.suspects as f64)),
        ("detect_ms", arr(&c.detect_ms)),
        ("respawn_ms", arr(&c.respawn_ms)),
        ("rejoin_ms", arr(&c.rejoin_ms)),
    ])
}

/// Reads the rank-recovery counters back from a profile document.
/// `Ok(None)` for pre-v8 profiles (no `rank_recovery` block).
pub fn rank_recovery_counters(text: &str) -> Result<Option<RankRecoveryCounters>> {
    let doc = parse_json(text)?;
    check_schema(&doc)?;
    let Some(block) = doc.get("rank_recovery") else {
        return Ok(None);
    };
    let u = |key: &str| block.get(key).and_then(Json::as_u64).unwrap_or(0);
    let arr = |key: &str| -> Vec<f64> {
        match block.get(key) {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
            _ => Vec::new(),
        }
    };
    Ok(Some(RankRecoveryCounters {
        restarts: u("restarts"),
        quarantines: u("quarantines"),
        suspects: u("suspects"),
        detect_ms: arr("detect_ms"),
        respawn_ms: arr("respawn_ms"),
        rejoin_ms: arr("rejoin_ms"),
    }))
}

// ---------------------------------------------------------------------------
// Roofline (v5)
// ---------------------------------------------------------------------------

/// One kernel's placement under the measured roofline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RooflineKernel {
    /// Sustained GFLOP/s the kernel achieved.
    pub achieved_gflops: f64,
    /// Arithmetic intensity: analytic FLOPs per byte of traffic.
    pub intensity_flops_per_byte: f64,
    /// The roofline at that intensity:
    /// `min(peak_gflops, intensity · peak_bw_gbps)`.
    pub roofline_gflops: f64,
    /// `achieved_gflops / roofline_gflops` (0 when the roofline is 0).
    pub fraction_of_peak: f64,
}

/// Machine peaks measured on the running host plus per-kernel placements —
/// the v5 `roofline` block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Roofline {
    /// Compute peak: FMA-ladder GFLOP/s across all cores.
    pub peak_gflops: f64,
    /// Memory peak: streaming-triad bandwidth in GB/s.
    pub peak_bw_gbps: f64,
    /// Kernel name → placement.
    pub kernels: BTreeMap<String, RooflineKernel>,
}

impl Roofline {
    /// The roofline value at a given arithmetic intensity (FLOPs/byte).
    pub fn at_intensity(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bw_gbps).min(self.peak_gflops)
    }

    /// Records a kernel measurement, deriving its roofline placement.
    pub fn place(&mut self, name: &str, achieved_gflops: f64, intensity: f64) {
        let roofline_gflops = self.at_intensity(intensity);
        let fraction_of_peak = if roofline_gflops > 0.0 {
            achieved_gflops / roofline_gflops
        } else {
            0.0
        };
        self.kernels.insert(
            name.to_string(),
            RooflineKernel {
                achieved_gflops,
                intensity_flops_per_byte: intensity,
                roofline_gflops,
                fraction_of_peak,
            },
        );
    }
}

/// Builds the v5 top-level `roofline` block.
pub fn roofline_block(r: &Roofline) -> Json {
    let kernels = r
        .kernels
        .iter()
        .map(|(name, k)| {
            (
                name.clone(),
                Json::obj([
                    ("achieved_gflops", Json::Num(k.achieved_gflops)),
                    (
                        "intensity_flops_per_byte",
                        Json::Num(k.intensity_flops_per_byte),
                    ),
                    ("roofline_gflops", Json::Num(k.roofline_gflops)),
                    ("fraction_of_peak", Json::Num(k.fraction_of_peak)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("peak_gflops", Json::Num(r.peak_gflops)),
        ("peak_bw_gbps", Json::Num(r.peak_bw_gbps)),
        ("kernels", Json::Obj(kernels)),
    ])
}

/// Reads the roofline block from a profile document. `Ok(None)` for
/// pre-v5 profiles (no `roofline` block).
pub fn roofline_summary(text: &str) -> Result<Option<Roofline>> {
    let doc = parse_json(text)?;
    check_schema(&doc)?;
    let Some(block) = doc.get("roofline") else {
        return Ok(None);
    };
    let g = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = Roofline {
        peak_gflops: g(block, "peak_gflops"),
        peak_bw_gbps: g(block, "peak_bw_gbps"),
        kernels: BTreeMap::new(),
    };
    if let Some(Json::Obj(pairs)) = block.get("kernels") {
        for (name, entry) in pairs {
            out.kernels.insert(
                name.clone(),
                RooflineKernel {
                    achieved_gflops: g(entry, "achieved_gflops"),
                    intensity_flops_per_byte: g(entry, "intensity_flops_per_byte"),
                    roofline_gflops: g(entry, "roofline_gflops"),
                    fraction_of_peak: g(entry, "fraction_of_peak"),
                },
            );
        }
    }
    Ok(Some(out))
}

// ---------------------------------------------------------------------------
// Service (v6)
// ---------------------------------------------------------------------------

/// Counters from the multi-tenant job runtime (`mqmd-serve`) — the v6
/// `service` block. A library-only profile emits this all-zero except for
/// the telemetry drop counters, which apply to every instrumented run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceCounters {
    /// Jobs accepted past admission control.
    pub submitted: u64,
    /// Jobs that reached a successful terminal state.
    pub completed: u64,
    /// Jobs that reached a failed terminal state (typed error).
    pub failed: u64,
    /// Admission rejections: global queue at capacity.
    pub rejected_queue_full: u64,
    /// Admission rejections: tenant over its quota.
    pub rejected_quota: u64,
    /// Admission rejections: deadline already expired at submit.
    pub rejected_deadline: u64,
    /// Admission rejections: malformed job spec.
    pub rejected_invalid: u64,
    /// Retry attempts scheduled after recoverable failures.
    pub retries: u64,
    /// Checkpoint-backed preemptions (job shed to make room).
    pub preemptions: u64,
    /// Preempted jobs resumed from their checkpoint.
    pub resumes: u64,
    /// Worker panics caught by supervision.
    pub panics_caught: u64,
    /// Peak queued-job count observed.
    pub queue_depth_peak: u64,
    /// Telemetry records dropped by the bounded event sink, keyed by the
    /// encoded lane ([`crate::events::Lane`]).
    pub event_drops_by_lane: BTreeMap<u32, u64>,
}

impl ServiceCounters {
    /// Total telemetry drops across lanes.
    pub fn event_drops(&self) -> u64 {
        self.event_drops_by_lane.values().sum()
    }

    /// Jobs in a terminal state (completed or failed). Ledger audits
    /// require `submitted == terminal()` after a drain.
    pub fn terminal(&self) -> u64 {
        self.completed + self.failed
    }
}

/// Builds the v6 top-level `service` block.
pub fn service_block(c: &ServiceCounters) -> Json {
    let drops = c
        .event_drops_by_lane
        .iter()
        .map(|(lane, n)| (lane.to_string(), Json::Num(*n as f64)))
        .collect();
    Json::obj([
        ("jobs_submitted", Json::Num(c.submitted as f64)),
        ("jobs_completed", Json::Num(c.completed as f64)),
        ("jobs_failed", Json::Num(c.failed as f64)),
        (
            "rejected_queue_full",
            Json::Num(c.rejected_queue_full as f64),
        ),
        ("rejected_quota", Json::Num(c.rejected_quota as f64)),
        ("rejected_deadline", Json::Num(c.rejected_deadline as f64)),
        ("rejected_invalid", Json::Num(c.rejected_invalid as f64)),
        ("retries", Json::Num(c.retries as f64)),
        ("preemptions", Json::Num(c.preemptions as f64)),
        ("resumes", Json::Num(c.resumes as f64)),
        ("panics_caught", Json::Num(c.panics_caught as f64)),
        ("queue_depth_peak", Json::Num(c.queue_depth_peak as f64)),
        ("event_drops", Json::Num(c.event_drops() as f64)),
        ("event_drops_by_lane", Json::Obj(drops)),
    ])
}

/// Reads the service counters from a profile document. `Ok(None)` for
/// pre-v6 profiles (no `service` block).
pub fn service_counters(text: &str) -> Result<Option<ServiceCounters>> {
    let doc = parse_json(text)?;
    check_schema(&doc)?;
    let Some(block) = doc.get("service") else {
        return Ok(None);
    };
    let u = |key: &str| block.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut event_drops_by_lane = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = block.get("event_drops_by_lane") {
        for (lane, n) in pairs {
            if let (Ok(lane), Some(n)) = (lane.parse::<u32>(), n.as_u64()) {
                event_drops_by_lane.insert(lane, n);
            }
        }
    }
    Ok(Some(ServiceCounters {
        submitted: u("jobs_submitted"),
        completed: u("jobs_completed"),
        failed: u("jobs_failed"),
        rejected_queue_full: u("rejected_queue_full"),
        rejected_quota: u("rejected_quota"),
        rejected_deadline: u("rejected_deadline"),
        rejected_invalid: u("rejected_invalid"),
        retries: u("retries"),
        preemptions: u("preemptions"),
        resumes: u("resumes"),
        panics_caught: u("panics_caught"),
        queue_depth_peak: u("queue_depth_peak"),
        event_drops_by_lane,
    }))
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
            comm_cost_secs: 1e-5,
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
                comm_cost_secs: 0.0,
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
    fn numbers_round_trip_integers_exactly() {
        let text = Json::Num(123456789.0).pretty();
        assert!(text.starts_with("123456789"));
        assert_eq!(parse_json("123456789").unwrap().as_u64(), Some(123456789));
    }

    #[test]
    fn profile_report_round_trips_kernels_v3() {
        let node = sample_node();
        let doc = profile_report(&node, &["gemm", "never_entered"], vec![]);
        let text = doc.pretty();
        assert_eq!(
            parse_json(&text).unwrap().get("schema").unwrap().as_str(),
            Some(PROFILE_SCHEMA)
        );
        let table = kernel_table(&text).unwrap();
        assert_eq!(table.len(), 1, "absent kernels omitted");
        let g = &table["gemm"];
        assert_eq!(g.calls, 4);
        assert_eq!(g.flops, 900);
        assert!((g.seconds - 1.5).abs() < 1e-12);
        assert!((g.gflops() - 900.0 / 1.5 / 1e9).abs() < 1e-15);
        // quantiles come from the per-call histogram (samples 0.3..0.45 s),
        // within the 6.25% bucket resolution
        assert!((g.p50_secs - 0.35).abs() / 0.35 < 0.0625);
        assert!((g.p99_secs - 0.45).abs() / 0.45 < 0.0625);
        assert!(g.p50_secs <= g.p95_secs && g.p95_secs <= g.p99_secs);
        assert!(g.std_err_secs > 0.0);
        // v3: per-kernel allocation counters round-trip
        assert_eq!(g.alloc_count, 12);
        assert_eq!(g.alloc_bytes, 6144);
        assert!((g.allocs_per_call() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_table_accepts_v2_schema() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V2}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200,\
             \"p50_secs\": 0.03, \"std_err_secs\": 1e-4}}}}}}"
        );
        let table = kernel_table(&text).unwrap();
        let f = &table["fft"];
        assert_eq!(f.calls, 7);
        assert!((f.p50_secs - 0.03).abs() < 1e-12);
        // v2 documents carry no allocation fields: they default to 0
        assert_eq!(f.alloc_count, 0);
        assert_eq!(f.alloc_bytes, 0);
        // ...and no alloc block
        assert_eq!(steady_scf_misses(&text).unwrap(), None);
    }

    #[test]
    fn alloc_block_round_trips() {
        let snap = crate::workspace::AllocSnapshot {
            hits: 100,
            misses: 7,
            miss_bytes: 8192,
        };
        let doc = Json::obj([
            ("schema", Json::Str(PROFILE_SCHEMA.into())),
            ("kernels", Json::Obj(vec![])),
            ("alloc", alloc_block(&snap, 0)),
        ]);
        let text = doc.pretty();
        assert_eq!(steady_scf_misses(&text).unwrap(), Some(0));
        let parsed = parse_json(&text).unwrap();
        let alloc = parsed.get("alloc").unwrap();
        assert_eq!(alloc.get("workspace_hits").unwrap().as_u64(), Some(100));
        assert_eq!(alloc.get("workspace_misses").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn kernel_table_accepts_v1_schema() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V1}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200}}}}}}"
        );
        let table = kernel_table(&text).unwrap();
        let f = &table["fft"];
        assert_eq!(f.calls, 7);
        assert_eq!(f.flops, 1200);
        assert!((f.seconds - 0.25).abs() < 1e-12);
        // v1 documents carry no quantile or noise fields: they default to 0
        assert_eq!(f.p50_secs, 0.0);
        assert_eq!(f.p95_secs, 0.0);
        assert_eq!(f.p99_secs, 0.0);
        assert_eq!(f.std_err_secs, 0.0);
    }

    #[test]
    fn kernel_table_accepts_v3_schema() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V3}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200,\
             \"alloc_count\": 2, \"alloc_bytes\": 64}}}}}}"
        );
        let table = kernel_table(&text).unwrap();
        assert_eq!(table["fft"].alloc_count, 2);
        // v3 documents carry no recovery block
        assert_eq!(recovery_counters(&text).unwrap(), None);
    }

    #[test]
    fn recovery_block_round_trips() {
        let mut stats = crate::faults::FaultStats {
            injected: 8,
            recovered: 7,
            aborted: 1,
            recompute_seconds: 0.125,
            ..Default::default()
        };
        stats.by_kind.insert("density_nan".into(), 3);
        stats.by_action.insert("domain_retry_cached".into(), 4);
        let doc = Json::obj([
            ("schema", Json::Str(PROFILE_SCHEMA.into())),
            ("kernels", Json::Obj(vec![])),
            ("recovery", recovery_block(&stats)),
        ]);
        let text = doc.pretty();
        let rc = recovery_counters(&text).unwrap().unwrap();
        assert_eq!(rc.injected, 8);
        assert_eq!(rc.recovered, 7);
        assert_eq!(rc.aborted, 1);
        assert!((rc.recompute_seconds - 0.125).abs() < 1e-12);
        let parsed = parse_json(&text).unwrap();
        let by_kind = parsed.get("recovery").unwrap().get("by_kind").unwrap();
        assert_eq!(by_kind.get("density_nan").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn roofline_block_round_trips() {
        let mut r = Roofline {
            peak_gflops: 100.0,
            peak_bw_gbps: 20.0,
            kernels: BTreeMap::new(),
        };
        // Memory-bound placement: roofline = 0.25 · 20 = 5 GFLOP/s.
        r.place("gemm", 4.0, 0.25);
        // Compute-bound placement: roofline capped at peak_gflops.
        r.place("fft", 50.0, 1000.0);
        assert!((r.kernels["gemm"].roofline_gflops - 5.0).abs() < 1e-12);
        assert!((r.kernels["gemm"].fraction_of_peak - 0.8).abs() < 1e-12);
        assert!((r.kernels["fft"].roofline_gflops - 100.0).abs() < 1e-12);
        let doc = Json::obj([
            ("schema", Json::Str(PROFILE_SCHEMA.into())),
            ("kernels", Json::Obj(vec![])),
            ("roofline", roofline_block(&r)),
        ]);
        let back = roofline_summary(&doc.pretty()).unwrap().unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn kernel_table_accepts_v4_schema_without_roofline() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V4}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200}}}}}}"
        );
        assert_eq!(kernel_table(&text).unwrap()["fft"].calls, 7);
        // v4 documents carry no roofline block
        assert_eq!(roofline_summary(&text).unwrap(), None);
    }

    #[test]
    fn service_block_round_trips() {
        let mut c = ServiceCounters {
            submitted: 12,
            completed: 9,
            failed: 3,
            rejected_queue_full: 2,
            rejected_quota: 1,
            rejected_deadline: 4,
            rejected_invalid: 1,
            retries: 5,
            preemptions: 2,
            resumes: 2,
            panics_caught: 1,
            queue_depth_peak: 6,
            ..Default::default()
        };
        c.event_drops_by_lane.insert(0, 10);
        c.event_drops_by_lane.insert(10_003, 4);
        assert_eq!(c.event_drops(), 14);
        assert_eq!(c.terminal(), 12);
        let doc = Json::obj([
            ("schema", Json::Str(PROFILE_SCHEMA.into())),
            ("kernels", Json::Obj(vec![])),
            ("service", service_block(&c)),
        ]);
        let back = service_counters(&doc.pretty()).unwrap().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn kernel_table_accepts_v5_schema_without_service() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V5}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200}}}}}}"
        );
        assert_eq!(kernel_table(&text).unwrap()["fft"].calls, 7);
        // v5 documents carry no service block
        assert_eq!(service_counters(&text).unwrap(), None);
    }

    #[test]
    fn kernel_table_accepts_v6_schema_without_twin() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V6}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200}}}}}}"
        );
        assert_eq!(kernel_table(&text).unwrap()["fft"].calls, 7);
    }

    #[test]
    fn kernel_table_accepts_v7_schema_without_rank_recovery() {
        let text = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA_V7}\", \"kernels\": {{\
             \"fft\": {{\"calls\": 7, \"seconds\": 0.25, \"flops\": 1200}}}}}}"
        );
        assert_eq!(kernel_table(&text).unwrap()["fft"].calls, 7);
        // v7 documents carry no rank_recovery block
        assert_eq!(rank_recovery_counters(&text).unwrap(), None);
    }

    #[test]
    fn rank_recovery_block_round_trips() {
        let c = RankRecoveryCounters {
            restarts: 2,
            quarantines: 1,
            suspects: 3,
            detect_ms: vec![120.5, 98.0],
            respawn_ms: vec![6.25, 11.0],
            rejoin_ms: vec![40.0, 37.5],
        };
        let doc = Json::obj([
            ("schema", Json::Str(PROFILE_SCHEMA.into())),
            ("kernels", Json::Obj(vec![])),
            ("rank_recovery", rank_recovery_block(&c)),
        ]);
        let back = rank_recovery_counters(&doc.pretty()).unwrap().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn kernel_table_requires_schema() {
        assert!(kernel_table("{\"kernels\": {}}").is_err());
        assert!(kernel_table("{\"schema\": \"other\", \"kernels\": {}}").is_err());
    }

    #[test]
    fn trace_json_preserves_hierarchy() {
        let doc = trace_to_json(&sample_node());
        let child = &doc.get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(child.get("name").unwrap().as_str(), Some("gemm"));
        assert_eq!(child.get("flops").unwrap().as_u64(), Some(900));
    }
}
