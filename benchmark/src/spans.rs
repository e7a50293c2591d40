//! The harness's own spans: recorded by the benchmark around its calls
//! into each layer, kept in memory, written out when the run ends.

use metascale_qmd::util::metrics::Json;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One harness span. Times are seconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation this span belongs to: step index, solve index, job id.
    pub op: u64,
}

/// In-memory span store for one run.
pub struct Recorder {
    t0: Instant,
    /// `t0` on the wall clock, for spans timed in another process.
    t0_unix: f64,
    spans: Vec<Span>,
}

/// Seconds since the UNIX epoch, the clock rank processes report in.
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            t0_unix: unix_now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let rel = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.push(name, rel(start), rel(end), parent, op)
    }

    /// Records a span another process timed on the wall clock.
    pub fn record_unix(
        &mut self,
        name: &'static str,
        start_unix: f64,
        secs: f64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let start = start_unix - self.t0_unix;
        self.push(name, start, start + secs, parent, op)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}
