//! The four workloads. Each module builds its inputs from the seed, sets
//! up (several times, so `setup_s` is a median), runs its timed operations
//! through the driver-level entry points for `--seconds`, and checks the
//! outputs.

pub mod qmd;
pub mod ranks;
pub mod serve;

use crate::spans::Recorder;
use metascale_qmd::util::metrics::{parse_json, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// The options of one `run`.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One operation per phase, all plumbing exercised; numbers are not
    /// comparable with a full run's.
    pub smoke: bool,
    /// Names the commit in the result files (see `compare`).
    pub label: String,
    /// When `main` was entered: the first set-up is timed from here.
    pub started: Instant,
}

/// A workload's name, the `RAYON_NUM_THREADS` its process runs with, and
/// its entry point. Two busy threads at most on the 2-core reference
/// container: either one process with two compute threads, or two
/// single-threaded ranks / service workers.
type Workload = (&'static str, usize, fn(&RunArgs) -> Outcome);

const WORKLOADS: [Workload; 4] = [
    ("qmd_sic8_t1", 1, qmd::run),
    ("qmd_sic8_t2", 2, qmd::run),
    ("ranks_sic16_p2", 1, ranks::run),
    ("serve_h2_mix", 1, serve::run),
];

fn find(workload: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.0 == workload)
}

/// `RAYON_NUM_THREADS` of a workload's process, or `None` for a name that
/// is no workload.
pub fn rayon_threads(workload: &str) -> Option<usize> {
    find(workload).map(|w| w.1)
}

/// Runs a workload in this process, which must already have its
/// `RAYON_NUM_THREADS`.
pub fn run(workload: &str, args: &RunArgs) -> Option<Outcome> {
    find(workload).map(|w| w.2(args))
}

/// One output check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Per-layer metric values of one traced run. A metric a workload does not
/// set prints as 0: that layer did no work there (or, for a ratio between
/// two configurations, it was not measured on this workload).
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Everything a workload hands back.
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed operation: MD step, distributed solve, or job
    /// latency from due time to terminal state.
    pub op_s: Vec<f64>,
    /// Operations completed per second of the throughput phase.
    pub ops_per_s: f64,
    /// CPU seconds (user + system, every process of the workload) per
    /// timed operation.
    pub cpu_s_per_op: f64,
    /// Largest `VmHWM` of any process of the workload.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub layers: Layers,
    pub recorder: Recorder,
    /// Workload-specific outputs kept in the result file (energies, …).
    pub detail: Json,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            op_s: Vec::new(),
            ops_per_s: 0.0,
            cpu_s_per_op: 0.0,
            peak_rss_mb: 0.0,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            layers: Layers::default(),
            recorder: Recorder::new(),
            detail: Json::Null,
        }
    }

    /// Records an output check; a failed one counts in `failed`.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.failed += u64::from(!ok);
        self.checks.push(Check { name, ok, detail });
    }
}

/// The committed reference values, which exist for this seed only; other
/// seeds run the invariant checks alone.
pub const REFERENCE_SEED: u64 = 1;

/// `reference/seed1.json`, parsed.
pub fn reference() -> Json {
    parse_json(include_str!("../../reference/seed1.json")).expect("reference/seed1.json parses")
}
