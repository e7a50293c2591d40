//! Per-layer metrics read off the program's existing span tree
//! (`mqmd_util::trace`, through the public `take()`); nothing here adds a
//! span or a counter to the program.

use crate::workloads::Layers;
use metascale_qmd::util::trace::TraceNode;

/// What the traced operations of a run add up to.
pub struct OpTotals {
    /// Traced operations (steps, solves, jobs).
    pub ops: f64,
    /// Wall seconds of those operations, summed.
    pub wall_s: f64,
    /// Seconds the harness measured inside the layer boundary the span
    /// tree hangs from: force evaluations, solves, or job service time.
    pub inner_s: f64,
}

/// Every metric [`from_trace`] sets, in the order rank 0 ships them to the
/// parent process.
pub const TRACE_METRICS: [&str; 20] = [
    "core.scf_iter_s_p50",
    "core.domain_solve_s_per_op",
    "core.domain_solve_self_frac",
    "core.global_density_s_per_op",
    "core.global_reduce_s_per_op",
    "core.unattributed_frac",
    "dft.hamiltonian_s_per_op",
    "dft.hamiltonian_calls_per_op",
    "fft.calls_per_op",
    "fft.s_per_op",
    "fft.frac_of_op",
    "fft.us_per_call_p50",
    "fft.gflops",
    "fft.computed_bytes_per_flop",
    "linalg.gemm_s_per_op",
    "linalg.gemm_gflops",
    "linalg.orthonorm_s_per_op",
    "multigrid.poisson_s_per_op",
    "multigrid.poisson_calls_per_op",
    "util.alloc_bytes_per_op",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Inclusive and self wall seconds summed over every span called `name`.
fn wall_and_self(root: &TraceNode, name: &str) -> (f64, f64) {
    let (mut wall, mut own) = (0.0, 0.0);
    root.visit(&mut |n| {
        if n.name == name {
            wall += n.wall_secs;
            own += n.self_wall_secs();
        }
    });
    (wall, own)
}

/// Wall seconds of the outermost program spans: the children of the root,
/// looking through `qmd_step`, which wraps the integrator as well as the
/// force evaluation the harness times.
fn top_level_wall(root: &TraceNode) -> f64 {
    root.children
        .iter()
        .map(|c| {
            if c.name == "qmd_step" {
                top_level_wall(c)
            } else {
                c.wall_secs
            }
        })
        .sum()
}

pub fn from_trace(root: &TraceNode, t: &OpTotals, layers: &mut Layers) {
    // A span name the program does not open (yet) aggregates to zeros.
    let agg = |name: &str| root.aggregate(name);
    let wall = |name: &str| agg(name).map_or(0.0, |n| n.wall_secs);
    let calls = |name: &str| agg(name).map_or(0.0, |n| n.calls as f64);

    layers.set(
        "core.scf_iter_s_p50",
        agg("scf_iter").map_or(0.0, |n| n.wall_quantile_secs(0.5)),
    );
    let (ds_wall, ds_self) = wall_and_self(root, "domain_solve");
    layers.set("core.domain_solve_s_per_op", ratio(ds_wall, t.ops));
    layers.set("core.domain_solve_self_frac", ratio(ds_self, ds_wall));
    layers.set(
        "core.global_density_s_per_op",
        ratio(wall("global_density"), t.ops),
    );
    layers.set(
        "core.global_reduce_s_per_op",
        ratio(wall("global_reduce"), t.ops),
    );
    layers.set(
        "core.unattributed_frac",
        if t.inner_s > 0.0 {
            1.0 - top_level_wall(root) / t.inner_s
        } else {
            0.0
        },
    );

    layers.set(
        "dft.hamiltonian_s_per_op",
        ratio(wall("hamiltonian"), t.ops),
    );
    layers.set(
        "dft.hamiltonian_calls_per_op",
        ratio(calls("hamiltonian"), t.ops),
    );

    if let Some(fft) = agg("fft") {
        layers.set("fft.calls_per_op", ratio(fft.calls as f64, t.ops));
        layers.set("fft.s_per_op", ratio(fft.wall_secs, t.ops));
        layers.set("fft.frac_of_op", ratio(fft.wall_secs, t.wall_s));
        layers.set("fft.us_per_call_p50", fft.wall_quantile_secs(0.5) * 1e6);
        layers.set("fft.gflops", fft.gflops());
        layers.set(
            "fft.computed_bytes_per_flop",
            ratio(fft.bytes as f64, fft.flops as f64),
        );
    }

    layers.set("linalg.gemm_s_per_op", ratio(wall("gemm"), t.ops));
    layers.set(
        "linalg.gemm_gflops",
        agg("gemm").map_or(0.0, |n| n.gflops()),
    );
    layers.set("linalg.orthonorm_s_per_op", ratio(wall("orthonorm"), t.ops));

    layers.set("multigrid.poisson_s_per_op", ratio(wall("poisson"), t.ops));
    layers.set(
        "multigrid.poisson_calls_per_op",
        ratio(calls("poisson"), t.ops),
    );

    // Counters sit on the innermost span that was open, so the tree total
    // is the sum over every node.
    let mut alloc_bytes = 0.0;
    root.visit(&mut |n| alloc_bytes += n.alloc_bytes as f64);
    layers.set("util.alloc_bytes_per_op", ratio(alloc_bytes, t.ops));
}
