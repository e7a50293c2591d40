//! The analytic FLOP tally of the 3-D transform, pinned to its closed form.
//!
//! `Fft3d` tallies a whole transform in one addition (its pencils run
//! untallied) and the global tally is sharded by thread; neither may change
//! a total. The expected count is written out here from `fft_flops` alone —
//! per pencil `5·n·log₂n`, plus, for a non-power-of-two length, the two
//! transforms of Bluestein's padded convolution — which is what one tally
//! per 1-D transform used to add up to.
//!
//! The tally and the trace tree are process-wide, so this file holds one
//! test.

use mqmd_fft::{Fft1d, Fft3d};
use mqmd_util::flops::{fft_flops, take_flops};
use mqmd_util::workspace::Workspace;
use mqmd_util::{trace, Complex64};

/// FLOPs one 1-D transform of length `n` tallies.
fn pencil_flops(n: usize) -> u64 {
    if n.is_power_of_two() {
        fft_flops(n as u64)
    } else {
        let m = (2 * n - 1).next_power_of_two();
        fft_flops(n as u64) + 2 * fft_flops(m as u64)
    }
}

/// FLOPs one 3-D transform tallies: every pencil of every axis longer
/// than one point.
fn transform_flops((nx, ny, nz): (usize, usize, usize)) -> u64 {
    [nx, ny, nz]
        .into_iter()
        .filter(|&n| n > 1)
        .map(|n| (nx * ny * nz / n) as u64 * pencil_flops(n))
        .sum()
}

#[test]
fn fft3d_flop_tally_matches_the_closed_form_at_one_and_four_threads() {
    // Powers of two, Bluestein lengths, a unit axis, and a shape whose
    // sweeps go to the thread pool at four threads.
    let shapes = [(16, 8, 4), (12, 10, 6), (5, 1, 3), (32, 24, 20)];
    let plans: Vec<Fft3d> = shapes
        .iter()
        .map(|&(nx, ny, nz)| Fft3d::new(nx, ny, nz))
        .collect();
    let ws = Workspace::new();
    // Four transforms per shape and batch.
    let expected: u64 = shapes.iter().map(|&s| 4 * transform_flops(s)).sum();
    assert_eq!(transform_flops((16, 8, 4)), 512 * (5 * 4 + 5 * 3 + 5 * 2));

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        trace::set_enabled(true);
        trace::take();
        take_flops();
        let dispatched = pool.install(|| {
            let dispatched = rayon::pool_dispatches();
            for plan in &plans {
                let mut x = vec![Complex64::new(0.5, -1.0); plan.len()];
                plan.forward(&mut x);
                plan.inverse(&mut x);
                plan.forward_with(&mut x, &ws);
                plan.inverse_with(&mut x, &ws);
            }
            rayon::pool_dispatches() - dispatched
        });
        let tallied = take_flops();
        let tree = trace::take();
        trace::set_enabled(false);
        assert_eq!(dispatched > 0, threads > 1, "{threads} threads");
        assert_eq!(tallied, expected, "global tally at {threads} threads");
        // The same count reaches the span that encloses each tally, also
        // from pencils that ran on pool workers.
        let fft = tree.aggregate("fft").expect("transforms open fft spans");
        assert_eq!(fft.calls, 16);
        assert_eq!(fft.flops, expected, "span tally at {threads} threads");
    }

    // The 1-D entry points tally per call, as they always did.
    take_flops();
    let mut line = vec![Complex64::ONE; 12];
    Fft1d::new(12).forward(&mut line);
    assert_eq!(take_flops(), fft_flops(32) + pencil_flops(12));
}
