//! The analytic FLOP tally of the 3-D transform, pinned to its closed form.
//!
//! `Fft3d` tallies a whole transform in one addition (its pencils run
//! untallied) and the global tally is sharded by thread; neither may change
//! a total. The expected count is written out here from `fft_flops` alone —
//! per pencil `5·n·log₂n`, plus, for a non-power-of-two length, the two
//! transforms of Bluestein's padded convolution — which is what one tally
//! per 1-D transform used to add up to.
//!
//! A batched, pruned transform tallies what it executes: per lane, the
//! lines its sweeps run — the columns and x-planes that hold support points
//! and then every x-line on the way to real space; every column, then the
//! z-columns and yz-pencils the support reads, on the way back — counted
//! here from the support alone.
//!
//! The tally and the trace tree are process-wide, so this file holds one
//! test.

use mqmd_fft::{Direction, Fft1d, Fft3d};
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

    pruned_batches_tally_the_lines_they_run(&ws);
}

/// 1-D transforms per lane in the z, y and x sweeps of a transform of
/// `dims` pruned to `support`, counted from the support.
fn pruned_lines(
    (nx, ny, nz): (usize, usize, usize),
    support: &[usize],
    dir: Direction,
) -> [usize; 3] {
    let distinct = |key: &dyn Fn(usize) -> usize| {
        let mut keys: Vec<usize> = support.iter().map(|&g| key(g)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };
    let columns = distinct(&|g| g / nz);
    let x_planes = distinct(&|g| g / (ny * nz));
    let z_indices = distinct(&|g| g % nz);
    let yz_pencils = distinct(&|g| g % (ny * nz));
    match dir {
        Direction::Inverse => [columns, x_planes * nz, ny * nz],
        Direction::Forward => [nx * ny, nx * z_indices, yz_pencils],
    }
}

fn pruned_batches_tally_the_lines_they_run(ws: &Workspace) {
    // The 27 lowest frequencies of a power-of-two and of a Bluestein grid, a
    // single point, and a grid with a unit axis (which has no sweep).
    let low = |i: usize, n: usize| i.min(n - i) <= 1;
    let low_cube = |(nx, ny, nz): (usize, usize, usize)| -> Vec<usize> {
        (0..nx * ny * nz)
            .filter(|&g| low(g / (ny * nz), nx) && low(g / nz % ny, ny) && low(g % nz, nz))
            .collect()
    };
    let cases = [
        ((8, 8, 8), low_cube((8, 8, 8)), 5),
        ((12, 10, 6), low_cube((12, 10, 6)), 3),
        ((8, 8, 8), vec![8 * 8 * 3 + 8 * 2 + 7], 2),
        ((5, 1, 3), vec![0, 4, 13], 4),
    ];
    for ((nx, ny, nz), support, lanes) in cases {
        let plan = Fft3d::new(nx, ny, nz);
        let pruning = plan.pruning(&support);
        for dir in [Direction::Inverse, Direction::Forward] {
            let lines = pruned_lines((nx, ny, nz), &support, dir);
            assert_eq!(pruning.lines(dir), lines, "{nx}x{ny}x{nz} {dir:?}");
            let sweeps: Vec<(usize, usize)> = [nz, ny, nx]
                .into_iter()
                .zip(lines)
                .filter(|&(n, _)| n > 1)
                .collect();
            let flops: u64 = sweeps
                .iter()
                .map(|&(n, k)| (lanes * k) as u64 * pencil_flops(n))
                .sum();
            // Every executed line streams its values in and out once.
            let bytes: u64 = sweeps
                .iter()
                .map(|&(n, k)| (2 * 16 * lanes * n * k) as u64)
                .sum();

            trace::set_enabled(true);
            trace::take();
            take_flops();
            let mut panel = vec![Complex64::ZERO; plan.len() * lanes];
            match dir {
                Direction::Inverse => plan.inverse_batch(&mut panel, lanes, Some(&pruning), ws),
                Direction::Forward => plan.forward_batch(&mut panel, lanes, Some(&pruning), ws),
            }
            let tallied = take_flops();
            let tree = trace::take();
            trace::set_enabled(false);
            assert_eq!(tallied, flops, "{nx}x{ny}x{nz} {dir:?} x{lanes}");
            let fft = tree.aggregate("fft").expect("a batch opens an fft span");
            assert_eq!(fft.calls, 1, "one span per batched call");
            assert_eq!(fft.flops, flops);
            assert_eq!(fft.bytes, bytes);
        }
        // Pruned to (8, 8, 8)'s 27 low frequencies, a band runs 9 + 24 + 64
        // of the 192 lines of a full transform.
        if support.len() == 27 && nx == 8 {
            assert_eq!(pruning.lines(Direction::Inverse), [9, 3 * 8, 64]);
            assert_eq!(pruning.lines(Direction::Forward), [64, 8 * 3, 9]);
        }
    }
}
