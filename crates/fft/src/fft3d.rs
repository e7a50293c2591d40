//! Planned 3-D complex FFT over flattened arrays: one field, or a panel of
//! fields transformed together.
//!
//! Layout: `index = (ix·ny + iy)·nz + iz` (z fastest), and in a panel of
//! `lanes` fields `index·lanes + lane` — the `[grid point][band]` order in
//! which a row-major `Np × Nb` coefficient matrix already stores its bands.
//! The transform is three sweeps — all z-lines, then all y-lines, then all
//! x-lines, mirroring the butterfly network the paper draws inside each
//! domain (Fig 3, red lines) — and every sweep is [`Fft1d`]'s panel kernel
//! on rows that are already in place: a z-line of all lanes is a packed
//! `[nz][lanes]` panel, the y-lines of an x-plane are the `nz·lanes` lanes of
//! `ny` rows, the x-lines of the field the `ny·nz·lanes` lanes of `nx` rows.
//! Nothing is gathered or scattered; long rows are cut into blocks of lanes
//! that stay in cache while the stages pass over them.
//!
//! A [`Pruning`] names the lines a sparse reciprocal-space support makes
//! necessary (a plane-wave sphere fills a few percent of its grid). Because
//! the sweeps run z, y, x in both directions, the lines an inverse transform
//! may skip are exactly those whose input is all zero, and the lines a
//! forward transform may skip are exactly those no support point reads — so
//! every value a caller looks at is **bitwise** what the full transform
//! computes, signed zeros included (a skipped inverse line receives the
//! zeros that a transformed line of zeros holds, which the plan keeps).
//!
//! Each sweep is one parallel call over tasks of consecutive lines, each
//! with its own piece of a scratch buffer borrowed once per transform; a
//! line's result does not depend on which task ran it, so outputs are
//! bitwise identical across thread counts (`tests/determinism.rs`).

use crate::fft1d::{Direction, Fft1d, Rows};
use mqmd_util::flops::{count_flops, par_min_len};
use mqmd_util::simd::simd_available;
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::ops::Range;

/// The lines of a 3-D transform that a set of reciprocal-space grid points
/// (the *support*: the only points holding input of an inverse transform,
/// the only points read after a forward one) makes necessary. Built by
/// [`Fft3d::pruning`].
pub struct Pruning {
    dims: (usize, usize, usize),
    /// Whether z-column `ix·ny + iy` holds a support point.
    col_active: Vec<bool>,
    /// The same columns as a list, ascending.
    z_cols: Vec<usize>,
    /// Whether x-plane `ix` holds a support point.
    plane_active: Vec<bool>,
    /// Runs of `iz` at which some column holds a support point.
    iz_runs: Vec<Range<usize>>,
    /// Runs of yz-pencils `iy·nz + iz` that hold a support point at some
    /// `ix`; no run crosses from one `iy` to the next.
    yz_runs: Vec<Range<usize>>,
    forward_lines: [usize; 3],
    inverse_lines: [usize; 3],
}

/// The maximal runs of `true` in `active`, as ranges shifted by `offset`.
fn runs(active: &[bool], offset: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &a) in active.iter().chain(&[false]).enumerate() {
        match (a, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push(offset + s..offset + i);
                start = None;
            }
            _ => {}
        }
    }
    out
}

impl Pruning {
    fn new((nx, ny, nz): (usize, usize, usize), support: impl IntoIterator<Item = usize>) -> Self {
        let mut col_active = vec![false; nx * ny];
        let mut yz_active = vec![false; ny * nz];
        for g in support {
            assert!(g < nx * ny * nz, "support point outside the grid");
            col_active[g / nz] = true;
            yz_active[g % (ny * nz)] = true;
        }
        let count = |flags: &[bool]| flags.iter().filter(|&&a| a).count();
        let plane_active: Vec<bool> = col_active.chunks(ny).map(|p| p.contains(&true)).collect();
        let iz_active: Vec<bool> = (0..nz)
            .map(|iz| (0..ny).any(|iy| yz_active[iy * nz + iz]))
            .collect();
        Self {
            dims: (nx, ny, nz),
            z_cols: (0..nx * ny).filter(|&c| col_active[c]).collect(),
            iz_runs: runs(&iz_active, 0),
            yz_runs: yz_active
                .chunks(nz)
                .enumerate()
                .flat_map(|(iy, row)| runs(row, iy * nz))
                .collect(),
            forward_lines: [nx * ny, nx * count(&iz_active), count(&yz_active)],
            inverse_lines: [count(&col_active), count(&plane_active) * nz, ny * nz],
            col_active,
            plane_active,
        }
    }

    /// 1-D transforms per lane that the z, y and x sweeps of a transform in
    /// direction `dir` execute (what its FLOP and byte tally is made of).
    pub fn lines(&self, dir: Direction) -> [usize; 3] {
        match dir {
            Direction::Forward => self.forward_lines,
            Direction::Inverse => self.inverse_lines,
        }
    }
}

/// The field of one sweep, shared by its tasks. It lends out elements only
/// through `unsafe` methods whose callers keep concurrent loans disjoint.
#[derive(Clone, Copy)]
struct Field<'a> {
    ptr: *mut Complex64,
    len: usize,
    /// The exclusive borrow the field was made from, held for as long as
    /// any copy lives, so that nothing else reaches the elements.
    _borrow: PhantomData<&'a mut [Complex64]>,
}

// SAFETY: `Field` is a pointer with the rights of the `&mut [Complex64]` it
// was made from (which is `Send`); sharing it between threads lets them do
// no more than call its `unsafe` methods, whose contract covers concurrent
// use.
unsafe impl Sync for Field<'_> {}

impl<'a> Field<'a> {
    fn new(data: &'a mut [Complex64]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _borrow: PhantomData,
        }
    }

    /// Elements `range` of the field.
    ///
    /// # Safety
    /// No other loan of this field that is live at the same time may
    /// include an element of `range`.
    #[allow(clippy::mut_from_ref)] // a disjoint piece of a `&mut`, see above
    unsafe fn slice(&self, range: Range<usize>) -> &mut [Complex64] {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }

    /// Transforms, with `plan`, lanes `offset .. offset + width` of the
    /// `plan.len()` rows that start `stride` elements apart.
    ///
    /// # Safety
    /// As [`Field::slice`], for the `width` elements from
    /// `offset + r·stride` of every row `r`.
    unsafe fn transform(
        &self,
        plan: &Fft1d,
        offset: usize,
        stride: usize,
        width: usize,
        scratch: &mut [Complex64],
        dir: Direction,
    ) {
        assert!(offset + (plan.len() - 1) * stride + width <= self.len);
        let rows = Rows {
            ptr: self.ptr.add(offset),
            stride,
        };
        plan.lanes_raw(rows, width, scratch, dir, simd_available());
    }
}

/// Cuts `span` into the fewest equal blocks of at most `max` lanes.
fn blocks(span: Range<usize>, max: usize) -> impl Iterator<Item = Range<usize>> {
    let count = span.len().div_ceil(max).max(1);
    let width = span.len().div_ceil(count);
    (0..count).map(move |b| span.start + b * width..(span.start + (b + 1) * width).min(span.end))
}

/// Writes `pattern[r]` to every lane of row `r` of the packed panel `dst`.
fn broadcast(dst: &mut [Complex64], pattern: &[Complex64], lanes: usize) {
    for (row, &p) in dst.chunks_exact_mut(lanes).zip(pattern) {
        row.fill(p);
    }
}

/// One sweep's division of labour: `items` units of work as `tasks` tasks of
/// consecutive units, each with `chunk` values of scratch.
struct Sweep {
    items: usize,
    tasks: usize,
    /// Most lanes one kernel call takes.
    width: usize,
    chunk: usize,
    /// Analytic FLOPs of the whole sweep.
    flops: u64,
}

impl Sweep {
    /// A sweep of `items` units costing `flops` together, at most `width`
    /// lanes of `plan` at a time. A task gets at least the work that repays
    /// a dispatch ([`par_min_len`]); one thread gets one task, whose scratch
    /// then stays in cache from unit to unit.
    fn new(plan: &Fft1d, width: usize, items: usize, flops: u64) -> Self {
        let threads = rayon::current_num_threads();
        let tasks = if threads == 1 || items == 0 {
            1
        } else {
            (items / par_min_len(flops / items as u64)).clamp(1, threads * 8)
        };
        Self {
            items,
            tasks,
            width,
            chunk: plan.scratch_rows() * width,
            flops,
        }
    }

    /// Runs `work(units, scratch)` for every task: one parallel call.
    fn run(&self, scratch: &mut [Complex64], work: impl Fn(Range<usize>, &mut [Complex64]) + Sync) {
        let per_task = self.items.div_ceil(self.tasks);
        scratch[..self.tasks * self.chunk]
            .par_chunks_mut(self.chunk)
            .enumerate()
            .for_each(|(t, chunk)| {
                let end = ((t + 1) * per_task).min(self.items);
                work((t * per_task).min(end)..end, chunk);
            });
    }
}

/// Scratch that serves each of `sweeps` in turn.
fn scratch_len(sweeps: &[Sweep]) -> usize {
    sweeps.iter().map(|s| s.tasks * s.chunk).max().unwrap_or(0)
}

/// A planned 3-D FFT of fixed dimensions.
pub struct Fft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: Fft1d,
    plan_y: Fft1d,
    plan_z: Fft1d,
    /// The pruning that skips nothing.
    full: Pruning,
    /// What the inverse z sweep leaves of an all-zero line — zeros, whose
    /// signs depend on the butterflies they went through. Lines a pruned
    /// inverse skips are given these, so that later sweeps and the caller
    /// see the bits the full transform produces.
    zero_z: Vec<Complex64>,
    /// The same for the inverse z and y sweeps of an all-zero x-plane.
    zero_zy: Vec<Complex64>,
    /// Scratch of the entry points that take no workspace.
    arena: Workspace,
}

impl Fft3d {
    /// Plans a transform for an `(nx, ny, nz)` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        let (plan_x, plan_y, plan_z) = (Fft1d::new(nx), Fft1d::new(ny), Fft1d::new(nz));
        let mut scratch =
            vec![Complex64::ZERO; plan_z.scratch_rows().max(plan_y.scratch_rows() * nz)];
        let simd = simd_available();
        let mut zero_z = vec![Complex64::ZERO; nz];
        plan_z.panel_untallied(&mut zero_z, 1, 0..1, &mut scratch, Direction::Inverse, simd);
        let mut zero_zy = zero_z.repeat(ny);
        plan_y.panel_untallied(
            &mut zero_zy,
            nz,
            0..nz,
            &mut scratch,
            Direction::Inverse,
            simd,
        );
        let plan = Self {
            nx,
            ny,
            nz,
            plan_x,
            plan_y,
            plan_z,
            full: Pruning::new((nx, ny, nz), 0..nx * ny * nz),
            zero_z,
            zero_zy,
            arena: Workspace::new(),
        };
        // The scratch of `forward`/`inverse` is part of the plan: a plan made
        // for one transform (the ionic potential, the Hartree force) pays
        // for it here, with its twiddle tables, not as a workspace miss.
        let one_field = plan.sweeps(1, &plan.full, Direction::Forward);
        plan.arena.reserve_c64(scratch_len(&one_field), 1);
        plan
    }

    /// Creates a plan for a cubic grid.
    pub fn cubic(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Returns false: a planned transform always has at least one point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat index of grid point `(ix, iy, iz)`.
    #[inline(always)]
    pub fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (ix * self.ny + iy) * self.nz + iz
    }

    /// The lines of this plan's transforms that `support`, a set of flat
    /// grid indices, makes necessary.
    pub fn pruning(&self, support: &[usize]) -> Pruning {
        Pruning::new(self.dims(), support.iter().copied())
    }

    /// In-place forward transform (scratch from the plan's own arena).
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, 1, &self.full, Direction::Forward, &self.arena);
    }

    /// In-place inverse transform (scaled by `1/(nx·ny·nz)`; scratch from
    /// the plan's own arena).
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, 1, &self.full, Direction::Inverse, &self.arena);
    }

    /// In-place forward transform with scratch borrowed from `ws`.
    /// Bitwise identical to [`Fft3d::forward`].
    pub fn forward_with(&self, data: &mut [Complex64], ws: &Workspace) {
        self.transform(data, 1, &self.full, Direction::Forward, ws);
    }

    /// In-place inverse transform with scratch borrowed from `ws`.
    /// Bitwise identical to [`Fft3d::inverse`].
    pub fn inverse_with(&self, data: &mut [Complex64], ws: &Workspace) {
        self.transform(data, 1, &self.full, Direction::Inverse, ws);
    }

    /// Forward transform of the `lanes` fields of a `[grid point][lane]`
    /// panel. With a `pruning`, only its support holds the transform on
    /// return — bitwise what [`Fft3d::forward`] leaves there for each field
    /// alone — and every other point an unspecified value.
    pub fn forward_batch(
        &self,
        panel: &mut [Complex64],
        lanes: usize,
        pruning: Option<&Pruning>,
        ws: &Workspace,
    ) {
        let pruning = pruning.unwrap_or(&self.full);
        self.transform(panel, lanes, pruning, Direction::Forward, ws);
    }

    /// Inverse transform of the `lanes` fields of a `[grid point][lane]`
    /// panel. With a `pruning`, the panel must be `+0` off its support on
    /// entry (as a fresh workspace borrow is); every point then comes out
    /// bitwise as [`Fft3d::inverse`] leaves it for each field alone.
    pub fn inverse_batch(
        &self,
        panel: &mut [Complex64],
        lanes: usize,
        pruning: Option<&Pruning>,
        ws: &Workspace,
    ) {
        let pruning = pruning.unwrap_or(&self.full);
        self.transform(panel, lanes, pruning, Direction::Inverse, ws);
    }

    /// What the z, y and x sweeps of a transform pruned by `pr` run over:
    /// columns, runs of `iz` within every x-plane, runs of yz-pencils. An
    /// inverse reads the support, so it runs the columns and planes that
    /// hold some and then every x-line; a forward transform writes it, so
    /// it runs every column and then what the support reads.
    fn units<'a>(
        &'a self,
        pr: &'a Pruning,
        dir: Direction,
    ) -> (&'a [usize], &'a [Range<usize>], &'a [Range<usize>]) {
        match dir {
            Direction::Inverse => (&pr.z_cols, &self.full.iz_runs, &self.full.yz_runs),
            Direction::Forward => (&self.full.z_cols, &pr.iz_runs, &pr.yz_runs),
        }
    }

    /// The z, y and x sweeps of a `lanes`-field transform pruned by `pr`.
    fn sweeps(&self, lanes: usize, pr: &Pruning, dir: Direction) -> [Sweep; 3] {
        let lines = pr.lines(dir);
        let flops = |plan: &Fft1d, k: usize| (lanes * lines[k]) as u64 * plan.flops();
        let (z_cols, _, yz_runs) = self.units(pr, dir);
        let plane = self.ny * self.nz * lanes;
        let block_y = self.plan_y.block_lanes().min(self.nz * lanes);
        let block_x = self.plan_x.block_lanes().min(plane);
        [
            Sweep::new(&self.plan_z, lanes, z_cols.len(), flops(&self.plan_z, 0)),
            Sweep::new(&self.plan_y, block_y, self.nx, flops(&self.plan_y, 1)),
            Sweep::new(&self.plan_x, block_x, yz_runs.len(), flops(&self.plan_x, 2)),
        ]
    }

    fn transform(
        &self,
        data: &mut [Complex64],
        lanes: usize,
        pr: &Pruning,
        dir: Direction,
        ws: &Workspace,
    ) {
        let _span = mqmd_util::trace::span("fft");
        assert!(lanes >= 1, "a panel has at least one lane");
        assert_eq!(data.len(), self.len() * lanes, "buffer length mismatch");
        assert_eq!(pr.dims, self.dims(), "pruning of another grid");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let inverse = dir == Direction::Inverse;

        // The tally is what the sweeps below execute: per lane and sweep,
        // `lines` 1-D transforms, each streaming its values in and out once
        // (a length-1 axis has no sweep).
        let sweeps = self.sweeps(lanes, pr, dir);
        count_flops(sweeps.iter().map(|s| s.flops).sum());
        let values: usize = [nz, ny, nx]
            .iter()
            .zip(pr.lines(dir))
            .filter(|(&n, _)| n > 1)
            .map(|(&n, k)| n * k)
            .sum();
        mqmd_util::trace::add_bytes((2 * 16 * lanes * values) as u64);

        let (z_cols, iz_runs, yz_runs) = self.units(pr, dir);
        let plane = ny * nz * lanes;
        let mut scratch = ws.borrow_c64(scratch_len(&sweeps));
        let [z, y, x] = sweeps;
        let field = Field::new(data);

        // Axis z: a column of all lanes is a packed [nz][lanes] panel.
        if nz > 1 {
            z.run(&mut scratch, |cols, scratch| {
                for &c in &z_cols[cols] {
                    // SAFETY: column `c` is the `nz·lanes` elements from
                    // `c·nz·lanes`; columns are distinct, each in one task.
                    unsafe {
                        field.transform(&self.plan_z, c * nz * lanes, lanes, lanes, scratch, dir)
                    };
                }
            });
        }

        // Axis y: an x-plane is `ny` rows of `nz·lanes` lanes. A pruned
        // inverse first gives the lines it skipped their zeros.
        if ny > 1 || (inverse && z_cols.len() < nx * ny) {
            y.run(&mut scratch, |planes, scratch| {
                for ix in planes {
                    let base = ix * plane;
                    if inverse && !pr.plane_active[ix] {
                        // SAFETY: x-plane `ix`, which only this task names.
                        let all = unsafe { field.slice(base..base + plane) };
                        broadcast(all, &self.zero_zy, lanes);
                        continue;
                    }
                    if inverse {
                        for iy in (0..ny).filter(|iy| !pr.col_active[ix * ny + iy]) {
                            let col = base + iy * nz * lanes;
                            // SAFETY: a column of x-plane `ix`, as above.
                            let col = unsafe { field.slice(col..col + nz * lanes) };
                            broadcast(col, &self.zero_z, lanes);
                        }
                    }
                    if ny == 1 {
                        continue;
                    }
                    for run in iz_runs {
                        for b in blocks(run.start * lanes..run.end * lanes, y.width) {
                            // SAFETY: lanes of the rows of x-plane `ix`,
                            // `b.end ≤ nz·lanes`, the row stride.
                            unsafe {
                                field.transform(
                                    &self.plan_y,
                                    base + b.start,
                                    nz * lanes,
                                    b.len(),
                                    scratch,
                                    dir,
                                )
                            };
                        }
                    }
                }
            });
        }

        // Axis x: the field is `nx` rows of `ny·nz·lanes` lanes; a task
        // takes the lanes of consecutive runs of yz-pencils.
        if nx > 1 {
            x.run(&mut scratch, |units, scratch| {
                let mut i = units.start;
                while i < units.end {
                    // Runs that touch (a whole row of pencils, then the
                    // next) are one span of lanes.
                    let mut span = yz_runs[i].clone();
                    i += 1;
                    while i < units.end && yz_runs[i].start == span.end {
                        span.end = yz_runs[i].end;
                        i += 1;
                    }
                    for b in blocks(span.start * lanes..span.end * lanes, x.width) {
                        // SAFETY: lanes `b` of every row; runs are disjoint
                        // ranges of pencils below `ny·nz`, each in one task.
                        unsafe {
                            field.transform(&self.plan_x, b.start, plane, b.len(), scratch, dir)
                        };
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::bin_freq;

    fn random_field(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.normal(), rng.normal()))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn round_trip() {
        for (nx, ny, nz) in [(4, 4, 4), (8, 4, 2), (3, 5, 7), (16, 16, 16)] {
            let plan = Fft3d::new(nx, ny, nz);
            let x = random_field(plan.len(), (nx * 100 + ny * 10 + nz) as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-9, "dims {nx}x{ny}x{nz}");
        }
    }

    #[test]
    fn matches_separable_naive_dft() {
        // 3-D DFT of a separable product equals product of 1-D DFTs.
        let (nx, ny, nz) = (4usize, 8usize, 2usize);
        let fx = random_field(nx, 1);
        let fy = random_field(ny, 2);
        let fz = random_field(nz, 3);
        let plan = Fft3d::new(nx, ny, nz);
        let mut data = vec![Complex64::ZERO; plan.len()];
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    data[plan.index(ix, iy, iz)] = fx[ix] * fy[iy] * fz[iz];
                }
            }
        }
        plan.forward(&mut data);

        let mut fxh = fx.clone();
        let mut fyh = fy.clone();
        let mut fzh = fz.clone();
        Fft1d::new(nx).forward(&mut fxh);
        Fft1d::new(ny).forward(&mut fyh);
        Fft1d::new(nz).forward(&mut fzh);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let expect = fxh[ix] * fyh[iy] * fzh[iz];
                    let got = data[plan.index(ix, iy, iz)];
                    assert!((expect - got).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn plane_wave_gives_delta_in_g_space() {
        let n = 8;
        let plan = Fft3d::cubic(n);
        let (kx, ky, kz) = (2i64, -3i64, 1i64);
        let mut data = vec![Complex64::ZERO; plan.len()];
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let phase = std::f64::consts::TAU
                        * (kx * ix as i64 + ky * iy as i64 + kz * iz as i64) as f64
                        / n as f64;
                    data[plan.index(ix, iy, iz)] = Complex64::cis(phase);
                }
            }
        }
        plan.forward(&mut data);
        let total = plan.len() as f64;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let here = (bin_freq(ix, n), bin_freq(iy, n), bin_freq(iz, n));
                    let mag = data[plan.index(ix, iy, iz)].abs();
                    if here == (kx, ky, kz) {
                        assert!((mag - total).abs() < 1e-8);
                    } else {
                        assert!(mag < 1e-8, "leakage at {here:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let plan = Fft3d::new(8, 8, 8);
        let x = random_field(plan.len(), 42);
        let mut y = x.clone();
        plan.forward(&mut y);
        let e_r: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_g: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / plan.len() as f64;
        assert!((e_r - e_g).abs() < 1e-8 * e_r);
    }

    #[test]
    fn degenerate_dimensions() {
        // (1,1,n) reduces to a 1-D transform.
        let plan = Fft3d::new(1, 1, 16);
        let x = random_field(16, 5);
        let mut got = x.clone();
        plan.forward(&mut got);
        let mut expect = x;
        Fft1d::new(16).forward(&mut expect);
        assert!(max_err(&got, &expect) < 1e-10);
    }
}
