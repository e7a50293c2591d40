//! The all-band hot path touches the heap only through its workspace: once
//! warm, `KsHamiltonian::apply_into`, `density_into` and the 3-D transforms
//! make **zero** heap allocations on one thread.
//!
//! `tests/workspace_reuse.rs` proves that no *workspace borrow* misses in
//! steady state; a `vec!` inside a kernel is invisible to that ledger (the
//! 1-D transform used to make one per pencil, 4.6 M a QMD step). This file
//! counts what the allocator itself sees: it installs a counting
//! `#[global_allocator]` for its process, and counts per thread, so its
//! tests do not see one another. The LDC transfer plan's two table walks
//! (global → domain sampling, `ρ = Σα pα·ρα`) are held to the same zero, as
//! is the sampling into a domain's eigensolver arena the conquer step does.

use metascale_qmd::core::transfer::TransferPlan;
use metascale_qmd::dft::density::density_into;
use metascale_qmd::dft::eigensolver::EigWorkspace;
use metascale_qmd::dft::hamiltonian::{build_projectors, ionic_local_potential, KsHamiltonian};
use metascale_qmd::dft::pw::PlaneWaveBasis;
use metascale_qmd::dft::species::Pseudopotential;
use metascale_qmd::fft::{Fft1d, Fft3d};
use metascale_qmd::grid::UniformGrid3;
use metascale_qmd::linalg::CMatrix;
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::workspace::Workspace;
use metascale_qmd::util::{Complex64, Vec3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) this thread made while `COUNTING`.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing to count.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations this thread makes inside `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_hamiltonian_density_and_fft_allocate_nothing_at_one_thread() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool construction cannot fail");
    // A power-of-two grid (the benchmark's domain grid) and a Bluestein one;
    // 18 bands are two full panels and a short one.
    for (n, cell, ecut) in [(8usize, 7.0, 3.0), (12, 9.0, 4.0)] {
        let basis = PlaneWaveBasis::new(UniformGrid3::cubic(n, cell), ecut);
        let si = Pseudopotential::for_element(Element::Si);
        let atoms = vec![
            (si, Vec3::new(2.0, 0.5 * cell, 0.5 * cell)),
            (si, Vec3::new(0.7 * cell, 0.5 * cell, 0.45 * cell)),
        ];
        let v = ionic_local_potential(basis.grid(), &atoms);
        let nl = build_projectors(&basis, &atoms);
        let h = KsHamiltonian::new(&basis, v, nl.as_ref());
        let nb = 18;
        let psi = basis.random_bands(nb, 5);
        let mut h_psi = CMatrix::zeros(basis.len(), nb);
        let mut band_out = vec![Complex64::ZERO; basis.len()];
        let band = psi.col(3);
        let occ: Vec<f64> = (0..nb).map(|b| if b < 14 { 2.0 } else { 0.0 }).collect();
        let mut rho = vec![0.0; basis.grid().len()];
        let plan = Fft3d::new(n, n, n);
        let line = Fft1d::new(n);
        let mut field = vec![Complex64::new(0.5, -1.0); plan.len()];
        let ws = Workspace::new();
        let mut work = || {
            h.apply_into(&psi, &mut h_psi, &ws);
            h.apply_band_into(&band, &mut band_out, &ws);
            density_into(&basis, &psi, &occ, &mut rho, &ws);
            plan.forward_with(&mut field, &ws);
            plan.inverse_with(&mut field, &ws);
            plan.forward(&mut field);
            plan.inverse(&mut field);
            line.forward(&mut field[..n]);
            line.inverse_scalar(&mut field[..n]);
        };
        pool.install(|| {
            work();
            work();
            let made = allocations(|| {
                for _ in 0..3 {
                    work();
                }
            });
            assert_eq!(
                made, 0,
                "{n}³ grid: warm kernels made {made} heap allocations"
            );
        });
    }
}

#[test]
fn warm_transfer_tables_allocate_nothing_at_one_thread() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool construction cannot fail");
    // The benchmark's SiC-8 decomposition (two overlapping domains) and its
    // H₂ one (a single whole-cell domain).
    for (cell, nd, buffer) in [(8.24, (2, 1, 1), 1.0), (8.0, (1, 1, 1), 0.0)] {
        let plan = TransferPlan::new(Vec3::splat(cell), nd, buffer, 1.2, 1.2, 2.0);
        let global: Vec<f64> = (0..plan.global_grid().len())
            .map(|i| (i as f64).sin())
            .collect();
        let mut locals: Vec<Vec<f64>> = plan
            .domains()
            .iter()
            .map(|g| vec![0.0; g.grid.len()])
            .collect();
        let mut out = vec![0.0; global.len()];
        pool.install(|| {
            let made = allocations(|| {
                for (geometry, local) in plan.domains().iter().zip(&mut locals) {
                    geometry.sample_global_field(&global, local);
                }
            });
            assert_eq!(made, 0, "nd {nd:?}: gather made {made} heap allocations");
            // The conquer step samples ρ and V_Hxc into buffers of each
            // domain's eigensolver arena, not into fresh `vec!`s.
            let arenas: Vec<EigWorkspace> =
                plan.domains().iter().map(|_| EigWorkspace::new()).collect();
            let conquer = || {
                for (geometry, ew) in plan.domains().iter().zip(&arenas) {
                    let n = geometry.grid.len();
                    let mut rho_local = ew.ws.borrow_f64(n);
                    geometry.sample_global_field(&global, &mut rho_local);
                    drop(rho_local);
                    let mut v_hxc = ew.ws.take_f64(n);
                    geometry.sample_global_field(&global, &mut v_hxc);
                    ew.ws.give_f64(v_hxc);
                }
            };
            conquer();
            let made = allocations(conquer);
            assert_eq!(
                made, 0,
                "nd {nd:?}: arena-backed gather made {made} heap allocations"
            );
            let rho_of: Vec<Option<&[f64]>> = locals.iter().map(|l| Some(l.as_slice())).collect();
            let made = allocations(|| plan.partial_density(&rho_of, &mut out));
            assert_eq!(made, 0, "nd {nd:?}: recombine made {made} heap allocations");
        });
        // A partition of unity over fields that agree with the global one
        // to interpolation accuracy: the walk produced numbers, not zeros.
        assert!(out.iter().any(|&x| x != 0.0));
    }
}
