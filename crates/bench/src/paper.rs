//! The paper's evaluation as one table. Every reproduced number is a
//! [`Row`]: its section, the paper's value, ours, a provenance [`Tag`] and,
//! for a measured row, the [`Band`] it must lie in. The `repro_paper`
//! binary renders all rows into [`RESULTS_PATH`]; `tests/paper_results.rs`
//! regenerates the [`deterministic_rows`] and checks the file against them.
//!
//! A model's tag counts the constants that were set against the paper
//! rather than taken from the machine's specification or the workload, and
//! the paper's data points they were set against. A model row that matches
//! the paper with as many fitted constants as data points is a fit, not a
//! prediction.

use crate::real_ranks::worker_bin;
use crate::{bench_ldc_config, fig5_workload, measure_domain_solve_seconds};
use mqmd_chem::analysis::{ph_from_oh, run_fig9a, run_fig9b};
use mqmd_chem::kinetics::{HodParams, HodSimulation, HodState};
use mqmd_chem::nanoparticle::solvated_particle;
use mqmd_chem::surface::analyze_surface;
use mqmd_core::complexity::{atoms_in_cube, crossover_length, optimal_core_length, CostModel};
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use mqmd_md::builders::{amorphize, cdse_supercell, sic_supercell};
use mqmd_md::io::CompressedFrame;
use mqmd_md::AtomicSystem;
use mqmd_parallel::io::CollectiveIoModel;
use mqmd_parallel::machine::MachineSpec;
use mqmd_parallel::process::{run_processes, ProcessOpts, RecoveryOpts};
use mqmd_parallel::scaling::{atom_iterations_per_second, prior_art, RackFlopsModel};
use mqmd_parallel::threads::ThreadModel;
use mqmd_parallel::twin::{calibrate_from_pingpong, TwinModel};
use mqmd_parallel::{StrongScalingModel, WeakScalingModel};
use mqmd_util::constants::Element;
use mqmd_util::timer::Stopwatch;
use mqmd_util::{MqmdError, Vec3, Xoshiro256pp};
use std::fmt;
use std::time::Duration;

/// The checked-in file `repro_paper` writes, relative to the repository root.
pub const RESULTS_PATH: &str = "PAPER_RESULTS.md";

/// The paper's sections, in the order the table lists them.
const SECTIONS: [&str; 14] = [
    "Fig 5", "Fig 6", "Fig 7", "§3.1", "§5.2", "Table 1", "Table 2", "§5.4", "§2", "Fig 9a",
    "Fig 9b", "§6", "§5.5", "§4.4",
];

/// Where a number comes from. Every row carries exactly one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tag {
    /// Produced by running this repository's code: a solve, a codec, a
    /// timer or a geometric analysis.
    Measured,
    /// A model's output, with `fitted` constants set against `points` of
    /// the paper's data.
    Model { fitted: u32, points: u32 },
    /// The paper's own formula, evaluated.
    ClosedForm,
    /// A paper input restated: a published constant, a ratio of published
    /// constants, or a model input that a fit recovers.
    InputEcho,
}

const fn model(fitted: u32, points: u32) -> Tag {
    Tag::Model { fitted, points }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tag::Measured => f.write_str("measured"),
            Tag::Model { fitted, points } => {
                write!(f, "model: {fitted} fitted constants / {points} data points")
            }
            Tag::ClosedForm => f.write_str("closed form"),
            Tag::InputEcho => f.write_str("input echo"),
        }
    }
}

impl Tag {
    /// Reads a tag back; `None` unless `s` is exactly what `Display` writes.
    pub fn parse(s: &str) -> Option<Tag> {
        let n: Vec<u32> = s.split(' ').filter_map(|w| w.parse().ok()).collect();
        let fitted = (n.len() == 2).then(|| model(n[0], n[1]));
        let tags = [Tag::Measured, Tag::ClosedForm, Tag::InputEcho].into_iter();
        tags.chain(fitted).find(|t| t.to_string() == s)
    }
}

/// The closed interval a measured row must lie in.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    pub lo: f64,
    pub hi: f64,
}

const fn band(lo: f64, hi: f64) -> Band {
    Band { lo, hi }
}

impl Band {
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Reads a band back from its rendered form `[lo, hi]`.
    pub fn parse(s: &str) -> Option<Band> {
        let (lo, hi) = s.strip_prefix('[')?.strip_suffix(']')?.split_once(", ")?;
        Some(band(lo.parse().ok()?, hi.parse().ok()?))
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// One paper number and ours, as a line of the table.
#[derive(Clone, Debug)]
pub struct Row {
    section: &'static str,
    line: String,
}

impl Row {
    /// The row as one line of the markdown table: section, quantity, the
    /// paper's value, ours, tag and band (`—` unless measured).
    pub fn line(&self) -> &str {
        &self.line
    }
}

/// The quantity, the paper's value and ours of one row.
type Cells = (String, &'static str, String);

fn row(section: &'static str, tag: Tag, cells: Cells, band: Option<Band>) -> Row {
    let (quantity, paper, ours) = cells;
    let band = band.map_or("—".to_string(), |b| b.to_string());
    let line = format!("| {section} | {quantity} | {paper} | {ours} | {tag} | {band} |");
    Row { section, line }
}

/// Rows of one section sharing one tag other than measured.
fn tagged(section: &'static str, tag: Tag, cells: Vec<Cells>) -> impl Iterator<Item = Row> {
    cells.into_iter().map(move |c| row(section, tag, c, None))
}

/// Measured rows of one section, each with its band.
fn measured(section: &'static str, rows: Vec<(Cells, Band)>) -> impl Iterator<Item = Row> {
    rows.into_iter()
        .map(move |(c, b)| row(section, Tag::Measured, c, Some(b)))
}

/// Draws every row, sorted by section, as one markdown table under `header`.
pub fn render(header: &str, mut rows: Vec<Row>) -> String {
    rows.sort_by_key(|r| SECTIONS.iter().position(|&s| s == r.section));
    let mut out = format!(
        "{header}\n| section | quantity | paper | ours | tag | band |\n|---|---|---|---|---|---|\n"
    );
    for r in &rows {
        out.push_str(&r.line);
        out.push('\n');
    }
    out
}

/// Every row that is a pure function of its inputs: closed forms, models
/// at fixed inputs (Figs 5 and 6 take `t_domain`, the measured per-domain
/// solve time), the seeded kMC and the space-filling-curve codec.
pub fn deterministic_rows(t_domain: f64) -> Vec<Row> {
    let mut rows = scaling(t_domain);
    rows.extend(complexity());
    rows.extend(flops());
    rows.extend(published_time_to_solution());
    rows.extend(hydrogen());
    rows.extend(io());
    rows
}

/// Figs 5 and 6: the Blue Gene/Q scaling models.
fn scaling(t_domain: f64) -> Vec<Row> {
    let weak = WeakScalingModel::fig5(t_domain);
    let mut fig5: Vec<Cells> = weak
        .sweep()
        .into_iter()
        .map(|(p, t)| (format!("s/QMD step at P = {p}"), "—", format!("{t:.3}")))
        .collect();
    let q = "weak-scaling efficiency at P = 786,432 vs 16".to_string();
    fig5.push((q, "0.984", format!("{:.4}", weak.efficiency(786_432, 16))));

    // The paper-scale workload: 30 s/step at the reference count and 180
    // all-to-alls per step are free constants; its speedup lands on the
    // paper's 12.85 (the efficiency is the same fact divided by 16).
    let paper_scale = StrongScalingModel::fig6(30.0, 49_152);
    let mut fig6: Vec<Cells> = paper_scale
        .sweep()
        .into_iter()
        .map(|(p, t)| {
            (
                format!("s/QMD step at P = {p}, paper-scale work"),
                "—",
                format!("{t:.2}"),
            )
        })
        .collect();
    // Our measured domain is far lighter than the paper's, so the same
    // model goes communication-bound earlier.
    let ours = StrongScalingModel::fig6_from_measured(t_domain);
    let mut fig6_ours = Vec::new();
    for (work, m, cells, paper) in [
        ("paper-scale", &paper_scale, &mut fig6, ["12.85", "0.803"]),
        ("measured per-domain", &ours, &mut fig6_ours, ["—", "—"]),
    ] {
        let (s, e) = (m.speedup(786_432, 49_152), m.efficiency(786_432, 49_152));
        let [speedup, efficiency] = ["speedup", "efficiency"]
            .map(|what| format!("{what} at 786,432 vs 49,152 cores, {work} work"));
        cells.push((speedup, paper[0], format!("{s:.2}")));
        cells.push((efficiency, paper[1], format!("{e:.3}")));
    }

    let q = "per-domain solve of the 64-atom SiC block (s)".to_string();
    let cells = (q, "—", format!("{t_domain:.3}"));
    // The load-imbalance width 0.0057 reproduces the paper's 0.984; the
    // measured-work Fig 6 rows keep the paper-scale 180 all-to-alls.
    measured("Fig 5", vec![(cells, band(1.0, 120.0))])
        .chain(tagged("Fig 5", model(1, 1), fig5))
        .chain(tagged("Fig 6", model(2, 1), fig6))
        .chain(tagged("Fig 6", model(1, 1), fig6_ours))
        .collect()
}

/// §3.1's optimal domain size and §5.2's speedups and crossover, from the
/// paper's cost model `T(l) = (L/l)³(l+2b)^{3ν}`.
fn complexity() -> Vec<Row> {
    let mut s31 = Vec::new();
    for b in [2.0, 3.57, 4.73] {
        for (nu, paper) in [(2.0, "2b"), (3.0, "b")] {
            let q = format!("optimal core length l* at b = {b}, ν = {nu} (a.u.)");
            s31.push((q, paper, format!("{:.2}", optimal_core_length(b, nu))));
        }
    }
    // CdSe, l = 11.416 a.u.; (b_DC, b_LDC) per criterion are read off the
    // paper's Fig 7 curves, which quotes only the resulting speedups.
    let mut s52 = Vec::new();
    for (tol, b_dc, b_ldc, papers) in [
        ("1e-2", 4.38, 2.90, ["2.59", "4.18"]),
        ("5e-3", 4.73, 3.57, ["2.03", "2.89"]),
        ("1e-3", 5.67, 5.02, ["1.42", "1.69"]),
    ] {
        for (m, paper) in [CostModel::PRACTICAL, CostModel::ASYMPTOTIC]
            .into_iter()
            .zip(papers)
        {
            let s = m.buffer_speedup(11.416, b_dc, b_ldc);
            let q = format!(
                "LDC/DC speedup at {tol} Ha, ν = {}, b {b_dc:.2} → {b_ldc:.2} a.u.",
                m.nu
            );
            s52.push((q, paper, format!("{s:.2}")));
        }
    }
    let (b, cdse_density) = (3.57, 512.0 / 45.664f64.powi(3));
    let l = crossover_length(b, 2.0);
    let atoms = |l: f64| format!("{:.0}", atoms_in_cube(l, cdse_density));
    let q = "O(N)/O(N³) crossover length at b = 3.57 a.u., ν = 2 (a.u.)".to_string();
    s52.push((q, "28.56", format!("{l:.2}")));
    s52.push(("crossover atoms at CdSe density".into(), "125", atoms(l)));
    let q = "crossover atoms at a 50 % thicker buffer".to_string();
    s52.push((q, "422", atoms(crossover_length(1.5 * b, 2.0))));
    tagged("§3.1", Tag::ClosedForm, s31)
        .chain(tagged("§5.2", Tag::ClosedForm, s52))
        .collect()
}

/// Tables 1 and 2 and §5.4: the Blue Gene/Q throughput models.
fn flops() -> Vec<Row> {
    let (bgq, threads) = (MachineSpec::bluegene_q(1), ThreadModel::default());
    let mut table1 = Vec::new();
    for (nodes, papers) in [
        (4usize, ["236", "343", "445"]),
        (8, ["433", "563", "746"]),
        (16, ["806", "1017", "1535"]),
    ] {
        for (t, paper) in [1usize, 2, 4].into_iter().zip(papers) {
            let q = format!("GFLOP/s on {nodes} nodes at {t} threads/core");
            table1.push((
                q,
                paper,
                format!("{:.0}", threads.sustained_gflops(&bgq, nodes, 4, t)),
            ));
        }
    }
    let racks = RackFlopsModel::default();
    let mut table2 = Vec::new();
    for (r, paper_tf, paper_pct) in [
        (1usize, "113.23", "53.99"),
        (2, "226.32", "53.96"),
        (48, "5081", "50.46"),
    ] {
        let (tf, pct) = (racks.sustained_tflops(r), racks.fraction(r) * 100.0);
        table2.push((
            format!("sustained TFLOP/s on {r} racks"),
            paper_tf,
            format!("{tf:.1}"),
        ));
        table2.push((
            format!("% of peak on {r} racks"),
            paper_pct,
            format!("{pct:.2}"),
        ));
    }
    // The paper's measured 55 % of the node's turbo peak, restated.
    let xeon = 0.55 * MachineSpec::xeon_e5_2665_node().peak_flops_per_node() / 1e9;
    let q = "sustained GFLOP/s on a dual Xeon E5-2665 node (55 % of peak)".to_string();
    let s54 = vec![(q, "217.6", format!("{xeon:.1}"))];
    // Table 1: three constants measured off the paper's own 4-node row;
    // Table 2: the one-rack fraction 0.54 and the per-doubling loss 0.0126,
    // set against the 1- and 48-rack rows.
    tagged("Table 1", model(3, 3), table1)
        .chain(tagged("Table 2", model(2, 2), table2))
        .chain(tagged("§5.4", Tag::InputEcho, s54))
        .collect()
}

/// §2's atom·iteration/s: three published constants and their ratios.
fn published_time_to_solution() -> Vec<Row> {
    use prior_art::{HASEGAWA_2011 as HASEGAWA, LDC_DFT_SC14 as LDC, OSEI_KUFFUOR_2014 as OSEI};
    let rows = [
        (
            "atom·iter/s, LDC-DFT on 786,432 BG/Q cores",
            "114,000",
            LDC,
            0,
        ),
        (
            "atom·iter/s, Hasegawa 2011 (K computer, O(N³))",
            "—",
            HASEGAWA,
            1,
        ),
        (
            "atom·iter/s, Osei-Kuffuor & Fattebert 2014 (O(N))",
            "—",
            OSEI,
            0,
        ),
        ("improvement over Hasegawa 2011", "5,800", LDC / HASEGAWA, 0),
        ("improvement over Osei-Kuffuor 2014", "62", LDC / OSEI, 1),
    ];
    let cells = rows.map(|(q, paper, v, digits)| (q.to_string(), paper, format!("{v:.digits$}")));
    tagged("§2", Tag::InputEcho, cells.to_vec()).collect()
}

/// Fig 9 and §6: the seeded kMC surrogate on real particle geometries.
fn hydrogen() -> Vec<Row> {
    let params = HodParams::default();
    let (points, fit) = run_fig9a(params, &[300.0, 600.0, 1500.0], 30, 60_000, 2024);
    let mut fig9a: Vec<Cells> = points
        .iter()
        .map(|p| {
            let (t, rate) = (p.temperature, p.rate_per_pair);
            let q = format!("H₂ rate per LiAl pair at {t} K (s⁻¹)");
            (
                q,
                if t == 300.0 { "1.04e9" } else { "—" },
                format!("{rate:.3e}"),
            )
        })
        .collect();
    fig9a.push(("Arrhenius fit r²".into(), "—", format!("{:.4}", fit.r2)));
    let q = "Arrhenius barrier Eₐ of the fit (eV)".to_string();
    let barrier = vec![(q, "0.068", format!("{:.3}", fit.activation_ev))];

    let fig9b_points = run_fig9b(params, &[30, 135, 441], 1500.0, 40_000, 99);
    let mut fig9b: Vec<Cells> = fig9b_points
        .iter()
        .map(|p| {
            let (n, surf, pairs) = (p.n_pairs_in_particle, p.n_surface, p.lewis_pairs);
            let q = format!("H₂ rate per surface atom at 1500 K, Li{n}Al{n} (N_surf {surf}, {pairs} Lewis pairs) (s⁻¹)");
            (q, "—", format!("{:.3e}", p.rate_per_surface_atom))
        })
        .collect();
    let rates = fig9b_points.iter().map(|p| p.rate_per_surface_atom);
    let spread = rates.clone().fold(0.0, f64::max) / rates.fold(f64::INFINITY, f64::min);
    let q = "max/min of the surface-normalised rate".to_string();
    fig9b.push((q, "1 within error bars", format!("{spread:.2}")));

    let mut sim = HodSimulation::new(params, 600.0, HodState::new(30, 10, 30, 100_000), 7);
    let mut s6 = Vec::new();
    for produced in [100usize, 1000, 10_000, 50_000] {
        while sim.state.h2_produced < produced && sim.step() {}
        let ph = ph_from_oh(sim.state.oh_minus, 50.0f64.powi(3));
        let q = format!("pH after {produced} H₂ at 600 K (Li30Al30, 50 Bohr water box)");
        s6.push((q, "rises", format!("{ph:.2}")));
    }

    // The paper's verification system: Li30Al30 + 182 H₂O.
    let system = solvated_particle(30, 182, 50.0, 1);
    let surface = analyze_surface(&system);
    let (atoms, metal, pairs) = (system.len(), surface.n_metal, surface.lewis_pairs.len());
    let q = format!("surface metal atoms of Li30Al30 + 182 H₂O ({atoms} atoms, {metal} metal, {pairs} Lewis pairs)");
    let n_surface = surface.n_surface.to_string();
    let surface_row = measured(
        "Fig 9b",
        vec![((q, "—", n_surface), band(1.0, metal as f64))],
    );

    // The pair-dissociation prefactor is set so the 300 K rate is the
    // paper's 1.04e9; its barrier is the paper's 0.068 eV, which the fit
    // recovers.
    let kmc = model(1, 1);
    tagged("Fig 9a", kmc, fig9a)
        .chain(tagged("Fig 9a", Tag::InputEcho, barrier))
        .chain(tagged("Fig 9b", kmc, fig9b))
        .chain(surface_row)
        .chain(tagged("§6", kmc, s6))
        .collect()
}

/// §4.4: the collective-I/O model and the real trajectory codec.
fn io() -> Vec<Row> {
    let model_io = CollectiveIoModel::mira();
    let (ranks, bytes) = (786_432, 1.0e6);
    let mut cells: Vec<Cells> = [16usize, 48, 96, 192, 384, 768, 1536]
        .into_iter()
        .map(|g| {
            let q = format!("write time of 1 MB/rank, groups of {g} ranks (s)");
            (
                q,
                "—",
                format!("{:.2}", model_io.write_time(ranks, bytes, g)),
            )
        })
        .collect();
    let opt = model_io.optimal_group(ranks, bytes);
    let share = model_io.write_time(ranks, bytes, opt) / (12.0 * 3600.0) * 100.0;
    cells.push(("optimal group size (ranks)".into(), "192", opt.to_string()));
    let q = "write share of a 12 h production run (%)".to_string();
    cells.push((q, "0.23", format!("{share:.3}")));
    // Server bandwidth and per-file overhead are free constants; the
    // optimum lands on the paper's 192.
    let mut rows: Vec<Row> = tagged("§4.4", model(2, 1), cells).collect();
    let solvated = solvated_particle(30, 182, 50.0, 1);
    for (name, system, paper) in [
        ("SiC crystal", sic_supercell((4, 4, 4)), "—"),
        ("Li30Al30 + 182 H₂O", solvated, "rather small"),
    ] {
        let f = CompressedFrame::compress(&system, 12);
        let (atoms, raw, packed) = (system.len(), f.raw_bytes(), f.compressed_bytes());
        let q = format!("SFC compression ratio, {name} ({atoms} atoms, {raw} → {packed} B)");
        let ratio = format!("{:.2}", f.ratio());
        rows.extend(measured("§4.4", vec![((q, paper, ratio), band(1.0, 10.0))]));
    }
    rows
}

/// A Fig 7 sweep: the system, its buffers, the solver settings and the
/// core length l of its 2×2×2 domains.
type BufferSweep = (AtomicSystem, Vec<f64>, LdcConfig, f64);

/// A 64-atom disordered hydrogen lattice, l = 8 a.u. One electron per atom
/// keeps the band count small, and hydrogen's projector-free
/// pseudopotential isolates the boundary error Fig 7 is about.
fn hydrogen_lattice() -> BufferSweep {
    let positions = (0..64)
        .map(|i| Vec3::new((i / 16) as f64, (i / 4 % 4) as f64, (i % 4) as f64) * 4.0)
        .collect();
    let mut system = AtomicSystem::new(Vec3::splat(16.0), vec![Element::H; 64], positions);
    // Slight disorder breaks lattice degeneracies, as the paper's
    // amorphous CdSe does.
    amorphize(&mut system, 0.25, &mut Xoshiro256pp::seed_from_u64(77));
    let mut config = bench_ldc_config();
    (config.ecut, config.global_spacing, config.domain_spacing) = (2.5, 1.0, 1.0);
    (system, vec![0.5, 1.0, 1.5, 2.0, 3.0], config, 8.0)
}

/// 64-atom CdSe at the paper's domain size l = 11.416 a.u.
fn cdse() -> BufferSweep {
    let mut c = bench_ldc_config();
    (c.ecut, c.global_spacing, c.domain_spacing) = (2.0, 1.2, 1.2);
    (c.tol_density, c.davidson_iters, c.max_scf) = (2e-4, 7, 30);
    (
        cdse_supercell((2, 2, 2)),
        vec![1.5, 2.5, 3.5, 4.5],
        c,
        11.416,
    )
}

/// Smallest buffer beyond which every measured error stays at or below
/// `tol`. Between the last point above `tol` (or unconverged, NaN) and the
/// next one it interpolates log-error linearly in `b`; it is `None` when
/// the thickest buffer is still above `tol`.
fn smallest_buffer(errs: &[(f64, f64)], tol: f64) -> Option<f64> {
    let Some(i) = errs.iter().rposition(|&(_, e)| e.is_nan() || e > tol) else {
        return errs.first().map(|&(b, _)| b);
    };
    let (b0, e0) = errs[i];
    let &(b1, e1) = errs.get(i + 1)?;
    if e0.is_nan() {
        return Some(b1);
    }
    let t = (e0.ln() - tol.ln()) / (e0.ln() - e1.ln());
    Some(b0 + t * (b1 - b0))
}

/// Fig 7 and the §5.2 buffers and speedups it implies: real DC and LDC
/// solves at every buffer against the undivided solve of the same system.
/// `full` selects the paper-shaped CdSe geometry over the quick hydrogen
/// lattice.
pub fn buffer_convergence(full: bool) -> Vec<Row> {
    let (system, buffers, config, core_len) = if full { cdse() } else { hydrogen_lattice() };
    // Total energy, or NaN when the SCF does not converge.
    let energy = |nd, buffer, mode| {
        let solved = LdcSolver::new(LdcConfig {
            nd,
            buffer,
            mode,
            ..config
        })
        .solve(&system);
        solved.map_or(f64::NAN, |s| s.energy)
    };
    let e_ref = energy((1, 1, 1), 0.0, BoundaryMode::Periodic);
    let modes = [
        ("DC", BoundaryMode::Periodic),
        ("LDC", BoundaryMode::ldc_default()),
    ];
    let per_atom = |e: f64| (e - e_ref).abs() / system.len() as f64;
    let errs = modes.map(|(_, m)| {
        buffers
            .iter()
            .map(move |&b| (b, per_atom(energy((2, 2, 2), b, m))))
    });
    let [dc, ldc] = errs.map(Vec::from_iter);
    let mut fig7 = Vec::new();
    for (name, errs, unconverged) in [("DC", &dc, 1.0), ("LDC", &ldc, 0.0)] {
        for &(b, e) in errs.iter().filter(|(_, e)| e.is_finite()) {
            let q = format!("{name} energy error at b = {b} a.u. (Ha/atom)");
            fig7.push(((q, "—", format!("{e:.2e}")), band(0.0, 1e-2)));
        }
        let q = format!("{name} solves that did not converge, of {}", errs.len());
        let n = errs.iter().filter(|e| e.1.is_nan()).count();
        fig7.push(((q, "—", n.to_string()), band(0.0, unconverged)));
    }
    let ldc_worse = dc.iter().zip(&ldc).filter(|(d, l)| l.1 > d.1).count();
    let q = "buffers where the LDC error exceeds the DC error".to_string();
    fig7.push(((q, "0", ldc_worse.to_string()), band(0.0, 0.0)));

    // A tolerance that no swept buffer holds for good needs a buffer
    // beyond the sweep: `inf`.
    let mut s52 = Vec::new();
    for (tol, paper_b, papers) in [
        ("1e-2", "4.38 → 2.90", ["2.59", "4.18"]),
        ("5e-3", "4.73 → 3.57", ["2.03", "2.89"]),
        ("1e-3", "5.67 → 5.02", ["1.42", "1.69"]),
    ] {
        let t: f64 = tol.parse().expect("literal tolerance");
        let picks = [smallest_buffer(&dc, t), smallest_buffer(&ldc, t)];
        for ((name, _), b) in modes.iter().zip(picks) {
            let q = format!("buffer holding {tol} Ha/atom for good, {name} (a.u.)");
            let b = format!("{:.2}", b.unwrap_or(f64::INFINITY));
            s52.push(((q, paper_b, b), band(buffers[0], f64::INFINITY)));
        }
        let [Some(b_dc), Some(b_ldc)] = picks else {
            continue;
        };
        for (m, paper) in [CostModel::PRACTICAL, CostModel::ASYMPTOTIC]
            .into_iter()
            .zip(papers)
        {
            let q = format!(
                "LDC/DC speedup at {tol} Ha/atom, ν = {}, measured buffers",
                m.nu
            );
            let s = format!("{:.2}", m.buffer_speedup(core_len, b_dc, b_ldc));
            s52.push(((q, paper, s), band(1.0, f64::INFINITY)));
        }
    }
    measured("Fig 7", fig7)
        .chain(measured("§5.2", s52))
        .collect()
}

/// §5.5: LDC `(2,1,1)` against the conventional O(N³) solve, which is the
/// same solver undivided (one domain, no buffer, spectral Hartree).
pub fn verification() -> Vec<Row> {
    let species = vec![Element::Li, Element::Al, Element::H, Element::H];
    let positions = [(3.0, 5.0), (6.8, 5.0), (5.0, 3.2), (5.0, 6.8)];
    let positions = positions.map(|(x, y)| Vec3::new(x, y, 5.0)).to_vec();
    let sys = AtomicSystem::new(Vec3::splat(10.0), species, positions);
    let solve = |nd, buffer, mode| {
        let hartree = HartreeSolver::Fft;
        let config = LdcConfig {
            nd,
            buffer,
            mode,
            hartree,
            ..bench_ldc_config()
        };
        LdcSolver::new(config).solve(&sys)
    };
    let conventional = solve((1, 1, 1), 0.0, BoundaryMode::Periodic).expect("conventional solve");
    let ldc = solve((2, 1, 1), 2.5, BoundaryMode::ldc_default()).expect("LDC solve");
    let de = (ldc.energy - conventional.energy).abs() / sys.len() as f64;
    let dmu = (ldc.mu - conventional.mu).abs();
    let forces = conventional.forces.iter().zip(&ldc.forces);
    let df = forces.map(|(a, b)| (*a - *b).norm()).fold(0.0, f64::max);
    let energy = "total energy deviation, LDC (2,1,1) vs (1,1,1) on Li/Al/H₂ (Ha/atom)";
    let mu = "chemical potential deviation (Ha)";
    let force = "max force deviation (Ha/Bohr); misses the paper's 1e-3 by the per-domain non-local force term";
    let rows = [
        (energy, "≤ 1e-3", de, band(0.0, 1e-3)),
        (mu, "—", dmu, band(0.0, 1e-3)),
        (force, "≤ 1e-3", df, band(5e-2, 7e-2)),
    ];
    let rows = rows.map(|(q, paper, v, b)| ((q.to_string(), paper, format!("{v:.2e}")), b));
    measured("§5.5", rows.to_vec()).collect()
}

/// §2 on this host: atom·iterations per second of the full LDC-DFT SCF on
/// the Fig 5 64-atom SiC block. The metric counts iterations done, so a
/// solve that runs out of iterations still measures it, and says so.
pub fn time_to_solution() -> Vec<Row> {
    let sys = fig5_workload();
    let sw = Stopwatch::start();
    let (iterations, outcome) = match LdcSolver::new(bench_ldc_config()).solve(&sys) {
        Ok(state) => (state.scf_iterations, "converged"),
        Err(MqmdError::Convergence { iterations, .. }) => (iterations, "not converged"),
        Err(e) => panic!("64-atom SiC solve: {e}"),
    };
    let rate = atom_iterations_per_second(sys.len(), sw.seconds() / iterations as f64);
    let threads = rayon::current_num_threads();
    let q = format!("atom·iter/s of this reproduction, 64-atom SiC LDC-DFT on {threads} threads ({iterations} SCF iterations, {outcome})");
    let cells = (q, "114,000 on 786,432 cores", format!("{rate:.1}"));
    measured("§2", vec![(cells, band(1.0, 1e4))]).collect()
}

/// Table 1's analogue on this host: the 64-atom SiC domain solve in rayon
/// pools of 1, 2, 4, … threads up to the visible cores.
pub fn host_threads() -> Vec<Row> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    let mut t1 = None;
    for n in (0..).map(|k| 1 << k).take_while(|&n| n <= max) {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build();
        let pool = pool.expect("thread pool");
        // Best of three: the host is shared, and a slow outlier is noise.
        let solve = |_| pool.install(|| measure_domain_solve_seconds(2.0, 1.2, 4));
        let secs = (0..3).map(solve).fold(f64::INFINITY, f64::min);
        let t1 = *t1.get_or_insert(secs);
        let q = format!("64-atom SiC domain solve on {n} host threads, best of 3 (s)");
        rows.push(((q, "—", format!("{secs:.3}")), band(0.01, 600.0)));
        if n > 1 {
            // More threads should be faster; the row says when they are not.
            let slower = if t1 < secs {
                "; slower than 1 thread"
            } else {
                ""
            };
            let q = format!("speedup on {n} host threads{slower}");
            rows.push(((q, "—", format!("{:.2}", t1 / secs)), band(0.5, n as f64)));
        }
    }
    measured("Table 1", rows).collect()
}

/// Figs 5 and 6 on real rank processes (2–16 `mqmd-rank` workers over
/// TCP): each op's measured wall-clock beside the digital twin's
/// prediction for the same traffic, calibrated by a ping-pong.
pub fn real_rank_scaling() -> Result<Vec<Row>, String> {
    let worker = worker_bin();
    let opts = |args: &[f64]| ProcessOpts {
        deadline: Duration::from_secs(120),
        args: args.to_vec(),
        // A transient worker death restarts in place instead of aborting
        // the sweep.
        recovery: Some(RecoveryOpts::default()),
        ..Default::default()
    };
    let ping = run_processes(&worker, "pingpong", 2, opts(&[32.0, 65_536.0]))
        .map_err(|e| format!("ping-pong calibration failed: {e}"))?;
    let r = &ping.results[0];
    let twin = TwinModel::calibrated(calibrate_from_pingpong(r[0], r[1], r[2]));
    let mut rows = Vec::new();
    for (section, program, args) in [
        ("Fig 5", "weak_collectives", [4096.0, 8.0]),
        ("Fig 6", "strong_collectives", [65_536.0, 8.0]),
    ] {
        for p in [2usize, 4, 8, 16] {
            let run = run_processes(&worker, program, p, opts(&args))
                .map_err(|e| format!("{program} at p = {p} failed: {e}"))?;
            for t in twin.validate(&run.traffic, p) {
                let what = format!("{program} on {p} real ranks, {} ({} msgs)", t.op, t.msgs);
                let secs = format!("{:.4}", t.measured_secs);
                let cells = (format!("{what}: measured s"), "—", secs);
                rows.extend(measured(section, vec![(cells, band(0.0, 120.0))]));
                // Latency and bandwidth, set against the two ping-pong sizes.
                let secs = format!("{:.4}", t.predicted_secs);
                let cells = (format!("{what}: twin s"), "—", secs);
                rows.extend(tagged(section, model(2, 2), vec![cells]));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The LDC column of the quick sweep as EXPERIMENTS recorded it: not
    /// monotone (1.03e-3 at b = 1.0, 1.43e-3 at b = 1.5).
    const LDC: [(f64, f64); 4] = [
        (0.5, 5.93e-3),
        (1.0, 1.03e-3),
        (1.5, 1.43e-3),
        (2.0, 2.02e-4),
    ];

    #[test]
    fn buffer_pick_waits_for_the_last_crossing() {
        // The first crossing below 1.2e-3 is at b ≈ 0.96, but the error
        // rises above it again at 1.5; the pick lies between 1.5 and 2.0,
        // at 1.545 by log-error interpolation (linear would say 1.594).
        let b = smallest_buffer(&LDC, 1.2e-3).unwrap();
        assert!(b > 1.5 && b < 1.55, "{b}");
        assert!((smallest_buffer(&LDC, 2.02e-4).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(smallest_buffer(&LDC, 1e-2), Some(0.5));
        assert_eq!(smallest_buffer(&LDC, 1e-4), None);
    }

    #[test]
    fn unconverged_point_counts_as_above_tolerance() {
        let dc = [(0.5, f64::NAN), (1.0, 2.73e-3), (1.5, 2.25e-3)];
        assert_eq!(smallest_buffer(&dc, 1e-2), Some(1.0));
        assert_eq!(smallest_buffer(&[(0.5, 1e-3), (1.0, f64::NAN)], 1e-2), None);
    }

    #[test]
    fn tags_and_bands_round_trip() {
        for tag in [Tag::Measured, Tag::ClosedForm, Tag::InputEcho, model(3, 3)] {
            assert_eq!(Tag::parse(&tag.to_string()), Some(tag));
        }
        assert_eq!(Tag::parse("model: 1 fitted constants"), None);
        let b = Band::parse(&band(1e-3, f64::INFINITY).to_string()).unwrap();
        assert!(b.contains(1.0) && !b.contains(1e-4));
    }
}
