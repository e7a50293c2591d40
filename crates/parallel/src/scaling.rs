//! Weak-scaling (Fig 5), strong-scaling (Fig 6), rack-level FLOP/s
//! (Table 2) and time-to-solution (§2) predictors.
//!
//! The predictors price exactly the communication the LDC-DFT algorithm
//! performs and nothing else:
//!
//! * **weak scaling** — per-core domain work is constant by construction;
//!   the only P-dependent terms are the octree reduction/broadcast of the
//!   global density (log₈ P levels with 8× shrinking payloads), the
//!   constant nearest-neighbour buffer exchange, and the statistical load
//!   imbalance of the slowest of P domains (`max of P ≈ μ·(1 + δ·√(2·ln P))`
//!   for i.i.d. domain times of relative width δ);
//! * **strong scaling** — compute shrinks as 1/P while the intra-domain
//!   all-to-all of the band↔space switch grows with the communicator size
//!   c = P/D (pairwise exchange: c − 1 messages), which is what bends Fig 6
//!   away from ideal.

use crate::collectives::{alltoall_time, octree_reduce_time, p2p_time};
use crate::machine::MachineSpec;

/// Weak-scaling predictor (Fig 5): scaled workload, one domain per core.
#[derive(Clone, Debug)]
pub struct WeakScalingModel {
    /// Machine parameters.
    pub machine: MachineSpec,
    /// Measured per-domain compute time per QMD step (s) — supplied by
    /// actually running the Rust domain solver on the 64-atom SiC workload.
    pub t_domain: f64,
    /// Relative width δ of the per-domain time distribution (load
    /// imbalance). Calibration constant; 0.0057 reproduces the paper's
    /// 0.984 efficiency at P = 786,432 and is typical of sub-1% imbalance.
    pub imbalance_width: f64,
    /// Bytes of domain density entering the global octree reduction.
    pub density_bytes: f64,
    /// Bytes exchanged with each of the 6 face-neighbour domains.
    pub buffer_bytes: f64,
}

impl WeakScalingModel {
    /// The Fig 5 configuration: 64-atom SiC per core, with the measured
    /// per-domain solve time supplied by the caller.
    pub fn fig5(t_domain: f64) -> Self {
        Self {
            machine: MachineSpec::mira(),
            t_domain,
            imbalance_width: 0.0057,
            density_bytes: 16.0 * 16.0 * 16.0 * 8.0, // 16³ f64 density per domain
            buffer_bytes: 6.0 * 16.0 * 16.0 * 8.0,
        }
    }

    /// Wall-clock time per QMD step on `p` cores.
    fn time_per_step(&self, p: usize) -> f64 {
        assert!(p >= 1);
        let imbalance =
            self.t_domain * self.imbalance_width * (2.0 * (p.max(2) as f64).ln()).sqrt();
        let levels = ((p as f64).log2() / 3.0).ceil() as usize; // log₈ P
        let tree = 2.0 * octree_reduce_time(&self.machine, self.density_bytes, levels);
        let neighbors = 6.0 * p2p_time(&self.machine, self.buffer_bytes, 2);
        self.t_domain + imbalance + tree + neighbors
    }

    /// Parallel efficiency relative to a reference core count
    /// (the paper uses one node, P = 16).
    pub fn efficiency(&self, p: usize, p_ref: usize) -> f64 {
        self.time_per_step(p_ref) / self.time_per_step(p)
    }

    /// The Fig 5 sweep: P = 16, 64, …, 786,432 (×4 steps like the paper's
    /// log axis), returning `(P, seconds/step)`.
    pub fn sweep(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut p = 16usize;
        while p <= self.machine.total_cores() {
            out.push((p, self.time_per_step(p)));
            p *= 4;
        }
        if out.last().map(|&(p, _)| p) != Some(self.machine.total_cores()) {
            let p = self.machine.total_cores();
            out.push((p, self.time_per_step(p)));
        }
        out
    }
}

/// Strong-scaling predictor (Fig 6): fixed problem, growing communicators.
#[derive(Clone, Debug)]
pub struct StrongScalingModel {
    /// Machine parameters.
    pub machine: MachineSpec,
    /// Total compute work in core-seconds (perfectly divisible part).
    pub work_core_seconds: f64,
    /// Number of DC domains (fixed as P grows; communicators widen).
    pub n_domains: usize,
    /// Bands per domain.
    pub bands: usize,
    /// Grid points per domain.
    pub grid: usize,
    /// Band↔space all-to-alls per QMD step (CG iterations × SCF cycles ×
    /// 2 switches).
    pub alltoalls_per_step: usize,
}

impl StrongScalingModel {
    /// The Fig 6 configuration: 77,889-atom LiAl + water system. `t_ref` is
    /// the wall-clock per step at the reference core count `p_ref`.
    pub fn fig6(t_ref: f64, p_ref: usize) -> Self {
        let mut model = Self {
            machine: MachineSpec::mira(),
            work_core_seconds: 0.0,
            n_domains: 768,
            bands: 128,
            grid: 32 * 32 * 32,
            alltoalls_per_step: 180,
        };
        // Split t_ref into compute + communication at the reference point.
        let comm = model.comm_time(p_ref);
        model.work_core_seconds = (t_ref - comm).max(0.0) * p_ref as f64;
        model
    }

    /// The Fig 6 configuration driven by a *measured* per-domain solve time
    /// (seconds per QMD step for one of the 768 domains on one core), as
    /// produced by the `repro_profile` binary. Total divisible work is then
    /// `t_domain × n_domains` core-seconds — no hand-entered wall-clock
    /// constant enters the model.
    pub fn fig6_from_measured(t_domain: f64) -> Self {
        assert!(t_domain > 0.0, "measured domain time must be positive");
        Self {
            machine: MachineSpec::mira(),
            work_core_seconds: t_domain * 768.0,
            n_domains: 768,
            bands: 128,
            grid: 32 * 32 * 32,
            alltoalls_per_step: 180,
        }
    }

    /// Communicator size per domain at `p` cores.
    fn cores_per_domain(&self, p: usize) -> usize {
        (p / self.n_domains).max(1)
    }

    /// Communication time per step at `p` cores.
    fn comm_time(&self, p: usize) -> f64 {
        let c = self.cores_per_domain(p);
        if c <= 1 {
            return 0.0;
        }
        // Wave-function data resident per core, shipped pairwise.
        let data_per_core = self.bands as f64 * self.grid as f64 * 16.0 / c as f64;
        let bytes_per_pair = data_per_core / c as f64;
        self.alltoalls_per_step as f64 * alltoall_time(&self.machine, bytes_per_pair, c)
    }

    /// Wall-clock time per QMD step on `p` cores.
    fn time_per_step(&self, p: usize) -> f64 {
        self.work_core_seconds / p as f64 + self.comm_time(p)
    }

    /// Speedup relative to a reference core count.
    pub fn speedup(&self, p: usize, p_ref: usize) -> f64 {
        self.time_per_step(p_ref) / self.time_per_step(p)
    }

    /// Strong-scaling parallel efficiency relative to `p_ref`.
    pub fn efficiency(&self, p: usize, p_ref: usize) -> f64 {
        self.speedup(p, p_ref) * p_ref as f64 / p as f64
    }

    /// The Fig 6 sweep: P = 49,152 … 786,432 doubling.
    pub fn sweep(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut p = 49_152usize;
        while p <= self.machine.total_cores() {
            out.push((p, self.time_per_step(p)));
            p *= 2;
        }
        out
    }
}

/// Rack-level sustained-FLOP/s model (Table 2).
#[derive(Clone, Copy, Debug)]
pub struct RackFlopsModel {
    /// Sustained fraction of peak on one rack (paper: 0.54).
    pub base_fraction: f64,
    /// Efficiency loss per doubling of rack count (collective overheads).
    pub overhead_per_doubling: f64,
}

impl Default for RackFlopsModel {
    fn default() -> Self {
        // 0.0126/doubling reproduces Table 2's 54% → 50.5% over 1 → 48
        // racks.
        Self {
            base_fraction: 0.54,
            overhead_per_doubling: 0.0126,
        }
    }
}

impl RackFlopsModel {
    /// Sustained fraction of peak at `racks`.
    pub fn fraction(&self, racks: usize) -> f64 {
        self.base_fraction / (1.0 + self.overhead_per_doubling * (racks as f64).log2().max(0.0))
    }

    /// Sustained TFLOP/s at `racks`.
    pub fn sustained_tflops(&self, racks: usize) -> f64 {
        self.fraction(racks) * MachineSpec::bluegene_q(racks).peak_flops() / 1e12
    }
}

/// §2 time-to-solution metric: atoms × SCF iterations per second.
pub fn atom_iterations_per_second(atoms: usize, seconds_per_scf_iteration: f64) -> f64 {
    atoms as f64 / seconds_per_scf_iteration
}

/// Published baselines the paper compares against in §2.
pub mod prior_art {
    /// Hasegawa et al. 2011 (K computer, O(N³) real-space DFT):
    /// 5,456 s/SCF for 107,292 atoms.
    pub const HASEGAWA_2011: f64 = 107_292.0 / 5_456.0; // ≈ 19.7
    /// Osei-Kuffuor & Fattebert 2014 (O(N) MD): 101,952 atoms, ~275 s/MD
    /// step at 5 SCF/step.
    pub const OSEI_KUFFUOR_2014: f64 = 101_952.0 / (275.0 / 5.0); // ≈ 1,854
    /// This paper: 50,331,648 atoms at 441 s/SCF on 786,432 cores.
    pub const LDC_DFT_SC14: f64 = 50_331_648.0 / 441.0; // ≈ 114,131
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_efficiency_matches_paper() {
        let model = WeakScalingModel::fig5(100.0);
        let eff = model.efficiency(786_432, 16);
        assert!((eff - 0.984).abs() < 0.01, "efficiency {eff}");
        // Monotone decline with P.
        let mut prev = 1.0 + 1e-12;
        for &(_, t) in &model.sweep() {
            let e = model.time_per_step(16) / t;
            assert!(e <= prev + 1e-12);
            prev = e;
        }
    }

    #[test]
    fn weak_scaling_time_nearly_flat() {
        // Fig 5's visual: the wall-clock barely moves over 5 decades of P.
        let model = WeakScalingModel::fig5(100.0);
        let t16 = model.time_per_step(16);
        let t_full = model.time_per_step(786_432);
        assert!(t_full / t16 < 1.05);
    }

    #[test]
    fn strong_scaling_matches_paper() {
        let model = StrongScalingModel::fig6(30.0, 49_152);
        let s = model.speedup(786_432, 49_152);
        assert!((s - 12.85).abs() < 1.0, "speedup {s} (paper: 12.85)");
        let eff = model.efficiency(786_432, 49_152);
        assert!(
            (eff - 0.803).abs() < 0.06,
            "efficiency {eff} (paper: 0.803)"
        );
    }

    #[test]
    fn strong_scaling_time_decreases_monotonically() {
        let model = StrongScalingModel::fig6(30.0, 49_152);
        let sweep = model.sweep();
        assert!(sweep.len() >= 4);
        for w in sweep.windows(2) {
            assert!(w[1].1 < w[0].1, "{w:?}");
        }
    }

    #[test]
    fn strong_scaling_comm_fraction_grows() {
        let model = StrongScalingModel::fig6(30.0, 49_152);
        let f0 = model.comm_time(49_152) / model.time_per_step(49_152);
        let f1 = model.comm_time(786_432) / model.time_per_step(786_432);
        assert!(
            f1 > f0,
            "communication share must grow under strong scaling"
        );
        assert!(f0 < 0.05, "but start small: {f0}");
    }

    #[test]
    fn table2_reproduced() {
        let m = RackFlopsModel::default();
        // Paper: 113.23, 226.32, 5081 TFLOP/s on 1, 2, 48 racks.
        let t1 = m.sustained_tflops(1);
        let t2 = m.sustained_tflops(2);
        let t48 = m.sustained_tflops(48);
        assert!((t1 - 113.2).abs() / 113.2 < 0.03, "1 rack: {t1}");
        assert!((t2 - 226.3).abs() / 226.3 < 0.03, "2 racks: {t2}");
        assert!((t48 - 5081.0).abs() / 5081.0 < 0.02, "48 racks: {t48}");
        // Percent-of-peak declines with racks.
        assert!(m.fraction(48) < m.fraction(2) && m.fraction(2) < m.fraction(1));
        assert!((m.fraction(48) - 0.5046).abs() < 0.01);
    }

    #[test]
    fn time_to_solution_improvements() {
        // §2: 5,800× over Hasegawa'11 and 62× over Osei-Kuffuor'14.
        let ours = prior_art::LDC_DFT_SC14;
        assert!((ours / prior_art::HASEGAWA_2011 - 5_800.0).abs() / 5_800.0 < 0.01);
        assert!((ours / prior_art::OSEI_KUFFUOR_2014 - 62.0).abs() / 62.0 < 0.02);
        assert!((atom_iterations_per_second(50_331_648, 441.0) - 114_131.0).abs() < 1.0);
    }
}
