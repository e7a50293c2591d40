//! Machine specifications (paper §4.1).

/// Static description of one machine configuration.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Core clock (Hz).
    pub clock_hz: f64,
    /// Peak double-precision FLOPs per core per cycle (QPX: 4-wide FMA = 8).
    pub flops_per_core_cycle: f64,
    /// Per-direction link bandwidth (bytes/s); BG/Q: 2 GB/s per link.
    pub link_bandwidth: f64,
    /// MPI point-to-point latency (s).
    pub mpi_latency: f64,
    /// Memory bandwidth per node (bytes/s).
    pub mem_bandwidth: f64,
}

impl MachineSpec {
    /// IBM Blue Gene/Q with a given number of racks (1,024 nodes per rack,
    /// 16 cores per node, 1.6 GHz, 204.8 GFLOP/s per node).
    pub fn bluegene_q(racks: usize) -> Self {
        assert!(racks >= 1);
        Self {
            name: format!(
                "Blue Gene/Q ({racks} rack{})",
                if racks == 1 { "" } else { "s" }
            ),
            nodes: racks * 1024,
            cores_per_node: 16,
            clock_hz: 1.6e9,
            flops_per_core_cycle: 8.0,
            link_bandwidth: 2.0e9,
            mpi_latency: 2.5e-6,
            mem_bandwidth: 42.6e9,
        }
    }

    /// Mira: the full 48-rack, 786,432-core machine of the paper.
    pub fn mira() -> Self {
        Self::bluegene_q(48)
    }

    /// The dual Intel Xeon E5-2665 node used for the §5.4 portability test
    /// (8 cores + HT per chip; the paper assumes the turbo clock for peak,
    /// 198 GFLOP/s per chip / 396 per node).
    pub fn xeon_e5_2665_node() -> Self {
        Self {
            name: "dual Xeon E5-2665".into(),
            nodes: 1,
            cores_per_node: 16,
            clock_hz: 3.1e9,           // turbo
            flops_per_core_cycle: 8.0, // AVX: 4-wide add + 4-wide mul
            link_bandwidth: 8.0e9,
            mpi_latency: 1.0e-6,
            mem_bandwidth: 2.0 * 14.9e9 * 4.0, // 4 channels per socket
        }
    }

    /// Total cores.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Peak FLOP/s of one core.
    fn peak_flops_per_core(&self) -> f64 {
        self.clock_hz * self.flops_per_core_cycle
    }

    /// Peak FLOP/s of one node.
    pub fn peak_flops_per_node(&self) -> f64 {
        self.peak_flops_per_core() * self.cores_per_node as f64
    }

    /// Peak FLOP/s of the whole machine.
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops_per_node() * self.nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgq_node_peak_is_204_8_gflops() {
        let m = MachineSpec::bluegene_q(1);
        assert!((m.peak_flops_per_node() - 204.8e9).abs() < 1e6);
    }

    #[test]
    fn mira_matches_paper_scale() {
        let m = MachineSpec::mira();
        assert_eq!(m.total_cores(), 786_432);
        // 48 racks × 1,024 nodes × 204.8 GF ≈ 10.07 PF peak.
        assert!((m.peak_flops() - 10.066e15).abs() < 0.01e15);
    }

    #[test]
    fn paper_flop_fraction_reproduces_petaflops() {
        // §5.3: 50.46% of peak on the full machine = 5.081 PFLOP/s.
        let m = MachineSpec::mira();
        let sustained = 0.5046 * m.peak_flops();
        assert!((sustained - 5.081e15).abs() < 0.01e15);
    }

    #[test]
    fn xeon_node_peak_matches_paper() {
        let m = MachineSpec::xeon_e5_2665_node();
        // Paper: 198 GFLOP/s per chip, 396 per node (turbo).
        assert!((m.peak_flops_per_node() - 396.8e9).abs() < 2e9);
    }

    #[test]
    fn rack_scaling_is_linear() {
        let one = MachineSpec::bluegene_q(1);
        let two = MachineSpec::bluegene_q(2);
        assert!((two.peak_flops() / one.peak_flops() - 2.0).abs() < 1e-12);
    }
}
