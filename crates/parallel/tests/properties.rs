//! Property-based tests of the machine model: physical sanity (times
//! positive, efficiencies bounded, monotonicities) over random parameters.

use mqmd_parallel::collectives::{allreduce_time, alltoall_time, octree_reduce_time, p2p_time};
use mqmd_parallel::machine::MachineSpec;
use mqmd_parallel::scaling::{RackFlopsModel, StrongScalingModel, WeakScalingModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn p2p_time_monotone_in_bytes_and_hops(bytes in 0.0..1e9f64, extra in 0.0..1e6f64, hops in 1usize..20) {
        let m = MachineSpec::bluegene_q(1);
        prop_assert!(p2p_time(&m, bytes + extra, hops) >= p2p_time(&m, bytes, hops));
        prop_assert!(p2p_time(&m, bytes, hops + 1) >= p2p_time(&m, bytes, hops));
    }

    #[test]
    fn collectives_positive_and_monotone(bytes in 1.0..1e8f64, p in 2usize..100_000) {
        let m = MachineSpec::bluegene_q(1);
        prop_assert!(allreduce_time(&m, bytes, p) > 0.0);
        prop_assert!(alltoall_time(&m, bytes, p) > 0.0);
        prop_assert!(allreduce_time(&m, bytes, 2 * p) >= allreduce_time(&m, bytes, p));
    }

    #[test]
    fn octree_reduce_bounded_by_flat_sum(leaf in 1.0..1e7f64, levels in 1usize..15) {
        let m = MachineSpec::bluegene_q(1);
        let tree = octree_reduce_time(&m, leaf, levels);
        // Geometric series bound: latency·levels + leaf·8/7/bw.
        let bound = levels as f64 * m.mpi_latency + leaf * (8.0 / 7.0) / m.link_bandwidth + 1e-12;
        prop_assert!(tree <= bound);
    }

    #[test]
    fn weak_scaling_efficiency_in_unit_interval(t_domain in 0.1..1000.0f64, p_exp in 5u32..19) {
        let model = WeakScalingModel::fig5(t_domain);
        let p = 1usize << p_exp;
        let eff = model.efficiency(p, 16);
        prop_assert!(eff > 0.9 && eff <= 1.0 + 1e-9, "eff {}", eff);
    }

    #[test]
    fn strong_scaling_speedup_bounded_by_ideal(t_ref in 5.0..200.0f64, p_mult in 1usize..5) {
        let p0 = 49_152usize;
        let model = StrongScalingModel::fig6(t_ref, p0);
        let p = p0 * (1 << p_mult);
        let s = model.speedup(p, p0);
        prop_assert!(s >= 1.0 && s <= (p / p0) as f64 + 1e-9, "speedup {}", s);
    }

    #[test]
    fn rack_fraction_decreasing_and_bounded(racks in 1usize..64) {
        let m = RackFlopsModel::default();
        let f = m.fraction(racks);
        prop_assert!(f > 0.0 && f <= m.base_fraction + 1e-12);
        prop_assert!(m.fraction(racks + 1) <= f + 1e-12);
    }
}
