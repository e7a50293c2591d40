//! Communication cost primitives.
//!
//! Classic latency–bandwidth (Hockney) models for the operations the
//! LDC-DFT code performs: point-to-point buffer exchange, binomial-tree
//! reductions/broadcasts, and the pairwise-exchange all-to-all of the
//! band↔space switch (§3.3).

use crate::machine::MachineSpec;
use mqmd_util::faults::MachineFaults;

/// BG/Q router cut-through delay paid per hop beyond the first.
const PER_HOP: f64 = 45e-9;

/// Time to send one point-to-point message of `bytes`, traversing `hops`
/// torus links (store-and-forward per hop is pessimistic on BG/Q's
/// cut-through router, so only the first hop pays full latency and each
/// extra hop adds a small per-hop delay).
pub fn p2p_time(m: &MachineSpec, bytes: f64, hops: usize) -> f64 {
    m.mpi_latency + hops.saturating_sub(1) as f64 * PER_HOP + bytes / m.link_bandwidth
}

/// [`allreduce_time`] on a degraded machine: every tree round pays the
/// node-loss detour hops and runs at the worst surviving link bandwidth.
pub fn allreduce_time_faulty(m: &MachineSpec, bytes: f64, p: usize, mf: &MachineFaults) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let rounds = (p as f64).log2().ceil();
    rounds
        * (m.mpi_latency
            + mf.extra_hops() as f64 * PER_HOP
            + bytes / (m.link_bandwidth * mf.worst_degrade()))
}

/// Recomputation time a node loss forces: each lost node's
/// `domains_per_node` domain solves are redistributed onto its surviving
/// successor ([`crate::topology::FaultyTorus::remap`]) and redone
/// serially there, at `per_domain_seconds` each.
pub fn node_loss_recompute_time(
    per_domain_seconds: f64,
    domains_per_node: usize,
    mf: &MachineFaults,
) -> f64 {
    mf.lost_nodes.len() as f64 * domains_per_node as f64 * per_domain_seconds.max(0.0)
}

/// Binomial-tree allreduce of `bytes` over `p` ranks: `⌈log₂p⌉` rounds of
/// (latency + payload).
pub fn allreduce_time(m: &MachineSpec, bytes: f64, p: usize) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let rounds = (p as f64).log2().ceil();
    rounds * (m.mpi_latency + bytes / m.link_bandwidth)
}

/// Broadcast = same tree as allreduce under this model.
pub fn broadcast_time(m: &MachineSpec, bytes: f64, p: usize) -> f64 {
    allreduce_time(m, bytes, p)
}

/// Pairwise-exchange all-to-all: every rank exchanges `bytes_per_pair` with
/// each of the other `p − 1` ranks.
pub fn alltoall_time(m: &MachineSpec, bytes_per_pair: f64, p: usize) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p - 1) as f64 * (m.mpi_latency + bytes_per_pair / m.link_bandwidth)
}

/// Hierarchical (octree) reduction of a field that coarsens by `8×` per
/// level — the global-density assembly of the GSLF scheme. `leaf_bytes` is
/// the per-domain payload, `levels` the tree depth.
pub fn octree_reduce_time(m: &MachineSpec, leaf_bytes: f64, levels: usize) -> f64 {
    let mut total = 0.0;
    let mut bytes = leaf_bytes;
    for _ in 0..levels {
        total += m.mpi_latency + bytes / m.link_bandwidth;
        bytes /= 8.0;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bgq() -> MachineSpec {
        MachineSpec::bluegene_q(1)
    }

    #[test]
    fn p2p_latency_floor() {
        let m = bgq();
        let t = p2p_time(&m, 0.0, 1);
        assert!((t - m.mpi_latency).abs() < 1e-15);
    }

    #[test]
    fn p2p_bandwidth_dominates_large_messages() {
        let m = bgq();
        let t = p2p_time(&m, 2e9, 1); // 2 GB at 2 GB/s ≈ 1 s
        assert!((t - 1.0).abs() < 0.01);
    }

    #[test]
    fn faulty_models_reduce_to_healthy_without_faults() {
        let m = bgq();
        let mf = MachineFaults::default();
        assert_eq!(
            allreduce_time_faulty(&m, 1024.0, 64, &mf),
            allreduce_time(&m, 1024.0, 64)
        );
        assert_eq!(node_loss_recompute_time(2.0, 8, &mf), 0.0);
    }

    #[test]
    fn degraded_links_and_detours_cost_time() {
        let m = bgq();
        let mf = MachineFaults {
            lost_nodes: vec![3],
            degraded_links: vec![(1, 0.5)],
        };
        // Half bandwidth and two detour hops slow every tree round.
        assert!(allreduce_time_faulty(&m, 1024.0, 64, &mf) > allreduce_time(&m, 1024.0, 64));
        // One lost node hosting 8 domains at 2 s each → 16 s recompute.
        assert_eq!(node_loss_recompute_time(2.0, 8, &mf), 16.0);
    }

    #[test]
    fn allreduce_log_scaling() {
        let m = bgq();
        let t1k = allreduce_time(&m, 1024.0, 1024);
        let t1m = allreduce_time(&m, 1024.0, 1 << 20);
        assert!((t1m / t1k - 2.0).abs() < 1e-9, "log₂ scaling: 20/10 rounds");
        assert_eq!(allreduce_time(&m, 1024.0, 1), 0.0);
    }

    #[test]
    fn alltoall_quadratic_total_cost() {
        // Per-rank time is linear in p; machine-wide cost quadratic.
        let m = bgq();
        let t4 = alltoall_time(&m, 4096.0, 4);
        let t16 = alltoall_time(&m, 4096.0, 16);
        assert!(t16 > 4.0 * t4, "{t16} vs {t4}");
    }

    #[test]
    fn octree_reduce_converges_geometrically() {
        let m = bgq();
        // Infinite-level limit of the bandwidth term: leaf·(8/7)/bw.
        let t = octree_reduce_time(&m, 8.0e6, 20);
        let bw_bound = 8.0e6 * (8.0 / 7.0) / m.link_bandwidth + 20.0 * m.mpi_latency;
        assert!((t - bw_bound).abs() < 1e-6);
        // Doubling leaf payload doubles only the bandwidth part.
        let t2 = octree_reduce_time(&m, 16.0e6, 20);
        assert!(t2 < 2.0 * t);
    }

    #[test]
    fn octree_beats_flat_gather() {
        // The tree structure is what makes the global density cheap: a flat
        // gather of 4096 domain payloads costs far more than the octree.
        let m = bgq();
        let leaf = 32.0e3;
        let tree = octree_reduce_time(&m, leaf, 4); // 8^4 = 4096 domains
        let flat = 4096.0 * (m.mpi_latency + leaf / m.link_bandwidth);
        assert!(tree < flat / 100.0);
    }
}
