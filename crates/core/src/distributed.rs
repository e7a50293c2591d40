//! The cold, one-shot entry to the rank-distributed LDC-DFT solve, and
//! the spectrum exchange the SCF loop's μ search goes through.
//!
//! There is one global SCF loop in this crate,
//! [`LdcSolver::solve_on`]; it is written over the transport-agnostic
//! [`Comm`] trait and documents the domain striping, the collectives, the
//! recovery fence, the halo probe and the forces. [`solve_distributed`] is
//! that loop on a fresh solver — the form a rank process calls for a
//! single-point solve; a rank that keeps its [`LdcSolver`] and calls
//! `solve_on` again gets warm starts and scratch reuse like any other
//! caller.

use crate::global::{LdcConfig, LdcSolver, LdcState};
use mqmd_md::AtomicSystem;
use mqmd_parallel::comm::{Comm, CommError, CommResult};
use mqmd_util::Result;
use std::collections::BTreeMap;

/// Solves the electronic structure of `system` with LDC-DFT from cold,
/// domain work striped over the ranks of `comm`: [`LdcSolver::solve_on`]
/// on a new solver. Every rank must call this with the same `system` and
/// `cfg`; the result is replicated.
pub fn solve_distributed(
    system: &AtomicSystem,
    cfg: &LdcConfig,
    comm: &dyn Comm,
) -> Result<LdcState> {
    LdcSolver::new(*cfg).solve_on(system, comm)
}

/// Gathers every rank's per-domain (ε, w) levels and reassembles the global
/// spectrum in ascending domain order, the same on every rank.
///
/// `allgather_concat` requires equal-length contributions, so each rank
/// first publishes its stream length (one f64), pads its stream to the
/// maximum with NaN, and the decode loop reads only each rank's true
/// length. Values cross the wire as exact f64s, so the reassembled spectrum
/// is bitwise-replicated.
pub(crate) fn exchange_spectra(
    comm: &dyn Comm,
    local: &[(usize, Vec<(f64, f64)>)],
) -> CommResult<Vec<(f64, f64)>> {
    let mut stream: Vec<f64> = Vec::new();
    for (idx, levels) in local {
        stream.push(*idx as f64);
        stream.push(levels.len() as f64);
        for &(e, w) in levels {
            stream.push(e);
            stream.push(w);
        }
    }
    let lens = comm.allgather_concat(&[stream.len() as f64])?;
    let max_len = lens.iter().fold(0.0f64, |a, &b| a.max(b)) as usize;
    stream.resize(max_len, f64::NAN);
    let all = comm.allgather_concat(&stream)?;

    let mut by_idx: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (r, len) in lens.iter().enumerate() {
        let mut s = &all[r * max_len..r * max_len + *len as usize];
        while !s.is_empty() {
            if s.len() < 2 {
                return Err(CommError::Transport("truncated spectrum stream".into()));
            }
            let idx = s[0] as usize;
            let n = s[1] as usize;
            if s.len() < 2 + 2 * n {
                return Err(CommError::Transport("truncated spectrum stream".into()));
            }
            let levels = (0..n).map(|k| (s[2 + 2 * k], s[3 + 2 * k])).collect();
            if by_idx.insert(idx, levels).is_some() {
                return Err(CommError::Transport(format!(
                    "domain {idx} reported by two ranks"
                )));
            }
            s = &s[2 + 2 * n..];
        }
    }
    Ok(by_idx
        .into_values()
        .flat_map(|levels| levels.into_iter())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{BoundaryMode, HartreeSolver, HALO_PROBE_LEN};
    use mqmd_parallel::executor::run_ranks;
    use mqmd_util::constants::Element;
    use mqmd_util::Vec3;

    fn h2(cell: f64) -> AtomicSystem {
        AtomicSystem::new(
            Vec3::splat(cell),
            vec![Element::H, Element::H],
            vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
        )
    }

    fn split_cfg() -> LdcConfig {
        LdcConfig {
            nd: (2, 1, 1),
            buffer: 2.0,
            mode: BoundaryMode::ldc_default(),
            hartree: HartreeSolver::Fft,
            tol_density: 1e-5,
            ..Default::default()
        }
    }

    #[test]
    fn two_ranks_replicate_bitwise_and_track_serial() {
        let sys = h2(8.0);
        let cfg = split_cfg();
        let serial = LdcSolver::new(cfg).solve(&sys).expect("serial converges");
        let out = run_ranks(2, |_, comm| solve_distributed(&sys, &cfg, comm).unwrap());
        // Replication: both ranks hold the identical state.
        assert_eq!(out[0].energy.to_bits(), out[1].energy.to_bits());
        assert_eq!(out[0].mu.to_bits(), out[1].mu.to_bits());
        assert_eq!(out[0].density, out[1].density);
        assert_eq!(
            out[0].owned_domains + out[1].owned_domains,
            out[0].n_domains
        );
        // Accuracy: the tree-summed field differs from the serial per-point
        // accumulation only by f64 association; SCF magnifies that a little
        // but must stay far inside physical tolerances.
        assert!(
            (out[0].energy - serial.energy).abs() < 1e-6,
            "distributed {} vs serial {}",
            out[0].energy,
            serial.energy
        );
        assert!((out[0].mu - serial.mu).abs() < 1e-6);
        assert_eq!(out[0].halo_probe_len, HALO_PROBE_LEN);
    }

    #[test]
    fn idle_ranks_participate_in_collectives() {
        // More ranks than domains: ranks 2.. own nothing but still join
        // every collective and receive the replicated answer.
        let sys = h2(8.0);
        let cfg = split_cfg();
        let out = run_ranks(3, |_, comm| solve_distributed(&sys, &cfg, comm).unwrap());
        assert_eq!(out[2].owned_domains, 0);
        assert_eq!(out[0].energy.to_bits(), out[2].energy.to_bits());
        assert_eq!(out[0].density, out[2].density);
    }
}
