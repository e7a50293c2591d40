//! Named rank programs for the real multi-process runtime.
//!
//! The `mqmd-rank` worker binary resolves [`REGISTRY`] by name (from
//! `MQMD_RANK_PROGRAM`); the same function pointers also run on the
//! in-process thread backend via [`run_thread_reference`], which is how
//! the bitwise gate compares the two transports: **one program, two
//! transports, identical bits**.
//!
//! Program contract: every rank calls the program with the same `args`
//! (broadcast through the environment); the returned `Vec<f64>` is the
//! rank's RESULT payload. Programs must be deterministic functions of
//! `(rank, size, args)` so thread and process backends agree bitwise —
//! except `pingpong`, which measures wall-clock by design.

use mqmd_core::distributed::solve_distributed;
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig};
use mqmd_md::AtomicSystem;
use mqmd_parallel::comm::{Comm, CommError, CommResult, RankProgram};
use mqmd_parallel::executor::run_ranks;
use mqmd_util::constants::Element;
use mqmd_util::timer::Stopwatch;
use mqmd_util::Vec3;
use std::path::PathBuf;

/// Every program the `mqmd-rank` worker can run, by wire name.
pub const REGISTRY: &[(&str, RankProgram)] = &[
    ("collectives_smoke", collectives_smoke),
    ("verify_h2", verify_h2),
    ("pingpong", pingpong),
    ("weak_collectives", weak_collectives),
    ("strong_collectives", strong_collectives),
    ("count_allreduce", count_allreduce),
    ("count_allgather", count_allgather),
    ("count_alltoall", count_alltoall),
    ("count_halo", count_halo),
];

/// Looks up a program by name.
pub fn program(name: &str) -> Option<RankProgram> {
    REGISTRY.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// Runs `program` on the in-process thread backend — the reference the
/// process transport must match bitwise.
pub fn run_thread_reference(name: &str, n: usize, args: &[f64]) -> Option<Vec<Vec<f64>>> {
    let f = program(name)?;
    Some(run_ranks(n, move |_, comm| {
        f(comm, args).expect("rank program on thread backend")
    }))
}

/// Path of the `mqmd-rank` worker binary, assumed to live next to the
/// currently running reproduction binary (cargo puts every bin target of
/// the package in the same `target/<profile>/` directory). Integration
/// tests should use `env!("CARGO_BIN_EXE_mqmd-rank")` instead.
pub fn worker_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("current exe path");
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    p.push(format!("mqmd-rank{}", std::env::consts::EXE_SUFFIX));
    p
}

/// The H₂ verification molecule (the §5.5 degenerate-limit system).
fn h2_system() -> AtomicSystem {
    AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    )
}

/// LDC settings for the distributed H₂ verification: the cell split
/// across the bond with the paper's ξ, cheap FFT Hartree.
fn verify_h2_config() -> LdcConfig {
    LdcConfig {
        nd: (2, 1, 1),
        buffer: 2.0,
        mode: BoundaryMode::ldc_default(),
        hartree: HartreeSolver::Fft,
        tol_density: 1e-5,
        ..LdcConfig::default()
    }
}

/// Exercises every collective the transport implements and returns a
/// deterministic digest of all of them.
fn collectives_smoke(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let len = args.first().copied().unwrap_or(64.0) as usize;
    let (rank, size) = (comm.rank(), comm.size());
    let summed = comm.allreduce_sum(
        (0..len)
            .map(|j| ((rank + 1) * (j + 1)) as f64 * 0.5)
            .collect(),
    )?;
    let gathered = comm.allgather_concat(&[rank as f64, summed[0]])?;
    let strip = 8.min(len.max(1));
    let left: Vec<f64> = summed.iter().take(strip).copied().collect();
    let right: Vec<f64> = summed.iter().rev().take(strip).copied().collect();
    let (from_left, from_right) = comm.halo_exchange(&left, &right)?;
    let blocks: Vec<Vec<f64>> = (0..size)
        .map(|dest| vec![(rank * size + dest) as f64; 4])
        .collect();
    let transposed = comm.alltoall(&blocks)?;
    comm.barrier()?;
    let mut out = summed;
    out.extend(gathered);
    out.extend(from_left);
    out.extend(from_right);
    out.extend(transposed.into_iter().flatten());
    Ok(out)
}

/// The distributed H₂ LDC-DFT solve: returns
/// `[energy, mu, residual, scf_iterations, n_domains, density...]`.
/// Bitwise-identical across ranks and transports.
fn verify_h2(comm: &dyn Comm, _args: &[f64]) -> CommResult<Vec<f64>> {
    let sys = h2_system();
    let cfg = verify_h2_config();
    let state = solve_distributed(&sys, &cfg, comm)
        .map_err(|e| CommError::Transport(format!("verify_h2: {e}")))?;
    let mut out = vec![
        state.energy,
        state.mu,
        state.density_residual,
        state.scf_iterations as f64,
        state.n_domains as f64,
    ];
    out.extend(state.density);
    Ok(out)
}

/// Ping-pong between ranks 0 and 1: returns
/// `[small_rtt_secs, large_rtt_secs, large_bytes]` on every rank (rank 0
/// measures; the digital twin calibrates from its RESULT). args:
/// `[reps, large_len_f64s]`.
fn pingpong(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let reps = (args.first().copied().unwrap_or(32.0) as usize).max(1);
    let large_len = (args.get(1).copied().unwrap_or(65_536.0) as usize).max(1);
    let large_reps = reps.min(8);
    let mut small_rtt = 0.0;
    let mut large_rtt = 0.0;
    if comm.size() >= 2 {
        match comm.rank() {
            0 => {
                comm.send_to(1, &[0.0])?;
                comm.recv_from(1, "pingpong")?;
                let sw = Stopwatch::start();
                for _ in 0..reps {
                    comm.send_to(1, &[1.0])?;
                    comm.recv_from(1, "pingpong")?;
                }
                small_rtt = sw.seconds() / reps as f64;
                let payload = vec![2.0; large_len];
                let sw = Stopwatch::start();
                for _ in 0..large_reps {
                    comm.send_to(1, &payload)?;
                    comm.recv_from(1, "pingpong")?;
                }
                large_rtt = sw.seconds() / large_reps as f64;
            }
            1 => {
                for _ in 0..1 + reps + large_reps {
                    let v = comm.recv_from(0, "pingpong")?;
                    comm.send_to(0, &v)?;
                }
            }
            _ => {}
        }
    }
    comm.barrier()?;
    Ok(vec![small_rtt, large_rtt, (large_len * 8) as f64])
}

/// Weak-scaling collective workload: per-rank payload fixed, so total
/// traffic grows with p. args: `[elems_per_rank, rounds]`.
fn weak_collectives(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let len = (args.first().copied().unwrap_or(4096.0) as usize).max(1);
    let rounds = (args.get(1).copied().unwrap_or(8.0) as usize).max(1);
    collective_rounds(comm, len, rounds)
}

/// Strong-scaling collective workload: total payload fixed, each rank's
/// share shrinks as p grows. args: `[total_elems, rounds]`.
fn strong_collectives(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let total = (args.first().copied().unwrap_or(65_536.0) as usize).max(1);
    let rounds = (args.get(1).copied().unwrap_or(8.0) as usize).max(1);
    let len = (total / comm.size()).max(1);
    collective_rounds(comm, len, rounds)
}

/// Shared body of the scaling workloads: `rounds` allreduces of `len`
/// f64s plus one boundary halo per round — the paper's global-density +
/// BSD buffer-exchange traffic mix.
fn collective_rounds(comm: &dyn Comm, len: usize, rounds: usize) -> CommResult<Vec<f64>> {
    let rank = comm.rank();
    let mut acc = 0.0;
    for round in 0..rounds {
        let summed = comm.allreduce_sum(vec![(rank + round + 1) as f64; len])?;
        acc += summed[0];
        let strip_len = 256.min(len);
        let strip = vec![acc; strip_len];
        let (from_left, from_right) = comm.halo_exchange(&strip, &strip)?;
        acc += (from_left[0] + from_right[0]) * 1e-3;
    }
    comm.barrier()?;
    Ok(vec![acc])
}

/// Exactly `args[0]` allreduce calls of `args[1]` f64s — the router's
/// DATA-frame count must equal `calls · 2·(p−1)`.
fn count_allreduce(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let calls = (args.first().copied().unwrap_or(1.0) as usize).max(1);
    let len = (args.get(1).copied().unwrap_or(32.0) as usize).max(1);
    let mut acc = 0.0;
    for _ in 0..calls {
        acc += comm.allreduce_sum(vec![1.0; len])?[0];
    }
    Ok(vec![acc])
}

/// Exactly `args[0]` allgather calls of `args[1]` f64s per rank — the
/// gather-to-0 + tree-broadcast shape costs `2·(p−1)` DATA frames per
/// call.
fn count_allgather(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let calls = (args.first().copied().unwrap_or(1.0) as usize).max(1);
    let len = (args.get(1).copied().unwrap_or(32.0) as usize).max(1);
    let mut acc = 0.0;
    for _ in 0..calls {
        let all = comm.allgather_concat(&vec![(comm.rank() + 1) as f64; len])?;
        acc += all.iter().sum::<f64>();
    }
    Ok(vec![acc])
}

/// One pairwise all-to-all — the router's DATA-frame count must equal
/// `p·(p−1)`.
fn count_alltoall(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let len = (args.first().copied().unwrap_or(16.0) as usize).max(1);
    let (rank, size) = (comm.rank(), comm.size());
    let blocks: Vec<Vec<f64>> = (0..size)
        .map(|dest| vec![(rank + dest) as f64; len])
        .collect();
    let got = comm.alltoall(&blocks)?;
    Ok(vec![got.into_iter().flatten().sum()])
}

/// `args[1]` halo exchanges (default 1) — `2p` DATA frames each on the
/// ring (0 when p = 1).
fn count_halo(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let len = (args.first().copied().unwrap_or(16.0) as usize).max(1);
    let calls = (args.get(1).copied().unwrap_or(1.0) as usize).max(1);
    let strip = vec![comm.rank() as f64; len];
    let mut out = vec![0.0, 0.0];
    for _ in 0..calls {
        let (from_left, from_right) = comm.halo_exchange(&strip, &strip)?;
        out = vec![from_left[0], from_right[0]];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (name, _) in REGISTRY {
            assert!(program(name).is_some());
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn collectives_smoke_is_deterministic_on_threads() {
        let a = run_thread_reference("collectives_smoke", 4, &[32.0]).unwrap();
        let b = run_thread_reference("collectives_smoke", 4, &[32.0]).unwrap();
        assert_eq!(a, b);
        // All ranks agree on the allreduce segment.
        assert_eq!(a[0][..32], a[3][..32]);
    }

    #[test]
    fn count_programs_run_on_threads() {
        // 2 calls, each summing 1.0 across 3 ranks → acc = 6.0.
        let out = run_thread_reference("count_allreduce", 3, &[2.0, 8.0]).unwrap();
        assert_eq!(out[0], vec![6.0]);
        // 2 allgather calls of 4 f64s from ranks 1..=3 → 2·4·(1+2+3) = 48.
        let out = run_thread_reference("count_allgather", 3, &[2.0, 4.0]).unwrap();
        assert_eq!(out[0], vec![48.0]);
        assert_eq!(out[1], out[0]);
    }
}
