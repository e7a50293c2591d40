//! Property test pinning the collective message algebra **on the real
//! wire**: the parent router counts every DATA frame it forwards, and
//! those observed counts must equal the closed forms the cost model
//! prices — allreduce `2·(p−1)` (binomial reduce + tree broadcast),
//! allgather `2·(p−1)` (gather to 0 + tree broadcast), pairwise
//! all-to-all `p·(p−1)`, ring halo `2p`. The byte counts follow from
//! the payload each frame carries.
//! Every run here is clean, so the hub drops no stale frame.

use mqmd_parallel::process::{run_processes, ProcessOpts};
use std::path::Path;
use std::time::Duration;

fn worker() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_mqmd-rank"))
}

fn run(program: &str, n: usize, args: &[f64]) -> mqmd_parallel::process::ProcessRun {
    let out = run_processes(
        worker(),
        program,
        n,
        ProcessOpts {
            deadline: Duration::from_secs(120),
            args: args.to_vec(),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{program} at p = {n}: {e}"));
    assert_eq!(
        out.stale_frames,
        vec![0; n],
        "{program} at p = {n}: stale frames in a clean run"
    );
    out
}

#[test]
fn allreduce_and_allgather_put_2p_minus_2_frames_on_the_wire() {
    let len = 24usize;
    for p in [2usize, 3, 4, 5] {
        for calls in [1u64, 3] {
            let legs = calls * (p as u64 - 1);
            // An allreduce frame carries the whole vector; a gather leg
            // carries one rank's slice, a broadcast leg all p of them.
            for (program, bytes) in [
                ("count_allreduce", 2 * legs * (len * 8) as u64),
                ("count_allgather", legs * (1 + p as u64) * (len * 8) as u64),
            ] {
                let out = run(program, p, &[calls as f64, len as f64]);
                assert_eq!(
                    out.data_frames,
                    2 * legs,
                    "{program} p={p} calls={calls}: observed frames"
                );
                assert_eq!(
                    out.data_bytes, bytes,
                    "{program} p={p} calls={calls}: observed bytes"
                );
            }
        }
    }
}

#[test]
fn alltoall_puts_p_times_p_minus_1_frames_on_the_wire() {
    let len = 16usize;
    for p in [2usize, 3, 4, 5] {
        let out = run("count_alltoall", p, &[len as f64]);
        let expect = (p * (p - 1)) as u64;
        assert_eq!(out.data_frames, expect, "alltoall p={p}: observed frames");
        assert_eq!(
            out.data_bytes,
            expect * (len * 8) as u64,
            "alltoall p={p}: observed bytes"
        );
    }
}

#[test]
fn halo_exchange_puts_2p_frames_on_the_ring() {
    let len = 16usize;
    for p in [2usize, 3, 4, 5] {
        let out = run("count_halo", p, &[len as f64]);
        let expect = 2 * p as u64;
        assert_eq!(out.data_frames, expect, "halo p={p}: observed frames");
        assert_eq!(
            out.data_bytes,
            expect * (len * 8) as u64,
            "halo p={p}: observed bytes"
        );
    }
}

#[test]
fn single_rank_runs_put_nothing_on_the_wire() {
    for program in [
        "count_allreduce",
        "count_allgather",
        "count_alltoall",
        "count_halo",
    ] {
        let out = run(program, 1, &[8.0]);
        assert_eq!(out.data_frames, 0, "{program} at p = 1");
        assert_eq!(out.data_bytes, 0, "{program} at p = 1");
    }
}
