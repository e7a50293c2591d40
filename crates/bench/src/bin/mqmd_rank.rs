//! The rank worker: one real OS process per rank of the multi-process
//! transport. The parent (`repro_paper --real-ranks`, `repro_profile`,
//! the real-rank and chaos tests in `crates/bench/tests`) spawns this
//! binary with `MQMD_RANK_*` environment, and
//! [`mqmd_parallel::process::worker_from_env`] connects back over TCP and
//! runs the named program from the shared registry.
//!
//! Run directly (without the environment) it only explains itself — the
//! binary is an implementation detail of `run_processes`.

fn main() {
    if let Some(code) = mqmd_parallel::process::worker_from_env(mqmd_bench::real_ranks::REGISTRY) {
        std::process::exit(code);
    }
    eprintln!(
        "mqmd-rank is the worker half of the multi-process rank runtime; \
         it is spawned by repro_paper --real-ranks / repro_profile with \
         MQMD_RANK_* environment variables and does nothing standalone."
    );
    std::process::exit(2);
}
