//! Multi-tenant QMD job service (the paper's "hydrogen-on-demand" framing
//! as a runtime): simulation jobs are submitted by tenants, pass admission
//! control onto a bounded queue, and are driven by a supervised worker pool
//! over shared solver/plan caches.
//!
//! The service plane is built from the robustness primitives the rest of
//! the workspace already provides, composed rather than re-invented:
//!
//! - **Admission control / backpressure** — per-tenant in-flight quotas and
//!   a bounded global queue; over-limit submissions get a typed
//!   [`RejectReason`], never a silent drop ([`ServiceRuntime::submit`]).
//! - **Deadlines and retries** — per-job wall-clock budgets enforced at SCF
//!   iteration granularity through [`mqmd_util::cancel`]; transient
//!   failures are retried with seeded exponential backoff and a capped
//!   attempt ladder before a typed abort. The first attempt runs the SCF
//!   settings chosen for speed inside the accuracy [`contract`]; retries
//!   fall back to conservative ones (softer mixing, tight eigensolver,
//!   bigger iteration budget).
//! - **Checkpoint-backed preemption** — higher-priority arrivals preempt
//!   running work at MD-step boundaries via [`mqmd_md::io::CheckpointStore`];
//!   the shed job is requeued (never lost) and resumes bitwise-identically.
//!   Workers only capture a checkpoint; one writer thread per runtime makes
//!   it durable, and every attempt that may be resumed flushes its writes
//!   before it ends.
//! - **Supervision** — worker panics (including injected
//!   [`mqmd_util::faults::FaultKind::WorkerKill`]) are caught and the job
//!   requeued or failed with a typed error; every terminal state is
//!   accounted in the [`Ledger`], which `repro_serve` audits under chaos.

pub mod contract;
pub mod ledger;
pub mod runtime;
pub mod spec;
mod writer;

pub use ledger::{Admission, JobRecord, JobState, Ledger, RejectReason};
pub use runtime::{ServiceConfig, ServiceRuntime};
pub use spec::{Geometry, JobSpec};
