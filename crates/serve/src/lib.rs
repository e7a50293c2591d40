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
//!   A worker keeps its newest checkpoint capture in memory and saves it
//!   durably only when the attempt ends unfinished (preempted, failed or
//!   panicked); an attempt that completes touches no file.
//! - **Supervision** — worker panics (including injected
//!   [`mqmd_util::faults::FaultKind::WorkerKill`]) are caught and the job
//!   requeued or failed with a typed error; every terminal state is
//!   accounted in the [`Ledger`], whose audit the service tests run under
//!   injected faults.

pub mod contract;
pub mod ledger;
pub mod runtime;
pub mod spec;

pub use ledger::{Admission, JobRecord, JobState, Ledger, RejectReason};
pub use runtime::{ServiceConfig, ServiceRuntime};
pub use spec::{Geometry, JobSpec};
