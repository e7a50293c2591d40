//! The service ledger: every admitted job's lifecycle, every rejection,
//! and the aggregate counters the soak harness audits. Nothing terminal
//! happens to a job without a ledger entry — "no lost jobs" is checked
//! here, not asserted by construction.

use std::collections::BTreeMap;

use mqmd_util::Vec3;

/// Why a submission was refused at admission. Typed so clients (and the
/// soak auditor) can distinguish backpressure from bad input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The global queue is at capacity.
    QueueFull,
    /// The tenant is at its in-flight quota (queued + running).
    QuotaExceeded,
    /// The job's deadline budget is already exhausted at submission.
    OverDeadline,
    /// The spec failed validation.
    InvalidSpec,
}

impl RejectReason {
    /// Stable label used in events and reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::QuotaExceeded => "quota_exceeded",
            RejectReason::OverDeadline => "over_deadline",
            RejectReason::InvalidSpec => "invalid_spec",
        }
    }
}

/// Outcome of [`crate::ServiceRuntime::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; the id names the job in the ledger.
    Accepted(u64),
    /// Refused with a typed reason; nothing was enqueued.
    Rejected(RejectReason),
}

impl Admission {
    /// The job id, if admitted.
    pub fn id(&self) -> Option<u64> {
        match self {
            Admission::Accepted(id) => Some(*id),
            Admission::Rejected(_) => None,
        }
    }
}

/// Completed-job payload: the full per-step energy series and final phase
/// space, enough for the soak's bitwise preemption probe.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobResult {
    /// Total energy after each MD step (Hartree), stitched across
    /// preemptions and resumes.
    pub energies: Vec<f64>,
    /// Final positions.
    pub positions: Vec<Vec3>,
    /// Final velocities.
    pub velocities: Vec<Vec3>,
    /// SCF iterations consumed (final attempt's solver total).
    pub scf_iterations: usize,
}

/// Lifecycle state of an admitted job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting in the queue (initial state, and after requeue).
    Queued,
    /// Picked up by a worker.
    Running,
    /// Finished all steps.
    Completed(JobResult),
    /// Terminally failed; the string is the typed error's display form.
    Failed { error: String },
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed(_) | JobState::Failed { .. })
    }

    /// Stable label for events.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed(_) => "completed",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// One admitted job's ledger entry.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Job id (admission order).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Scheduling priority.
    pub priority: u8,
    /// Execution attempts started (1 on the happy path).
    pub attempts: u32,
    /// Times this job was preempted by higher-priority work.
    pub preemptions: u32,
    /// Times an attempt started from a checkpoint.
    pub resumes: u32,
    /// Current state.
    pub state: JobState,
}

/// Aggregate service accounting. Owned by the runtime's scheduler lock;
/// snapshots are handed out by value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Per-job records, keyed by id, for every *admitted* job.
    pub records: BTreeMap<u64, JobRecord>,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that reached [`JobState::Completed`].
    pub completed: u64,
    /// Jobs that reached [`JobState::Failed`].
    pub failed: u64,
    /// Rejections by reason.
    pub rejected_queue_full: u64,
    /// Rejections by reason.
    pub rejected_quota: u64,
    /// Rejections by reason.
    pub rejected_deadline: u64,
    /// Rejections by reason.
    pub rejected_invalid: u64,
    /// Requeues after a retryable failure.
    pub retries: u64,
    /// Checkpoint-backed preemptions (job shed, requeued).
    pub preemptions: u64,
    /// Attempts started from a checkpoint.
    pub resumes: u64,
    /// Worker panics caught by supervision.
    pub panics_caught: u64,
    /// High-water mark of the queued-job count.
    pub queue_depth_peak: u64,
    /// High-water mark of each tenant's in-flight count.
    pub tenant_peak: BTreeMap<u32, u64>,
}

impl Ledger {
    /// Records a rejection.
    pub(crate) fn reject(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::QueueFull => self.rejected_queue_full += 1,
            RejectReason::QuotaExceeded => self.rejected_quota += 1,
            RejectReason::OverDeadline => self.rejected_deadline += 1,
            RejectReason::InvalidSpec => self.rejected_invalid += 1,
        }
    }

    /// Audits the post-drain invariants the service promises. Returns a
    /// list of violations (empty = clean). `quota`/`capacity` are the
    /// runtime limits the peaks are checked against.
    pub fn audit(&self, quota: usize, capacity: usize) -> Vec<String> {
        let mut v = Vec::new();
        if self.submitted != self.records.len() as u64 {
            v.push(format!(
                "submitted counter {} != {} ledger records (lost or phantom jobs)",
                self.submitted,
                self.records.len()
            ));
        }
        let mut completed = 0u64;
        let mut failed = 0u64;
        for rec in self.records.values() {
            match &rec.state {
                JobState::Completed(_) => completed += 1,
                JobState::Failed { .. } => failed += 1,
                other => v.push(format!(
                    "job {} stranded non-terminal ({})",
                    rec.id,
                    other.label()
                )),
            }
        }
        if completed != self.completed || failed != self.failed {
            v.push(format!(
                "terminal counters ({}, {}) disagree with records ({completed}, {failed})",
                self.completed, self.failed
            ));
        }
        if self.queue_depth_peak > capacity as u64 {
            v.push(format!(
                "queue depth peaked at {} > capacity {capacity}",
                self.queue_depth_peak
            ));
        }
        for (&tenant, &peak) in &self.tenant_peak {
            if peak > quota as u64 {
                v.push(format!(
                    "tenant {tenant} in-flight peaked at {peak} > quota {quota}"
                ));
            }
        }
        if self.resumes > self.preemptions + self.retries {
            v.push(format!(
                "{} resumes exceed {} preemptions + {} retries",
                self.resumes, self.preemptions, self.retries
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terminal_record(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id,
            tenant: 0,
            priority: 0,
            attempts: 1,
            preemptions: 0,
            resumes: 0,
            state,
        }
    }

    #[test]
    fn audit_catches_stranded_and_miscounted_jobs() {
        let mut ledger = Ledger {
            submitted: 2,
            completed: 1,
            ..Default::default()
        };
        ledger.records.insert(
            1,
            terminal_record(1, JobState::Completed(JobResult::default())),
        );
        ledger
            .records
            .insert(2, terminal_record(2, JobState::Queued));
        let violations = ledger.audit(4, 16);
        assert!(violations.iter().any(|v| v.contains("stranded")));

        ledger.records.insert(
            2,
            terminal_record(2, JobState::Failed { error: "x".into() }),
        );
        ledger.failed = 1;
        assert!(ledger.audit(4, 16).is_empty());

        ledger.submitted = 3;
        assert!(!ledger.audit(4, 16).is_empty());
    }

    #[test]
    fn audit_checks_peaks_against_limits() {
        let mut ledger = Ledger {
            queue_depth_peak: 20,
            ..Default::default()
        };
        ledger.tenant_peak.insert(7, 9);
        let v = ledger.audit(4, 16);
        assert!(v.iter().any(|s| s.contains("queue depth")));
        assert!(v.iter().any(|s| s.contains("tenant 7")));
    }
}
