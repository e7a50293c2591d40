//! The runtime's one checkpoint writer: workers capture a checkpoint at a
//! step boundary and hand it over; this thread makes it durable through
//! [`CheckpointStore::save`] (write, fsync, rename, directory fsync,
//! retention) while the job computes its next step.
//!
//! Rules, each relied on by the runtime:
//!
//! * **Durable before any read.** A job reads its checkpoints only when it
//!   resumes, and every attempt that does not complete ends with
//!   [`CheckpointWriter::flush`], which waits until each write the job
//!   queued has landed. So a resume never reads past a write in flight.
//! * **Errors surface at the flush.** A failed write is remembered (the
//!   first per job) and returned by the job's next flush as the
//!   [`MqmdError::Io`] the retry ladder treats as transient. A job that
//!   completes never flushes, because it never reads its checkpoints.
//! * **Cancel on settle.** [`CheckpointWriter::settle`] drops a terminal
//!   job's queued writes and deletes its directory after any write of it
//!   already in flight.
//! * **One thread, in order.** Tasks run one at a time in the order they
//!   were queued; the thread exits once every worker has exited and the
//!   queue is empty.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};

use mqmd_md::io::{Checkpoint, CheckpointStore};
use mqmd_util::MqmdError;

enum Task {
    Save { job: u64, ckp: Box<Checkpoint> },
    Remove { job: u64 },
}

struct State {
    queue: VecDeque<Task>,
    /// Saves of each job queued or in flight; no entry means none.
    pending: HashMap<u64, usize>,
    /// The first failed save of each job since its last flush.
    errors: HashMap<u64, MqmdError>,
    /// Whether the thread is running a task it has taken off the queue.
    busy: bool,
    /// Workers that may still queue a task.
    producers: usize,
}

/// Queue and bookkeeping shared by the workers and the writer thread.
pub struct CheckpointWriter {
    root: PathBuf,
    keep: usize,
    state: Mutex<State>,
    /// Wakes the thread (new task, last producer gone) and the flush and
    /// idle waiters (a task finished).
    cv: Condvar,
}

impl CheckpointWriter {
    /// Stores live under `root/job_<id>`, each keeping `keep` checkpoints;
    /// `producers` workers will call [`producer_exited`](Self::producer_exited).
    pub fn new(root: PathBuf, keep: usize, producers: usize) -> Self {
        Self {
            root,
            keep,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pending: HashMap::new(),
                errors: HashMap::new(),
                busy: false,
                producers,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Nothing panics while holding the lock; recover from poisoning
        // anyway, as the scheduler lock does.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, g: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(g).unwrap_or_else(|e| e.into_inner())
    }

    /// The checkpoint directory of `job`.
    fn job_dir(&self, job: u64) -> PathBuf {
        self.root.join(format!("job_{job:08}"))
    }

    /// Opens `job`'s store for reading.
    pub fn store(&self, job: u64) -> mqmd_util::Result<CheckpointStore> {
        CheckpointStore::open(self.job_dir(job), self.keep)
    }

    /// Queues a durable write of `ckp` into `job`'s store.
    pub fn save(&self, job: u64, ckp: Checkpoint) {
        let mut st = self.lock();
        *st.pending.entry(job).or_default() += 1;
        st.queue.push_back(Task::Save {
            job,
            ckp: Box::new(ckp),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks until every write `job` queued has landed; returns the first
    /// of them that failed since the last flush.
    pub fn flush(&self, job: u64) -> mqmd_util::Result<()> {
        let mut st = self.lock();
        while st.pending.contains_key(&job) {
            st = self.wait(st);
        }
        st.errors.remove(&job).map_or(Ok(()), Err)
    }

    /// `job` is terminal: its queued writes are dropped, and its directory
    /// is deleted once a write of it in flight (if any) has finished.
    pub fn settle(&self, job: u64) {
        let mut st = self.lock();
        st.queue
            .retain(|t| !matches!(t, Task::Save { job: j, .. } if *j == job));
        st.pending.remove(&job);
        st.errors.remove(&job);
        st.queue.push_back(Task::Remove { job });
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks until the queue is empty and no task runs.
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while st.busy || !st.queue.is_empty() {
            st = self.wait(st);
        }
    }

    /// A worker has exited and will queue nothing more.
    pub fn producer_exited(&self) {
        self.lock().producers -= 1;
        self.cv.notify_all();
    }

    /// The writer thread's loop.
    pub fn run(&self) {
        let mut st = self.lock();
        loop {
            let Some(task) = st.queue.pop_front() else {
                if st.producers == 0 {
                    return;
                }
                st = self.wait(st);
                continue;
            };
            st.busy = true;
            drop(st);
            let saved = match task {
                Task::Save { job, ckp } => Some((job, self.write(job, &ckp))),
                Task::Remove { job } => {
                    std::fs::remove_dir_all(self.job_dir(job)).ok();
                    None
                }
            };
            st = self.lock();
            st.busy = false;
            if let Some((job, result)) = saved {
                // A job settled while this write was in flight has no
                // entry any more, and its outcome is not wanted.
                if let Some(n) = st.pending.get_mut(&job) {
                    *n -= 1;
                    if *n == 0 {
                        st.pending.remove(&job);
                    }
                    if let Err(e) = result {
                        st.errors.entry(job).or_insert(e);
                    }
                }
            }
            self.cv.notify_all();
        }
    }

    /// One durable save; a panic inside it is a failed write, so a flush
    /// waiting on it never hangs.
    fn write(&self, job: u64, ckp: &Checkpoint) -> mqmd_util::Result<()> {
        catch_unwind(AssertUnwindSafe(|| self.store(job)?.save(ckp)))
            .unwrap_or_else(|_| {
                Err(MqmdError::Io(format!(
                    "checkpoint write of job {job} at step {} panicked",
                    ckp.step
                )))
            })
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_md::AtomicSystem;
    use mqmd_util::constants::Element;
    use mqmd_util::Vec3;
    use std::sync::Arc;

    fn ckp(step: u64) -> Checkpoint {
        let system = AtomicSystem::new(
            Vec3::splat(8.0),
            vec![Element::H; 2],
            vec![Vec3::splat(3.0), Vec3::splat(4.4)],
        );
        Checkpoint {
            step,
            system,
            cached_forces: None,
            thermostat: vec![0.5],
            solver: vec![7; 16],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mqmd_writer_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A writer with its thread, for one producer.
    fn start(root: &std::path::Path) -> (Arc<CheckpointWriter>, std::thread::JoinHandle<()>) {
        let w = Arc::new(CheckpointWriter::new(root.to_path_buf(), 2, 1));
        let t = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.run())
        };
        (w, t)
    }

    #[test]
    fn flushed_writes_are_durable_and_settle_deletes_the_store() {
        let root = tmp("durable");
        let (w, t) = start(&root);
        for step in 1..=3 {
            w.save(5, ckp(step));
        }
        w.flush(5).unwrap();
        let store = w.store(5).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().step, 3);
        assert_eq!(store.list().unwrap().len(), 2, "retention still applies");

        w.settle(5);
        w.wait_idle();
        assert!(!w.job_dir(5).exists());
        w.producer_exited();
        t.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_failed_write_surfaces_once_at_the_next_flush() {
        let root = tmp("error");
        // A plain file where the job's directory should be: the store
        // cannot be opened.
        std::fs::create_dir_all(&root).unwrap();
        let (w, t) = start(&root);
        std::fs::write(w.job_dir(1), b"not a directory").unwrap();
        w.save(1, ckp(1));
        w.save(2, ckp(1));
        assert!(matches!(w.flush(1), Err(MqmdError::Io(_))));
        assert!(w.flush(1).is_ok(), "reported once");
        assert!(w.flush(2).is_ok(), "other jobs are unaffected");
        w.producer_exited();
        t.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn settling_drops_queued_writes_and_its_errors() {
        let root = tmp("settle");
        // No thread yet: every task stays queued.
        let w = Arc::new(CheckpointWriter::new(root.clone(), 2, 1));
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(w.job_dir(9), b"not a directory").unwrap();
        w.save(3, ckp(1));
        w.save(3, ckp(2));
        w.save(9, ckp(1));
        w.settle(3);
        w.producer_exited();
        // The thread drains what is left, then exits on its own.
        let t = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.run())
        };
        t.join().unwrap();
        assert!(!w.job_dir(3).exists(), "no write of a settled job lands");
        assert!(matches!(w.flush(9), Err(MqmdError::Io(_))));
        std::fs::remove_dir_all(&root).ok();
    }
}
