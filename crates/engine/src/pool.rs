//! Long-lived worker pool fronting an [`Engine`] for single-job submissions.
//!
//! [`Engine::adapt_batch`] is shaped for the CLI: hand it a whole directory
//! of jobs, get a `Vec` back, workers live for one batch. A server cannot
//! work that way — requests arrive one at a time, must be answerable with
//! *backpressure* when the machine is saturated, and completions must flow
//! back to whichever connection is waiting. [`EnginePool`] is that adapter:
//!
//! * a **bounded** submission queue ([`EnginePool::try_submit`]) that never
//!   blocks the caller — a full queue is reported as
//!   [`SubmitError::QueueFull`] so the admission layer can shed load
//!   (HTTP 429) instead of queueing unboundedly,
//! * long-lived workers calling [`Engine::adapt_one_with`], so the cache,
//!   metrics, and tracer of the shared engine serve every submission,
//! * per-task completion callbacks (invoked on the worker thread) instead
//!   of an ordered result vector,
//! * [`EnginePool::drain`]: close the queue, finish every task already
//!   accepted, and join the workers — the heart of graceful shutdown.

use crate::{AdaptJob, AdaptReport, Engine, JobPolicy};
use qca_hw::HardwareModel;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Completion callback invoked (on a worker thread) with the finished report.
pub type Completion = Box<dyn FnOnce(AdaptReport) + Send + 'static>;

/// A queued unit of work: runs on a worker thread with the shared engine.
type Task = Box<dyn FnOnce(&Engine) + Send + 'static>;

/// Why [`EnginePool::try_submit`] declined a job.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; try again later (HTTP 429).
    QueueFull,
    /// [`EnginePool::drain`] has closed the queue; no new work is accepted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Bounded-queue worker pool over a shared [`Engine`]. See the module docs.
pub struct EnginePool {
    engine: Arc<Engine>,
    tx: Option<SyncSender<Task>>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
    depth: Arc<AtomicUsize>,
}

impl fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnginePool")
            .field("workers", &self.workers.len())
            .field("capacity", &self.capacity)
            .field("queued", &self.queued())
            .field("draining", &self.tx.is_none())
            .finish()
    }
}

impl EnginePool {
    /// Starts `workers` threads (at least one) servicing a queue that holds
    /// at most `queue_capacity` (at least one) not-yet-started jobs.
    pub fn new(engine: Arc<Engine>, workers: usize, queue_capacity: usize) -> EnginePool {
        let capacity = queue_capacity.max(1);
        let (tx, rx) = sync_channel::<Task>(capacity);
        // std's receiver is single-consumer, so the workers share it behind
        // a mutex; whichever worker holds the lock takes the next task.
        let rx = Arc::new(Mutex::new(rx));
        let depth = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let engine = engine.clone();
                let depth = depth.clone();
                std::thread::Builder::new()
                    .name(format!("qca-pool-{i}"))
                    .spawn(move || {
                        // `recv` errors only once every sender is gone *and*
                        // the queue is empty, so drain() naturally finishes
                        // accepted work before workers exit.
                        loop {
                            // A `let` statement drops the guard before the
                            // task runs; `while let` would hold the lock for
                            // the whole body and serialize the workers.
                            let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                            let Ok(task) = next else { break };
                            depth.fetch_sub(1, Ordering::Relaxed);
                            task(&engine);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        EnginePool {
            engine,
            tx: Some(tx),
            workers: handles,
            capacity,
            depth,
        }
    }

    /// The shared engine behind the pool (cache, metrics, tracer).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Capacity of the submission queue (jobs accepted but not yet started).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting in the queue (accepted, not yet started).
    pub fn queued(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Submits one job without blocking. On success, `done` will be called
    /// exactly once, on a worker thread, with the finished report. On
    /// [`SubmitError`], `done` is dropped uninvoked and nothing was queued.
    pub fn try_submit(
        &self,
        hw: Arc<HardwareModel>,
        job: AdaptJob,
        policy: JobPolicy,
        done: impl FnOnce(AdaptReport) + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.try_submit_task(move |engine| {
            done(engine.adapt_one_with(&hw, &job, policy));
        })
    }

    /// Submits a raw closure to run on a worker thread with the shared
    /// engine, under the same admission control as [`try_submit`]. This is
    /// the hook for callers that need per-task setup around the solve —
    /// e.g. `qca-serve` enters a request-scoped trace sink before calling
    /// [`Engine::adapt_one_with`], so the engine's spans land in that
    /// request's buffer.
    ///
    /// [`try_submit`]: EnginePool::try_submit
    pub fn try_submit_task(
        &self,
        task: impl FnOnce(&Engine) + Send + 'static,
    ) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::ShuttingDown)?;
        // Count before sending so `queued()` can never under-report a job a
        // worker has not yet picked up.
        self.depth.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(Box::new(task)) {
            Ok(()) => Ok(()),
            Err(err) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                match err {
                    TrySendError::Full(_) => Err(SubmitError::QueueFull),
                    TrySendError::Disconnected(_) => Err(SubmitError::ShuttingDown),
                }
            }
        }
    }

    /// Stops accepting new work, finishes every job already accepted, and
    /// joins the workers. Idempotent; also runs on drop.
    pub fn drain(&mut self) {
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use qca_circuit::{Circuit, Gate};
    use qca_hw::{spin_qubit_model, GateTimes};
    use std::sync::mpsc;

    fn job() -> AdaptJob {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        AdaptJob::new(c)
    }

    #[test]
    fn pool_runs_jobs_and_calls_completions() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let pool = EnginePool::new(engine, 2, 8);
        let hw = Arc::new(spin_qubit_model(GateTimes::D0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            pool.try_submit(hw.clone(), job(), JobPolicy::default(), move |report| {
                tx.send(report).unwrap();
            })
            .unwrap();
        }
        for _ in 0..4 {
            let report = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("completion");
            assert!(hw.supports_circuit(&report.circuit));
        }
    }

    #[test]
    fn full_queue_is_reported_not_blocked() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let pool = EnginePool::new(engine, 1, 1);
        let hw = Arc::new(spin_qubit_model(GateTimes::D0));
        // Stall the single worker so follow-up submissions pile up: the
        // first job's completion blocks until we release it.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_submit(hw.clone(), job(), JobPolicy::default(), move |_| {
            let _ = release_rx.recv();
        })
        .unwrap();
        // Fill the queue (capacity 1), then observe QueueFull without
        // blocking. The worker may briefly still be picking up the first
        // task, so allow one extra accepted submission before the Full.
        let mut accepted = 0;
        let mut full = false;
        for _ in 0..3 {
            match pool.try_submit(hw.clone(), job(), JobPolicy::default(), |_| {}) {
                Ok(()) => accepted += 1,
                Err(SubmitError::QueueFull) => {
                    full = true;
                    break;
                }
                Err(other) => panic!("unexpected: {other}"),
            }
        }
        assert!(full, "queue never reported full (accepted {accepted})");
        release_tx.send(()).unwrap();
    }

    #[test]
    fn drain_finishes_accepted_work_then_rejects() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let mut pool = EnginePool::new(engine, 1, 4);
        let hw = Arc::new(spin_qubit_model(GateTimes::D0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.try_submit(hw.clone(), job(), JobPolicy::default(), move |report| {
                tx.send(report.status).unwrap();
            })
            .unwrap();
        }
        pool.drain();
        // Every accepted job completed before drain returned.
        assert_eq!(rx.try_iter().count(), 3);
        assert_eq!(
            pool.try_submit(hw, job(), JobPolicy::default(), |_| {}),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn workers_run_tasks_concurrently() {
        // Two tasks that can only finish together: a worker that held the
        // shared receiver's lock while running its task would leave the
        // other task unstarted and both stuck.
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let pool = EnginePool::new(engine, 2, 2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let (barrier, tx) = (barrier.clone(), tx.clone());
            pool.try_submit_task(move |_| {
                barrier.wait();
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        let met = (0..2).all(|_| rx.recv_timeout(std::time::Duration::from_secs(30)).is_ok());
        if !met {
            // A worker is parked at the barrier; joining it would hang.
            std::mem::forget(pool);
        }
        assert!(met, "the two tasks never ran at the same time");
    }
}
