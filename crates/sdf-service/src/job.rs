//! The daemon's job state machine and bounded work queue.
//!
//! Every cache-missing request becomes a [`Job`]: it is *pending* while
//! queued, *running* while a worker executes it, and ends in exactly
//! one terminal state — *complete*, *failed* or (when the queue is
//! full at submission time) *rejected*.  The connection thread that
//! accepted the request blocks on the job's channel and writes the
//! outcome back to the client, so backpressure propagates to the
//! submitter instead of growing an unbounded backlog.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use crate::api::{RequestTelemetry, ServiceError, ServiceRequest};

/// Lifecycle of a job. `Pending → Running → Complete | Failed`;
/// `Rejected` is entered directly from submission when the queue is
/// full and is also terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Queued, waiting for a worker.
    Pending,
    /// A worker is executing the request.
    Running,
    /// Finished with an `ok` response.
    Complete,
    /// Finished with an `error` response.
    Failed,
    /// Never ran: the queue was full at submission.
    Rejected,
}

impl JobState {
    /// The wire/trace name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Complete => "complete",
            JobState::Failed => "failed",
            JobState::Rejected => "rejected",
        }
    }
}

/// What a worker hands back to the submitting connection thread: the
/// result plus the request-scoped telemetry the connection thread
/// composes into the response envelope (outside any cached bytes).
pub enum JobOutcome {
    /// The request succeeded; the serialized payload document.
    Complete(std::sync::Arc<String>, RequestTelemetry),
    /// The request failed inside the engine or on graph parse.
    Failed(ServiceError, RequestTelemetry),
}

/// One unit of queued work.
pub struct Job {
    /// The parsed request to execute.
    pub request: ServiceRequest,
    /// The client-chosen id, echoed in the response envelope.
    pub request_id: String,
    /// `(fingerprint, canonical)` when the request is cacheable; the
    /// connection thread uses it to populate the cache from the
    /// outcome.
    pub cache_key: Option<(String, String)>,
    /// Queue-entry time on the server recorder's clock; the worker
    /// subtracts it from its start time to get the job's queue wait.
    pub enqueued_ns: u64,
    /// Where the worker sends the outcome.
    pub tx: mpsc::Sender<JobOutcome>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A bounded MPMC queue: submitters `try_push` (rejection, never
/// blocking), workers block on `pop` until work arrives or the queue
/// closes.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// An open queue holding at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `job`, or returns it when the queue is full or closed
    /// (the caller responds `rejected` without blocking).
    // Handing the whole job back on rejection is the point — the caller
    // needs the request id and channel to answer the client — mirroring
    // `mpsc::TrySendError`, so the large Err variant is deliberate.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.lock();
        if inner.closed || inner.jobs.len() >= self.capacity {
            return Err(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (returning it) or the queue has
    /// been closed and drained (returning `None`, the worker's signal
    /// to exit).
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending jobs are dropped (their submitters see
    /// a disconnected channel), future pushes are rejected, and blocked
    /// workers wake up and exit.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.jobs.clear();
        drop(inner);
        self.ready.notify_all();
    }

    /// Jobs currently pending (for the `service.queue.depth` gauge).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tx: mpsc::Sender<JobOutcome>) -> Job {
        Job {
            request: ServiceRequest::Stats,
            request_id: "t".into(),
            cache_key: None,
            enqueued_ns: 0,
            tx,
        }
    }

    #[test]
    fn push_pop_round_trips() {
        let q = JobQueue::new(2);
        let (tx, _rx) = mpsc::channel();
        assert!(q.try_push(job(tx.clone())).is_ok());
        assert_eq!(q.depth(), 1);
        assert!(q.pop().is_some());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = JobQueue::new(1);
        let (tx, _rx) = mpsc::channel();
        assert!(q.try_push(job(tx.clone())).is_ok());
        assert!(q.try_push(job(tx.clone())).is_err());
        q.pop();
        assert!(q.try_push(job(tx)).is_ok());
    }

    #[test]
    fn close_wakes_blocked_workers_and_rejects_pushes() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let waiter = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop().is_none())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(waiter.join().expect("worker exits"));
        let (tx, _rx) = mpsc::channel();
        assert!(q.try_push(job(tx)).is_err());
    }

    #[test]
    fn state_names_are_stable() {
        let names: Vec<&str> = [
            JobState::Pending,
            JobState::Running,
            JobState::Complete,
            JobState::Failed,
            JobState::Rejected,
        ]
        .iter()
        .map(|s| s.as_str())
        .collect();
        assert_eq!(
            names,
            ["pending", "running", "complete", "failed", "rejected"]
        );
    }
}
