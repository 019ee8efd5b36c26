//! Bounded worker pool executing admitted requests.
//!
//! Connection threads parse and admit; the actual graph work runs on a
//! fixed set of long-lived worker threads, so the number of concurrent
//! op-DAG executions is bounded regardless of how many sockets are
//! open. Each job carries the deadline stamped at admission: a worker
//! that dequeues a job past its deadline runs the job's `expire`
//! handler (which answers `timeout`) instead of its body, so a backlog
//! drains at memcpy speed once the server falls behind. A job that
//! panics is contained: the worker counts it (`serve/worker_panics`)
//! and takes the next job, so the pool never shrinks.
//!
//! Uses `std::sync::{Mutex, Condvar}` directly — the workspace
//! `parking_lot` shim intentionally omits condvars.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// A unit of admitted work.
pub struct Job {
    /// Latest time at which starting the job is still useful.
    pub deadline: Instant,
    /// The request body; runs on a worker thread.
    pub run: Box<dyn FnOnce() + Send>,
    /// Called instead of `run` if the deadline passed while queued.
    pub expire: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// Why a job could not be enqueued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured queue capacity.
    pub capacity: usize,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
    expired: Arc<pygb_obs::Counter>,
    panics: Arc<pygb_obs::Counter>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Fixed-size thread pool with a bounded FIFO queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads consuming a queue of at most `capacity`
    /// pending jobs.
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity,
            expired: pygb_obs::registry().counter("serve/expired_in_queue"),
            panics: pygb_obs::registry().counter("serve/worker_panics"),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pygb-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Enqueue a job, failing fast when the queue is at capacity.
    pub fn submit(&self, job: Job) -> Result<(), (Job, QueueFull)> {
        let mut q = self.shared.queue.lock().unwrap();
        if q.jobs.len() >= self.shared.capacity {
            return Err((
                job,
                QueueFull {
                    capacity: self.shared.capacity,
                },
            ));
        }
        q.jobs.push_back(job);
        drop(q);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        // The pool's last owner can be a job's closure, dropped on one
        // of these workers. That worker cannot join itself; it leaves
        // its loop on its own once the job returns, because the queue
        // is shut down.
        let me = thread::current().id();
        for h in self.workers.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        let body = if Instant::now() > job.deadline {
            shared.expired.inc();
            job.expire
        } else {
            job.run
        };
        if catch_unwind(AssertUnwindSafe(body)).is_err() {
            shared.panics.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn job(deadline: Instant, run: impl FnOnce() + Send + 'static) -> Job {
        Job {
            deadline,
            run: Box::new(run),
            expire: Box::new(|| {}),
        }
    }

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.submit(job(Instant::now() + Duration::from_secs(5), move || {
                tx.send(i).unwrap();
            }))
            .unwrap();
        }
        let mut got: Vec<i32> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_when_queue_full() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.submit(job(Instant::now() + Duration::from_secs(5), move || {
            let _ = block_rx.recv_timeout(Duration::from_secs(5));
        }))
        .unwrap();
        // ...then fill the single queue slot. A brief wait lets the
        // worker pick up the first job so the slot is genuinely ours.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if pool.queued() == 0 || Instant::now() > deadline {
                break;
            }
            thread::yield_now();
        }
        pool.submit(job(Instant::now() + Duration::from_secs(5), || {}))
            .unwrap();
        let res = pool.submit(job(Instant::now() + Duration::from_secs(5), || {}));
        assert!(matches!(res, Err((_, QueueFull { capacity: 1 }))));
        block_tx.send(()).unwrap();
    }

    #[test]
    fn expired_jobs_run_expire_handler() {
        let pool = WorkerPool::new(1, 16);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        pool.submit(job(Instant::now() + Duration::from_secs(5), move || {
            let _ = block_rx.recv_timeout(Duration::from_secs(5));
        }))
        .unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let expired = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        {
            let ran = Arc::clone(&ran);
            let expired = Arc::clone(&expired);
            pool.submit(Job {
                // Already past deadline by the time the worker unblocks.
                deadline: Instant::now() - Duration::from_millis(1),
                run: Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
                expire: Box::new(move || {
                    expired.fetch_add(1, Ordering::SeqCst);
                    done_tx.send(()).unwrap();
                }),
            })
            .unwrap();
        }
        block_tx.send(()).unwrap();
        done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(expired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_job_leaves_every_worker_running() {
        let pool = WorkerPool::new(2, 16);
        let deadline = || Instant::now() + Duration::from_secs(5);
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            pool.submit(job(deadline(), || panic!("injected job panic")))
                .unwrap();
        }
        // Both workers must still be alive: two jobs that each wait for
        // the other can only meet when they run at the same time.
        let arrived = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let (tx, arrived) = (tx.clone(), Arc::clone(&arrived));
            pool.submit(job(deadline(), move || {
                arrived.fetch_add(1, Ordering::SeqCst);
                let give_up = deadline();
                while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < give_up {
                    thread::yield_now();
                }
                let met = arrived.load(Ordering::SeqCst) == 2;
                tx.send((thread::current().name().map(str::to_string), met))
                    .unwrap();
            }))
            .unwrap();
        }
        let mut seen: Vec<_> = (0..2)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        seen.sort();
        assert_eq!(
            seen,
            [
                (Some("pygb-serve-worker-0".to_string()), true),
                (Some("pygb-serve-worker-1".to_string()), true)
            ]
        );
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4, 16);
        let (tx, rx) = mpsc::channel();
        pool.submit(job(Instant::now() + Duration::from_secs(5), move || {
            tx.send(()).unwrap();
        }))
        .unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(pool); // must not hang
    }
}
