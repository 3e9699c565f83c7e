//! The dynamic batcher at the core of `pdn serve`.
//!
//! Concurrent requests queue into an MPSC channel drained by a single
//! owner thread (the only thread touching the `Predictor`'s scratch or the
//! simulator, so the zero-allocation batch paths apply unchanged). The
//! drain loop coalesces: it blocks for the first job, then keeps accepting
//! until either `max_batch` jobs arrived or `max_wait` elapsed since the
//! first one — the deadline bounds tail latency, so a lone request pays at
//! most `max_wait` extra, while a burst is answered as one multi-map CNN
//! batch (or one multi-RHS transient group).
//!
//! Telemetry per batch (under the batcher's name prefix): the
//! `<name>.batch_width` histogram, whose count is the batches and whose
//! sum is the requests, `<name>.queue_wait_seconds`, and a `<name>.batch`
//! span around the processor call carrying the width, whose histogram is
//! the batch compute time, so `pdn report` renders server traces with no
//! special cases.

use pdn_core::telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batch-forming knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest number of requests coalesced into one batch.
    pub max_batch: usize,
    /// Longest a batch waits for company after its first request arrives.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { max_batch: 16, max_wait: Duration::from_millis(2) }
    }
}

/// One queued request plus its reply channel.
pub struct Job<Req, Resp> {
    /// The request payload handed to the batch processor.
    pub request: Req,
    /// The request ID minted at accept time (empty for anonymous jobs);
    /// recorded on the batch span so a slow response can be correlated
    /// with the batch it rode in.
    pub request_id: String,
    /// When the request entered the queue (for queue-wait accounting).
    pub enqueued: Instant,
    /// Where the batched answer goes. A dropped receiver (client gone)
    /// just discards the answer.
    pub reply: Sender<Batched<Resp>>,
}

/// A batch processor's answer for one job, annotated with how the batch
/// treated it.
#[derive(Debug, Clone)]
pub struct Batched<T> {
    /// The processor's result for this job.
    pub result: T,
    /// How many jobs shared the batch.
    pub batch_width: usize,
    /// Microseconds this job waited before its batch started.
    pub queue_us: u64,
    /// Microseconds the whole batch spent in the processor.
    pub compute_us: u64,
}

/// One batcher's pending depth, which a server's admission control reads.
#[derive(Debug, Default)]
pub struct BatcherStats {
    pending: AtomicU64,
}

impl BatcherStats {
    /// Takes one pending slot and returns the depth *before* it was taken;
    /// admission control compares it against the queue cap. The caller
    /// must pair this with [`BatcherStats::release_pending`] once the job
    /// is answered (or was never enqueued).
    pub fn acquire_pending(&self) -> u64 {
        self.pending.fetch_add(1, Ordering::Relaxed)
    }

    /// Releases a slot taken by [`BatcherStats::acquire_pending`].
    pub fn release_pending(&self) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// Jobs submitted but not yet answered (queued + in the processor).
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }
}

/// Spawns a batcher thread. `process` receives each coalesced batch and
/// must return exactly one result per request, in order. The thread exits
/// when every [`Job`] sender is dropped; join the handle to wait for it.
pub fn spawn<Req, Resp, F>(
    name: &'static str,
    cfg: BatchConfig,
    process: F,
) -> (Sender<Job<Req, Resp>>, JoinHandle<()>)
where
    Req: Send + 'static,
    Resp: Send + 'static,
    F: FnMut(Vec<Req>) -> Vec<Resp> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || run(rx, cfg, name, process))
        .expect("spawn batcher thread");
    (tx, handle)
}

fn run<Req, Resp>(
    rx: Receiver<Job<Req, Resp>>,
    cfg: BatchConfig,
    name: &str,
    mut process: impl FnMut(Vec<Req>) -> Vec<Resp>,
) {
    let max_batch = cfg.max_batch.max(1);
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        let deadline = Instant::now() + cfg.max_wait;
        while jobs.len() < max_batch {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
            match rx.recv_timeout(left) {
                Ok(job) => jobs.push(job),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        let width = jobs.len();
        telemetry::observe(&format!("{name}.batch_width"), width as f64);
        let started = Instant::now();
        let mut span = telemetry::span(&format!("{name}.batch"));
        span.field("width", width as u64);
        if jobs.iter().any(|j| !j.request_id.is_empty()) {
            // Cap the field so a pathological max_batch cannot bloat the
            // sink; 16 ids cover every default configuration.
            let ids: Vec<&str> =
                jobs.iter().take(16).map(|j| j.request_id.as_str()).collect();
            let mut joined = ids.join(",");
            if width > 16 {
                joined.push_str(&format!(",+{}", width - 16));
            }
            span.field("request_ids", joined.as_str());
        }
        let queue_us: Vec<u64> = jobs
            .iter()
            .map(|j| {
                let us = started.saturating_duration_since(j.enqueued).as_micros() as u64;
                telemetry::observe(&format!("{name}.queue_wait_seconds"), us as f64 * 1e-6);
                us
            })
            .collect();

        let mut requests = Vec::with_capacity(width);
        let mut replies = Vec::with_capacity(width);
        for job in jobs {
            requests.push(job.request);
            replies.push(job.reply);
        }
        let results = process(requests);
        assert_eq!(results.len(), width, "batch processor must answer every job");
        drop(span);
        let compute_us = started.elapsed().as_micros() as u64;

        for ((result, reply), queue_us) in results.into_iter().zip(replies).zip(queue_us) {
            // A send error means the client hung up; nothing to do.
            let _ = reply.send(Batched { result, batch_width: width, queue_us, compute_us });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_concurrent_jobs_and_answers_in_order() {
        // A generous wait so all test jobs land in one batch.
        let cfg = BatchConfig { max_batch: 8, max_wait: Duration::from_millis(200) };
        let (tx, handle) = spawn("test.batcher", cfg, |batch: Vec<u64>| {
            batch.into_iter().map(|x| x * 10).collect::<Vec<u64>>()
        });

        let receivers: Vec<_> = (0..5u64)
            .map(|x| {
                let (reply_tx, reply_rx) = mpsc::channel();
                tx.send(Job {
                    request: x,
                    request_id: format!("t-{x}"),
                    enqueued: Instant::now(),
                    reply: reply_tx,
                })
                .unwrap();
                reply_rx
            })
            .collect();
        let mut widest = 0;
        for (x, rx) in receivers.iter().enumerate() {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.result, x as u64 * 10);
            assert!(got.batch_width >= 1 && got.batch_width <= 5);
            widest = widest.max(got.batch_width);
        }
        assert!(widest >= 2, "jobs sent before the batch window closed must coalesce");

        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn max_batch_bounds_width() {
        let cfg = BatchConfig { max_batch: 2, max_wait: Duration::from_millis(200) };
        let (tx, handle) = spawn("test.capped", cfg, |batch: Vec<u32>| batch);
        let receivers: Vec<_> = (0..6u32)
            .map(|x| {
                let (reply_tx, reply_rx) = mpsc::channel();
                tx.send(Job {
                    request: x,
                    request_id: format!("t-{x}"),
                    enqueued: Instant::now(),
                    reply: reply_tx,
                })
                .unwrap();
                reply_rx
            })
            .collect();
        for (x, rx) in receivers.iter().enumerate() {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.result, x as u32, "every job answered, in order");
            assert!(got.batch_width <= 2, "width {} exceeds max_batch", got.batch_width);
        }
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn pending_slots_claim_and_release() {
        let stats = BatcherStats::default();
        assert_eq!(stats.pending(), 0);
        assert_eq!(stats.acquire_pending(), 0);
        assert_eq!(stats.acquire_pending(), 1);
        assert_eq!(stats.pending(), 2);
        stats.release_pending();
        assert_eq!(stats.pending(), 1);
        stats.release_pending();
        assert_eq!(stats.pending(), 0);
    }
}
