//! Rolling-window SLO aggregation for `pdn serve`.
//!
//! A [`RollingWindow`] is a fixed ring of [`SLOTS`] one-second
//! sub-windows. Each slot is stamped with the tick (whole seconds since
//! server start) it currently represents; a recorder landing on a slot
//! whose stamp is stale resets it first, so old traffic ages out lazily
//! without a sweeper thread. The ring is lock-striped — one mutex per
//! slot — so concurrent recorders only contend when they hit the same
//! second, and a snapshot drains the ring one short critical section at
//! a time instead of stalling the write path behind a global lock.
//!
//! Time is injected explicitly (`now_tick`) rather than read from a
//! clock so tests can drive decay deterministically; the server passes
//! `started.elapsed().as_secs()`.

use pdn_core::telemetry::Histogram;
use std::sync::Mutex;

/// Ring size: one slot per second, so the window spans ~60 s.
pub const SLOTS: usize = 60;

struct Slot {
    /// Tick this slot's contents belong to. A slot is live in a
    /// snapshot at `now` iff `tick <= now && now - tick < SLOTS`.
    tick: u64,
    errors: u64,
    /// Request latencies in seconds (the registry's histogram type, so
    /// the windows and `/metrics` share one bucket map and quantile rule).
    latency: Histogram,
}

/// Point-in-time aggregate over the live sub-windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// Requests observed inside the horizon.
    pub count: u64,
    /// Requests that ended in an error status.
    pub errors: u64,
    /// Requests per second averaged over the elapsed horizon.
    pub qps: f64,
    /// `errors / count`, 0 when the window is empty.
    pub error_rate: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl WindowSnapshot {
    pub fn empty() -> WindowSnapshot {
        WindowSnapshot { count: 0, errors: 0, qps: 0.0, error_rate: 0.0, p50: 0.0, p95: 0.0, p99: 0.0 }
    }
}

/// Lock-striped ring of one-second sub-windows; see the module docs.
pub struct RollingWindow {
    slots: Vec<Mutex<Slot>>,
}

impl RollingWindow {
    pub fn new() -> RollingWindow {
        RollingWindow {
            slots: (0..SLOTS)
                .map(|_| Mutex::new(Slot { tick: 0, errors: 0, latency: Histogram::new() }))
                .collect(),
        }
    }

    /// Record one finished request at `now_tick` seconds since start.
    /// A non-finite or negative latency counts as 0 s.
    pub fn record(&self, now_tick: u64, latency_s: f64, is_error: bool) {
        let mut slot = self.slots[(now_tick % SLOTS as u64) as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if slot.tick != now_tick {
            *slot = Slot { tick: now_tick, errors: 0, latency: Histogram::new() };
        }
        if is_error {
            slot.errors += 1;
        }
        let v = if latency_s.is_finite() && latency_s > 0.0 { latency_s } else { 0.0 };
        slot.latency.record(v);
    }

    /// Aggregate every sub-window still inside the horizon at
    /// `now_tick`. Traffic older than [`SLOTS`] seconds has either been
    /// overwritten by a fresher second or is skipped by the staleness
    /// check, so the snapshot decays to [`WindowSnapshot::empty`] once
    /// the horizon passes. Quantiles follow the registry's rule: the
    /// exclusive rank `⌊q·n⌋ + 1`, so the p99 of 100 requests is the
    /// slowest one.
    pub fn snapshot(&self, now_tick: u64) -> WindowSnapshot {
        let mut errors = 0u64;
        let mut latency = Histogram::new();
        for m in &self.slots {
            let slot = m.lock().unwrap_or_else(|e| e.into_inner());
            if slot.tick > now_tick || now_tick - slot.tick >= SLOTS as u64 {
                continue;
            }
            errors += slot.errors;
            latency.merge(&slot.latency);
        }
        let h = latency.summary();
        if h.count == 0 {
            return WindowSnapshot::empty();
        }
        // Average over the seconds that have actually elapsed so a
        // young server doesn't report 1/60th of its true rate.
        let span = (SLOTS as u64).min(now_tick + 1) as f64;
        WindowSnapshot {
            count: h.count,
            errors,
            qps: h.count as f64 / span,
            error_rate: errors as f64 / h.count as f64,
            p50: h.p50,
            p95: h.p95,
            p99: h.p99,
        }
    }
}

impl Default for RollingWindow {
    fn default() -> Self {
        RollingWindow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_all_zero() {
        let w = RollingWindow::new();
        assert_eq!(w.snapshot(0), WindowSnapshot::empty());
        assert_eq!(w.snapshot(1_000_000), WindowSnapshot::empty());
    }

    #[test]
    fn single_second_traffic_is_visible_immediately() {
        let w = RollingWindow::new();
        for _ in 0..100 {
            w.record(5, 0.010, false);
        }
        let s = w.snapshot(5);
        assert_eq!(s.count, 100);
        assert_eq!(s.errors, 0);
        assert_eq!(s.error_rate, 0.0);
        // All samples are 10 ms: every percentile clamps to the
        // observed value.
        assert_eq!(s.p50, 0.010);
        assert_eq!(s.p95, 0.010);
        assert_eq!(s.p99, 0.010);
        // 100 requests over 6 elapsed seconds (ticks 0..=5).
        assert!((s.qps - 100.0 / 6.0).abs() < 1e-9, "qps {}", s.qps);
    }

    #[test]
    fn p99_separates_tail_from_body() {
        let w = RollingWindow::new();
        for _ in 0..99 {
            w.record(3, 0.001, false);
        }
        w.record(3, 2.0, false);
        let s = w.snapshot(3);
        assert!(s.p50 < 0.003, "p50 {}", s.p50);
        assert!(s.p99 >= 1.0 && s.p99 <= 2.0, "p99 {}", s.p99);
    }

    #[test]
    fn error_rate_counts_only_errors() {
        let w = RollingWindow::new();
        for i in 0..10 {
            w.record(2, 0.001, i < 3);
        }
        let s = w.snapshot(2);
        assert_eq!(s.count, 10);
        assert_eq!(s.errors, 3);
        assert!((s.error_rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn traffic_decays_to_zero_past_the_horizon() {
        let w = RollingWindow::new();
        for _ in 0..50 {
            w.record(0, 0.020, true);
        }
        // Still live anywhere inside the horizon...
        assert_eq!(w.snapshot(0).count, 50);
        assert_eq!(w.snapshot(59).count, 50);
        // ...gone one tick past it, without any intervening writes.
        let s = w.snapshot(60);
        assert_eq!(s, WindowSnapshot::empty());
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn slot_reuse_drops_the_previous_lap() {
        let w = RollingWindow::new();
        w.record(1, 0.5, false);
        // Tick 61 maps to the same slot as tick 1; the stale contents
        // must be discarded, not merged.
        w.record(61, 0.25, false);
        let s = w.snapshot(61);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, 0.25);
    }

    #[test]
    fn window_merges_across_seconds() {
        let w = RollingWindow::new();
        for t in 0..10u64 {
            w.record(t, 0.001 * (t + 1) as f64, false);
        }
        let s = w.snapshot(9);
        assert_eq!(s.count, 10);
        assert!((s.qps - 1.0).abs() < 1e-9, "qps {}", s.qps);
        assert!(s.p50 >= 0.001 && s.p50 <= 0.010, "p50 {}", s.p50);
    }

    #[test]
    fn zero_duration_keeps_the_snapshot_finite() {
        // A request measured below timer resolution (0 ns) must not
        // produce -inf out of the log2 mapping; the snapshot must stay
        // finite.
        let w = RollingWindow::new();
        w.record(0, 0.0, false);
        w.record(0, 0.010, false);
        let s = w.snapshot(0);
        assert_eq!(s.count, 2);
        assert!(s.p50.is_finite() && s.p50 >= 0.0, "p50 {}", s.p50);
        assert!(s.p99.is_finite(), "p99 {}", s.p99);
    }

    #[test]
    fn subnormal_durations_keep_the_snapshot_finite() {
        // Subnormals are positive, so they take the log2 path, far below
        // the bucket range (the registry's `buckets_cover_extremes` pins
        // their bucket).
        let w = RollingWindow::new();
        w.record(0, 5e-324, false);
        w.record(0, f64::MIN_POSITIVE, false);
        w.record(0, -0.0, false);
        let s = w.snapshot(0);
        assert_eq!(s.count, 3);
        assert!(s.p50.is_finite() && s.p99.is_finite());
    }

    #[test]
    fn out_of_range_latencies_are_tolerated() {
        let w = RollingWindow::new();
        w.record(0, f64::NAN, false);
        w.record(0, -1.0, false);
        w.record(0, f64::INFINITY, false);
        let s = w.snapshot(0);
        assert_eq!(s.count, 3);
        assert!(s.p99.is_finite());
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        use std::sync::Arc;
        let w = Arc::new(RollingWindow::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        w.record(i % 4, 0.002, (t + i) % 7 == 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = w.snapshot(3);
        assert_eq!(s.count, 8000);
        assert!(s.errors > 0 && s.errors < 8000);
    }
}
