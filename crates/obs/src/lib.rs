//! Zero-dependency observability for the FlexWAN reproduction.
//!
//! The paper's operational story (§4.4's one-second telemetry streams, §8's
//! restoration latency budget) depends on knowing where time and failures
//! go inside the controller and the optimizers. This crate is the
//! substrate: a thread-safe [`metrics`] registry (counters, gauges,
//! fixed-bucket histograms with p50/p95/p99) and a span-based [`trace`]
//! recorder (named spans with start/stop timing, explicit parent nesting
//! and structured fields, kept in a bounded ring), exporting as canonical
//! JSON and Prometheus text format — built from `std` alone, like
//! everything else in this offline workspace.
//!
//! Time is injectable ([`clock`]): production uses the monotonic
//! [`WallClock`], the chaos determinism suite a [`ManualClock`], so tests
//! can assert on recorded spans and timing histograms exactly.
//!
//! The [`Obs`] bundle (clock + registry + tracer) is what instrumented
//! components take; it is `Clone` and cheap to share across the
//! controller, solver bridge, planner and physical-layer simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod trace;

use std::sync::Arc;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{
    Counter, Gauge, Histogram, Registry, Series, SeriesValue, Snapshot, LATENCY_SECONDS_BUCKETS,
};
pub use trace::{Span, SpanRecord, Tracer};

/// Bounded span-ring capacity of every [`Obs`] bundle.
const SPAN_CAPACITY: usize = 4096;

/// The observability bundle: one clock, one metrics registry, one span
/// tracer. Cloning shares all three.
#[derive(Debug, Clone)]
pub struct Obs {
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

impl Obs {
    /// A wall-clock bundle.
    pub fn new() -> Obs {
        Obs::with_clock(Arc::new(WallClock::new()))
    }

    /// A bundle over an injected clock (e.g. [`ManualClock`] in tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Obs {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(SPAN_CAPACITY, clock.clone()));
        Obs {
            clock,
            registry,
            tracer,
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The time source.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current clock reading, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Starts a root span.
    pub fn span(&self, name: impl Into<String>) -> Span {
        self.tracer.root(name)
    }

    /// Records `now − start_ns` (seconds) into the latency histogram
    /// `name` (buckets: [`LATENCY_SECONDS_BUCKETS`]).
    pub fn observe_since(&self, name: &str, start_ns: u64) {
        let dt = self.clock.now_ns().saturating_sub(start_ns) as f64 / 1e9;
        self.registry
            .histogram(name, LATENCY_SECONDS_BUCKETS)
            .observe(dt);
    }

    /// The metrics snapshot as pretty JSON text.
    pub fn metrics_json(&self) -> String {
        flexwan_util::json::to_string_pretty(&self.registry.snapshot().to_json())
    }

    /// The metrics snapshot in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.registry.snapshot().to_prometheus()
    }

    /// The retained spans rendered as an indented tree.
    pub fn span_tree(&self) -> String {
        self.tracer.render_tree()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_state_across_clones() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(clock.clone());
        let obs2 = obs.clone();
        obs.registry().counter("x_total").inc();
        assert_eq!(obs2.registry().counter("x_total").get(), 1);
        let start = obs.now_ns();
        clock.advance_micros(1500);
        obs2.observe_since("op_seconds", start);
        let h = obs
            .registry()
            .histogram("op_seconds", LATENCY_SECONDS_BUCKETS);
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn span_tree_and_exports_come_from_one_bundle() {
        let obs = Obs::with_clock(Arc::new(ManualClock::new()));
        let s = obs.span("root");
        s.child("leaf").end();
        s.end();
        assert!(obs.span_tree().contains("  leaf"));
        assert!(obs.metrics_json().contains("metrics"));
        obs.registry().counter("c_total").inc();
        assert!(obs.metrics_prometheus().contains("c_total 1"));
    }
}
