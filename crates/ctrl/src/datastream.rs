//! The data-stream module (§4.4): one-second-granularity optical telemetry
//! and real-time fiber-cut detection.
//!
//! "The transmitted and received power of two terminal devices at each end
//! of a fiber cable could be used to identify the status of the fiber
//! cable" — [`TelemetryStore`] keeps a bounded window of per-fiber receive
//! power; [`FiberCutDetector`] flags fibers whose power fell off a cliff.

use std::collections::{HashMap, VecDeque};

use flexwan_obs::Obs;
use flexwan_topo::graph::{EdgeId, Graph};

/// One telemetry sample: receive power measured at a fiber's far end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// The fiber measured.
    pub fiber: EdgeId,
    /// Collection tick (1 s granularity).
    pub tick: u64,
    /// Received power, dBm.
    pub rx_power_dbm: f64,
}

/// Bounded in-memory time-series store (the Kalfa-system stand-in).
#[derive(Debug, Clone)]
pub struct TelemetryStore {
    window: usize,
    /// Per fiber, its last `window` samples, oldest first: a ring, so an
    /// ingest past the window drops the oldest in O(1).
    series: HashMap<EdgeId, VecDeque<(u64, f64)>>,
    max_tick: u64,
    stale_dropped: u64,
    obs: Option<Obs>,
}

impl TelemetryStore {
    /// A store keeping the last `window` samples per fiber.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "detection needs at least two samples");
        TelemetryStore {
            window,
            series: HashMap::new(),
            max_tick: 0,
            stale_dropped: 0,
            obs: None,
        }
    }

    /// Arms the store with an observability bundle: ingested samples are
    /// counted and the per-sample stream lag (ticks behind the newest
    /// sample seen) is published as a gauge.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Ingests one sample. The transport re-delivers, reorders, and delays
    /// (see `FaultInjector::perturb_stream`), so the store is the point of
    /// idempotence: a sample at or before the fiber's newest retained tick
    /// is a duplicate or stale re-delivery and is dropped (counted, never
    /// asserted on) rather than corrupting the time series the cut
    /// detector differentiates. A NaN reading (no measurement) or a +∞
    /// one (receive power is bounded) is dropped the same way, uncounted:
    /// the detector's difference would turn the +∞ and the healthy
    /// reading after it into a cut, and the NaN would hide the drop after
    /// it. A −∞ reading is a loss of light and stays.
    pub fn ingest(&mut self, s: TelemetrySample) {
        if s.rx_power_dbm.is_nan() || s.rx_power_dbm == f64::INFINITY {
            return;
        }
        self.max_tick = self.max_tick.max(s.tick);
        if let Some(obs) = &self.obs {
            let reg = obs.registry();
            reg.counter("telemetry_samples_total").inc();
            reg.gauge("telemetry_stream_lag_ticks")
                .set((self.max_tick - s.tick) as f64);
        }
        let v = self.series.entry(s.fiber).or_default();
        if v.back().is_some_and(|&(t, _)| s.tick <= t) {
            self.stale_dropped += 1;
            if let Some(obs) = &self.obs {
                obs.registry()
                    .counter("telemetry_stale_dropped_total")
                    .inc();
            }
            return;
        }
        if v.len() == self.window {
            v.pop_front();
        }
        v.push_back((s.tick, s.rx_power_dbm));
    }

    /// How many duplicate/out-of-order samples were dropped at ingest.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// The most recent (tick, power) for `fiber`.
    pub fn latest(&self, fiber: EdgeId) -> Option<(u64, f64)> {
        self.series.get(&fiber).and_then(|v| v.back().copied())
    }

    /// The sample immediately before the latest.
    pub fn previous(&self, fiber: EdgeId) -> Option<(u64, f64)> {
        self.series
            .get(&fiber)
            .and_then(|v| v.len().checked_sub(2).map(|i| v[i]))
    }

    /// Every fiber with data, with its latest power and the one before
    /// it, read in one walk over the series.
    fn last_two(&self) -> impl Iterator<Item = (EdgeId, f64, Option<f64>)> + '_ {
        self.series.iter().filter_map(|(&fiber, v)| {
            let mut newest = v.iter().rev().map(|&(_, p)| p);
            Some((fiber, newest.next()?, newest.next()))
        })
    }
}

/// A fiber that lost at least this many dB is cut: the detector's drop
/// between consecutive samples, and the service's accumulated drift.
pub(crate) const CUT_DROP_DB: f64 = 20.0;
/// Any power below this floor is a cut regardless of history (a fiber cut
/// leaves only receiver noise).
const CUT_FLOOR_DBM: f64 = -40.0;

/// Threshold-rule fiber-cut detector: a fiber is cut once its power falls
/// below −40 dBm or drops by 20 dB or more between consecutive samples.
#[derive(Debug, Clone, Default)]
pub struct FiberCutDetector;

impl FiberCutDetector {
    /// The threshold rule on a fiber's latest power and the one before.
    fn looks_cut(now: f64, before: Option<f64>) -> bool {
        now < CUT_FLOOR_DBM || before.is_some_and(|before| before - now >= CUT_DROP_DB)
    }

    /// Whether `fiber` currently looks cut.
    pub fn is_cut(&self, store: &TelemetryStore, fiber: EdgeId) -> bool {
        store.latest(fiber).is_some_and(|(_, now)| {
            Self::looks_cut(now, store.previous(fiber).map(|(_, before)| before))
        })
    }

    /// All fibers currently flagged.
    pub fn scan(&self, store: &TelemetryStore) -> Vec<EdgeId> {
        let mut cut: Vec<EdgeId> = store
            .last_two()
            .filter(|&(_, now, before)| Self::looks_cut(now, before))
            .map(|(fiber, ..)| fiber)
            .collect();
        cut.sort();
        cut
    }
}

/// Deterministic telemetry generator for a fiber plant: healthy fibers
/// report launch power minus span-engineered net loss (≈ −3 dBm at the
/// receive amplifier) with a small tick-dependent ripple; cut fibers
/// report receiver noise floor.
#[derive(Debug, Clone)]
pub struct TelemetrySim<'a> {
    optical: &'a Graph,
}

impl<'a> TelemetrySim<'a> {
    /// A simulator over the fiber plant.
    pub fn new(optical: &'a Graph) -> Self {
        TelemetrySim { optical }
    }

    /// Healthy receive power for `fiber` at `tick` (deterministic ±0.3 dB
    /// ripple from polarization/temperature drift).
    pub fn healthy_power(&self, fiber: EdgeId, tick: u64) -> f64 {
        let ripple =
            0.3 * (((tick.wrapping_mul(2654435761) ^ u64::from(fiber.0)) % 7) as f64 / 3.0 - 1.0);
        -3.0 + ripple
    }

    /// Emits one tick of samples into `store`; fibers in `cuts` report the
    /// noise floor.
    pub fn tick(&self, store: &mut TelemetryStore, tick: u64, cuts: &[EdgeId]) {
        for e in self.optical.edges() {
            let power = if cuts.contains(&e.id) {
                -60.0
            } else {
                self.healthy_power(e.id, tick)
            };
            store.ingest(TelemetrySample {
                fiber: e.id,
                tick,
                rx_power_dbm: power,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 300);
        g.add_edge(b, c, 400);
        g
    }

    #[test]
    fn healthy_plant_raises_no_alarms() {
        let g = plant();
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(60);
        for t in 0..30 {
            sim.tick(&mut store, t, &[]);
        }
        assert!(FiberCutDetector.scan(&store).is_empty());
    }

    #[test]
    fn cut_detected_on_the_tick_it_happens() {
        let g = plant();
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(60);
        let det = FiberCutDetector;
        for t in 0..10 {
            sim.tick(&mut store, t, &[]);
        }
        assert!(det.scan(&store).is_empty());
        sim.tick(&mut store, 10, &[EdgeId(1)]);
        assert_eq!(det.scan(&store), vec![EdgeId(1)]);
        assert!(!det.is_cut(&store, EdgeId(0)));
    }

    #[test]
    fn ripple_does_not_false_positive() {
        let g = plant();
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(10);
        let det = FiberCutDetector;
        for t in 0..500 {
            sim.tick(&mut store, t, &[]);
            assert!(det.scan(&store).is_empty(), "false positive at tick {t}");
        }
    }

    #[test]
    fn window_is_bounded() {
        let g = plant();
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(5);
        for t in 0..100 {
            sim.tick(&mut store, t, &[]);
        }
        assert_eq!(store.latest(EdgeId(0)).unwrap().0, 99);
        // Oldest retained tick is 95 (window 5).
        assert_eq!(store.previous(EdgeId(0)).unwrap().0, 98);
    }

    #[test]
    fn cut_stays_flagged_via_floor() {
        // After the drop tick, power stays at the floor: the floor rule
        // keeps the fiber flagged (detection is stateless but sustained).
        let g = plant();
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(60);
        let det = FiberCutDetector;
        sim.tick(&mut store, 0, &[]);
        for t in 1..5 {
            sim.tick(&mut store, t, &[EdgeId(0)]);
            assert!(det.is_cut(&store, EdgeId(0)), "tick {t}");
        }
    }

    /// The ring keeps exactly the newest `window` samples, at the
    /// smallest window and at an hour of one-second telemetry, and still
    /// drops (and counts) what arrives stale or twice.
    #[test]
    fn the_ring_keeps_the_last_window_samples() {
        for window in [2, 3600] {
            let mut store = TelemetryStore::new(window);
            let newest = 3 * window as u64;
            for tick in 0..newest {
                let power = -(tick as f64);
                // The sample, a re-delivery and a stale one (at tick 0 a
                // second re-delivery).
                for t in [tick, tick, tick.saturating_sub(1)] {
                    store.ingest(TelemetrySample {
                        fiber: EdgeId(7),
                        tick: t,
                        rx_power_dbm: power,
                    });
                }
            }
            assert_eq!(store.stale_dropped(), 2 * newest, "window {window}");
            let kept: Vec<_> = store.series[&EdgeId(7)].iter().copied().collect();
            let want: Vec<_> = (newest - window as u64..newest)
                .map(|t| (t, -(t as f64)))
                .collect();
            assert_eq!(kept, want, "window {window}");
            assert_eq!(store.latest(EdgeId(7)), want.last().copied());
            assert_eq!(store.previous(EdgeId(7)), Some(want[window - 2]));
        }
    }

    #[test]
    fn stale_and_duplicate_samples_are_dropped_not_asserted() {
        let mut store = TelemetryStore::new(10);
        let sample = |tick, power| TelemetrySample {
            fiber: EdgeId(0),
            tick,
            rx_power_dbm: power,
        };
        store.ingest(sample(5, -3.0));
        store.ingest(sample(6, -3.0));
        store.ingest(sample(6, -60.0)); // duplicate tick, conflicting value
        store.ingest(sample(2, -60.0)); // stale re-delivery
        assert_eq!(store.stale_dropped(), 2);
        assert_eq!(store.latest(EdgeId(0)), Some((6, -3.0)));
        assert_eq!(store.previous(EdgeId(0)), Some((5, -3.0)));
        assert!(!FiberCutDetector.is_cut(&store, EdgeId(0)));
    }

    /// A +∞ reading does not turn the healthy one after it into a cut,
    /// and a NaN between a healthy reading and a 22 dB drop does not
    /// hide the drop: neither is a measurement, both are dropped. A loss
    /// of light (−∞) is a reading, and a cut.
    #[test]
    fn non_measurements_are_dropped_at_ingest() {
        let run = |powers: &[f64]| {
            let mut store = TelemetryStore::new(10);
            for (tick, &rx_power_dbm) in powers.iter().enumerate() {
                store.ingest(TelemetrySample {
                    fiber: EdgeId(0),
                    tick: tick as u64,
                    rx_power_dbm,
                });
            }
            assert_eq!(store.stale_dropped(), 0);
            FiberCutDetector.is_cut(&store, EdgeId(0))
        };
        assert!(!run(&[-3.0, f64::INFINITY, -3.0]));
        assert!(run(&[-3.0, f64::NAN, -25.0]));
        assert!(run(&[-3.0, f64::NEG_INFINITY]));
    }

    #[test]
    fn recovery_clears_flag() {
        let g = plant();
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(60);
        let det = FiberCutDetector;
        sim.tick(&mut store, 0, &[]);
        sim.tick(&mut store, 1, &[EdgeId(0)]);
        assert!(det.is_cut(&store, EdgeId(0)));
        sim.tick(&mut store, 2, &[]);
        assert!(!det.is_cut(&store, EdgeId(0)), "repaired fiber must clear");
    }

    /// The one-pass scan flags exactly the fibers `is_cut` flags when
    /// asked fiber by fiber: single-sample fibers, drops, the floor, a
    /// loss of light and recoveries, over windows down to two samples.
    #[test]
    fn scan_flags_what_is_cut_flags_fiber_by_fiber() {
        let mut rng = flexwan_util::rng::ChaCha8Rng::seed_from_u64(0xD5);
        let powers = [-3.0, -3.0, -2.5, -25.0, -41.0, -60.0, f64::NEG_INFINITY];
        let mut flagged = 0;
        for case in 0..64 {
            let mut store = TelemetryStore::new(2 + case % 4);
            for tick in 0..rng.gen_range(1..8u64) {
                for fiber in 0..12 {
                    if rng.gen_bool(0.7) {
                        store.ingest(TelemetrySample {
                            fiber: EdgeId(fiber),
                            tick,
                            rx_power_dbm: powers[rng.gen_range(0..powers.len())],
                        });
                    }
                }
            }
            let want: Vec<EdgeId> = (0..12)
                .map(EdgeId)
                .filter(|&f| FiberCutDetector.is_cut(&store, f))
                .collect();
            flagged += want.len();
            assert_eq!(FiberCutDetector.scan(&store), want, "case {case}");
        }
        assert!(flagged > 0, "the cases flag some cut");
    }
}
