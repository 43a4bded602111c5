//! Deterministic fault injection for the control plane (the chaos harness).
//!
//! Production controllers earn their resilience claims against injected
//! failure, not clean-room tests. [`FaultInjector`] interposes at the
//! NETCONF session boundary ([`crate::netconf::NetconfSession`]) and can,
//! per device and per request, drop a request on the floor, lose the
//! reply to an edit-config the device applied, reject the first N
//! edit-configs, crash the device outright, or serve stale state — all
//! driven by a seeded [`ChaCha8Rng`] so every chaos run replays exactly;
//! [`FaultInjector::perturb_stream`] does the same to the churn event
//! stream. The optical plant has no fault type here: a cut is a core
//! `FailureScenario` or a [`crate::ChurnEvent::FiberCut`], amplifier
//! degradation a [`crate::ChurnEvent::TelemetryDrift`].
//!
//! Faults are *verdicts*, not wall-clock sleeps: a "delayed" reply is
//! delivered-then-discarded (the device applies the config, the controller
//! sees a timeout) and a crash drops the device's state until the
//! controller reinstalls the factory image, so chaos tests stay fast and
//! fully deterministic.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use flexwan_util::rng::ChaCha8Rng;

use crate::device::DeviceState;
use crate::model::DeviceId;

/// Fault rates and counters applied to one device's session.
///
/// All probabilities are per-request in `[0, 1]`; the default is the
/// all-zeros plan (no faults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceFaults {
    /// Probability an edit-config or get-state request is silently dropped
    /// before it reaches the device (the controller times out; the config
    /// is **not** applied).
    pub drop_prob: f64,
    /// Probability the device applies an edit-config but its reply is
    /// delayed past the controller's patience and discarded (the
    /// controller times out; the config **is** applied — the
    /// applied-but-unacknowledged drift every retry layer must survive).
    pub delay_reply_prob: f64,
    /// Reject this many edit-configs outright before behaving normally
    /// (models a device booting, or an operator lock).
    pub reject_first: u32,
    /// Probability a get-state reply is served from a stale snapshot of an
    /// earlier state read instead of the live device.
    pub stale_state_prob: f64,
    /// Crash the device on the edit-config attempt after this many
    /// attempts have been observed (one-shot; its state is gone and every
    /// later request fails until the controller restarts the device).
    pub crash_after: Option<u32>,
}

impl DeviceFaults {
    /// Whether this is the all-zeros (fault-free) plan.
    pub fn is_none(&self) -> bool {
        *self == DeviceFaults::default()
    }
}

/// Delivery faults applied to the churn **event stream** itself (the
/// transport between whatever emits demand/cut/repair/drift events and
/// the service loop consuming them). Same philosophy as [`DeviceFaults`]:
/// probabilities per event, all decisions from the injector's seeded RNG,
/// so a perturbed delivery sequence replays bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamFaults {
    /// Probability an event is dropped in flight (never delivered; the
    /// consumer must detect the sequence gap and re-fetch).
    pub drop_prob: f64,
    /// Probability an event is delivered twice back-to-back (at-least-once
    /// transports redeliver on ack loss).
    pub duplicate_prob: f64,
    /// Probability an event swaps places with its successor (delivery
    /// order ≠ emission order).
    pub reorder_prob: f64,
    /// Probability an already-delivered event is re-delivered again much
    /// later, arbitrarily stale.
    pub stale_prob: f64,
}

impl StreamFaults {
    /// Whether this is the all-zeros (fault-free) plan.
    pub fn is_none(&self) -> bool {
        *self == StreamFaults::default()
    }
}

/// A seeded, per-device fault plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// RNG seed: the same plan + the same request sequence replays the
    /// same faults.
    pub seed: u64,
    /// Faults applied to devices without a per-device override.
    pub default: DeviceFaults,
    /// Per-device overrides.
    pub per_device: HashMap<DeviceId, DeviceFaults>,
    /// Faults applied to the churn event stream
    /// ([`FaultInjector::perturb_stream`]).
    pub stream: StreamFaults,
}

impl FaultPlan {
    /// The empty plan: no faults on any device.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan applying `faults` to every device.
    pub fn uniform(seed: u64, faults: DeviceFaults) -> Self {
        FaultPlan {
            seed,
            default: faults,
            per_device: HashMap::new(),
            stream: StreamFaults::default(),
        }
    }

    /// Builder: override the faults for one device.
    pub fn device(mut self, id: DeviceId, faults: DeviceFaults) -> Self {
        self.per_device.insert(id, faults);
        self
    }

    /// Builder: apply `faults` to the churn event stream.
    pub fn with_stream(mut self, faults: StreamFaults) -> Self {
        self.stream = faults;
        self
    }

    /// The faults in effect for `id`.
    pub fn faults_for(&self, id: DeviceId) -> &DeviceFaults {
        self.per_device.get(&id).unwrap_or(&self.default)
    }
}

/// What the injector decided about one edit-config request.
#[derive(Debug, Clone, PartialEq)]
pub enum EditVerdict {
    /// Pass the request through untouched.
    Deliver,
    /// Drop the request: the device never sees it.
    Drop,
    /// Reject the request without delivering it.
    Reject,
    /// Deliver the request but discard the (late) reply.
    DelayReply,
    /// Crash the device.
    Crash,
}

/// What the injector decided about one get-state request.
#[derive(Debug, Clone)]
pub enum StateVerdict {
    /// Pass the request through untouched.
    Deliver,
    /// Drop the request: the controller times out.
    Drop,
    /// Serve this stale snapshot instead of reading the device.
    Stale(Box<DeviceState>),
}

/// Counters of every fault the injector actually fired.
///
/// They count the injector's decisions about *live* devices only: a
/// session whose device is crashed answers `Unreachable` before it asks
/// the injector, so its requests move no counter here and draw nothing
/// from the RNG. Those requests are in the session's
/// `netconf_edit_failures_total` / `netconf_get_state_failures_total`
/// with `kind="unreachable"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Requests delivered untouched.
    pub delivered: u64,
    /// Requests dropped.
    pub drops: u64,
    /// Replies delayed past the session timeout (config applied).
    pub delayed_replies: u64,
    /// Edit-configs rejected by injection.
    pub rejects: u64,
    /// Devices crashed.
    pub crashes: u64,
    /// Stale state snapshots served.
    pub stale_reads: u64,
    /// Stream events dropped in flight.
    pub events_dropped: u64,
    /// Stream events delivered twice back-to-back.
    pub events_duplicated: u64,
    /// Adjacent stream-event pairs swapped.
    pub events_reordered: u64,
    /// Stream events re-delivered arbitrarily late.
    pub events_stale: u64,
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    /// Edit-config attempts seen per device (drives `crash_after`).
    attempts: HashMap<DeviceId, u32>,
    /// Injected rejections issued per device (drives `reject_first`).
    rejected: HashMap<DeviceId, u32>,
    /// Devices that already consumed their one-shot crash.
    crash_done: HashSet<DeviceId>,
    /// Last state snapshot seen per device (source of stale reads).
    snapshots: HashMap<DeviceId, DeviceState>,
    stats: FaultStats,
}

/// The seeded fault injector shared by every armed session.
///
/// Shared behind an `Arc` by the sessions and the harness that reads its
/// stats, hence the mutex; all decisions come from one seeded RNG consumed
/// in request order, and every request is made on the controller's
/// thread, so a run replays bit-identically.
#[derive(Debug)]
pub struct FaultInjector {
    inner: Mutex<Inner>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        FaultInjector {
            inner: Mutex::new(Inner {
                plan,
                rng,
                attempts: HashMap::new(),
                rejected: HashMap::new(),
                crash_done: HashSet::new(),
                snapshots: HashMap::new(),
                stats: FaultStats::default(),
            }),
        }
    }

    /// Decides the fate of one edit-config request to `dev`.
    pub fn on_edit_config(&self, dev: DeviceId) -> EditVerdict {
        let mut g = self.inner.lock().expect("injector poisoned");
        let faults = g.plan.faults_for(dev).clone();
        let attempt = {
            let a = g.attempts.entry(dev).or_insert(0);
            *a += 1;
            *a
        };
        if let Some(n) = faults.crash_after {
            if attempt > n && !g.crash_done.contains(&dev) {
                g.crash_done.insert(dev);
                g.stats.crashes += 1;
                return EditVerdict::Crash;
            }
        }
        if g.rejected.get(&dev).copied().unwrap_or(0) < faults.reject_first {
            *g.rejected.entry(dev).or_insert(0) += 1;
            g.stats.rejects += 1;
            return EditVerdict::Reject;
        }
        if faults.drop_prob > 0.0 && g.rng.gen_f64() < faults.drop_prob {
            g.stats.drops += 1;
            return EditVerdict::Drop;
        }
        if faults.delay_reply_prob > 0.0 && g.rng.gen_f64() < faults.delay_reply_prob {
            g.stats.delayed_replies += 1;
            return EditVerdict::DelayReply;
        }
        g.stats.delivered += 1;
        EditVerdict::Deliver
    }

    /// Decides the fate of one get-state request to `dev`.
    pub fn on_get_state(&self, dev: DeviceId) -> StateVerdict {
        let mut g = self.inner.lock().expect("injector poisoned");
        let faults = g.plan.faults_for(dev).clone();
        if faults.drop_prob > 0.0 && g.rng.gen_f64() < faults.drop_prob {
            g.stats.drops += 1;
            return StateVerdict::Drop;
        }
        if faults.stale_state_prob > 0.0 {
            if let Some(snap) = g.snapshots.get(&dev).cloned() {
                if g.rng.gen_f64() < faults.stale_state_prob {
                    g.stats.stale_reads += 1;
                    return StateVerdict::Stale(Box::new(snap));
                }
            }
        }
        g.stats.delivered += 1;
        StateVerdict::Deliver
    }

    /// Applies the plan's [`StreamFaults`] to a canonical, in-order event
    /// stream, returning the perturbed delivery sequence the consumer
    /// actually sees. One pass, RNG consumed in event order, so the same
    /// plan + the same canonical stream perturbs bit-identically:
    ///
    /// 1. each event is dropped with `drop_prob`, else delivered — and
    ///    then duplicated back-to-back with `duplicate_prob` and/or
    ///    scheduled for a late stale re-delivery with `stale_prob`;
    /// 2. adjacent delivered pairs swap with `reorder_prob`;
    /// 3. stale re-deliveries are spliced in a few positions after their
    ///    original slot (clamped to the end of the stream).
    pub fn perturb_stream<T: Clone>(&self, events: &[T]) -> Vec<T> {
        let mut g = self.inner.lock().expect("injector poisoned");
        let faults = g.plan.stream.clone();
        let mut out: Vec<T> = Vec::with_capacity(events.len());
        let mut stale: Vec<(usize, T)> = Vec::new();
        for ev in events {
            if faults.drop_prob > 0.0 && g.rng.gen_f64() < faults.drop_prob {
                g.stats.events_dropped += 1;
                continue;
            }
            out.push(ev.clone());
            if faults.duplicate_prob > 0.0 && g.rng.gen_f64() < faults.duplicate_prob {
                g.stats.events_duplicated += 1;
                out.push(ev.clone());
            }
            if faults.stale_prob > 0.0 && g.rng.gen_f64() < faults.stale_prob {
                g.stats.events_stale += 1;
                let lag = g.rng.gen_range(2usize..8);
                stale.push((out.len() + lag, ev.clone()));
            }
        }
        if faults.reorder_prob > 0.0 && out.len() > 1 {
            let mut i = 0;
            while i + 1 < out.len() {
                if g.rng.gen_f64() < faults.reorder_prob {
                    out.swap(i, i + 1);
                    g.stats.events_reordered += 1;
                    i += 2; // a swapped pair is settled
                } else {
                    i += 1;
                }
            }
        }
        for (at, ev) in stale {
            let at = at.min(out.len());
            out.insert(at, ev);
        }
        out
    }

    /// Records a fresh state read (the pool stale reads are served from).
    pub fn record_state(&self, dev: DeviceId, state: DeviceState) {
        let mut g = self.inner.lock().expect("injector poisoned");
        g.snapshots.insert(dev, state);
    }

    /// Lifts every fault: the plan becomes fault-free (stats are kept).
    /// Models the "faults clear" phase of a chaos scenario so permanent
    /// faults (`drop_prob = 1.0`, …) can end.
    pub fn lift(&self) {
        let mut g = self.inner.lock().expect("injector poisoned");
        g.plan.default = DeviceFaults::default();
        g.plan.per_device.clear();
    }

    /// Counters of the faults fired so far.
    pub fn stats(&self) -> FaultStats {
        self.inner.lock().expect("injector poisoned").stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_delivers() {
        let inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..100 {
            assert_eq!(inj.on_edit_config(DeviceId(0)), EditVerdict::Deliver);
            assert!(matches!(
                inj.on_get_state(DeviceId(0)),
                StateVerdict::Deliver
            ));
        }
        let s = inj.stats();
        assert_eq!(
            s.drops + s.delayed_replies + s.rejects + s.crashes + s.stale_reads,
            0
        );
    }

    #[test]
    fn same_seed_same_verdicts() {
        let plan = FaultPlan::uniform(
            7,
            DeviceFaults {
                drop_prob: 0.4,
                delay_reply_prob: 0.3,
                ..Default::default()
            },
        );
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for i in 0..200 {
            let dev = DeviceId(i % 5);
            assert_eq!(a.on_edit_config(dev), b.on_edit_config(dev));
        }
    }

    #[test]
    fn reject_first_is_per_device_and_finite() {
        let plan = FaultPlan::uniform(
            1,
            DeviceFaults {
                reject_first: 2,
                ..Default::default()
            },
        );
        let inj = FaultInjector::new(plan);
        for dev in [DeviceId(0), DeviceId(1)] {
            assert_eq!(inj.on_edit_config(dev), EditVerdict::Reject);
            assert_eq!(inj.on_edit_config(dev), EditVerdict::Reject);
            assert_eq!(inj.on_edit_config(dev), EditVerdict::Deliver);
        }
        assert_eq!(inj.stats().rejects, 4);
    }

    #[test]
    fn crash_fires_once_then_passes_through() {
        let plan = FaultPlan::none().device(
            DeviceId(3),
            DeviceFaults {
                crash_after: Some(1),
                ..Default::default()
            },
        );
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_edit_config(DeviceId(3)), EditVerdict::Deliver);
        assert_eq!(inj.on_edit_config(DeviceId(3)), EditVerdict::Crash);
        // The crash is one-shot: it never re-fires. (The dead device's
        // session answers `Unreachable` without asking the injector.)
        for _ in 0..10 {
            assert_eq!(inj.on_edit_config(DeviceId(3)), EditVerdict::Deliver);
        }
        assert_eq!(inj.stats().crashes, 1);
    }

    #[test]
    fn lift_clears_all_faults() {
        let plan = FaultPlan::uniform(
            2,
            DeviceFaults {
                drop_prob: 1.0,
                ..Default::default()
            },
        );
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_edit_config(DeviceId(0)), EditVerdict::Drop);
        inj.lift();
        assert_eq!(inj.on_edit_config(DeviceId(0)), EditVerdict::Deliver);
        assert_eq!(inj.stats().drops, 1);
    }

    #[test]
    fn perturb_stream_without_faults_is_identity() {
        let inj = FaultInjector::new(FaultPlan::none());
        let events: Vec<u32> = (0..50).collect();
        assert_eq!(inj.perturb_stream(&events), events);
        let s = inj.stats();
        assert_eq!(
            s.events_dropped + s.events_duplicated + s.events_reordered + s.events_stale,
            0
        );
    }

    #[test]
    fn perturb_stream_is_deterministic_per_seed() {
        let plan = FaultPlan::none().with_stream(StreamFaults {
            drop_prob: 0.1,
            duplicate_prob: 0.1,
            reorder_prob: 0.1,
            stale_prob: 0.1,
        });
        let events: Vec<u32> = (0..200).collect();
        let a = FaultInjector::new(plan.clone()).perturb_stream(&events);
        let b = FaultInjector::new(plan).perturb_stream(&events);
        assert_eq!(a, b);
        assert_ne!(a, events, "faults at 10% must perturb 200 events");
    }

    #[test]
    fn perturb_stream_counts_each_fault_kind() {
        let plan = FaultPlan::none().with_stream(StreamFaults {
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            stale_prob: 0.2,
        });
        let inj = FaultInjector::new(plan);
        let events: Vec<u32> = (0..500).collect();
        let out = inj.perturb_stream(&events);
        let s = inj.stats();
        assert!(s.events_dropped > 0);
        assert!(s.events_duplicated > 0);
        assert!(s.events_reordered > 0);
        assert!(s.events_stale > 0);
        // Every delivered event is a copy of a canonical one; the count
        // balances drops against duplicates and stale re-deliveries.
        assert_eq!(
            out.len() as u64,
            events.len() as u64 - s.events_dropped + s.events_duplicated + s.events_stale
        );
    }
}
