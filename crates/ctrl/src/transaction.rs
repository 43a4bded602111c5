//! Atomic multi-device configuration: two-phase apply with rollback.
//!
//! Lighting one wavelength touches many devices — two transponders, two
//! MUX filter ports, every intermediate ROADM. If a mid-path device
//! rejects its config, the devices already configured hold passbands for
//! a wavelength that will never exist: exactly the partial-configuration
//! inconsistency a centralized controller must never leak (§4.3). A
//! [`Transaction`] bundles the steps with their inverses and guarantees
//! all-or-nothing semantics against the device plane.

use flexwan_obs::Obs;

use crate::config::StandardConfig;
use crate::model::DeviceId;

/// One transactional step: the config to apply and its inverse.
#[derive(Debug, Clone)]
pub struct Step {
    /// Target device.
    pub device: DeviceId,
    /// Configuration to apply.
    pub apply: StandardConfig,
    /// Configuration that undoes `apply` (sent on rollback).
    pub undo: StandardConfig,
}

/// Outcome of a failed transaction.
#[derive(Debug, Clone)]
pub struct TxError {
    /// The device that rejected its step.
    pub failed_device: DeviceId,
    /// The rejection cause.
    pub cause: String,
    /// Steps that had been applied and were rolled back.
    pub rolled_back: usize,
    /// Rollback sends that themselves failed (should be empty; non-empty
    /// means the plane needs manual reconciliation).
    pub rollback_failures: Vec<(DeviceId, String)>,
}

impl TxError {
    /// A transaction refused at `device` before any step was sent:
    /// nothing was applied, so nothing was rolled back.
    pub fn before_send(device: DeviceId, cause: String) -> TxError {
        TxError {
            failed_device: device,
            cause,
            rolled_back: 0,
            rollback_failures: Vec::new(),
        }
    }
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transaction failed at device {:?}: {} ({} steps rolled back)",
            self.failed_device, self.cause, self.rolled_back
        )
    }
}

impl std::error::Error for TxError {}

/// A pending all-or-nothing configuration change.
#[derive(Debug, Default)]
pub struct Transaction {
    steps: Vec<Step>,
}

impl Transaction {
    /// An empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Appends a step.
    pub fn step(&mut self, device: DeviceId, apply: StandardConfig, undo: StandardConfig) {
        self.steps.push(Step {
            device,
            apply,
            undo,
        });
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The transaction that takes back what this one puts in effect:
    /// the same steps in the same order with `apply` and `undo` swapped,
    /// so rolling *it* back restores what this one applied.
    pub fn inverse(&self) -> Transaction {
        let swap = |s: &Step| Step {
            device: s.device,
            apply: s.undo.clone(),
            undo: s.apply.clone(),
        };
        Transaction {
            steps: self.steps.iter().map(swap).collect(),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the transaction has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes the steps in order through `send`; on the first rejection,
    /// rolls the applied prefix back in reverse order. With an `obs` the
    /// transaction lifecycle is recorded into it: a `tx.execute` span
    /// carrying the step count and outcome, plus commit/rollback counters
    /// — the §4.3 all-or-nothing guarantee made observable.
    pub fn execute<F>(&self, obs: Option<&Obs>, send: F) -> Result<usize, TxError>
    where
        F: FnMut(DeviceId, &StandardConfig) -> Result<(), String>,
    {
        let Some(obs) = obs else {
            return self.run(send);
        };
        let span = obs.span("tx.execute");
        span.field("steps", self.len());
        let start = obs.now_ns();
        let result = self.run(send);
        let reg = obs.registry();
        match &result {
            Ok(applied) => {
                span.field("outcome", "committed");
                reg.counter("tx_commits_total").inc();
                reg.counter("tx_steps_applied_total").add(*applied as u64);
            }
            Err(e) => {
                span.field("outcome", "rolled_back");
                span.field("failed_device", u64::from(e.failed_device.0));
                span.field("rolled_back", e.rolled_back);
                reg.counter("tx_rollbacks_total").inc();
                reg.counter("tx_rollback_steps_total")
                    .add(e.rolled_back as u64);
                reg.counter("tx_rollback_failures_total")
                    .add(e.rollback_failures.len() as u64);
            }
        }
        obs.observe_since("tx_execute_seconds", start);
        result
    }

    fn run<F>(&self, mut send: F) -> Result<usize, TxError>
    where
        F: FnMut(DeviceId, &StandardConfig) -> Result<(), String>,
    {
        let mut applied: Vec<&Step> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            match send(step.device, &step.apply) {
                Ok(()) => applied.push(step),
                Err(cause) => {
                    let mut rollback_failures = Vec::new();
                    for done in applied.iter().rev() {
                        if let Err(e) = send(done.device, &done.undo) {
                            rollback_failures.push((done.device, e));
                        }
                    }
                    return Err(TxError {
                        failed_device: step.device,
                        cause,
                        rolled_back: applied.len(),
                        rollback_failures,
                    });
                }
            }
        }
        Ok(applied.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::{PixelRange, PixelWidth};
    use std::collections::HashMap;

    fn port_cfg(port: u16, set: bool) -> StandardConfig {
        StandardConfig::MuxPort {
            port,
            passband: set.then(|| PixelRange::new(0, PixelWidth::new(6))),
        }
    }

    /// A fake device plane: device 2 always rejects; state records the
    /// last config per device.
    struct FakePlane {
        state: HashMap<DeviceId, StandardConfig>,
        reject: DeviceId,
    }

    impl FakePlane {
        fn send(&mut self, d: DeviceId, cfg: &StandardConfig) -> Result<(), String> {
            if d == self.reject {
                return Err("simulated rejection".into());
            }
            self.state.insert(d, cfg.clone());
            Ok(())
        }
    }

    #[test]
    fn success_applies_all_steps() {
        let mut plane = FakePlane {
            state: HashMap::new(),
            reject: DeviceId(99),
        };
        let mut tx = Transaction::new();
        for i in 0..3 {
            tx.step(
                DeviceId(i),
                port_cfg(i as u16, true),
                port_cfg(i as u16, false),
            );
        }
        let obs = Obs::new();
        let n = tx.execute(Some(&obs), |d, c| plane.send(d, c)).unwrap();
        assert_eq!(n, 3);
        assert_eq!(obs.registry().counter("tx_commits_total").get(), 1);
        assert_eq!(obs.registry().counter("tx_rollbacks_total").get(), 0);
        assert_eq!(plane.state.len(), 3);
        for i in 0..3 {
            assert_eq!(plane.state[&DeviceId(i)], port_cfg(i as u16, true));
        }
    }

    #[test]
    fn failure_rolls_back_prefix_in_reverse() {
        let mut plane = FakePlane {
            state: HashMap::new(),
            reject: DeviceId(2),
        };
        let mut tx = Transaction::new();
        for i in 0..4 {
            tx.step(
                DeviceId(i),
                port_cfg(i as u16, true),
                port_cfg(i as u16, false),
            );
        }
        let obs = Obs::new();
        let err = tx.execute(Some(&obs), |d, c| plane.send(d, c)).unwrap_err();
        assert_eq!(err.failed_device, DeviceId(2));
        assert_eq!(err.rolled_back, 2);
        assert!(err.rollback_failures.is_empty());
        assert_eq!(obs.registry().counter("tx_commits_total").get(), 0);
        assert_eq!(obs.registry().counter("tx_rollbacks_total").get(), 1);
        assert_eq!(obs.registry().counter("tx_rollback_steps_total").get(), 2);
        // Devices 0 and 1 ended on their undo configs; 3 never touched.
        assert_eq!(plane.state[&DeviceId(0)], port_cfg(0, false));
        assert_eq!(plane.state[&DeviceId(1)], port_cfg(1, false));
        assert!(!plane.state.contains_key(&DeviceId(3)));
    }

    #[test]
    fn rollback_failures_are_reported() {
        // Reject device 1's apply AND device 0's undo (device 0 accepts
        // the set but fails the clear — a wedged device).
        struct Wedged;
        let mut calls = Vec::new();
        let _ = Wedged;
        let mut tx = Transaction::new();
        tx.step(DeviceId(0), port_cfg(0, true), port_cfg(0, false));
        tx.step(DeviceId(1), port_cfg(1, true), port_cfg(1, false));
        let err = tx
            .execute(None, |d, c| {
                calls.push((d, c.clone()));
                match (d, c) {
                    (DeviceId(1), _) => Err("apply rejected".into()),
                    (DeviceId(0), StandardConfig::MuxPort { passband: None, .. }) => {
                        Err("undo rejected".into())
                    }
                    _ => Ok(()),
                }
            })
            .unwrap_err();
        assert_eq!(err.rollback_failures.len(), 1);
        assert_eq!(err.rollback_failures[0].0, DeviceId(0));
    }

    #[test]
    fn empty_transaction_is_noop() {
        let tx = Transaction::new();
        assert!(tx.is_empty());
        let n = tx
            .execute(None, |_, _| panic!("no sends expected"))
            .unwrap();
        assert_eq!(n, 0);
    }
}
