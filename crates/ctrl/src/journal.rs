//! Configuration journal: the controller's roll-forward source and audit
//! trail.
//!
//! Every acknowledged configuration is recorded with its revision stamp.
//! [`Controller::converge`](crate::Controller::converge) reads a device's
//! [`history`](ConfigJournal::history) and [`latest`](ConfigJournal::latest)
//! entry to roll a drifted or rebooted device forward, and the ledger
//! answers "what did device X acknowledge, and when?" during incident
//! forensics.

use crate::config::StandardConfig;
use crate::model::DeviceId;

/// One acknowledged configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Controller-wide revision (monotonic).
    pub revision: u64,
    /// The configured device.
    pub device: DeviceId,
    /// The standard-form configuration that was applied.
    pub config: StandardConfig,
}

/// Append-only ledger of acknowledged configurations.
#[derive(Debug, Clone, Default)]
pub struct ConfigJournal {
    entries: Vec<JournalEntry>,
}

impl ConfigJournal {
    /// An empty journal.
    pub fn new() -> Self {
        ConfigJournal::default()
    }

    /// Records an acknowledged configuration. Revisions must be strictly
    /// increasing (the controller stamps them).
    pub fn record(&mut self, revision: u64, device: DeviceId, config: StandardConfig) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.revision < revision),
            "journal revisions must be strictly increasing"
        );
        self.entries.push(JournalEntry {
            revision,
            device,
            config,
        });
    }

    /// Every entry, in revision order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Entries touching `device`, in revision order.
    pub fn history(&self, device: DeviceId) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter().filter(move |e| e.device == device)
    }

    /// The most recent configuration of `device`.
    pub fn latest(&self, device: DeviceId) -> Option<&JournalEntry> {
        self.history(device).last()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::{PixelRange, PixelWidth};

    fn cfg(port: u16) -> StandardConfig {
        StandardConfig::MuxPort {
            port,
            passband: Some(PixelRange::new(u32::from(port), PixelWidth::new(4))),
        }
    }

    #[test]
    fn history_and_latest() {
        let mut j = ConfigJournal::new();
        j.record(1, DeviceId(0), cfg(0));
        j.record(2, DeviceId(1), cfg(1));
        j.record(3, DeviceId(0), cfg(2));
        assert_eq!(j.len(), 3);
        assert_eq!(j.history(DeviceId(0)).count(), 2);
        assert_eq!(j.latest(DeviceId(0)).unwrap().revision, 3);
        assert_eq!(j.latest(DeviceId(2)), None);
    }
}
