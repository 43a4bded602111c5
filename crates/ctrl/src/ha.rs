//! Controller fault tolerance (§4.4, §9 "system reliability").
//!
//! The controller "is deployed in the cloud with multiple copies …
//! deployed in multiple geo-disjoint areas". [`ControllerCluster`] models
//! that: N replicas, a primary elected as the lowest-id healthy replica,
//! heartbeat-driven failover, and replication of the revision log so a
//! promoted backup carries every revision the primary committed.

/// A geo-disjoint controller replica.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Replica index (election order).
    pub id: usize,
    /// Deployment region label.
    pub region: String,
    healthy: bool,
    /// Replicated operation log (configuration revisions).
    log: Vec<u64>,
    missed_heartbeats: u32,
}

/// Heartbeats a replica may miss before it is declared failed.
pub const HEARTBEAT_TOLERANCE: u32 = 3;

/// A replicated controller cluster.
#[derive(Debug, Clone)]
pub struct ControllerCluster {
    replicas: Vec<Replica>,
    next_revision: u64,
}

/// Cluster errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// Every replica is down — the control plane is lost.
    NoHealthyReplica,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no healthy controller replica")
    }
}

impl std::error::Error for ClusterError {}

impl ControllerCluster {
    /// A cluster with one replica per region.
    pub fn new(regions: &[&str]) -> Self {
        assert!(!regions.is_empty());
        let replicas = regions
            .iter()
            .enumerate()
            .map(|(id, r)| Replica {
                id,
                region: (*r).to_string(),
                healthy: true,
                log: Vec::new(),
                missed_heartbeats: 0,
            })
            .collect();
        ControllerCluster {
            replicas,
            next_revision: 0,
        }
    }

    /// The current primary: the lowest-id healthy replica.
    pub fn primary(&self) -> Result<usize, ClusterError> {
        self.replicas
            .iter()
            .find(|r| r.healthy)
            .map(|r| r.id)
            .ok_or(ClusterError::NoHealthyReplica)
    }

    /// Submits a configuration operation: stamped by the primary,
    /// replicated to every healthy replica. Returns (primary id, revision).
    pub fn submit(&mut self) -> Result<(usize, u64), ClusterError> {
        let primary = self.primary()?;
        self.next_revision += 1;
        let rev = self.next_revision;
        for r in &mut self.replicas {
            if r.healthy {
                r.log.push(rev);
            }
        }
        Ok((primary, rev))
    }

    /// Records a heartbeat round: replicas in `responding` answered.
    /// Replicas missing [`HEARTBEAT_TOLERANCE`] consecutive rounds are
    /// marked failed; a responding replica that was failed rejoins (after
    /// catching up the log from the primary).
    pub fn heartbeat_round(&mut self, responding: &[usize]) {
        let full_log: Vec<u64> = self
            .replicas
            .iter()
            .filter(|r| r.healthy)
            .map(|r| r.log.clone())
            .max_by_key(Vec::len)
            .unwrap_or_default();
        for r in &mut self.replicas {
            if responding.contains(&r.id) {
                if !r.healthy {
                    // Rejoin: catch up from the longest healthy log.
                    r.log = full_log.clone();
                    r.healthy = true;
                }
                r.missed_heartbeats = 0;
            } else {
                r.missed_heartbeats += 1;
                if r.missed_heartbeats >= HEARTBEAT_TOLERANCE {
                    r.healthy = false;
                }
            }
        }
    }

    /// Runs the heartbeat of `round` under a scripted fault schedule
    /// ([`crate::faults::ClusterFaultSchedule`]): replicas silenced or
    /// partitioned in that round simply fail to respond.
    pub fn heartbeat_round_faulted(
        &mut self,
        round: usize,
        faults: &crate::faults::ClusterFaultSchedule,
    ) {
        let responding = faults.responding(round, self);
        self.heartbeat_round(&responding);
    }

    /// The replicas (for inspection).
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }
}

impl Replica {
    /// The replicated log length.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ControllerCluster {
        ControllerCluster::new(&["east", "west", "north"])
    }

    #[test]
    fn primary_is_lowest_healthy() {
        let mut c = cluster();
        assert_eq!(c.primary(), Ok(0));
        // Replica 0 stops answering.
        for _ in 0..HEARTBEAT_TOLERANCE {
            c.heartbeat_round(&[1, 2]);
        }
        assert_eq!(c.primary(), Ok(1));
    }

    #[test]
    fn operations_survive_failover() {
        let mut c = cluster();
        for _ in 0..5 {
            c.submit().unwrap();
        }
        for _ in 0..HEARTBEAT_TOLERANCE {
            c.heartbeat_round(&[1, 2]);
        }
        // New primary continues at the next revision with full history.
        let (primary, rev) = c.submit().unwrap();
        assert_eq!(primary, 1);
        assert_eq!(rev, 6);
        assert_eq!(c.replicas()[1].log_len(), 6);
    }

    #[test]
    fn tolerates_transient_misses() {
        let mut c = cluster();
        c.heartbeat_round(&[1, 2]);
        c.heartbeat_round(&[0, 1, 2]); // replica 0 came back in time
        assert_eq!(c.primary(), Ok(0));
    }

    #[test]
    fn rejoin_catches_up_log() {
        let mut c = cluster();
        for _ in 0..HEARTBEAT_TOLERANCE {
            c.heartbeat_round(&[1, 2]);
        }
        for _ in 0..4 {
            c.submit().unwrap();
        }
        assert_eq!(c.replicas()[0].log_len(), 0);
        c.heartbeat_round(&[0, 1, 2]); // replica 0 rejoins
        assert_eq!(c.replicas()[0].log_len(), 4, "rejoined replica caught up");
        assert_eq!(c.primary(), Ok(0));
    }

    #[test]
    fn total_outage_is_an_error() {
        let mut c = cluster();
        for _ in 0..HEARTBEAT_TOLERANCE {
            c.heartbeat_round(&[]);
        }
        assert_eq!(c.primary(), Err(ClusterError::NoHealthyReplica));
        assert!(c.submit().is_err());
    }
}
