//! The Controller: highly-available stateless metadata oracle (§3, §5.1).
//!
//! "Meta servers are a highly-available collection of stateless servers
//! acting as an oracle for application clients to report about the state
//! and locations of the Log maintainers." This reproduction models the
//! collection as a shared, lock-protected registry: any clone of
//! [`Controller`] answers session requests, and none of them sits on the
//! data path.

use std::sync::Arc;

use chariots_simnet::Counter;
use chariots_types::{ChariotsError, DatacenterId, Epoch, Generation, LId, MaintainerId, Result};
use parking_lot::RwLock;

use crate::client::ReadObs;
use crate::epoch::EpochJournal;
use crate::node::IndexerHandle;
use crate::range::RangeMap;
use crate::replication::ReplicaGroupHandle;

/// Everything a client needs for a session: maintainer and indexer
/// addresses, the epoch journal, and the approximate log size (§5.1:
/// "approximate information about the number of records in the shared
/// log").
#[derive(Clone)]
pub struct Session {
    /// The datacenter this session talks to.
    pub dc: DatacenterId,
    /// Handles to every log maintainer replica group, indexed by
    /// `MaintainerId`. Each handle routes to the group's live primary, so
    /// a failover re-routes existing sessions without a refresh.
    pub maintainers: Vec<ReplicaGroupHandle>,
    /// Handles to every indexer.
    pub indexers: Vec<IndexerHandle>,
    /// Snapshot of the epoch journal at session start.
    pub journal: EpochJournal,
    /// Approximate number of records in the shared log at session start.
    pub approx_records: u64,
    /// Deployment-wide read-path instruments clients feed.
    pub read_obs: ReadObs,
}

struct ControllerState {
    dc: DatacenterId,
    maintainers: Vec<ReplicaGroupHandle>,
    indexers: Vec<IndexerHandle>,
    journal: EpochJournal,
    read_obs: ReadObs,
}

/// The metadata oracle for one datacenter's FLStore deployment.
#[derive(Clone)]
pub struct Controller {
    state: Arc<RwLock<ControllerState>>,
    appended: Counter,
}

impl Controller {
    /// Creates a controller for a deployment with the given initial
    /// striping.
    pub fn new(dc: DatacenterId, initial: RangeMap) -> Self {
        Controller {
            state: Arc::new(RwLock::new(ControllerState {
                dc,
                maintainers: Vec::new(),
                indexers: Vec::new(),
                journal: EpochJournal::new(initial),
                read_obs: ReadObs::new(),
            })),
            appended: Counter::new(),
        }
    }

    /// Sets the shared read instruments handed out with sessions. Raw
    /// controllers start with detached ones; the deployment layer registers
    /// its own.
    pub fn set_read_obs(&self, obs: ReadObs) {
        self.state.write().read_obs = obs;
    }

    /// Registers the deployment's maintainer replica groups.
    pub fn register_maintainers(&self, maintainers: Vec<ReplicaGroupHandle>) {
        self.state.write().maintainers = maintainers;
    }

    /// Snapshot of the registered replica groups.
    pub fn groups(&self) -> Vec<ReplicaGroupHandle> {
        self.state.read().maintainers.clone()
    }

    /// Promotes replica `new_primary` of group `group` to primary, bumping
    /// the group's generation so the deposed primary is fenced. This is the
    /// controller half of failover; the failure detector supplies the
    /// suspicion that triggers it.
    pub fn promote(&self, group: MaintainerId, new_primary: usize) -> Result<Generation> {
        let handle = {
            let state = self.state.read();
            state
                .maintainers
                .get(group.index())
                .cloned()
                .ok_or(ChariotsError::NoLivePrimary(group))?
        };
        Ok(handle.state().promote(new_primary))
    }

    /// Registers the deployment's indexer handles.
    pub fn register_indexers(&self, indexers: Vec<IndexerHandle>) {
        self.state.write().indexers = indexers;
    }

    /// The shared append counter maintainers feed (approximate log size).
    pub fn appended_counter(&self) -> Counter {
        self.appended.clone()
    }

    /// Starts a client session: a snapshot of the current topology.
    pub fn session(&self) -> Session {
        let state = self.state.read();
        Session {
            dc: state.dc,
            maintainers: state.maintainers.clone(),
            indexers: state.indexers.clone(),
            journal: state.journal.clone(),
            approx_records: self.approx_records(),
            read_obs: state.read_obs.clone(),
        }
    }

    /// Approximate number of records in the shared log.
    pub fn approx_records(&self) -> u64 {
        let maintainers = { self.state.read().maintainers.clone() };
        maintainers.iter().map(|m| m.appended_counter().get()).sum()
    }

    /// Announces a future reassignment (§6.3): records the new epoch in the
    /// journal and broadcasts it to every registered maintainer. The added
    /// maintainer (if any) must already be registered.
    ///
    /// Returns the new epoch.
    pub fn announce_epoch(&self, start: LId, map: RangeMap) -> Result<Epoch> {
        let mut state = self.state.write();
        let epoch = state.journal.announce(start, map);
        for m in &state.maintainers {
            m.announce_epoch(start, map);
        }
        Ok(epoch)
    }

    /// A snapshot of the journal (e.g. for a refreshed session).
    pub fn journal(&self) -> EpochJournal {
        self.state.read().journal.clone()
    }

    /// The datacenter this controller serves.
    pub fn datacenter(&self) -> DatacenterId {
        self.state.read().dc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_snapshots_topology() {
        let c = Controller::new(DatacenterId(0), RangeMap::new(2, 10));
        let s = c.session();
        assert_eq!(s.dc, DatacenterId(0));
        assert!(s.maintainers.is_empty());
        assert_eq!(s.journal.current().epoch, Epoch::INITIAL);
        assert_eq!(s.approx_records, 0);
    }

    #[test]
    fn announce_epoch_updates_journal() {
        let c = Controller::new(DatacenterId(0), RangeMap::new(1, 10));
        let e = c.announce_epoch(LId(100), RangeMap::new(2, 10)).unwrap();
        assert_eq!(e, Epoch(1));
        let j = c.journal();
        assert_eq!(j.assignments().len(), 2);
        assert_eq!(j.current().start, LId(100));
    }

    #[test]
    fn clones_share_state() {
        let c = Controller::new(DatacenterId(1), RangeMap::new(1, 10));
        let c2 = c.clone();
        c.announce_epoch(LId(50), RangeMap::new(2, 10)).unwrap();
        assert_eq!(c2.journal().assignments().len(), 2);
        assert_eq!(c2.datacenter(), DatacenterId(1));
    }
}
