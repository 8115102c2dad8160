//! The assembled database: partitions + lock manager + transaction registry
//! + WAL + reference-table maintenance + reorganization lifecycle.
//!
//! This is the substrate the paper's Section 2 system model describes.
//! Transactions (see [`crate::handle::Txn`]) lock objects through the lock
//! manager, update them under page latches, and log through the WAL; the
//! database keeps each partition's ERT current on every cross-partition
//! reference change and, while a reorganization is active, feeds the
//! partition's TRT (inline or through the log analyzer, per
//! [`RefTableMaintenance`]).

use crate::addr::{PartitionId, PhysAddr};
use crate::config::{RefTableMaintenance, StoreConfig};
use crate::error::{Error, Result};
use crate::fault::{site, FaultInjector};
use crate::lock::LockManager;
use crate::lockdep::{LockClass, Mutex, RwLock};
use crate::retry::RetryStats;
use crate::object::{self, ObjectView};
use crate::partition::Partition;
use crate::trt::{RefAction, Trt};
use crate::txn::{TxnId, TxnManager};
use crate::wal::analyzer::LogAnalyzer;
use crate::wal::{LogPayload, Wal};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pluggable CPU cost model. The paper's experiments ran on a single-CPU
/// machine where the reorganizer's work competed with transactions for the
/// same processor; installing a model here charges one unit of CPU per
/// object access — by workload transactions and the reorganization utility
/// alike — so that contention behaviour can be reproduced on many-core
/// hosts (see the `workload` crate's `CpuModel`).
pub trait CpuCharge: Send + Sync {
    /// Perform one object access worth of CPU work.
    fn access(&self);

    /// Perform one access worth of work for the object at `addr`.
    ///
    /// Address-aware models (a paged memory hierarchy, for instance) use
    /// the partition/page bits to price locality; the default ignores the
    /// address. Every charge site that knows which object it is touching
    /// calls this variant.
    fn access_at(&self, _addr: PhysAddr) {
        self.access();
    }
}

/// Store-wide operation counters (all relaxed; read for reporting only).
#[derive(Debug, Default)]
pub struct DbStats {
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub creates: AtomicU64,
    pub frees: AtomicU64,
    pub ref_inserts: AtomicU64,
    pub ref_deletes: AtomicU64,
    pub payload_writes: AtomicU64,
    pub fuzzy_reads: AtomicU64,
    pub migrations: AtomicU64,
    /// High-water mark of concurrent reorganization workers (set by the
    /// parallel executor in the `ira` crate).
    pub reorg_workers: AtomicU64,
    /// Batches completed by parallel reorganization workers.
    pub reorg_wave_batches: AtomicU64,
}

impl DbStats {
    fn bump(counter: &AtomicU64) {
        // ordering: statistics counter; read only by obs snapshots, no sync derived
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Export every counter into `snap` under `db.*` keys.
    pub fn export(&self, snap: &mut obs::Snapshot) {
        // ordering: statistics export; counters are independent, tearing is fine
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        snap.set("db.commits", get(&self.commits));
        snap.set("db.aborts", get(&self.aborts));
        snap.set("db.creates", get(&self.creates));
        snap.set("db.frees", get(&self.frees));
        snap.set("db.ref_inserts", get(&self.ref_inserts));
        snap.set("db.ref_deletes", get(&self.ref_deletes));
        snap.set("db.payload_writes", get(&self.payload_writes));
        snap.set("db.fuzzy_reads", get(&self.fuzzy_reads));
        snap.set("db.migrations", get(&self.migrations));
        snap.set("db.reorg_workers", get(&self.reorg_workers));
        snap.set("db.reorg_wave_batches", get(&self.reorg_wave_batches));
    }
}

/// The object database.
pub struct Database {
    pub config: StoreConfig,
    partitions: RwLock<Vec<Arc<Partition>>>,
    pub locks: LockManager,
    pub txns: TxnManager,
    pub wal: Wal,
    /// Partitions with a reorganization in progress, with their TRTs.
    reorg_tables: RwLock<HashMap<PartitionId, Arc<Trt>>>,
    /// Log pins covering each active reorganization's TRT window.
    reorg_pins: Mutex<HashMap<PartitionId, crate::wal::PinId>>,
    /// Durable reorganizer checkpoints, keyed by partition: the latest
    /// serialized progress record the reorganization utility wrote for each
    /// active reorganization. Survives a [`crate::recovery::CrashImage`] so
    /// restart recovery can hand interrupted reorganizations back to the
    /// utility for resumption (Section 3.7's restartability).
    reorg_checkpoints: Mutex<HashMap<PartitionId, Vec<u8>>>,
    analyzer: LogAnalyzer,
    /// Persistent roots (Section 2). Conceptually these live in a dedicated
    /// root partition; threads obtain their walk entry points here.
    roots: Mutex<Vec<PhysAddr>>,
    /// Optional CPU cost model (see [`CpuCharge`]).
    cpu: RwLock<Option<Arc<dyn CpuCharge>>>,
    pub stats: DbStats,
    /// Deterministic fault injection (disarmed — one relaxed load per site
    /// check — unless a test arms a plan). See [`crate::fault`]. Shared
    /// (`Arc`) so an attached [`crate::storage::FileBackend`] fires the
    /// same plans at its `file.*` sites.
    pub fault: Arc<FaultInjector>,
    /// Store-wide retry accounting shared by every retry loop built on
    /// [`crate::retry::RetryPolicy`].
    pub retry_stats: RetryStats,
    /// Durability backend (DESIGN.md §14). `None` — the in-memory
    /// simulator — unless [`Database::attach_backend`] installed one.
    backend: std::sync::OnceLock<Arc<dyn crate::storage::StorageBackend>>,
}

impl Database {
    /// Create an empty database.
    pub fn new(config: StoreConfig) -> Self {
        Database {
            locks: LockManager::new(config.lock_shards, config.lock_timeout),
            txns: TxnManager::new(),
            wal: Wal::new(config.wal_retain, config.commit_flush_latency),
            reorg_tables: RwLock::new(LockClass::DbReorgTables, 0, HashMap::new()),
            reorg_pins: Mutex::new(LockClass::DbReorgPins, 0, HashMap::new()),
            reorg_checkpoints: Mutex::new(LockClass::DbReorgCkpt, 0, HashMap::new()),
            analyzer: LogAnalyzer::new(0),
            roots: Mutex::new(LockClass::DbRoots, 0, Vec::new()),
            cpu: RwLock::new(LockClass::DbCpu, 0, None),
            stats: DbStats::default(),
            fault: Arc::new(FaultInjector::new()),
            retry_stats: RetryStats::default(),
            partitions: RwLock::new(LockClass::DbPartitions, 0, Vec::new()),
            backend: std::sync::OnceLock::new(),
            config,
        }
    }

    /// Install the durability backend (once, at open time): every WAL
    /// append from here on is mirrored to it, and checkpoints go through
    /// [`crate::storage::StorageBackend::write_checkpoint`].
    pub fn attach_backend(&self, backend: Arc<dyn crate::storage::StorageBackend>) {
        let _ = self.backend.set(Arc::clone(&backend));
        self.wal.set_sink(backend);
    }

    /// The attached durability backend, if any.
    pub fn backend(&self) -> Option<&Arc<dyn crate::storage::StorageBackend>> {
        self.backend.get()
    }

    /// Install (or clear) the CPU cost model.
    pub fn set_cpu_model(&self, model: Option<Arc<dyn CpuCharge>>) {
        *self.cpu.write() = model;
    }

    /// Charge one object access against the installed CPU model, if any.
    #[inline]
    pub(crate) fn charge_access(&self) {
        let guard = self.cpu.read();
        if let Some(model) = guard.as_ref() {
            let model = Arc::clone(model);
            drop(guard);
            model.access();
        }
    }

    /// Charge one access to the object at `addr` against the installed CPU
    /// model, if any — the address-aware variant every site that knows its
    /// target uses, so locality-sensitive models can price page residency.
    #[inline]
    pub(crate) fn charge_access_at(&self, addr: PhysAddr) {
        let guard = self.cpu.read();
        if let Some(model) = guard.as_ref() {
            let model = Arc::clone(model);
            drop(guard);
            model.access_at(addr);
        }
    }

    // ------------------------------------------------------------------
    // Partitions and roots
    // ------------------------------------------------------------------

    /// Create a new empty partition, returning its id.
    pub fn create_partition(&self) -> PartitionId {
        let mut parts = self.partitions.write();
        let id = PartitionId(parts.len() as u16);
        parts.push(Arc::new(Partition::new(id)));
        self.wal
            .append(TxnId(0), LogPayload::CreatePartition { id });
        id
    }

    /// Install a pre-built partition (restart recovery).
    pub(crate) fn install_partition(&self, partition: Partition) {
        let mut parts = self.partitions.write();
        assert_eq!(
            partition.id().0 as usize,
            parts.len(),
            "partitions must be installed in id order"
        );
        parts.push(Arc::new(partition));
    }

    /// Fetch a partition handle.
    pub fn partition(&self, id: PartitionId) -> Result<Arc<Partition>> {
        self.partitions
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or(Error::NoSuchPartition(id.0))
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.read().len()
    }

    /// All partition ids.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        (0..self.partition_count() as u16).map(PartitionId).collect()
    }

    /// Register a persistent root.
    pub fn add_root(&self, addr: PhysAddr) {
        self.roots.lock().push(addr);
    }

    /// Snapshot of the persistent roots.
    pub fn roots(&self) -> Vec<PhysAddr> {
        self.roots.lock().clone()
    }

    /// Rewrite a root entry after the root object itself migrated.
    pub fn replace_root(&self, old: PhysAddr, new: PhysAddr) -> bool {
        let mut roots = self.roots.lock();
        match roots.iter_mut().find(|r| **r == old) {
            Some(slot) => {
                *slot = new;
                true
            }
            None => false,
        }
    }

    /// Whether `addr` is a registered root.
    pub fn is_root(&self, addr: PhysAddr) -> bool {
        self.roots.lock().contains(&addr)
    }

    // ------------------------------------------------------------------
    // Latch-level page access
    // ------------------------------------------------------------------

    /// Run `f` over the page bytes of `addr` under the page's read latch.
    pub(crate) fn with_page_read<R>(
        &self,
        addr: PhysAddr,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.fault.observe(site::PAGE_LATCH);
        let part = self.partition(addr.partition())?;
        let page = part.page(addr.page())?;
        let guard = page.read();
        Ok(f(guard.bytes()))
    }

    /// Run `f` over the page bytes of `addr` under the page's write latch.
    pub(crate) fn with_page_write<R>(
        &self,
        addr: PhysAddr,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        self.fault.observe(site::PAGE_LATCH);
        let part = self.partition(addr.partition())?;
        let page = part.page(addr.page())?;
        let mut guard = page.write();
        Ok(f(guard.bytes_mut()))
    }

    /// Fuzzy (latch-only) read of an object's outgoing references: the read
    /// primitive of the fuzzy traversal (Section 3.4). Returns `None` when
    /// the address does not name a live object — stale addresses observed
    /// during a fuzzy traversal are simply skipped.
    pub fn fuzzy_read_refs(&self, addr: PhysAddr) -> Option<Vec<PhysAddr>> {
        DbStats::bump(&self.stats.fuzzy_reads);
        self.charge_access_at(addr);
        self.with_page_read(addr, |buf| object::read_refs(buf, addr).ok())
            .ok()
            .flatten()
    }

    /// Fuzzy (latch-only) read of a whole object.
    pub fn fuzzy_read(&self, addr: PhysAddr) -> Option<ObjectView> {
        self.with_page_read(addr, |buf| object::read_view(buf, addr).ok())
            .ok()
            .flatten()
    }

    /// Unlocked full read, for verification sweeps and recovery (callers
    /// guarantee quiescence or hold the relevant locks).
    pub fn raw_read(&self, addr: PhysAddr) -> Result<ObjectView> {
        self.with_page_read(addr, |buf| object::read_view(buf, addr))?
    }

    // ------------------------------------------------------------------
    // Reorganization lifecycle
    // ------------------------------------------------------------------

    /// Begin a reorganization of `partition`: create its TRT, log the start
    /// marker, pin the log (so the TRT stays reconstructible), and — when
    /// transactions do not follow strict 2PL — enable the lock manager's
    /// ever-held tracking (Section 4.1).
    pub fn start_reorg(&self, partition: PartitionId) -> Result<Arc<Trt>> {
        let _ = self.partition(partition)?;
        let mut tables = self.reorg_tables.write();
        assert!(
            !tables.contains_key(&partition),
            "partition {partition} is already under reorganization"
        );
        let lsn = self
            .wal
            .append(TxnId(0), LogPayload::ReorgStart { partition });
        self.reorg_pins
            .lock()
            .insert(partition, self.wal.pin_at(lsn));
        if !self.config.strict_2pl {
            self.locks.set_history_tracking(true);
        }
        let trt = Arc::new(Trt::new(partition));
        tables.insert(partition, Arc::clone(&trt));
        Ok(trt)
    }

    /// End the reorganization of `partition`: drop its TRT, release the
    /// space the reorganizer freed, and log the end marker.
    pub fn end_reorg(&self, partition: PartitionId) {
        let mut tables = self.reorg_tables.write();
        tables.remove(&partition);
        if tables.is_empty() {
            self.locks.set_history_tracking(false);
        }
        drop(tables);
        if let Some(pin) = self.reorg_pins.lock().remove(&partition) {
            self.wal.unpin(pin);
        }
        self.reorg_checkpoints.lock().remove(&partition);
        if let Ok(part) = self.partition(partition) {
            part.flush_deferred_frees();
        }
        self.wal
            .append(TxnId(0), LogPayload::ReorgEnd { partition });
    }

    /// Whether `partition` has a reorganization in progress.
    pub fn reorg_active(&self, partition: PartitionId) -> bool {
        self.reorg_tables.read().contains_key(&partition)
    }

    /// Sorted ids of every partition with a reorganization in progress.
    pub fn active_reorg_ids(&self) -> Vec<PartitionId> {
        let mut v: Vec<_> = self.reorg_tables.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Durably record the reorganization utility's serialized progress for
    /// `partition` (replacing any previous record). The bytes survive a
    /// crash in the [`crate::recovery::CrashImage`] and are handed back by
    /// [`crate::recovery::recover`] when the reorganization was interrupted.
    pub fn save_reorg_checkpoint(&self, partition: PartitionId, bytes: Vec<u8>) {
        if self.backend.get().is_some() {
            // With a file backend the side table alone would die with the
            // process; log the blob so a cold restart recovers the latest
            // one per partition from the segments.
            self.wal.append(
                TxnId(0),
                LogPayload::ReorgCheckpoint {
                    partition,
                    blob: bytes.clone(),
                },
            );
        }
        self.reorg_checkpoints.lock().insert(partition, bytes);
    }

    /// The latest saved reorganizer checkpoint for `partition`, if any.
    pub fn reorg_checkpoint(&self, partition: PartitionId) -> Option<Vec<u8>> {
        self.reorg_checkpoints.lock().get(&partition).cloned()
    }

    /// Snapshot of every saved reorganizer checkpoint (crash capture).
    pub(crate) fn reorg_checkpoint_snapshot(&self) -> Vec<(PartitionId, Vec<u8>)> {
        let mut v: Vec<_> = self
            .reorg_checkpoints
            .lock()
            .iter()
            .map(|(p, b)| (*p, b.clone()))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// The TRT of `partition`, when a reorganization is active.
    pub fn trt(&self, partition: PartitionId) -> Option<Arc<Trt>> {
        self.reorg_tables.read().get(&partition).cloned()
    }

    /// Effective TRT purge setting: the Section 4.5 optimization applies
    /// only under strict 2PL.
    pub fn trt_purge_enabled(&self) -> bool {
        self.config.trt_purge && self.config.strict_2pl
    }

    /// In [`RefTableMaintenance::LogAnalyzer`] mode, bring the TRTs up to
    /// date with the WAL. The reorganizer calls this before every TRT
    /// consultation; every pointer update is logged *before* it is
    /// performed, so a drain at consultation time always sees it.
    pub fn drain_analyzer(&self) {
        if self.config.maintenance != RefTableMaintenance::LogAnalyzer {
            return;
        }
        let tables = self.reorg_tables.read().clone();
        self.analyzer
            .drain(&self.wal, &tables, self.trt_purge_enabled());
    }

    // ------------------------------------------------------------------
    // TRT / ERT maintenance (called from the transaction handle)
    // ------------------------------------------------------------------

    /// Record that `parent` gained a reference to `child`:
    /// cross-partition edges go to the child partition's ERT; if the child's
    /// partition is under reorganization, note the insert in its TRT
    /// (inline maintenance mode only; reorganizer transactions are exempt).
    pub(crate) fn note_ref_insert(
        &self,
        tid: TxnId,
        reorg_for: Option<PartitionId>,
        parent: PhysAddr,
        child: PhysAddr,
    ) {
        DbStats::bump(&self.stats.ref_inserts);
        crate::sched::point("db.note_insert", child.to_raw());
        if parent.partition() != child.partition() {
            if let Ok(part) = self.partition(child.partition()) {
                part.ert.insert(child, parent);
            }
        }
        if reorg_for != Some(child.partition())
            && self.config.maintenance == RefTableMaintenance::Inline
        {
            if let Some(trt) = self.trt(child.partition()) {
                trt.note(child, parent, tid, RefAction::Insert);
            }
        }
    }

    /// Record that `parent` is about to lose its reference to `child`.
    /// Must be called **before** the physical update (the paper's rule for
    /// pointer deletes, Section 3.3).
    pub(crate) fn note_ref_delete(
        &self,
        tid: TxnId,
        reorg_for: Option<PartitionId>,
        parent: PhysAddr,
        child: PhysAddr,
    ) {
        DbStats::bump(&self.stats.ref_deletes);
        crate::sched::point("db.note_delete", child.to_raw());
        if reorg_for != Some(child.partition())
            && self.config.maintenance == RefTableMaintenance::Inline
        {
            if let Some(trt) = self.trt(child.partition()) {
                trt.note(child, parent, tid, RefAction::Delete);
            }
        }
        if parent.partition() != child.partition() {
            if let Ok(part) = self.partition(child.partition()) {
                part.ert.remove(child, parent);
            }
        }
    }

    /// One observability snapshot over the whole substrate: operation
    /// counters (`db.*`), lock manager (`lock.*`), WAL (`wal.*`), the ERTs
    /// of every partition (`ert.*`, summed), and any live reorganizations'
    /// TRTs (`trt.*`, summed). Diff two snapshots taken around an interval
    /// to get the interval's activity ([`obs::Snapshot::diff`]).
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        self.stats.export(&mut snap);
        self.locks.stats.export(&mut snap);
        snap.set("lock.table_size", self.locks.table_size() as u64);
        self.wal.stats.export(&mut snap);

        let mut ert_inserts = 0;
        let mut ert_removes = 0;
        let mut ert_rekeys = 0;
        let mut ert_edges = 0u64;
        for part in self.partitions.read().iter() {
            ert_inserts += part.ert.stats.inserts.get();
            ert_removes += part.ert.stats.removes.get();
            ert_rekeys += part.ert.stats.rekeys.get();
            ert_edges += part.ert.edge_count() as u64;
        }
        snap.set("ert.inserts", ert_inserts);
        snap.set("ert.removes", ert_removes);
        snap.set("ert.rekeys", ert_rekeys);
        snap.set("ert.edges", ert_edges);

        let mut trt_notes = 0;
        let mut trt_purged = 0;
        let mut trt_tuples = 0u64;
        for trt in self.reorg_tables.read().values() {
            trt_notes += trt.stats.notes.get();
            trt_purged += trt.stats.purged.get();
            trt_tuples += trt.len() as u64;
        }
        snap.set("trt.notes", trt_notes);
        snap.set("trt.purged", trt_purged);
        snap.set("trt.tuples", trt_tuples);
        self.retry_stats.export(&mut snap);
        self.fault.export(&mut snap);
        if let Some(backend) = self.backend.get() {
            backend.export(&mut snap);
        }
        snap.set("lockdep.violations", crate::lockdep::violations());
        snap
    }

    /// Apply the commit-time TRT purges (Section 4.5) for a completed
    /// transaction. `deleted_pairs` are the `(child, parent)` reference
    /// deletions the transaction performed, used for the insert-pair purge
    /// on commit (`committed == true`).
    pub(crate) fn purge_trt_for_txn(
        &self,
        tid: TxnId,
        committed: bool,
        deleted_pairs: &[(PhysAddr, PhysAddr)],
    ) {
        if !self.trt_purge_enabled()
            || self.config.maintenance != RefTableMaintenance::Inline
        {
            return;
        }
        let tables = self.reorg_tables.read();
        if tables.is_empty() {
            return;
        }
        for trt in tables.values() {
            trt.purge_txn_deletes(tid);
        }
        if committed {
            for &(child, parent) in deleted_pairs {
                if let Some(trt) = tables.get(&child.partition()) {
                    trt.purge_insert_pair(child, parent);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_get_sequential_ids() {
        let db = Database::new(StoreConfig::default());
        assert_eq!(db.create_partition(), PartitionId(0));
        assert_eq!(db.create_partition(), PartitionId(1));
        assert_eq!(db.partition_count(), 2);
        assert!(db.partition(PartitionId(2)).is_err());
    }

    #[test]
    fn roots_roundtrip() {
        let db = Database::new(StoreConfig::default());
        let a = PhysAddr::new(PartitionId(0), 0, 0);
        let b = PhysAddr::new(PartitionId(0), 0, 64);
        db.add_root(a);
        assert!(db.is_root(a));
        assert!(db.replace_root(a, b));
        assert!(!db.is_root(a));
        assert!(db.is_root(b));
        assert!(!db.replace_root(a, b));
    }

    #[test]
    fn reorg_lifecycle_creates_and_drops_trt() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        assert!(!db.reorg_active(p));
        let trt = db.start_reorg(p).unwrap();
        assert!(db.reorg_active(p));
        assert!(Arc::ptr_eq(&db.trt(p).unwrap(), &trt));
        db.end_reorg(p);
        assert!(!db.reorg_active(p));
        assert!(db.trt(p).is_none());
    }

    #[test]
    fn reorg_enables_history_tracking_when_not_strict() {
        let config = StoreConfig {
            strict_2pl: false,
            ..StoreConfig::default()
        };
        let db = Database::new(config);
        let p = db.create_partition();
        assert!(!db.locks.history_tracking());
        db.start_reorg(p).unwrap();
        assert!(db.locks.history_tracking());
        db.end_reorg(p);
        assert!(!db.locks.history_tracking());
    }

    #[test]
    fn obs_snapshot_covers_every_subsystem() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        db.start_reorg(p).unwrap();
        let snap = db.obs_snapshot();
        for key in [
            "db.commits",
            "lock.acquisitions",
            "lock.table_size",
            "wal.records",
            "ert.inserts",
            "ert.edges",
            "trt.notes",
            "trt.tuples",
        ] {
            assert!(
                snap.iter().any(|(k, _)| k == key),
                "snapshot is missing key {key}"
            );
        }
        // CreatePartition + ReorgStart were logged.
        assert!(snap.get("wal.records") >= 2);
        db.end_reorg(p);
    }

    #[test]
    fn fuzzy_read_of_garbage_is_none() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let part = db.partition(p).unwrap();
        let addr = part.allocate(64).unwrap();
        // Allocated but never initialized: fuzzy readers must skip it.
        assert!(db.fuzzy_read_refs(addr).is_none());
        assert!(db.fuzzy_read(addr).is_none());
        assert!(db.raw_read(addr).is_err());
    }
}
