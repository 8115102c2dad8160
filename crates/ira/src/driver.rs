//! The IRA driver: Figure 1 of the paper, plus the engineering around it —
//! migration batching (Section 4.3), deadlock retry (Section 4.4), garbage
//! collection as a side effect (Section 4.6), checkpointing for crash
//! restart, fault injection for the failure-handling tests, and the
//! parallel wave executor (N migrator workers over conflict-disjoint
//! components of the migration queue; see [`crate::wave`]).

use crate::approx::find_objects_and_approx_parents;
use crate::chaos::site as ira_site;
use crate::checkpoint::IraCheckpoint;
use crate::exact::find_exact_parents;
use crate::migrate::{move_object_and_update_refs, BatchEffects};
use crate::order::{order_queue, MigrationOrder};
use crate::plan::RelocationPlan;
use crate::shared::{MigrationMap, OwnerId};
use crate::traversal::TraversalState;
use brahma::lockdep::{self, LockClass, Mutex};
use brahma::{Database, Error as StoreError, LockMode, PartitionId, PhysAddr, RetryPolicy};
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::time::{Duration, Instant};

/// Defer all free space of the source (and, for evacuation, target)
/// partition until the reorganization completes.
pub(crate) fn withhold_free_space(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
) -> Result<(), StoreError> {
    db.partition(partition)?.defer_all_free_space();
    if let RelocationPlan::EvacuateTo(target) = plan {
        if target != partition {
            db.partition(target)?.defer_all_free_space();
        }
    }
    Ok(())
}

/// Release the deferred space of the evacuation target (the source's is
/// released by `Database::end_reorg`).
pub(crate) fn release_target_space(db: &Database, partition: PartitionId, plan: RelocationPlan) {
    if let RelocationPlan::EvacuateTo(target) = plan {
        if target != partition {
            if let Ok(part) = db.partition(target) {
                part.flush_deferred_frees();
            }
        }
    }
}

/// Which migration strategy the driver uses for step two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IraVariant {
    /// Basic IRA (Section 3.5): all parents of an object locked
    /// simultaneously while it migrates.
    Basic,
    /// The Section 4.2 extension: the object is locked (old and new
    /// locations) and parents are locked **one at a time** — at most two
    /// distinct objects are locked at any point.
    TwoLock,
}

/// Graceful degradation under contention: the driver watches the lock
/// manager's timeout counter between successful batches and pauses
/// migration when workload aborts spike, resuming once the pause elapses.
/// The reorganizer is a background utility (Section 1); when its lock
/// footprint starts costing transactions their deadlock timeouts, backing
/// off is cheaper than finishing sooner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Successful batches per observation window.
    pub window: usize,
    /// Lock timeouts observed within one window at or above which the
    /// driver pauses.
    pub timeout_threshold: u64,
    /// How long one pause lasts.
    pub pause: Duration,
    /// Upper bound on pauses per run, so a permanently contended system
    /// still finishes reorganizing.
    pub max_pauses: usize,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            window: 8,
            timeout_threshold: 4,
            pause: Duration::from_millis(50),
            max_pauses: 100,
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct IraConfig {
    /// Migrations grouped into one transaction (Section 4.3's logging/IO
    /// trade-off; for the two-lock variant, parent updates per transaction).
    pub batch_size: usize,
    pub variant: IraVariant,
    /// Backoff applied when a batch hits a retryable conflict — a deadlock
    /// timeout, an upgrade conflict, a cross-worker migration collision, or
    /// an injected transient fault (Section 4.4's release-and-retry
    /// discipline).
    pub retry: RetryPolicy,
    /// Delete unreachable objects discovered by the traversal (Section 4.6:
    /// the reorganizer doubles as a garbage collector).
    pub collect_garbage: bool,
    /// How long to wait for the transactions active when the reorganization
    /// starts (they must complete before the fuzzy traversal, Section 4.5).
    pub quiesce_wait: Duration,
    /// The order in which objects migrate (Section 7 future work: grouping
    /// by shared external parent minimizes external lock acquisitions when
    /// combined with batching).
    pub order: MigrationOrder,
    /// Rewrite each object as it migrates — the schema-evolution use case
    /// of the paper's introduction (grow a payload, reserve more reference
    /// slots, change the tag). The transform must preserve the reference
    /// list exactly; capacities and payload are free to change.
    pub transform: Option<fn(brahma::ObjectView) -> brahma::ObjectView>,
    /// Contention-adaptive throttling (`None` disables it).
    pub throttle: Option<ThrottleConfig>,
    /// Migrator workers. With `1` (the default) the queue executes
    /// serially, in order. With more, the queue is partitioned into
    /// conflict-disjoint components ([`crate::wave::plan_waves`]) and the
    /// workers claim them in plan order and drain them concurrently, each
    /// running its own migration transactions against the shared mapping
    /// and traversal state.
    pub workers: usize,
    /// Save a reorganizer checkpoint (Section 4.4) every this many batches
    /// during the serial migration loop, in addition to the crash-time
    /// save. With a file backend attached the save is mirrored into the
    /// durable log, so a hard process kill resumes from at most this many
    /// batches back. `None` (the default) checkpoints only at crash.
    pub checkpoint_every: Option<usize>,
}

impl Default for IraConfig {
    fn default() -> Self {
        IraConfig {
            batch_size: 1,
            variant: IraVariant::Basic,
            retry: RetryPolicy::default(),
            collect_garbage: true,
            quiesce_wait: Duration::from_secs(300),
            order: MigrationOrder::Traversal,
            transform: None,
            throttle: None,
            workers: 1,
            checkpoint_every: None,
        }
    }
}

/// Variant- and test-specific execution knobs, split out of [`IraConfig`]
/// so the public configuration carries only what every run needs. Surfaced
/// through [`crate::builder::Reorg`]'s `settle` / `crash_after_migrations`
/// methods.
#[derive(Debug, Clone)]
pub(crate) struct ExecOptions {
    /// Poll policy for the relaxed-2PL settle wait used by the two-lock
    /// variant (how long, in how many slices, the reorganizer waits for a
    /// past lock holder to finish; see [`crate::relaxed`]).
    pub settle: RetryPolicy,
    /// Fault injection: simulate a crash (return
    /// [`IraError::SimulatedCrash`] with a resumable checkpoint) once this
    /// many objects have migrated.
    pub crash_after_migrations: Option<usize>,
    /// Fault injection for the deferral path: parallel-executor chunks
    /// containing any of these objects are pushed straight to the serial
    /// tail instead of migrating, as if their retry budget had been
    /// exhausted. Lets tests exercise the tail's ordering guarantees
    /// deterministically.
    pub force_defer: Vec<PhysAddr>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            settle: crate::relaxed::SETTLE_POLICY,
            crash_after_migrations: None,
            force_defer: Vec::new(),
        }
    }
}

/// Errors surfaced by the reorganizer.
#[derive(Debug)]
pub enum IraError {
    /// A storage-manager error other than a retryable lock timeout.
    Store(StoreError),
    /// A batch kept deadlocking past `max_retries`.
    RetriesExhausted { object: PhysAddr, attempts: usize },
    /// Fault injection fired; the checkpoint resumes the run.
    SimulatedCrash(Box<IraCheckpoint>),
}

impl fmt::Display for IraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IraError::Store(e) => write!(f, "storage error during reorganization: {e}"),
            IraError::RetriesExhausted { object, attempts } => {
                write!(f, "migration of {object} failed after {attempts} attempts")
            }
            IraError::SimulatedCrash(c) => {
                write!(f, "simulated crash after {} migrations", c.mapping.len())
            }
        }
    }
}

impl std::error::Error for IraError {}

impl From<StoreError> for IraError {
    fn from(e: StoreError) -> Self {
        IraError::Store(e)
    }
}

/// Wall-clock time spent in each phase of a reorganization run. The phases
/// mirror the paper's structure: quiescing the transactions active at the
/// start (Section 4.5), the fuzzy traversal / `Find_Objects_And_Approx_Parents`
/// (step one), `Find_Exact_Parents` and the migration transactions (step
/// two), and garbage collection (Section 4.6). For the two-lock variant the
/// exact-parents work happens inside the migration loop, so it is charged to
/// `migrate`. With multiple workers, `exact_parents` and `migrate` sum the
/// workers' concurrent time and can exceed wall-clock.
#[derive(Debug, Default, Clone)]
pub struct IraPhases {
    pub quiesce: Duration,
    pub traversal: Duration,
    pub exact_parents: Duration,
    pub migrate: Duration,
    pub gc: Duration,
}

/// Outcome of a completed reorganization.
#[derive(Debug)]
pub struct IraReport {
    pub partition: PartitionId,
    /// Old address -> new address for every migrated object.
    pub mapping: HashMap<PhysAddr, PhysAddr>,
    /// Unreachable objects found by the traversal (deleted when
    /// `collect_garbage` is set).
    pub garbage: Vec<PhysAddr>,
    /// Deadlock-timeout retries across all batches.
    pub retries: usize,
    /// Times the contention throttle paused migration (see
    /// [`ThrottleConfig`]).
    pub throttle_pauses: usize,
    /// Total distinct out-of-partition parents locked, summed over
    /// migration transactions — the cost the Section 7 ordering minimizes.
    pub external_parent_locks: usize,
    /// Per-phase wall-clock breakdown.
    pub phases: IraPhases,
    /// TRT tuples noted / purged over the reorganization window (captured
    /// before the TRT is dropped by `end_reorg`).
    pub trt_notes: u64,
    pub trt_purged: u64,
    /// Conflict-disjoint components the wave planner produced (0 for a
    /// serial run, which needs no plan).
    pub waves: usize,
    /// Shared-anchor scheduling groups the [`MigrationOrder::ParentGroup`]
    /// planner coalesced (0 for other orders and serial runs).
    pub parent_groups: usize,
    /// Migrator workers the run executed with.
    pub workers: usize,
    /// Objects that exhausted their worker's retry budget and fell back to
    /// the serial tail pass.
    pub deferred: usize,
    pub duration: Duration,
}

impl IraReport {
    pub fn migrated(&self) -> usize {
        self.mapping.len()
    }

    /// Export the report into `snap` under `ira.*` keys (durations in µs).
    pub fn export(&self, snap: &mut obs::Snapshot) {
        let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        snap.set("ira.migrated", self.mapping.len() as u64);
        snap.set("ira.garbage", self.garbage.len() as u64);
        snap.set("ira.retries", self.retries as u64);
        snap.set("ira.throttle.pauses", self.throttle_pauses as u64);
        snap.set("ira.external_parent_locks", self.external_parent_locks as u64);
        snap.set("ira.quiesce_us", us(self.phases.quiesce));
        snap.set("ira.traversal_us", us(self.phases.traversal));
        snap.set("ira.exact_parents_us", us(self.phases.exact_parents));
        snap.set("ira.migrate_us", us(self.phases.migrate));
        snap.set("ira.gc_us", us(self.phases.gc));
        snap.set("ira.trt_notes", self.trt_notes);
        snap.set("ira.trt_purged", self.trt_purged);
        snap.set("ira.waves", self.waves as u64);
        snap.set("ira.parent_groups", self.parent_groups as u64);
        snap.set("ira.workers", self.workers as u64);
        snap.set("ira.deferred", self.deferred as u64);
        snap.set("ira.duration_us", us(self.duration));
    }
}

/// Crate-internal entry point behind the [`crate::Reorg`] builder (the
/// only public way to run IRA).
pub(crate) fn run_incremental(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
    config: &IraConfig,
    exec: &ExecOptions,
) -> Result<IraReport, IraError> {
    let start = Instant::now();
    db.start_reorg(partition)?;
    // Withhold all current free space in the partitions the plan touches:
    // migrated copies then pack into fresh space in migration order (the
    // point of compaction and clustering), and everything freed or withheld
    // is released coalesced when the reorganization ends.
    withhold_free_space(db, partition, plan)?;

    // Wait for every transaction active at the start to complete, so all
    // relevant pointer updates are in the TRT (Section 4.5).
    let mut phases = IraPhases::default();
    let phase_start = Instant::now();
    let active_at_start = db.txns.active_snapshot();
    db.txns.wait_for_all(&active_at_start, config.quiesce_wait);
    phases.quiesce = phase_start.elapsed();

    // Step one. The ordered traversal output doubles as the migration
    // queue, in place.
    let phase_start = Instant::now();
    let mut state = find_objects_and_approx_parents(db, partition);
    let mut queue = std::mem::take(&mut state.order);
    order_queue(&config.order, &mut queue, &state, partition);
    state.order = queue;
    phases.traversal = phase_start.elapsed();
    db.fault.observe(ira_site::TRAVERSAL);

    let run = ReorgRun {
        db,
        partition,
        plan,
        config,
        exec,
        state,
        pos: 0,
        mapping: MigrationMap::new(),
        retries: 0,
        ext_locks: 0,
        throttle_pauses: 0,
        waves: 0,
        parent_groups: 0,
        deferred: 0,
        phases,
        started: start,
    };
    run.execute()
}

/// In-flight reorganization state; also reconstructible from an
/// [`IraCheckpoint`] (see [`crate::checkpoint::run_resume`]).
pub(crate) struct ReorgRun<'a> {
    pub db: &'a Database,
    pub partition: PartitionId,
    pub plan: RelocationPlan,
    pub config: &'a IraConfig,
    pub exec: &'a ExecOptions,
    /// Traversal state; `state.order` is the migration queue.
    pub state: TraversalState,
    pub pos: usize,
    pub mapping: MigrationMap,
    pub retries: usize,
    pub ext_locks: usize,
    pub throttle_pauses: usize,
    pub waves: usize,
    pub parent_groups: usize,
    pub deferred: usize,
    pub phases: IraPhases,
    pub started: Instant,
}

/// Per-worker accumulators handed back to the run when the worker joins.
#[derive(Debug, Default)]
struct WorkerStats {
    retries: usize,
    ext_locks: usize,
    exact_time: Duration,
    migrate_time: Duration,
}

/// Why a batch could not complete.
enum BatchFail {
    /// Retryable conflicts past the retry budget: the serial run fails the
    /// reorganization, a parallel worker defers the batch to the tail pass.
    Exhausted { object: PhysAddr, attempts: usize },
    /// A non-retryable storage error.
    Fatal(StoreError),
}

/// One migrator: everything a batch attempt needs, plus local stat
/// accumulators, so N of these can run in parallel over one shared
/// [`TraversalState`] and [`MigrationMap`].
struct WorkerCtx<'a> {
    db: &'a Database,
    partition: PartitionId,
    plan: RelocationPlan,
    config: &'a IraConfig,
    exec: &'a ExecOptions,
    state: &'a TraversalState,
    mapping: &'a MigrationMap,
    owner: OwnerId,
    /// The configured retry policy reseeded per owner through a
    /// [`brahma::SeedTree`] child: the jitter hash is `(seed, attempt)`, so
    /// N workers sharing one policy seed would draw *identical* backoff
    /// streams (synchronized re-collision) — and which worker retries which
    /// batch would depend on claim order, making delays schedule-dependent.
    /// Per-owner seeds are decorrelated and reproducible at any worker
    /// count.
    retry: RetryPolicy,
    stats: WorkerStats,
}

impl<'a> WorkerCtx<'a> {
    fn into_stats(self) -> WorkerStats {
        self.stats
    }

    /// Run one batch to completion: retryable conflicts (deadlock timeouts,
    /// upgrade conflicts, cross-worker collisions, injected transients)
    /// retry under the configured backoff; success returns the number of
    /// objects migrated (skipped objects — already migrated or claimed
    /// elsewhere — don't count).
    fn run_batch(&mut self, batch: &[PhysAddr]) -> Result<usize, BatchFail> {
        // RetryState borrows the policy; clone it so the loop can borrow
        // `self` mutably for the batch attempts.
        let retry = self.retry.clone();
        let mut backoff = retry.start();
        loop {
            let result = match self.config.variant {
                IraVariant::Basic => self.try_batch_basic(batch),
                IraVariant::TwoLock => self.try_batch_two_lock(batch),
            };
            match result {
                Ok(n) => return Ok(n),
                Err(e) if e.is_retryable_conflict() => {
                    self.stats.retries += 1;
                    if !self.db.retry_backoff(&mut backoff) {
                        return Err(BatchFail::Exhausted {
                            object: batch[0],
                            attempts: backoff.attempt,
                        });
                    }
                }
                Err(e) => return Err(BatchFail::Fatal(e)),
            }
        }
    }

    /// Migrate one batch inside one transaction (basic IRA).
    fn try_batch_basic(&mut self, batch: &[PhysAddr]) -> Result<usize, StoreError> {
        let part = self.db.partition(self.partition)?;
        let mut txn = self.db.begin_reorg(self.partition);
        let mut keep: HashSet<PhysAddr> = HashSet::new();
        let mut effects = BatchEffects::default();
        let mut failure = None;
        for &oold in batch {
            // Skip freed addresses and objects already migrated (committed
            // slot) or mid-migration by another worker (their claim).
            if !part.contains_object(oold) || !self.mapping.claim(oold, self.owner) {
                continue;
            }
            effects.claims.push(oold);
            if let Err(e) = self.db.fault.hit(ira_site::EXACT_PARENTS) {
                failure = Some(e);
                break;
            }
            let exact_start = Instant::now();
            let step = find_exact_parents(self.db, &mut txn, oold, self.state, &keep)
                .and_then(|parents| {
                    self.stats.exact_time += exact_start.elapsed();
                    // Basic-IRA footprint invariant (Section 3.5): after
                    // Find_Exact_Parents the batch transaction holds locks
                    // only on confirmed parents — the current object's and
                    // the kept set from earlier objects in this batch.
                    let allowed: Vec<u64> = keep
                        .iter()
                        .chain(parents.iter())
                        .map(|a| a.to_raw())
                        .collect();
                    lockdep::assert_txn_locks_subset(
                        &allowed,
                        "basic IRA after Find_Exact_Parents",
                    );
                    let migrate_start = Instant::now();
                    let onew = move_object_and_update_refs(
                        self.db,
                        &mut txn,
                        oold,
                        &parents,
                        self.plan,
                        self.config.transform,
                        self.state,
                        self.mapping,
                        self.owner,
                        &mut effects,
                    )?;
                    self.stats.migrate_time += migrate_start.elapsed();
                    keep.extend(parents);
                    keep.insert(onew);
                    keep.insert(oold);
                    Ok(())
                });
            if let Err(e) = step {
                failure = Some(e);
                break;
            }
        }
        match failure {
            None => {
                let commit = self
                    .db
                    .fault
                    .hit(ira_site::MIGRATE_COMMIT)
                    .and_then(|()| txn.commit());
                match commit {
                    Ok(()) => {
                        let migrated = effects.migrations.len();
                        for &(old, _) in &effects.migrations {
                            self.mapping.commit(old);
                        }
                        // Claims that produced no migration reopen; release
                        // spares the just-committed slots.
                        for &claimed in &effects.claims {
                            self.mapping.release(claimed);
                        }
                        self.stats.ext_locks += keep
                            .iter()
                            .filter(|a| a.partition() != self.partition)
                            .count();
                        Ok(migrated)
                    }
                    Err(e) => {
                        // A failed commit is an abort (the handle rolled the
                        // updates back on drop); the run's in-memory
                        // bookkeeping must roll back with it.
                        effects.revert(self.db, self.state, self.mapping);
                        Err(e)
                    }
                }
            }
            Some(e) => {
                txn.abort();
                effects.revert(self.db, self.state, self.mapping);
                Err(e)
            }
        }
    }

    /// Migrate one batch with the two-lock extension (each object commits
    /// by itself; on a mid-batch error, earlier objects stay migrated and
    /// the retry skips them via their committed slots).
    fn try_batch_two_lock(&mut self, batch: &[PhysAddr]) -> Result<usize, StoreError> {
        let part = self.db.partition(self.partition)?;
        let mut migrated = 0usize;
        for &oold in batch {
            if !part.contains_object(oold) || !self.mapping.claim(oold, self.owner) {
                continue;
            }
            let migrate_start = Instant::now();
            let outcome = crate::two_lock::migrate_two_lock(
                self.db,
                oold,
                self.plan,
                self.config.transform,
                self.state,
                self.mapping,
                self.owner,
                &self.retry,
                &self.exec.settle,
            );
            self.stats.migrate_time += migrate_start.elapsed();
            match outcome {
                Ok(_) => migrated += 1,
                Err(e) => {
                    self.mapping.release(oold);
                    return Err(e);
                }
            }
        }
        Ok(migrated)
    }
}

/// How the migration loop ended (before error-path cleanup).
enum LoopEnd {
    Crash,
    Exhausted { object: PhysAddr, attempts: usize },
    Fatal(StoreError),
}

/// The step every migration loop (serial, wave worker, serial tail) takes
/// between two batches: no lock-manager lock may outlive its batch
/// transaction (crash consistency depends on it), the schedule tracer sees
/// the boundary as `event`/`key`, and the `ira.batch` fault site fires.
fn batch_boundary(db: &Database, context: &str, event: &'static str, key: u64) {
    lockdep::assert_no_txn_locks(context);
    brahma::sched::point(event, key);
    db.fault.observe(ira_site::BATCH);
}

/// One migration loop's contention-throttle window (see
/// [`ThrottleConfig`]). The serial loop and each wave worker keep their
/// own window; the run's pause budget is shared through `pauses`.
struct ThrottleWindow<'a> {
    throttle: Option<&'a ThrottleConfig>,
    batches: usize,
    timeouts_mark: u64,
}

impl<'a> ThrottleWindow<'a> {
    fn new(db: &Database, throttle: Option<&'a ThrottleConfig>) -> Self {
        ThrottleWindow {
            throttle,
            batches: 0,
            timeouts_mark: db.locks.stats.timeouts.get(),
        }
    }

    /// Count one finished batch. At the end of a window that saw at least
    /// `timeout_threshold` lock timeouts, pause once while the budget of
    /// `max_pauses` lasts.
    fn batch_done(&mut self, db: &Database, pauses: &AtomicUsize) {
        let Some(t) = self.throttle else {
            return;
        };
        self.batches += 1;
        if self.batches < t.window.max(1) {
            return;
        }
        let timeouts_now = db.locks.stats.timeouts.get();
        if timeouts_now.saturating_sub(self.timeouts_mark) >= t.timeout_threshold
            && pauses
                // ordering: a budget counter; no other memory hangs on it
                .fetch_update(AtomicOrd::Relaxed, AtomicOrd::Relaxed, |p| {
                    (p < t.max_pauses).then_some(p + 1)
                })
                .is_ok()
        {
            std::thread::sleep(t.pause);
        }
        self.timeouts_mark = db.locks.stats.timeouts.get();
        self.batches = 0;
    }
}

impl ReorgRun<'_> {
    fn worker_ctx(&self, owner: OwnerId) -> WorkerCtx<'_> {
        let retry = RetryPolicy {
            seed: brahma::SeedTree::new(self.config.retry.seed)
                .child("ira.worker")
                .child_idx(owner as u64)
                .seed(),
            ..self.config.retry.clone()
        };
        WorkerCtx {
            db: self.db,
            partition: self.partition,
            plan: self.plan,
            config: self.config,
            exec: self.exec,
            state: &self.state,
            mapping: &self.mapping,
            owner,
            retry,
            stats: WorkerStats::default(),
        }
    }

    fn absorb(&mut self, stats: WorkerStats) {
        self.retries += stats.retries;
        self.ext_locks += stats.ext_locks;
        self.phases.exact_parents += stats.exact_time;
        self.phases.migrate += stats.migrate_time;
    }

    pub(crate) fn execute(mut self) -> Result<IraReport, IraError> {
        // Step two: migrate, serially or across workers.
        if self.config.workers.max(1) > 1 {
            self.run_parallel()?;
        } else {
            self.run_serial()?;
        }

        // Garbage: allocated but never traversed (Section 4.6).
        let phase_start = Instant::now();
        let survivors: HashSet<PhysAddr> = self
            .mapping
            .sorted_committed()
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        let garbage: Vec<PhysAddr> = self
            .db
            .partition(self.partition)
            .map_err(IraError::Store)?
            .live_objects()
            .into_iter()
            .filter(|a| !survivors.contains(a))
            .collect();
        if self.config.collect_garbage && !garbage.is_empty() {
            // GC gets its own seed stream, like each worker (see WorkerCtx).
            let gc_retry = RetryPolicy {
                seed: brahma::SeedTree::new(self.config.retry.seed)
                    .child("ira.gc")
                    .seed(),
                ..self.config.retry.clone()
            };
            let mut backoff = gc_retry.start();
            loop {
                match self.try_collect_garbage(&garbage) {
                    Ok(()) => break,
                    Err(e) if e.is_retryable_conflict() => {
                        self.retries += 1;
                        if !self.db.retry_backoff(&mut backoff) {
                            return Err(self.fail(IraError::RetriesExhausted {
                                object: garbage[0],
                                attempts: backoff.attempt,
                            }));
                        }
                    }
                    Err(e) => return Err(self.fail(IraError::Store(e))),
                }
            }
        }
        self.phases.gc = phase_start.elapsed();

        // The TRT dies with end_reorg; capture its lifetime counters first.
        let (trt_notes, trt_purged) = self
            .db
            .trt(self.partition)
            .map(|t| (t.stats.notes.get(), t.stats.purged.get()))
            .unwrap_or((0, 0));

        self.db.end_reorg(self.partition);
        release_target_space(self.db, self.partition, self.plan);
        // Bound the lifetime of any stale address still in a transaction's
        // local memory before creation in the partition resumes.
        let phase_start = Instant::now();
        let active_at_end = self.db.txns.active_snapshot();
        self.db
            .txns
            .wait_for_all(&active_at_end, self.config.quiesce_wait);
        self.phases.quiesce += phase_start.elapsed();

        Ok(IraReport {
            partition: self.partition,
            mapping: self.mapping.to_hashmap(),
            garbage,
            retries: self.retries,
            throttle_pauses: self.throttle_pauses,
            external_parent_locks: self.ext_locks,
            phases: self.phases,
            trt_notes,
            trt_purged,
            waves: self.waves,
            parent_groups: self.parent_groups,
            workers: self.config.workers.max(1),
            deferred: self.deferred,
            duration: self.started.elapsed(),
        })
    }

    /// The serial migration loop: drain the queue in order, one batch at a
    /// time.
    fn run_serial(&mut self) -> Result<(), IraError> {
        let mut ctx = self.worker_ctx(0);
        let mut throttle = ThrottleWindow::new(self.db, self.config.throttle.as_ref());
        let pauses = AtomicUsize::new(self.throttle_pauses);
        let mut pos = self.pos;
        let mut end: Option<LoopEnd> = None;
        while pos < self.state.order.len() {
            // A Crash fault latched anywhere (a walker's lock site, the WAL,
            // a page latch) surfaces here, at the batch boundary — the only
            // point where the checkpoint is consistent.
            if self.db.fault.crash_requested() {
                end = Some(LoopEnd::Crash);
                break;
            }
            let batch_end = (pos + self.config.batch_size.max(1)).min(self.state.order.len());
            let batch: Vec<PhysAddr> = self.state.order[pos..batch_end].to_vec();
            match ctx.run_batch(&batch) {
                Ok(_) => {}
                Err(BatchFail::Exhausted { object, attempts }) => {
                    end = Some(LoopEnd::Exhausted { object, attempts });
                    break;
                }
                Err(BatchFail::Fatal(e)) => {
                    end = Some(LoopEnd::Fatal(e));
                    break;
                }
            }
            pos = batch_end;
            batch_boundary(
                self.db,
                "IRA serial driver at batch boundary",
                "ira.batch",
                pos as u64,
            );
            if let Some(every) = self.config.checkpoint_every {
                let batches = pos.div_ceil(self.config.batch_size.max(1));
                if every > 0 && batches.is_multiple_of(every) {
                    let ckpt = self.checkpoint_at(pos);
                    self.db.save_reorg_checkpoint(self.partition, ckpt.encode());
                }
            }
            throttle.batch_done(self.db, &pauses);
            if let Some(n) = self.exec.crash_after_migrations {
                if self.mapping.len() >= n {
                    end = Some(LoopEnd::Crash);
                    break;
                }
            }
        }
        if end.is_none() && self.db.fault.crash_requested() {
            end = Some(LoopEnd::Crash);
        }
        let stats = ctx.into_stats();
        self.absorb(stats);
        self.pos = pos;
        self.throttle_pauses = pauses.into_inner();
        self.finish_loop(end)
    }

    /// The parallel migration loop: plan conflict-disjoint scheduling
    /// groups, let N workers claim and drain them, then migrate whatever
    /// was deferred in a serial tail pass.
    fn run_parallel(&mut self) -> Result<(), IraError> {
        let remaining = &self.state.order[self.pos..];
        let wave_plan = if self.config.order == MigrationOrder::ParentGroup {
            crate::wave::plan_waves_grouped(
                remaining,
                &self.state,
                self.partition,
                self.config.workers.max(1),
            )
        } else {
            crate::wave::plan_waves(remaining, &self.state, self.partition)
        };
        self.waves = wave_plan.components.len();
        self.parent_groups = wave_plan.parent_groups;
        let nworkers = self
            .config
            .workers
            .max(1)
            .min(wave_plan.groups.len().max(1));
        self.db.stats.reorg_workers.fetch_max(nworkers as u64, AtomicOrd::Relaxed);
        // Queue position of every remaining object, so deferred chunks can
        // be re-packed into queue order for the serial tail (queue order IS
        // placement order — see [`crate::order::MigrationOrder::Priority`]).
        let pos_of: HashMap<PhysAddr, usize> = remaining
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i))
            .collect();
        // One cursor hands out scheduling groups in plan order: a worker
        // that finishes a group claims the next unclaimed one, so no worker
        // idles while a group is left, and no group is ever split. For
        // every order but ParentGroup the groups are exactly the components.
        let next_group = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let crash = AtomicBool::new(false);
        let fatal: Mutex<Option<StoreError>> = Mutex::new(LockClass::WaveDeferred, 0, None);
        let deferred: Mutex<Vec<(usize, PhysAddr)>> =
            Mutex::new(LockClass::WaveDeferred, 1, Vec::new());
        let pauses = AtomicUsize::new(self.throttle_pauses);

        let db = self.db;
        let config = self.config;
        let exec = self.exec;
        let components = &wave_plan.components;
        let groups = &wave_plan.groups;
        let pos_of = &pos_of;
        let mapping = &self.mapping;

        let worker_stats: Vec<WorkerStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nworkers)
                .map(|w| {
                    let next_group = &next_group;
                    let stop = &stop;
                    let crash = &crash;
                    let fatal = &fatal;
                    let deferred = &deferred;
                    let pauses = &pauses;
                    let mut ctx = self.worker_ctx(w);
                    s.spawn(move || {
                        brahma::sched::set_thread_label(&format!("wave-{w}"));
                        let mut throttle = ThrottleWindow::new(db, config.throttle.as_ref());
                        'claim: while !stop.load(AtomicOrd::Relaxed) {
                            // ordering: hands out each index once; plan is read-only
                            let g = next_group.fetch_add(1, AtomicOrd::Relaxed);
                            let Some(group) = groups.get(g) else {
                                break;
                            };
                            let c = group[0];
                            brahma::sched::point("wave.claim", c as u64);
                            // Batches span component boundaries within a
                            // group: a multi-component (parent) group's
                            // shared anchor is then locked once per batch,
                            // by one worker, instead of once per component
                            // by colliding workers.
                            let objs: Vec<PhysAddr> = group
                                .iter()
                                .flat_map(|&ci| components[ci].iter().copied())
                                .collect();
                            for chunk in objs.chunks(config.batch_size.max(1)) {
                                if stop.load(AtomicOrd::Relaxed) {
                                    break 'claim;
                                }
                                if db.fault.crash_requested() {
                                    crash.store(true, AtomicOrd::Relaxed);
                                    stop.store(true, AtomicOrd::Relaxed);
                                    break 'claim;
                                }
                                let forced = !exec.force_defer.is_empty()
                                    && chunk.iter().any(|o| exec.force_defer.contains(o));
                                let outcome = if forced {
                                    Err(BatchFail::Exhausted {
                                        object: chunk[0],
                                        attempts: 0,
                                    })
                                } else {
                                    ctx.run_batch(chunk)
                                };
                                match outcome {
                                    Ok(_) => {}
                                    Err(BatchFail::Exhausted { .. }) => {
                                        // Residual cross-component conflict
                                        // (shared external parent, walker
                                        // interference): hand the objects to
                                        // the serial tail instead of failing
                                        // the run.
                                        brahma::sched::point(
                                            "wave.defer",
                                            chunk.len() as u64,
                                        );
                                        deferred.lock().extend(chunk.iter().map(|&o| {
                                            (pos_of.get(&o).copied().unwrap_or(usize::MAX), o)
                                        }));
                                    }
                                    Err(BatchFail::Fatal(e)) => {
                                        *fatal.lock() = Some(e);
                                        stop.store(true, AtomicOrd::Relaxed);
                                        break 'claim;
                                    }
                                }
                                batch_boundary(
                                    db,
                                    "wave worker at batch boundary",
                                    "wave.batch",
                                    c as u64,
                                );
                                db.stats.reorg_wave_batches.fetch_add(1, AtomicOrd::Relaxed);
                                throttle.batch_done(db, pauses);
                                if let Some(n) = exec.crash_after_migrations {
                                    if mapping.len() >= n {
                                        crash.store(true, AtomicOrd::Relaxed);
                                        stop.store(true, AtomicOrd::Relaxed);
                                        break 'claim;
                                    }
                                }
                            }
                        }
                        ctx.into_stats()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(stats) => stats,
                    // Surface a worker panic (e.g. a lockdep violation in a
                    // debug build) on the driver thread instead of dying
                    // with a generic scope error.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        for stats in worker_stats {
            self.absorb(stats);
        }
        self.throttle_pauses = pauses.into_inner();

        if let Some(e) = fatal.into_inner() {
            return self.finish_loop(Some(LoopEnd::Fatal(e)));
        }
        if crash.into_inner() || self.db.fault.crash_requested() {
            // Workers stopped at batch boundaries, so every slot is either
            // committed or released. Restart covers the whole queue; the
            // resume skips committed objects through the mapping.
            self.pos = 0;
            return self.finish_loop(Some(LoopEnd::Crash));
        }

        // Serial tail: whatever the workers deferred, re-packed into queue
        // order by original index. Workers push chunks in *completion*
        // order, which is schedule-dependent; since queue order is
        // placement order (a Priority plan's list IS the clustering
        // decision), the tail must not scramble it. Re-packing also makes
        // the tail ride any ParentGroup ordering: anchor-sharing objects
        // are queue-adjacent, so tail batches keep covering each anchor
        // once per batch.
        let mut tail_pos = deferred.into_inner();
        tail_pos.sort_unstable();
        tail_pos.dedup_by_key(|&mut (_, o)| o);
        let tail: Vec<PhysAddr> = tail_pos.into_iter().map(|(_, o)| o).collect();
        self.deferred = tail.len();
        if !tail.is_empty() {
            let mut ctx = self.worker_ctx(nworkers);
            let mut end: Option<LoopEnd> = None;
            let mut done = 0usize;
            for chunk in tail.chunks(self.config.batch_size.max(1)) {
                if self.db.fault.crash_requested() {
                    end = Some(LoopEnd::Crash);
                    break;
                }
                match ctx.run_batch(chunk) {
                    Ok(_) => {}
                    Err(BatchFail::Exhausted { object, attempts }) => {
                        end = Some(LoopEnd::Exhausted { object, attempts });
                        break;
                    }
                    Err(BatchFail::Fatal(e)) => {
                        end = Some(LoopEnd::Fatal(e));
                        break;
                    }
                }
                done += chunk.len();
                batch_boundary(
                    self.db,
                    "IRA serial tail at batch boundary",
                    "ira.batch",
                    done as u64,
                );
            }
            let stats = ctx.into_stats();
            self.absorb(stats);
            if end.is_some() {
                if matches!(end, Some(LoopEnd::Crash)) {
                    self.pos = 0;
                }
                return self.finish_loop(end);
            }
        }
        self.pos = self.state.order.len();
        Ok(())
    }

    /// Translate how the migration loop ended into the run's outcome,
    /// applying the error-path cleanup (checkpoint for a crash, release for
    /// a failure).
    fn finish_loop(&mut self, end: Option<LoopEnd>) -> Result<(), IraError> {
        match end {
            None => Ok(()),
            Some(LoopEnd::Crash) => Err(self.crash_now()),
            Some(LoopEnd::Exhausted { object, attempts }) => {
                Err(self.fail(IraError::RetriesExhausted { object, attempts }))
            }
            Some(LoopEnd::Fatal(e)) => Err(self.fail(IraError::Store(e))),
        }
    }

    /// Terminal failure: release the reorganization so the system keeps
    /// running, then hand the error back.
    fn fail(&self, e: IraError) -> IraError {
        self.db.end_reorg(self.partition);
        release_target_space(self.db, self.partition, self.plan);
        e
    }

    /// Convert a latched crash request (or a `crash_after_migrations` trip)
    /// into a simulated crash: checkpoint the run, save the checkpoint
    /// durably so the next [`brahma::CrashImage`] carries it, and leave the
    /// reorganization open — exactly what a stop-the-world failure between
    /// two migration transactions looks like (Section 4.4).
    fn crash_now(&self) -> IraError {
        let _ = self.db.fault.take_crash_request();
        let ckpt = self.checkpoint();
        self.db
            .save_reorg_checkpoint(self.partition, ckpt.encode());
        IraError::SimulatedCrash(Box::new(ckpt))
    }

    /// One attempt at the whole garbage-collection transaction; a failure
    /// anywhere aborts it (dropping the handle rolls the deletes back) and
    /// the caller's retry loop starts a fresh one.
    fn try_collect_garbage(&self, garbage: &[PhysAddr]) -> Result<(), StoreError> {
        let mut txn = self.db.begin_reorg(self.partition);
        for &g in garbage {
            txn.lock(g, LockMode::Exclusive)?;
            txn.delete_object(g)?;
        }
        txn.commit()
    }

    /// Snapshot the run for crash-restart (Section 4.4: "the data structures
    /// Traversed Objects and Parent Lists can be checkpointed").
    pub(crate) fn checkpoint(&self) -> IraCheckpoint {
        self.checkpoint_at(self.pos)
    }

    /// [`Self::checkpoint`] with an explicit queue position — the serial
    /// loop's periodic saves run while `self.pos` is stale (it is written
    /// back only at loop exit).
    fn checkpoint_at(&self, pos: usize) -> IraCheckpoint {
        self.db.fault.observe(ira_site::CHECKPOINT);
        // Fuzzy TRT checkpoint: capture the log position first, then the
        // tuples — replaying from `trt_lsn` may duplicate tuples already in
        // the snapshot, which is conservative (Section 4.4).
        let trt_lsn = self.db.wal.next_lsn();
        // The schedule-critical instant: between the next_lsn read and the
        // dump, concurrent mutators must leave every tuple either in the
        // dump or in a record at lsn >= trt_lsn (note-before-append
        // guarantees it; see brahma::handle::Txn::create_object).
        brahma::sched::point("ira.ckpt.lsn", trt_lsn);
        let trt_snapshot = self
            .db
            .trt(self.partition)
            .map(|t| t.dump())
            .unwrap_or_default();
        IraCheckpoint {
            partition: self.partition,
            plan: self.plan,
            state: self.state.clone(),
            mapping: self.mapping.sorted_committed(),
            queue: self.state.order.clone(),
            pos,
            trt_snapshot,
            trt_lsn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RelocationPlan;
    use brahma::{Database, LockMode, NewObject, StoreConfig};
    use std::sync::Arc;

    #[test]
    fn config_defaults_are_sane() {
        let c = IraConfig::default();
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.variant, IraVariant::Basic);
        assert!(c.collect_garbage);
        assert!(c.transform.is_none());
        assert!(c.throttle.is_none());
        assert_eq!(c.workers, 1);
        assert_eq!(c.retry, brahma::RetryPolicy::default());
        let e = ExecOptions::default();
        assert_eq!(e.settle, crate::relaxed::SETTLE_POLICY);
        assert!(e.crash_after_migrations.is_none());
    }

    #[test]
    fn empty_partition_reorganizes_trivially() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let report = run_incremental(
            &db,
            p,
            RelocationPlan::CompactInPlace,
            &IraConfig::default(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(report.migrated(), 0);
        assert!(report.garbage.is_empty());
        assert!(!db.reorg_active(p));
    }

    #[test]
    fn retries_exhausted_releases_the_reorganization() {
        // A workload transaction parks on the only parent forever; with a
        // tiny lock timeout and a two-attempt retry policy the driver gives
        // up and releases the reorganization.
        let store = StoreConfig {
            lock_timeout: std::time::Duration::from_millis(20),
            ..StoreConfig::default()
        };
        let db = Arc::new(Database::new(store));
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let o = t
            .create_object(p1, NewObject::exact(1, vec![], vec![]))
            .unwrap();
        let parent = t
            .create_object(p0, NewObject::exact(0, vec![o], vec![]))
            .unwrap();
        t.commit().unwrap();

        // Blocker holds the parent and never finishes (until we drop it).
        let mut blocker = db.begin();
        blocker.lock(parent, LockMode::Exclusive).unwrap();

        let config = IraConfig {
            retry: brahma::RetryPolicy::new(
                2,
                std::time::Duration::from_millis(1),
                std::time::Duration::from_millis(1),
                0,
            ),
            quiesce_wait: std::time::Duration::from_millis(50),
            ..IraConfig::default()
        };
        let err = run_incremental(
            &db,
            p1,
            RelocationPlan::CompactInPlace,
            &config,
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, IraError::RetriesExhausted { .. }));
        assert!(!db.reorg_active(p1), "reorganization must be released");
        assert!(db.retry_stats.giveups.get() >= 1, "giveup must be counted");
        blocker.abort();
        // A later run succeeds.
        let report = run_incremental(
            &db,
            p1,
            RelocationPlan::CompactInPlace,
            &IraConfig::default(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(report.migrated(), 1);
    }

    #[test]
    fn transform_applies_during_migration() {
        fn bump_tag(mut v: brahma::ObjectView) -> brahma::ObjectView {
            v.tag = 42;
            v
        }
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let o = t
            .create_object(p1, NewObject::exact(1, vec![], b"x".to_vec()))
            .unwrap();
        let _anchor = t
            .create_object(p0, NewObject::exact(0, vec![o], vec![]))
            .unwrap();
        t.commit().unwrap();
        let config = IraConfig {
            transform: Some(bump_tag),
            ..IraConfig::default()
        };
        let report = run_incremental(
            &db,
            p1,
            RelocationPlan::CompactInPlace,
            &config,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(db.raw_read(report.mapping[&o]).unwrap().tag, 42);
    }
}
