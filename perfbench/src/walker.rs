//! The benchmark's closed-loop walker: the `workload::walker::walk_once`
//! access pattern under strict 2PL, issued through the public `Txn` API so
//! that each call can be timed from outside the program.

use crate::trace::{Layer, NoProbe, Probe, SpanLog, TraceProbe, SPAN_SAMPLE};
use brahma::{Database, Error, LockMode, PhysAddr};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workload::{GraphInfo, WorkloadParams};

/// Walkers run but record nothing (warm-up, checks between compactions).
pub const IDLE: u8 = 0;
/// Walkers record into the current slice, untimed.
pub const PLAIN: u8 = 1;
/// Walkers time every call and record into the current slice.
pub const TRACED: u8 = 2;
/// Walkers finish their current logical transaction and return.
pub const STOP: u8 = 3;

/// What the walkers do next, and into which slice of the measured window
/// they record; set by the main thread, read by each walker before every
/// logical transaction.
pub struct Control {
    /// `slice << 8 | state`.
    word: AtomicU64,
}

impl Control {
    pub fn new() -> Self {
        Control {
            word: AtomicU64::new(IDLE as u64),
        }
    }

    pub fn set(&self, state: u8, slice: usize) {
        // ordering: Relaxed; the word publishes no data, walkers only
        // decide which tally their next transaction lands in.
        self.word
            .store((slice as u64) << 8 | state as u64, Ordering::Relaxed);
    }

    fn get(&self) -> (u8, usize) {
        // ordering: Relaxed; see `set`.
        let w = self.word.load(Ordering::Relaxed);
        (w as u8, (w >> 8) as usize)
    }
}

/// Counts of one slice of the measured window.
#[derive(Default)]
pub struct Tally {
    /// Logical transactions, every one of them committed.
    pub committed: u64,
    /// Attempts aborted by a retryable conflict (lock timeout, upgrade
    /// conflict) or by an object that moved, and then retried.
    pub aborted: u64,
    /// Response time of every committed logical transaction, across its
    /// attempts, in nanoseconds.
    pub response_ns: Vec<u64>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.response_ns.extend(other.response_ns);
    }
}

/// A walker's results: one tally per slice of the measured window, and
/// the per-call timers and spans of the traced slices.
pub struct WalkerOut {
    pub slices: Vec<Tally>,
    pub probe: TraceProbe,
}

/// One walker thread's inputs.
pub struct Walker<'a> {
    pub db: &'a Database,
    pub info: &'a GraphInfo,
    pub params: &'a WorkloadParams,
    /// Index of the home partition in `info.data_partitions`.
    pub home: usize,
    pub rng: StdRng,
}

enum Attempt {
    Committed,
    Aborted,
}

impl Walker<'_> {
    /// Run closed-loop logical transactions until `ctl` says stop. A
    /// non-retryable error ends the walker with that error.
    pub fn run(mut self, ctl: &Control, epoch: Instant, thread: u32) -> Result<WalkerOut, Error> {
        let mut out = WalkerOut {
            slices: Vec::new(),
            probe: TraceProbe::new(SpanLog::new(epoch, thread)),
        };
        let mut idle = Tally::default();
        let mut payload = vec![0u8; self.params.payload_size];
        let mut traced_seq = 0u64;
        loop {
            let (state, slice) = ctl.get();
            if state == STOP {
                return Ok(out);
            }
            if state == IDLE {
                self.logical(&mut NoProbe, &mut idle, &mut payload)?;
                idle.response_ns.clear();
                continue;
            }
            if out.slices.len() <= slice {
                out.slices.resize_with(slice + 1, Tally::default);
            }
            let tally = &mut out.slices[slice];
            if state == TRACED {
                traced_seq += 1;
                out.probe.sampled = traced_seq.is_multiple_of(SPAN_SAMPLE);
                self.logical(&mut out.probe, tally, &mut payload)?;
            } else {
                self.logical(&mut NoProbe, tally, &mut payload)?;
            }
        }
    }

    /// One logical transaction: attempts until one commits (the store's
    /// default retry policy resubmits immediately), also after `STOP`, so
    /// that every logical transaction started ends committed; its response
    /// time spans every attempt.
    fn logical<P: Probe>(
        &mut self,
        probe: &mut P,
        tally: &mut Tally,
        payload: &mut [u8],
    ) -> Result<(), Error> {
        let start = Instant::now();
        let txn_span = probe.open("txn");
        loop {
            let attempt_span = probe.open("attempt");
            let outcome = self.attempt(probe, payload);
            probe.close(attempt_span);
            match outcome? {
                Attempt::Committed => {
                    tally.committed += 1;
                    tally.response_ns.push(start.elapsed().as_nanos() as u64);
                    break;
                }
                Attempt::Aborted => tally.aborted += 1,
            }
        }
        probe.close(txn_span);
        Ok(())
    }

    /// One attempt of a walk, as `workload::walker::walk_once` makes it:
    /// enter through the home partition's root object, then `ops_per_trans`
    /// hops, each locking the current object (exclusive with probability
    /// `update_prob`, then overwriting its payload), reading its references
    /// and moving to a random one.
    fn attempt<P: Probe>(&mut self, probe: &mut P, payload: &mut [u8]) -> Result<Attempt, Error> {
        let db = self.db;
        let mut txn = probe.call(Layer::Begin, || db.begin());
        let roots = probe.call(Layer::Roots, || db.roots());
        let Some(&root_obj) = roots.get(self.info.root_index[self.home]) else {
            probe.call(Layer::Abort, || txn.abort());
            return Ok(Attempt::Aborted);
        };
        let mut current: PhysAddr = root_obj;
        let mut hops = 0;
        loop {
            let mode = if hops == 0 {
                LockMode::Shared
            } else if self.rng.gen_bool(self.params.update_prob) {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let locked = probe.call(Layer::Lock, || txn.lock(current, mode));
            let refs =
                match locked.and_then(|()| probe.call(Layer::Read, || txn.read_refs(current))) {
                    Ok(refs) => refs,
                    Err(e) if e.is_retryable_conflict() || matches!(e, Error::NoSuchObject(_)) => {
                        probe.call(Layer::Abort, || txn.abort());
                        return Ok(Attempt::Aborted);
                    }
                    Err(e) => return Err(e),
                };
            if mode == LockMode::Exclusive {
                self.rng.fill(&mut payload[..]);
                match probe.call(Layer::Write, || txn.set_payload(current, payload)) {
                    Ok(()) => {}
                    Err(e) if e.is_retryable_conflict() => {
                        probe.call(Layer::Abort, || txn.abort());
                        return Ok(Attempt::Aborted);
                    }
                    Err(e) => return Err(e),
                }
            }
            // The root object's references are the cluster roots; every
            // other hop follows a tree edge or the extra edge.
            if refs.is_empty() || hops == self.params.ops_per_trans {
                break;
            }
            current = refs[self.rng.gen_range(0..refs.len())];
            hops += 1;
        }
        match probe.call(Layer::Commit, || txn.commit()) {
            Ok(()) => Ok(Attempt::Committed),
            Err(e) if e.is_retryable_conflict() => Ok(Attempt::Aborted),
            Err(e) => Err(e),
        }
    }
}
