//! Model-based property test for the lock table: random single-threaded
//! sequences of grants, refusals, releases and history operations by a few
//! transactions over a few addresses, checked step by step against a
//! small reference model. All addresses share one shard, so emptied
//! entries are recycled across addresses; a recycled entry that came back
//! with a stale holder, upgrader, history record or waiter count shows up
//! as a grant or refusal the model disagrees with.

use brahma::{Error, LockManager, LockMode, PartitionId, PhysAddr, TxnId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const TXNS: u64 = 4;
const ADDRS: u16 = 3;

#[derive(Debug, Clone)]
enum Op {
    /// `lock_with_timeout` with a zero timeout: refused requests register
    /// as waiters, time out at once and deregister.
    Lock(u64, u16, bool),
    TryLock(u64, u16, bool),
    Unlock(u64, u16),
    Track(bool),
    DropHistory(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..TXNS, 0..ADDRS, any::<bool>()).prop_map(|(t, a, x)| Op::Lock(t, a, x)),
        3 => (0..TXNS, 0..ADDRS, any::<bool>()).prop_map(|(t, a, x)| Op::TryLock(t, a, x)),
        4 => (0..TXNS, 0..ADDRS).prop_map(|(t, a)| Op::Unlock(t, a)),
        1 => any::<bool>().prop_map(Op::Track),
        1 => (0..TXNS).prop_map(Op::DropHistory),
    ]
}

fn addr(a: u16) -> PhysAddr {
    PhysAddr::new(PartitionId(0), 0, a * 64)
}

fn mode(x: bool) -> LockMode {
    if x {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    }
}

/// Reference state of one address: holders in grant order, and the
/// transactions recorded as ever-holders.
#[derive(Default)]
struct Model {
    holders: Vec<(u64, LockMode)>,
    ever: Vec<u64>,
}

impl Model {
    /// Apply a request; `Some(upgraded)` if granted.
    fn request(&mut self, t: u64, m: LockMode, track: bool) -> Option<bool> {
        let held = self.holders.iter().position(|&(h, _)| h == t);
        let ok = match (held.map(|i| self.holders[i].1), m) {
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => true,
            (Some(LockMode::Shared), LockMode::Exclusive) => self.holders.len() == 1,
            (None, LockMode::Shared) => self.holders.iter().all(|&(_, hm)| hm == LockMode::Shared),
            (None, LockMode::Exclusive) => self.holders.is_empty(),
        };
        if !ok {
            return None;
        }
        let upgraded = match held {
            Some(i) if m == LockMode::Exclusive => {
                let up = self.holders[i].1 == LockMode::Shared;
                self.holders[i].1 = LockMode::Exclusive;
                up
            }
            Some(_) => false,
            None => {
                self.holders.push((t, m));
                false
            }
        };
        if track && !self.ever.contains(&t) {
            self.ever.push(t);
        }
        Some(upgraded)
    }
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lock_table_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let m = LockManager::new(1, Duration::from_secs(1));
        let mut model: BTreeMap<u16, Model> = (0..ADDRS).map(|a| (a, Model::default())).collect();
        let mut track = false;
        let (mut grants, mut upgrades, mut timeouts) = (0u64, 0u64, 0u64);

        for op in ops {
            match op {
                Op::Lock(t, a, x) => {
                    let want = model.get_mut(&a).unwrap().request(t, mode(x), track);
                    let got = m.lock_with_timeout(TxnId(t), addr(a), mode(x), Duration::ZERO);
                    match want {
                        Some(up) => {
                            prop_assert!(got.is_ok(), "{op:?}: model grants, table says {got:?}");
                            grants += 1;
                            upgrades += u64::from(up);
                        }
                        None => {
                            prop_assert!(
                                matches!(got, Err(Error::LockTimeout { .. })),
                                "{op:?}: model refuses, table says {got:?}"
                            );
                            timeouts += 1;
                        }
                    }
                }
                Op::TryLock(t, a, x) => {
                    let want = model.get_mut(&a).unwrap().request(t, mode(x), track);
                    prop_assert_eq!(m.try_lock(TxnId(t), addr(a), mode(x)), want.is_some(), "{:?}", op);
                    if let Some(up) = want {
                        grants += 1;
                        upgrades += u64::from(up);
                    }
                }
                Op::Unlock(t, a) => {
                    model.get_mut(&a).unwrap().holders.retain(|&(h, _)| h != t);
                    m.unlock(TxnId(t), addr(a));
                }
                Op::Track(on) => {
                    track = on;
                    m.set_history_tracking(on);
                }
                Op::DropHistory(t) => {
                    for s in model.values_mut() {
                        s.ever.retain(|&h| h != t);
                    }
                    let all: Vec<PhysAddr> = (0..ADDRS).map(addr).collect();
                    m.drop_history(TxnId(t), &all);
                }
            }
            for (&a, s) in &model {
                let holders: Vec<(u64, LockMode)> =
                    m.holders(addr(a)).into_iter().map(|(t, hm)| (t.0, hm)).collect();
                prop_assert_eq!(&holders, &s.holders, "holders of {} after {:?}", a, op);
                for t in 0..TXNS {
                    let want = s.holders.iter().find(|&&(h, _)| h == t).map(|&(_, hm)| hm);
                    prop_assert_eq!(m.holds(TxnId(t), addr(a)), want);
                }
                let mut ever = s.ever.clone();
                ever.extend(s.holders.iter().map(|&(h, _)| h).filter(|h| !s.ever.contains(h)));
                let got: Vec<u64> = m.ever_holders(addr(a)).into_iter().map(|t| t.0).collect();
                prop_assert_eq!(sorted(got), sorted(ever), "ever-holders of {} after {:?}", a, op);
            }
        }
        prop_assert_eq!(m.stats.acquisitions.get(), grants);
        prop_assert_eq!(m.stats.upgrades.get(), upgrades);
        prop_assert_eq!(m.stats.timeouts.get(), timeouts);
        prop_assert_eq!(m.stats.upgrade_conflicts.get(), 0);

        // Release everything: no entry may be left behind.
        for a in 0..ADDRS {
            for t in 0..TXNS {
                m.unlock(TxnId(t), addr(a));
            }
        }
        let all: Vec<PhysAddr> = (0..ADDRS).map(addr).collect();
        for t in 0..TXNS {
            m.drop_history(TxnId(t), &all);
        }
        prop_assert_eq!(m.table_size(), 0);
    }
}
