//! Property tests on the warm pool. Over arbitrary interleavings of
//! insert / remove / expire / external-share changes / drain, the pool
//! must give every answer a full-scan model gives: a `FunctionId`-ordered
//! map whose sweep walks every resident, as the pool's original expiry
//! did. The engine reaches a pool only through these calls, so a pool
//! that answers each one like the scan gives every replay the scan's
//! records and event stream.

use ecolife_sim::{WarmContainer, WarmPool};
use ecolife_trace::FunctionId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One pool call. An insert may be a function's first keep-alive, one
/// longer or shorter than its resident's, or one after a removal; a
/// sweep is often earlier than the last one; `External` sets the other
/// shards' bytes on the node.
#[derive(Debug, Clone)]
enum Op {
    Insert { func: u32, mem: u64, expiry: u64 },
    Remove { func: u32 },
    Expire { t: u64 },
    External { mib: u64 },
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let insert = || {
        (0u32..12, 64u64..2_048, 1u64..10_000).prop_map(|(func, mem, expiry)| Op::Insert {
            func,
            mem,
            expiry,
        })
    };
    let expire = || (0u64..10_000).prop_map(|t| Op::Expire { t });
    // Uniform choice, so repeats weight it: inserts and sweeps dominate,
    // external-share changes and drains are rare.
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0u32..12).prop_map(|func| Op::Remove { func }),
        expire(),
        expire(),
        prop_oneof![
            prop_oneof![Just(0u64), 0u64..2_048].prop_map(|mib| Op::External { mib }),
            Just(Op::Drain),
        ],
    ]
}

/// The reference pool: its residents by function, swept by a full scan.
#[derive(Default)]
struct ScanModel {
    capacity_mib: u64,
    external_mib: u64,
    residents: BTreeMap<FunctionId, WarmContainer>,
    expired: u64,
}

impl ScanModel {
    fn used_mib(&self) -> u64 {
        self.residents.values().map(|c| c.memory_mib).sum()
    }

    fn insert(&mut self, c: WarmContainer) -> Result<Option<WarmContainer>, WarmContainer> {
        let reclaimed = self.residents.get(&c.func).map_or(0, |r| r.memory_mib);
        if self.used_mib() - reclaimed + self.external_mib + c.memory_mib > self.capacity_mib {
            return Err(c);
        }
        Ok(self.residents.insert(c.func, c))
    }

    fn expire_until(&mut self, t_ms: u64) -> Vec<WarmContainer> {
        let dead: Vec<WarmContainer> = self
            .residents
            .values()
            .filter(|c| c.expiry_ms <= t_ms)
            .copied()
            .collect();
        for c in &dead {
            self.residents.remove(&c.func);
        }
        self.expired += dead.len() as u64;
        dead
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every answer equals the scan model's — insert and remove results,
    /// each sweep's containers in `FunctionId` order, drains, residents,
    /// `used_mib`, `len` and the expiry count — so the ledger is exact.
    #[test]
    fn memory_ledger_is_exact(capacity in 512u64..8_192, ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut pool = WarmPool::new(capacity);
        let mut model = ScanModel { capacity_mib: capacity, ..ScanModel::default() };
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert { func, mem, expiry } => {
                    let c = WarmContainer {
                        func: FunctionId(func),
                        memory_mib: mem,
                        warm_since_ms: i as u64,
                        expiry_ms: expiry,
                        origin_record: i,
                        transfer_latency_ms: 0,
                    };
                    prop_assert_eq!(pool.insert(c), model.insert(c), "insert, op {}", i);
                }
                Op::Remove { func } => {
                    let func = FunctionId(func);
                    prop_assert_eq!(pool.remove(func), model.residents.remove(&func), "remove, op {}", i);
                }
                Op::Expire { t } => {
                    prop_assert_eq!(pool.expire_until(t), model.expire_until(t), "sweep at {}, op {}", t, i);
                }
                Op::External { mib } => {
                    pool.set_external_used_mib(mib);
                    model.external_mib = mib;
                }
                Op::Drain => {
                    let drained: Vec<WarmContainer> =
                        std::mem::take(&mut model.residents).into_values().collect();
                    prop_assert_eq!(pool.drain_all(), drained, "drain, op {}", i);
                }
            }
            // After every operation.
            let residents: Vec<WarmContainer> = pool.iter().copied().collect();
            let expected: Vec<WarmContainer> = model.residents.values().copied().collect();
            prop_assert_eq!(residents, expected, "residents after op {}", i);
            prop_assert_eq!(pool.used_mib(), model.used_mib(), "ledger drift after op {}", i);
            prop_assert!(pool.used_mib() <= pool.capacity_mib(), "over capacity");
            prop_assert_eq!(pool.len(), model.residents.len());
            let stats = pool.expiry_stats();
            prop_assert_eq!(stats.expired, model.expired);
            prop_assert!(stats.timeline_pops >= stats.expired, "an expiry that never came off the heap");
        }
    }

    #[test]
    fn expire_until_is_complete_and_minimal(
        containers in prop::collection::vec((0u32..64, 64u64..256, 1u64..1_000), 1..30),
        t in 0u64..1_200,
    ) {
        let mut pool = WarmPool::new(1 << 30);
        for (func, mem, expiry) in &containers {
            let _ = pool.insert(WarmContainer {
                func: FunctionId(*func),
                memory_mib: *mem,
                warm_since_ms: 0,
                expiry_ms: *expiry,
                origin_record: 0,
                transfer_latency_ms: 0,
            });
        }
        let dead = pool.expire_until(t);
        // Everything returned was actually expired…
        prop_assert!(dead.iter().all(|c| c.expiry_ms <= t));
        // …and nothing expired remains.
        prop_assert!(pool.iter().all(|c| c.expiry_ms > t));
    }
}
