//! A memory-bounded warm pool: the set of containers kept alive on one
//! generation's node, in slots indexed by raw [`FunctionId`] (trace
//! construction keeps function ids dense in `0..catalog.len()`).
//!
//! Expiry — the most frequent event in a replay (every invocation lapses
//! every node's overdue containers before anything else happens) — runs
//! off a per-pool **expiry timeline**: a min-heap of `(expiry_ms,
//! FunctionId)` entries with **one live entry per function**. A
//! function's slot records the time of its live entry, and every
//! resident container's live entry is due at or before the container's
//! own expiry:
//!
//! * an insert pushes only when the new expiry is earlier than the live
//!   entry's (a shortened keep-alive, or a function with no entry); a
//!   later expiry rides on the entry already there;
//! * when a live entry pops and its container now expires later, it is
//!   pushed again at that expiry;
//! * removals (warm reuse, keep-alive replacement, transfer, revocation)
//!   leave the entry in place: it pops onto an empty slot and expires
//!   nothing. An entry whose time no longer matches its slot's was
//!   superseded by an earlier push and is skipped.
//!
//! [`WarmPool::expire_until`] is therefore O(1) when nothing is due — a
//! heap-top peek — instead of a scan of every resident container, and
//! pops only due entries otherwise. The pool's model test
//! (`tests/pool_properties.rs`) keeps that scan as its reference: over
//! random operation sequences the pool must give every answer a
//! function-ordered map swept in full would give.

use crate::container::WarmContainer;
use ecolife_trace::FunctionId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Expiry-machinery observability counters (surfaced per run through
/// [`RunMetrics`](crate::RunMetrics)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpiryStats {
    /// Containers actually reclaimed by expiry.
    pub expired: u64,
    /// Timeline entries popped.
    pub timeline_pops: u64,
    /// Popped entries that expired nothing: superseded by an earlier
    /// push, left by a container that is gone, or pushed again at their
    /// container's later expiry.
    pub stale_pops: u64,
}

impl ExpiryStats {
    /// Accumulate another pool's counters into this one.
    pub fn absorb(&mut self, other: ExpiryStats) {
        self.expired += other.expired;
        self.timeline_pops += other.timeline_pops;
        self.stale_pops += other.stale_pops;
    }
}

/// `Slot::scheduled_ms` of a function with no live timeline entry.
const UNSCHEDULED: u64 = u64::MAX;

/// One function's place in a pool.
#[derive(Debug, Clone, Copy)]
struct Slot {
    container: Option<WarmContainer>,
    /// Time of the function's one live timeline entry, or
    /// [`UNSCHEDULED`]. At or before `container`'s expiry while it is
    /// resident.
    scheduled_ms: u64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        container: None,
        scheduled_ms: UNSCHEDULED,
    };
}

/// Warm pool with a hard memory budget. At most one container per
/// function per pool (re-keep-alive replaces the entry). Its slots grow
/// to the largest function id inserted.
///
/// In a sharded run several pools share one physical node: each shard
/// owns a pool, and the engine charges the *other* shards' bytes against
/// this pool's budget through [`WarmPool::set_external_used_mib`] (their
/// pools' occupancy at the last reconciliation). The external share
/// counts toward admission ([`WarmPool::fits`]) but is never mutated by
/// this pool's own inserts/removals. Sequential runs leave it at zero.
#[derive(Debug, Clone, Default)]
pub struct WarmPool {
    capacity_mib: u64,
    used_mib: u64,
    /// Bytes held on the same node by other shards' pools (MiB),
    /// refreshed at each reconciliation.
    external_used_mib: u64,
    /// One slot per function, indexed by raw `FunctionId`.
    slots: Vec<Slot>,
    /// Number of resident containers.
    len: usize,
    /// The expiry timeline: min-heap of `(expiry_ms, func)`, one live
    /// entry per function (see the module docs).
    timeline: BinaryHeap<Reverse<(u64, FunctionId)>>,
    stats: ExpiryStats,
}

impl WarmPool {
    pub fn new(capacity_mib: u64) -> Self {
        WarmPool {
            capacity_mib,
            ..WarmPool::default()
        }
    }

    #[inline]
    pub fn capacity_mib(&self) -> u64 {
        self.capacity_mib
    }

    #[inline]
    pub fn used_mib(&self) -> u64 {
        self.used_mib
    }

    /// Expiry-machinery counters accumulated so far.
    #[inline]
    pub fn expiry_stats(&self) -> ExpiryStats {
        self.stats
    }

    /// Other shards' bytes currently charged against this node's budget.
    #[inline]
    pub fn external_used_mib(&self) -> u64 {
        self.external_used_mib
    }

    /// Refresh the cross-shard pressure (the other shards' bytes on this
    /// node) this pool's admission decisions must respect.
    #[inline]
    pub fn set_external_used_mib(&mut self, mib: u64) {
        self.external_used_mib = mib;
    }

    #[inline]
    pub fn free_mib(&self) -> u64 {
        self.capacity_mib
            .saturating_sub(self.used_mib + self.external_used_mib)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `container` fits right now (accounting for an existing
    /// entry of the same function that would be replaced, and for the
    /// other shards' external share of the node).
    pub fn fits(&self, container: &WarmContainer) -> bool {
        let reclaimed = self.get(container.func).map_or(0, |c| c.memory_mib);
        self.used_mib - reclaimed + self.external_used_mib + container.memory_mib
            <= self.capacity_mib
    }

    /// Insert a container. Returns the replaced entry for the same
    /// function, if any.
    ///
    /// # Errors
    /// Returns `Err(container)` without mutating when it does not fit.
    pub fn insert(
        &mut self,
        container: WarmContainer,
    ) -> Result<Option<WarmContainer>, WarmContainer> {
        if !self.fits(&container) {
            return Err(container);
        }
        let idx = container.func.as_usize();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Slot::EMPTY);
        }
        let slot = &mut self.slots[idx];
        if container.expiry_ms < slot.scheduled_ms {
            slot.scheduled_ms = container.expiry_ms;
            self.timeline
                .push(Reverse((container.expiry_ms, container.func)));
        }
        let old = slot.container.replace(container);
        match old {
            Some(ref o) => self.used_mib -= o.memory_mib,
            None => self.len += 1,
        }
        self.used_mib += container.memory_mib;
        Ok(old)
    }

    /// Remove and return the container for `func`. Its timeline entry
    /// stays in place and expires nothing when it pops.
    pub fn remove(&mut self, func: FunctionId) -> Option<WarmContainer> {
        let c = self.slots.get_mut(func.as_usize())?.container.take()?;
        self.len -= 1;
        self.used_mib -= c.memory_mib;
        Some(c)
    }

    /// Container for `func`, if resident.
    #[inline]
    pub fn get(&self, func: FunctionId) -> Option<&WarmContainer> {
        self.slots
            .get(func.as_usize())
            .and_then(|s| s.container.as_ref())
    }

    /// Remove every container with `expiry_ms <= t_ms`, returning them
    /// in `FunctionId` order so the engine can settle their carbon.
    /// The order matters: settlement accumulates floats into per-node
    /// gram totals, so a fixed order is what makes those sums
    /// bit-reproducible run to run (the determinism suite compares them
    /// exactly).
    ///
    /// The overwhelmingly common nothing-is-due case is one heap-top
    /// peek.
    pub fn expire_until(&mut self, t_ms: u64) -> Vec<WarmContainer> {
        // Fast path: nothing due (or nothing resident at all).
        match self.timeline.peek() {
            Some(&Reverse((expiry, _))) if expiry <= t_ms => {}
            _ => return Vec::new(),
        }
        let mut dead: Vec<WarmContainer> = Vec::new();
        while let Some(&Reverse((expiry, func))) = self.timeline.peek() {
            if expiry > t_ms {
                break;
            }
            self.timeline.pop();
            self.stats.timeline_pops += 1;
            let slot = &mut self.slots[func.as_usize()];
            if slot.scheduled_ms != expiry {
                // Superseded by an earlier push for `func`.
                self.stats.stale_pops += 1;
                continue;
            }
            match slot.container {
                Some(c) if c.expiry_ms <= t_ms => {
                    slot.scheduled_ms = UNSCHEDULED;
                    dead.push(self.remove(func).expect("resident container"));
                }
                Some(c) => {
                    // Kept alive past this entry: it moves to the
                    // container's own expiry.
                    slot.scheduled_ms = c.expiry_ms;
                    self.timeline.push(Reverse((c.expiry_ms, func)));
                    self.stats.stale_pops += 1;
                }
                None => {
                    slot.scheduled_ms = UNSCHEDULED;
                    self.stats.stale_pops += 1;
                }
            }
        }
        // The heap yields (expiry, func) order; the engine pins
        // FunctionId order (see above).
        dead.sort_unstable_by_key(|c| c.func);
        self.stats.expired += dead.len() as u64;
        dead
    }

    /// Drain every container (end-of-run settlement), in `FunctionId`
    /// order for the same bit-reproducibility reason as
    /// [`WarmPool::expire_until`].
    pub fn drain_all(&mut self) -> Vec<WarmContainer> {
        self.used_mib = 0;
        self.len = 0;
        self.timeline.clear();
        self.slots.drain(..).filter_map(|s| s.container).collect()
    }

    /// Iterate resident containers in `FunctionId` order.
    pub fn iter(&self) -> impl Iterator<Item = &WarmContainer> {
        self.slots.iter().filter_map(|s| s.container.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(f: u32, mem: u64, since: u64, expiry: u64) -> WarmContainer {
        WarmContainer {
            func: FunctionId(f),
            memory_mib: mem,
            warm_since_ms: since,
            expiry_ms: expiry,
            origin_record: 0,
            transfer_latency_ms: 0,
        }
    }

    #[test]
    fn insert_tracks_memory() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 400, 0, 100)).unwrap();
        p.insert(c(1, 500, 0, 100)).unwrap();
        assert_eq!(p.used_mib(), 900);
        assert_eq!(p.free_mib(), 100);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn insert_rejects_over_capacity_without_mutation() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 800, 0, 100)).unwrap();
        let rejected = p.insert(c(1, 300, 0, 100));
        assert!(rejected.is_err());
        assert_eq!(p.used_mib(), 800);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn replacing_same_function_reclaims_memory() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 800, 0, 100)).unwrap();
        // Same function, smaller footprint: must fit via reclaim.
        let old = p.insert(c(0, 600, 10, 200)).unwrap();
        assert_eq!(old.unwrap().memory_mib, 800);
        assert_eq!(p.used_mib(), 600);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(FunctionId(0)).unwrap().expiry_ms, 200);
    }

    #[test]
    fn fits_accounts_for_replacement() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 900, 0, 100)).unwrap();
        assert!(p.fits(&c(0, 1_000, 0, 100)));
        assert!(!p.fits(&c(1, 200, 0, 100)));
    }

    #[test]
    fn expire_until_removes_only_lapsed() {
        let mut p = WarmPool::new(10_000);
        p.insert(c(0, 100, 0, 50)).unwrap();
        p.insert(c(1, 100, 0, 150)).unwrap();
        p.insert(c(2, 100, 0, 100)).unwrap();
        let dead = p.expire_until(100);
        // Returned in FunctionId order by contract (no re-sort here).
        assert_eq!(dead.len(), 2);
        assert_eq!(dead[0].func, FunctionId(0));
        assert_eq!(dead[1].func, FunctionId(2));
        assert_eq!(p.len(), 1);
        assert_eq!(p.used_mib(), 100);
        assert_eq!(p.expiry_stats().expired, 2);
    }

    #[test]
    fn expire_order_is_function_id_not_expiry_time() {
        // f5 expires before f2, but a single expire_until call must
        // return FunctionId order — the settle order the sequential
        // engine pinned long before the timeline existed.
        let mut p = WarmPool::new(10_000);
        p.insert(c(5, 100, 0, 10)).unwrap();
        p.insert(c(2, 100, 0, 20)).unwrap();
        let dead = p.expire_until(30);
        assert_eq!(dead[0].func, FunctionId(2));
        assert_eq!(dead[1].func, FunctionId(5));
    }

    #[test]
    fn remove_missing_is_none() {
        let mut p = WarmPool::new(100);
        assert!(p.remove(FunctionId(9)).is_none());
    }

    #[test]
    fn drain_all_resets() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 100, 0, 50)).unwrap();
        p.insert(c(1, 100, 0, 50)).unwrap();
        let drained = p.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(p.is_empty());
        assert_eq!(p.used_mib(), 0);
        // A drained pool's timeline holds no live entries: nothing
        // can "expire" afterwards.
        assert!(p.expire_until(u64::MAX).is_empty());
    }

    #[test]
    fn external_pressure_counts_toward_admission() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 400, 0, 100)).unwrap();
        assert_eq!(p.free_mib(), 600);
        p.set_external_used_mib(500);
        assert_eq!(p.free_mib(), 100);
        // 200 MiB no longer fits (400 own + 500 external + 200 > 1000)…
        assert!(p.insert(c(1, 200, 0, 100)).is_err());
        // …but replacing the resident 400-MiB entry still reclaims it.
        assert!(p.fits(&c(0, 500, 10, 200)));
        // Releasing the pressure restores admission; own usage was never
        // confused with the external share.
        p.set_external_used_mib(0);
        assert_eq!(p.used_mib(), 400);
        p.insert(c(1, 200, 0, 100)).unwrap();
        assert_eq!(p.used_mib(), 600);
    }

    #[test]
    fn memory_invariant_under_churn() {
        // used_mib must always equal the sum of resident footprints.
        let mut p = WarmPool::new(5_000);
        for i in 0..20u32 {
            let _ = p.insert(c(i % 7, 100 + (i as u64 * 37) % 400, 0, 1 + i as u64 * 10));
            let expected: u64 = p.iter().map(|c| c.memory_mib).sum();
            assert_eq!(p.used_mib(), expected);
            if i % 3 == 0 {
                p.expire_until(i as u64 * 5);
                let expected: u64 = p.iter().map(|c| c.memory_mib).sum();
                assert_eq!(p.used_mib(), expected);
            }
        }
    }

    #[test]
    fn timeline_skips_tombstones_of_removed_containers() {
        // Warm reuse: the container leaves via remove(); its timeline
        // entry must be recognized as stale, not resurrect an expiry.
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 100, 0, 50)).unwrap();
        assert!(p.remove(FunctionId(0)).is_some());
        assert!(p.expire_until(100).is_empty());
        let stats = p.expiry_stats();
        assert_eq!(stats.stale_pops, 1);
        assert_eq!(stats.expired, 0);
    }

    #[test]
    fn timeline_tracks_keepalive_extension() {
        // Re-keep-alive with a later expiry rides on the scheduled entry:
        // it pops at the old time, expires nothing, and moves to the new.
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 100, 0, 50)).unwrap();
        p.insert(c(0, 100, 10, 500)).unwrap(); // extension
        assert!(p.expire_until(100).is_empty(), "extended, must not lapse");
        assert_eq!(p.expiry_stats().stale_pops, 1, "old entry moved on");
        let dead = p.expire_until(500);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].expiry_ms, 500);
    }

    #[test]
    fn timeline_keeps_one_live_entry_per_function() {
        // Three extensions of one container push nothing: the first
        // entry pops once and finds the container due.
        let mut p = WarmPool::new(1_000);
        for expiry in [50, 100, 150, 200] {
            p.insert(c(0, 100, 0, expiry)).unwrap();
        }
        let dead = p.expire_until(300);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].expiry_ms, 200);
        let stats = p.expiry_stats();
        assert_eq!(stats.expired, 1);
        assert!(stats.timeline_pops <= 2, "{} pops", stats.timeline_pops);
    }

    #[test]
    fn shortened_keepalive_lapses_at_its_new_expiry() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 100, 0, 500)).unwrap();
        p.remove(FunctionId(0)).unwrap();
        p.insert(c(0, 100, 0, 100)).unwrap();
        assert!(p.expire_until(99).is_empty());
        let dead = p.expire_until(100);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].expiry_ms, 100);
        assert!(p.is_empty());
        assert!(p.expire_until(500).is_empty());
        assert_eq!(p.expiry_stats().expired, 1);
    }

    #[test]
    fn timeline_handles_reinserted_same_expiry() {
        // Remove + re-insert with the *same* expiry rides on the entry
        // already scheduled; the container expires exactly once.
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 100, 0, 50)).unwrap();
        let taken = p.remove(FunctionId(0)).unwrap();
        p.insert(taken).unwrap();
        let dead = p.expire_until(50);
        assert_eq!(dead.len(), 1);
        assert!(p.is_empty());
        assert_eq!(p.expiry_stats().expired, 1);
        assert_eq!(p.expiry_stats().stale_pops, 0);
    }

    #[test]
    fn a_sweep_with_nothing_due_pops_nothing() {
        let mut p = WarmPool::new(1_000);
        p.insert(c(0, 100, 0, 50)).unwrap();
        p.expire_until(10); // heap-top peek only — no pops
        p.expire_until(60);
        let s = p.expiry_stats();
        assert_eq!((s.expired, s.timeline_pops, s.stale_pops), (1, 1, 0));
    }
}
