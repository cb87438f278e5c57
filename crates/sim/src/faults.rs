//! Deterministic fault injection: crashes, stale CI feeds, partitions.
//!
//! A [`FaultPlan`] is the chaos sibling of
//! [`MembershipPlan`](crate::MembershipPlan): a validated, time-sorted
//! timeline of typed faults that the engine replays *deterministically* —
//! a chaos run is as replayable and bit-pinnable as a clean one, on any
//! shard/thread layout. Three fault types are modeled:
//!
//! * [`Fault::NodeCrash`] — ungraceful node loss: the warm pool is
//!   settled and dropped at the crash instant (`lost_warm_mib`), the
//!   executor queue is cleared, and invocations routed to the node while
//!   it is down become zero-carbon `CrashRejected` records. Recovery is
//!   passive — the node simply accepts placements again.
//! * [`Fault::CiOutage`] — a region's carbon-intensity feed goes stale:
//!   the provider serves last-known-good data for the span
//!   ([`CiProvider::apply_outages`](ecolife_carbon::CiProvider)); past
//!   the [`StalenessPolicy`](ecolife_carbon::StalenessPolicy) bound the
//!   engine falls back to carbon-agnostic placement
//!   (`degraded_decisions`).
//! * [`Fault::Partition`] — the listed regions are isolated from the
//!   rest of the fleet: cross-partition keep-alive transfers fail and
//!   are retried with a bounded, deterministic virtual-clock backoff
//!   ([`FaultPlan::backoff_ms`], `transfer_retries`).
//!
//! Everything defaults off: an empty plan injects nothing and the
//! engine's output is byte-identical to a run without the fault layer.
//! Zero-duration faults (`recover_at == at`, empty spans) are normalized
//! away at construction, so they are no-ops *structurally*, not by
//! run-time luck.

use ecolife_hw::{NodeId, Region};
use std::fmt;

/// One injected fault. Spans are half-open `[from, to)` milliseconds of
/// virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// `node` crashes ungracefully at `at_ms` and recovers (empty) at
    /// `recover_at_ms`.
    NodeCrash {
        node: NodeId,
        at_ms: u64,
        recover_at_ms: u64,
    },
    /// `region`'s carbon-intensity feed serves stale data over the span.
    CiOutage {
        region: Region,
        from_ms: u64,
        to_ms: u64,
    },
    /// `regions` are network-partitioned from the rest of the fleet over
    /// the span (links *within* each side keep working).
    Partition {
        regions: Vec<Region>,
        from_ms: u64,
        to_ms: u64,
    },
}

impl Fault {
    /// When the fault takes effect and when it clears: its span
    /// `[from, to)`.
    pub(crate) fn span(&self) -> (u64, u64) {
        match *self {
            Fault::NodeCrash {
                at_ms,
                recover_at_ms,
                ..
            } => (at_ms, recover_at_ms),
            Fault::CiOutage { from_ms, to_ms, .. } | Fault::Partition { from_ms, to_ms, .. } => {
                (from_ms, to_ms)
            }
        }
    }
}

/// Why a [`FaultPlan`] refused construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A fault ends before it starts.
    InvertedSpan { from_ms: u64, to_ms: u64 },
    /// Two crash spans for the same node overlap — the node would crash
    /// while already down, making the drain accounting ambiguous.
    OverlappingCrash { node: NodeId },
    /// A partition lists no regions; it would isolate nothing.
    EmptyPartition,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvertedSpan { from_ms, to_ms } => {
                write!(
                    f,
                    "fault span ends at {to_ms} ms before it starts at {from_ms} ms"
                )
            }
            FaultError::OverlappingCrash { node } => {
                write!(f, "node {node} has overlapping crash spans")
            }
            FaultError::EmptyPartition => write!(f, "partition lists no regions"),
        }
    }
}

impl std::error::Error for FaultError {}

/// Bounded deterministic retry for transfers that hit a partition or a
/// crashed target. The schedule is a pure function of
/// `(plan seed, seq, attempt)` — see [`FaultPlan::backoff_ms`] — so it
/// is bit-identical at any shard/thread layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base backoff; attempt `k` waits `base << (k-1)` plus a
    /// deterministic jitter below `base`.
    pub base_ms: u64,
    /// How many probes before the transfer gives up and evicts.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 250,
            max_attempts: 3,
        }
    }
}

/// A validated, time-sorted timeline of injected faults plus the
/// degradation knobs (seed, retry policy) a chaos run derives its
/// deterministic choices from.
///
/// Attach to a run with
/// [`Simulation::with_faults`](crate::Simulation::with_faults) (or
/// `Service::with_faults`). The default (empty) plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Normalized faults: zero-duration ones dropped, sorted by start
    /// time (stable, so same-instant faults keep insertion order). The
    /// index into this vec is the fault's identity in event keys.
    faults: Vec<Fault>,
    /// Crash instants `(at_ms, node, fault_idx)` in time order — the
    /// points where the engine timeline drains a pool.
    crashes: Vec<(u64, NodeId, u32)>,
    seed: u64,
    retry: RetryPolicy,
}

impl FaultPlan {
    /// Build a plan from faults, validating spans and crash overlaps.
    /// Zero-duration faults are dropped (structural no-ops).
    pub fn try_new(faults: Vec<Fault>) -> Result<Self, FaultError> {
        for fault in &faults {
            let (from_ms, to_ms) = fault.span();
            if to_ms < from_ms {
                return Err(FaultError::InvertedSpan { from_ms, to_ms });
            }
            if matches!(fault, Fault::Partition { regions, .. } if regions.is_empty()) {
                return Err(FaultError::EmptyPartition);
            }
        }
        // Zero-duration faults cover no time at all.
        let mut faults: Vec<Fault> = faults
            .into_iter()
            .filter(|f| f.span().0 < f.span().1)
            .collect();
        faults.sort_by_key(|f| f.span().0);
        let mut crashes: Vec<(u64, NodeId, u32)> = Vec::new();
        for (idx, fault) in faults.iter().enumerate() {
            if let Fault::NodeCrash {
                node,
                at_ms,
                recover_at_ms,
            } = *fault
            {
                for other in &faults {
                    if let Fault::NodeCrash {
                        node: n2,
                        at_ms: a2,
                        recover_at_ms: r2,
                    } = *other
                    {
                        if n2 == node && a2 != at_ms && a2 < recover_at_ms && at_ms < r2 {
                            return Err(FaultError::OverlappingCrash { node });
                        }
                        if n2 == node && a2 == at_ms && r2 != recover_at_ms {
                            return Err(FaultError::OverlappingCrash { node });
                        }
                    }
                }
                crashes.push((at_ms, node, idx as u32));
            }
        }
        crashes.sort_unstable_by_key(|&(t, node, _)| (t, node.0));
        Ok(FaultPlan {
            faults,
            crashes,
            seed: 0,
            retry: RetryPolicy::default(),
        })
    }

    /// Append a node crash. Panics on an invalid plan (builder sugar
    /// mirroring [`MembershipPlan`](crate::MembershipPlan); use
    /// [`FaultPlan::try_new`] for fallible construction).
    pub fn crash(self, node: NodeId, at_ms: u64, recover_at_ms: u64) -> Self {
        self.push(Fault::NodeCrash {
            node,
            at_ms,
            recover_at_ms,
        })
    }

    /// Append a CI-feed outage. Panics on an invalid plan.
    pub fn ci_outage(self, region: Region, from_ms: u64, to_ms: u64) -> Self {
        self.push(Fault::CiOutage {
            region,
            from_ms,
            to_ms,
        })
    }

    /// Append a partition isolating `regions` from the rest of the
    /// fleet. Panics on an invalid plan.
    pub fn partition(self, regions: Vec<Region>, from_ms: u64, to_ms: u64) -> Self {
        self.push(Fault::Partition {
            regions,
            from_ms,
            to_ms,
        })
    }

    fn push(self, fault: Fault) -> Self {
        let seed = self.seed;
        let retry = self.retry;
        let mut faults = self.faults;
        faults.push(fault);
        let plan = Self::try_new(faults).expect("invalid fault");
        plan.with_seed(seed).with_retry(retry)
    }

    /// Seed the deterministic jitter of the retry backoff.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the transfer retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// No faults at all — the engine skips the fault layer entirely.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of (normalized) faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The normalized faults in start-time order; the index is the
    /// fault's identity in telemetry event keys.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The retry policy transfers use under partitions/crashes.
    #[inline]
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Crash instants `(at_ms, node, fault_idx)` in time order — the
    /// engine timeline's pool-drain points.
    pub(crate) fn crash_changes(&self) -> &[(u64, NodeId, u32)] {
        &self.crashes
    }

    /// Is `node` down at `t_ms`? Pure in `t` — no cursor, so sharded
    /// and sequential replays agree by construction.
    #[inline]
    pub fn is_crashed(&self, node: NodeId, t_ms: u64) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        self.faults.iter().any(|f| {
            matches!(*f, Fault::NodeCrash { node: n, at_ms, recover_at_ms }
                if n == node && at_ms <= t_ms && t_ms < recover_at_ms)
        })
    }

    /// Can a transfer cross from region `a` to region `b` at `t_ms`?
    /// Same-region moves always can; a cross-region move fails while any
    /// active partition puts `a` and `b` on opposite sides.
    pub fn link_ok(&self, a: Region, b: Region, t_ms: u64) -> bool {
        if a == b || self.faults.is_empty() {
            return true;
        }
        !self.faults.iter().any(|f| match f {
            Fault::Partition {
                regions,
                from_ms,
                to_ms,
            } if *from_ms <= t_ms && t_ms < *to_ms => regions.contains(&a) != regions.contains(&b),
            _ => false,
        })
    }

    /// Regions whose CI feed is *blacked out* at `t_ms`: stale past
    /// `max_stale_ms`. Yields in fault order (may repeat a region under
    /// overlapping outages — callers treat this as "any").
    pub fn blackout_regions(
        &self,
        t_ms: u64,
        max_stale_ms: u64,
    ) -> impl Iterator<Item = Region> + '_ {
        self.faults.iter().filter_map(move |f| match *f {
            Fault::CiOutage {
                region,
                from_ms,
                to_ms,
            } if t_ms < to_ms && t_ms >= from_ms.saturating_add(max_stale_ms) => Some(region),
            _ => None,
        })
    }

    /// CI outage spans `(region, from_ms, to_ms)` for
    /// [`CiProvider::apply_outages`](ecolife_carbon::CiProvider).
    pub fn outage_spans(&self) -> Vec<(Region, u64, u64)> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::CiOutage {
                    region,
                    from_ms,
                    to_ms,
                } => Some((region, from_ms, to_ms)),
                _ => None,
            })
            .collect()
    }

    /// Total stale-feed minutes over `[0, horizon_ms)` for outages whose
    /// region is served to some fleet node (`covered` decides). Input
    /// derived — identical however the run is sharded.
    pub fn stale_ci_minutes(&self, horizon_ms: u64, covered: impl Fn(Region) -> bool) -> u64 {
        self.faults
            .iter()
            .map(|f| match *f {
                Fault::CiOutage {
                    region,
                    from_ms,
                    to_ms,
                } if covered(region) && from_ms < horizon_ms => to_ms
                    .min(horizon_ms)
                    .saturating_sub(from_ms)
                    .div_ceil(60_000),
                _ => 0,
            })
            .sum()
    }

    /// Deterministic backoff before retry `attempt` (counted from 1) of
    /// transfer `seq`: exponential in the attempt with a seeded
    /// splitmix64 jitter below `base_ms`. Pure in its inputs — the whole
    /// retry schedule is bit-identical at any shard/thread layout.
    pub fn backoff_ms(&self, seq: u64, attempt: u32) -> u64 {
        let base = self.retry.base_ms.max(1);
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seq)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(attempt as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (base << (attempt.saturating_sub(1)).min(16)) + (x % base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_drops_zero_duration_faults() {
        let plan = FaultPlan::default()
            .partition(vec![Region::Texas], 500, 900)
            .crash(NodeId(1), 300, 300) // zero-duration: dropped
            .ci_outage(Region::Caiso, 100, 100) // dropped
            .crash(NodeId(0), 200, 400);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.faults()[0].span().0, 200);
        assert_eq!(plan.crash_changes(), &[(200, NodeId(0), 0)]);
        assert!(FaultPlan::default().crash(NodeId(1), 300, 300).is_empty());
    }

    #[test]
    fn plan_rejects_inverted_and_overlapping_spans() {
        assert_eq!(
            FaultPlan::try_new(vec![Fault::CiOutage {
                region: Region::Texas,
                from_ms: 100,
                to_ms: 50,
            }]),
            Err(FaultError::InvertedSpan {
                from_ms: 100,
                to_ms: 50
            })
        );
        assert_eq!(
            FaultPlan::try_new(vec![
                Fault::NodeCrash {
                    node: NodeId(2),
                    at_ms: 100,
                    recover_at_ms: 300,
                },
                Fault::NodeCrash {
                    node: NodeId(2),
                    at_ms: 200,
                    recover_at_ms: 400,
                },
            ]),
            Err(FaultError::OverlappingCrash { node: NodeId(2) })
        );
        assert_eq!(
            FaultPlan::try_new(vec![Fault::Partition {
                regions: vec![],
                from_ms: 0,
                to_ms: 10,
            }]),
            Err(FaultError::EmptyPartition)
        );
        // Back-to-back crash spans for one node are fine.
        assert!(FaultPlan::try_new(vec![
            Fault::NodeCrash {
                node: NodeId(2),
                at_ms: 100,
                recover_at_ms: 300,
            },
            Fault::NodeCrash {
                node: NodeId(2),
                at_ms: 300,
                recover_at_ms: 400,
            },
        ])
        .is_ok());
    }

    #[test]
    fn crash_and_link_queries_are_pure_in_time() {
        let plan = FaultPlan::default().crash(NodeId(0), 100, 200).partition(
            vec![Region::Texas, Region::Florida],
            50,
            150,
        );
        assert!(!plan.is_crashed(NodeId(0), 99));
        assert!(plan.is_crashed(NodeId(0), 100));
        assert!(plan.is_crashed(NodeId(0), 199));
        assert!(!plan.is_crashed(NodeId(0), 200)); // half-open
        assert!(!plan.is_crashed(NodeId(1), 150));
        // Partition splits {TEX, FLA} from the rest.
        assert!(!plan.link_ok(Region::Texas, Region::Caiso, 100));
        assert!(!plan.link_ok(Region::NewYork, Region::Florida, 100));
        assert!(plan.link_ok(Region::Texas, Region::Florida, 100)); // same side
        assert!(plan.link_ok(Region::Caiso, Region::NewYork, 100)); // same side
        assert!(plan.link_ok(Region::Texas, Region::Texas, 100)); // same region
        assert!(plan.link_ok(Region::Texas, Region::Caiso, 150)); // healed
    }

    #[test]
    fn blackout_respects_the_staleness_bound() {
        let plan = FaultPlan::default().ci_outage(Region::Caiso, 60_000, 600_000);
        let stale_bound = 120_000; // 2 minutes
        assert_eq!(plan.blackout_regions(60_000, stale_bound).count(), 0);
        assert_eq!(plan.blackout_regions(179_999, stale_bound).count(), 0);
        assert_eq!(
            plan.blackout_regions(180_000, stale_bound)
                .collect::<Vec<_>>(),
            vec![Region::Caiso]
        );
        assert_eq!(plan.blackout_regions(600_000, stale_bound).count(), 0);
        assert_eq!(plan.stale_ci_minutes(600_000, |_| true), 9);
        assert_eq!(plan.stale_ci_minutes(600_000, |_| false), 0);
        assert_eq!(plan.stale_ci_minutes(120_000, |r| r == Region::Caiso), 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_seeded() {
        let plan = FaultPlan::default().crash(NodeId(0), 0, 1);
        for seq in [0u64, 7, 123_456] {
            for attempt in 1..=3u32 {
                let b = plan.backoff_ms(seq, attempt);
                assert_eq!(b, plan.backoff_ms(seq, attempt), "pure function");
                let floor = 250u64 << (attempt - 1);
                assert!(b >= floor && b < floor + 250, "bounded jitter: {b}");
            }
        }
        let reseeded = plan.clone().with_seed(42);
        assert_ne!(
            (1..=8).map(|a| plan.backoff_ms(9, a)).collect::<Vec<_>>(),
            (1..=8)
                .map(|a| reseeded.backoff_ms(9, a))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn fault_error_displays_and_is_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(FaultError::InvertedSpan {
                from_ms: 9,
                to_ms: 3,
            }),
            Box::new(FaultError::OverlappingCrash { node: NodeId(4) }),
            Box::new(FaultError::EmptyPartition),
        ];
        let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("ends at 3 ms"));
        assert!(rendered[1].contains("overlapping crash"));
        assert!(rendered[2].contains("no regions"));
    }
}
