//! The scheduler interface the engine drives.
//!
//! A scheduler makes two decisions per invocation (the paper's EPDM and
//! KDM respectively):
//!
//! 1. **execution placement** — which fleet node executes the function
//!    (forced to the warm location when a warm container exists; the
//!    engine enforces this, per Sec. IV-D);
//! 2. **keep-alive** — where and for how long to keep the function warm
//!    after execution ([`KeepAliveChoice`]).
//!
//! When a keep-alive does not fit its target pool, the engine calls
//! [`Scheduler::on_pool_overflow`], which is where EcoLife's warm-pool
//! adjustment plugs in; the default resolution drops the incoming
//! keep-alive (what a plain fixed-policy platform does). An
//! [`AdjustPlan`] may rank the transfer targets for displaced containers
//! explicitly; with no ranking the engine tries the remaining fleet nodes
//! in id order.

use crate::cluster::Cluster;
use ecolife_carbon::CiProvider;
use ecolife_hw::NodeId;
use ecolife_trace::{FunctionId, FunctionProfile, Trace};

/// The keep-alive half of a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepAliveChoice {
    /// Which node's pool hosts the warm container.
    pub location: NodeId,
    /// Keep-alive period (ms); `0` is rejected — use
    /// [`Decision::keepalive`] `= None` for "don't keep alive".
    pub duration_ms: u64,
}

/// A scheduler's full answer for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Where to execute. Ignored (overridden by the engine) when the
    /// function is already warm somewhere.
    pub exec: NodeId,
    /// Keep-alive placement after execution; `None` = let the container
    /// die immediately.
    pub keepalive: Option<KeepAliveChoice>,
}

/// Everything a scheduler may consult when deciding (no future!).
#[derive(Debug)]
pub struct InvocationCtx<'a> {
    /// Position of this invocation in the trace.
    pub index: usize,
    /// The invoked function.
    pub func: FunctionId,
    /// Its profile.
    pub profile: &'a FunctionProfile,
    /// Arrival time (ms).
    pub t_ms: u64,
    /// Where the function is warm right now, if anywhere.
    pub warm_at: Option<NodeId>,
    /// Per-node carbon-intensity resolution: `ci.at(node, t_ms)` is the
    /// intensity *that node's grid* is at — on a multi-region fleet
    /// different nodes see different values at the same instant, which
    /// is exactly the signal cross-region placement trades on.
    /// Schedulers must not peek at minutes beyond `t_ms` — the oracle
    /// family reads its future knowledge through this provider. Global
    /// signals like EcoLife's ΔCI derive from
    /// [`CiProvider::distinct_regions`] purely as a function of
    /// simulated time and region, which keeps them identical between a
    /// whole-trace run and any per-function shard of it.
    pub ci: &'a CiProvider<'a>,
    /// Cluster state (pools, fleet) — read-only.
    pub cluster: &'a Cluster,
}

/// Context handed to the overflow handler.
#[derive(Debug)]
pub struct OverflowCtx<'a> {
    /// The pool that overflowed.
    pub location: NodeId,
    /// The keep-alive that did not fit.
    pub incoming_func: FunctionId,
    pub incoming_memory_mib: u64,
    /// Current time (ms).
    pub t_ms: u64,
    /// Carbon intensity on the overflowing node's own grid, now.
    pub ci_now: f64,
    /// Carbon intensity now on every fleet node's grid (indexed by
    /// `NodeId`) — transfer-target ranking compares these on a
    /// multi-region fleet.
    pub ci_by_node: Vec<f64>,
    /// Cluster state — read-only; mutations are expressed via
    /// [`AdjustPlan`].
    pub cluster: &'a Cluster,
}

/// How to resolve an overflow.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdjustPlan {
    /// Containers to remove from the overflowing pool, in order. Each is
    /// transferred into the first transfer-target pool with room,
    /// otherwise fully evicted (counted in the metrics).
    pub displace: Vec<FunctionId>,
    /// Whether to place the incoming keep-alive after displacement
    /// (if it fits by then; otherwise it is dropped and counted).
    pub place_incoming: bool,
    /// Candidate pools for displaced containers, tried in order; the
    /// overflowing pool itself is never a valid target and is skipped.
    /// `None` = every other fleet node in id order (the two-node
    /// behavior: "kept warm in the other generation's memory if there is
    /// enough space"); `Some(vec![])` = transfer nowhere, displaced
    /// containers are evicted (single-node restricted schemes).
    pub transfer_targets: Option<Vec<NodeId>>,
}

/// Overflow resolution options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverflowAction {
    /// Drop the incoming keep-alive (function simply is not kept warm).
    Drop,
    /// Apply a warm-pool adjustment.
    Adjust(AdjustPlan),
}

/// A scheduling policy.
pub trait Scheduler {
    /// Human-readable scheme name (figure legends).
    fn name(&self) -> &'static str;

    /// Called once before the run. Oracle-family baselines precompute
    /// future knowledge here; online schedulers typically ignore it.
    fn prepare(&mut self, _trace: &Trace) {}

    /// Decide execution placement and keep-alive for one invocation.
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision;

    /// Resolve a keep-alive that does not fit `ctx.location`'s pool.
    fn on_pool_overflow(&mut self, _ctx: &OverflowCtx<'_>) -> OverflowAction {
        OverflowAction::Drop
    }

    /// Observe the outcome of an invocation (service time ms, warm?).
    /// Online schedulers update their predictors here.
    fn observe(&mut self, _ctx: &InvocationCtx<'_>, _service_ms: u64, _warm: bool) {}
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn prepare(&mut self, trace: &Trace) {
        (**self).prepare(trace)
    }
    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        (**self).decide(ctx)
    }
    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        (**self).on_pool_overflow(ctx)
    }
    fn observe(&mut self, ctx: &InvocationCtx<'_>, service_ms: u64, warm: bool) {
        (**self).observe(ctx, service_ms, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial policy for interface-level tests.
    struct AlwaysNewest;
    impl Scheduler for AlwaysNewest {
        fn name(&self) -> &'static str {
            "always-newest"
        }
        fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
            let newest = ctx.cluster.fleet().newest();
            Decision {
                exec: newest,
                keepalive: Some(KeepAliveChoice {
                    location: newest,
                    duration_ms: 600_000,
                }),
            }
        }
    }

    #[test]
    fn default_overflow_drops() {
        let cluster = Cluster::new(ecolife_hw::skus::fleet_a());
        let mut s = AlwaysNewest;
        let ctx = OverflowCtx {
            location: NodeId(1),
            incoming_func: FunctionId(0),
            incoming_memory_mib: 128,
            t_ms: 0,
            ci_now: 100.0,
            ci_by_node: vec![100.0, 100.0],
            cluster: &cluster,
        };
        assert_eq!(s.on_pool_overflow(&ctx), OverflowAction::Drop);
        assert_eq!(s.name(), "always-newest");
    }

    #[test]
    fn adjust_plan_default_is_empty() {
        let p = AdjustPlan::default();
        assert!(p.displace.is_empty());
        assert!(!p.place_incoming);
        assert!(p.transfer_targets.is_none());
    }
}
