//! Warm-pool adjustment: the priority-eviction mechanism of Sec. IV-C
//! (Fig. 6).
//!
//! When a keep-alive does not fit its target pool, EcoLife ranks every
//! resident container *plus the incoming one* by the benefit of keeping
//! it warm (service-time + carbon difference between a cold and a warm
//! start, per memory unit), greedily packs the pool by descending
//! priority, displaces the losers, and hands the engine an explicit
//! transfer-target ranking — the remaining fleet nodes, cheapest
//! keep-alive first — so displaced containers land on the least costly
//! pool with room (the two-node case: "evicted function is kept warm in
//! the other generation's memory if there is enough space").
//!
//! One packing routine, [`priority_adjustment_with_targets`], serves
//! every caller; what differs is where each candidate's benefit comes
//! from. EcoLife's hot path reads it from its
//! [`ObjectiveTables`](crate::objective::ObjectiveTables) rows (one
//! lookup per resident) together with the memoized transfer ranking;
//! the brute-force baselines (and EcoLife's test oracle) compute
//! [`CostModel::keepalive_benefit`] directly. Both give bit-identical
//! densities, hence identical plans.

use crate::objective::CostModel;
use ecolife_hw::NodeId;
use ecolife_sim::{AdjustPlan, OverflowCtx};
use ecolife_trace::{FunctionId, FunctionProfile, WorkloadCatalog};

/// Build the adjustment plan for an overflow, with every candidate's
/// cold-vs-warm benefit weighted equally (used by the brute-force
/// baselines, which re-derive keep-alive value per invocation anyway).
pub fn priority_adjustment(
    cost: &CostModel,
    catalog: &WorkloadCatalog,
    ctx: &OverflowCtx<'_>,
) -> AdjustPlan {
    priority_adjustment_with_targets(
        catalog,
        ctx,
        |_, f| cost.keepalive_benefit(ctx.location, f, &ctx.ci_by_node),
        cost.transfer_ranking(ctx.location, &ctx.ci_by_node),
    )
}

/// Build the adjustment plan for an overflow from each candidate's
/// weighted keep-alive benefit and a precomputed transfer-target ranking.
///
/// `weighted_benefit(func, profile)` is the benefit of keeping `func`
/// warm on `ctx.location`, scaled by the probability its warm container
/// is actually reused — EcoLife feeds its online `P(warm)` estimate
/// here, so a huge-benefit container for a function that has gone quiet
/// ranks below a modest container for a drumbeat function. Packing is
/// by priority *density* (weighted benefit per MiB): with a hard memory
/// budget, value per byte is the quantity that maximizes total retained
/// benefit under greedy packing.
pub fn priority_adjustment_with_targets(
    catalog: &WorkloadCatalog,
    ctx: &OverflowCtx<'_>,
    mut weighted_benefit: impl FnMut(FunctionId, &FunctionProfile) -> f64,
    transfer_targets: Vec<NodeId>,
) -> AdjustPlan {
    struct Candidate {
        func: FunctionId,
        memory_mib: u64,
        density: f64,
        incoming: bool,
    }

    let pool = ctx.cluster.pool(ctx.location);
    let residents = pool.iter().map(|c| (c.func, c.memory_mib, false));
    let incoming = (ctx.incoming_func, ctx.incoming_memory_mib, true);
    let mut candidates: Vec<Candidate> = residents
        .chain(std::iter::once(incoming))
        .map(|(func, memory_mib, incoming)| Candidate {
            func,
            memory_mib,
            density: weighted_benefit(func, catalog.profile(func)) / memory_mib.max(1) as f64,
            incoming,
        })
        .collect();

    // Highest benefit density first; ties broken by function id for
    // determinism.
    candidates.sort_by(|a, b| {
        b.density
            .partial_cmp(&a.density)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.func.cmp(&b.func))
    });

    let capacity = pool.capacity_mib();
    let mut used = 0u64;
    let mut keep_incoming = false;
    let mut displace = Vec::new();
    for c in &candidates {
        if used + c.memory_mib <= capacity {
            used += c.memory_mib;
            if c.incoming {
                keep_incoming = true;
            }
        } else if !c.incoming {
            displace.push(c.func);
        }
    }

    AdjustPlan {
        displace,
        place_incoming: keep_incoming,
        transfer_targets: Some(transfer_targets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_carbon::CarbonModel;
    use ecolife_hw::skus;
    use ecolife_sim::{Cluster, WarmContainer};

    fn catalog() -> WorkloadCatalog {
        WorkloadCatalog::sebs()
    }

    fn cost() -> CostModel {
        CostModel::new(skus::fleet_a(), CarbonModel::default(), 0.5, 0.5, 600_000)
    }

    fn container(cat: &WorkloadCatalog, name: &str, expiry: u64) -> WarmContainer {
        let (id, p) = cat.by_name(name).unwrap();
        WarmContainer {
            func: id,
            memory_mib: p.memory_mib,
            warm_since_ms: 0,
            expiry_ms: expiry,
            origin_record: 0,
            transfer_latency_ms: 0,
        }
    }

    #[test]
    fn incoming_with_high_benefit_displaces_low_benefit_resident() {
        let cat = catalog();
        // Pool of 4 GiB: dna-visualization (4096 MiB, long exec but modest
        // cold-start benefit per MiB) is resident; image-recognition
        // (1024 MiB, 4 s cold start vs 0.8 s exec → huge benefit density)
        // arrives.
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(4_096);
        let mut cluster = Cluster::new(fleet);
        cluster
            .pool_mut(NodeId(1))
            .insert(container(&cat, "504.dna-visualization", 600_000))
            .unwrap();
        let (inc_id, inc_p) = cat.by_name("411.image-recognition").unwrap();
        let ctx = OverflowCtx {
            location: NodeId(1),
            incoming_func: inc_id,
            incoming_memory_mib: inc_p.memory_mib,
            t_ms: 1_000,
            ci_now: 300.0,
            ci_by_node: vec![300.0, 300.0],
            cluster: &cluster,
        };
        let plan = priority_adjustment(&cost(), &cat, &ctx);
        assert!(plan.place_incoming);
        let (dna_id, _) = cat.by_name("504.dna-visualization").unwrap();
        assert_eq!(plan.displace, vec![dna_id]);
    }

    #[test]
    fn incoming_with_low_benefit_is_not_placed() {
        let cat = catalog();
        // Pool of 1 GiB holds image-recognition (1024 MiB, high benefit);
        // dna-visualization (4096 MiB — can never fit anyway) arrives.
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(1_024);
        let mut cluster = Cluster::new(fleet);
        cluster
            .pool_mut(NodeId(1))
            .insert(container(&cat, "411.image-recognition", 600_000))
            .unwrap();
        let (dna_id, dna_p) = cat.by_name("504.dna-visualization").unwrap();
        let ctx = OverflowCtx {
            location: NodeId(1),
            incoming_func: dna_id,
            incoming_memory_mib: dna_p.memory_mib,
            t_ms: 1_000,
            ci_now: 300.0,
            ci_by_node: vec![300.0, 300.0],
            cluster: &cluster,
        };
        let plan = priority_adjustment(&cost(), &cat, &ctx);
        assert!(!plan.place_incoming);
        assert!(plan.displace.is_empty(), "resident should be retained");
    }

    #[test]
    fn packing_respects_capacity() {
        let cat = catalog();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(640);
        let mut cluster = Cluster::new(fleet);
        // 512 + 128 = 640 fills the pool exactly.
        cluster
            .pool_mut(NodeId(0))
            .insert(container(&cat, "220.video-processing", 600_000))
            .unwrap();
        cluster
            .pool_mut(NodeId(0))
            .insert(container(&cat, "210.thumbnailer", 600_000))
            .unwrap();
        let (inc_id, inc_p) = cat.by_name("311.compression").unwrap();
        let ctx = OverflowCtx {
            location: NodeId(0),
            incoming_func: inc_id,
            incoming_memory_mib: inc_p.memory_mib,
            t_ms: 0,
            ci_now: 200.0,
            ci_by_node: vec![200.0, 200.0],
            cluster: &cluster,
        };
        let plan = priority_adjustment(&cost(), &cat, &ctx);
        // Whatever the ranking, the kept set must fit in 640 MiB.
        let displaced: std::collections::HashSet<_> = plan.displace.iter().copied().collect();
        let mut kept: u64 = cluster
            .pool(NodeId(0))
            .iter()
            .filter(|c| !displaced.contains(&c.func))
            .map(|c| c.memory_mib)
            .sum();
        if plan.place_incoming {
            kept += inc_p.memory_mib;
        }
        assert!(kept <= 640, "kept {kept} MiB > capacity");
    }

    #[test]
    fn plan_is_deterministic() {
        let cat = catalog();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(1_024);
        let mut cluster = Cluster::new(fleet);
        cluster
            .pool_mut(NodeId(1))
            .insert(container(&cat, "210.thumbnailer", 600_000))
            .unwrap();
        cluster
            .pool_mut(NodeId(1))
            .insert(container(&cat, "110.dynamic-html", 600_000))
            .unwrap();
        let (inc_id, inc_p) = cat.by_name("220.video-processing").unwrap();
        let ctx = OverflowCtx {
            location: NodeId(1),
            incoming_func: inc_id,
            incoming_memory_mib: inc_p.memory_mib,
            t_ms: 0,
            ci_now: 250.0,
            ci_by_node: vec![250.0, 250.0],
            cluster: &cluster,
        };
        let a = priority_adjustment(&cost(), &cat, &ctx);
        let b = priority_adjustment(&cost(), &cat, &ctx);
        assert_eq!(a, b);
    }
}
