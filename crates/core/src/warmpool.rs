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
//! Packing fills the room the node leaves this pool: its capacity less
//! the other shards' share of the node, the budget
//! [`WarmPool::fits`](ecolife_sim::WarmPool::fits) admits against (a
//! sequential run carries no external share).
//!
//! Only the candidates that can lose are ordered. Greedy packing keeps
//! every candidate ahead of the first one that does not fit. With `D =
//! used + incoming − budget` the memory that has to go, that misfit is
//! the first candidate whose successors together hold less than `D`: so
//! from the misfit on, the candidates are the shortest lowest-priority
//! run whose memory reaches `D`. One pass over the candidates keeps that
//! run in order (a candidate that packs ahead of a run that already
//! reaches `D` can never join it), and greedy packing walks only the
//! run, with the room the kept prefix leaves. On `ecolife_pressured`
//! an overflow ranks ~143 candidates, and ~2 of them form the run. The
//! plans equal the sort-everything packing's bit for bit; that packing
//! is the model of this module's property test.
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
use std::cmp::Ordering;

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

/// One container competing for the overflowing pool.
struct Candidate {
    func: FunctionId,
    memory_mib: u64,
    density: f64,
    incoming: bool,
}

/// Whether `a` packs strictly ahead of `b`: higher benefit density
/// first, ties broken by ascending function id. `partial_cmp` ties −0.0
/// with +0.0 (a function with `P(warm) = 0` and a negative benefit has
/// density −0.0), so the order is not that of the bit patterns.
fn packs_ahead(a: &Candidate, b: &Candidate) -> bool {
    b.density
        .partial_cmp(&a.density)
        .unwrap_or(Ordering::Equal)
        .then(a.func.cmp(&b.func))
        == Ordering::Less
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
/// benefit under greedy packing. `weighted_benefit` is called once per
/// candidate: the residents in `FunctionId` order, then the incoming
/// container.
pub fn priority_adjustment_with_targets(
    catalog: &WorkloadCatalog,
    ctx: &OverflowCtx<'_>,
    mut weighted_benefit: impl FnMut(FunctionId, &FunctionProfile) -> f64,
    transfer_targets: Vec<NodeId>,
) -> AdjustPlan {
    let pool = ctx.cluster.pool(ctx.location);
    let budget = pool.capacity_mib().saturating_sub(pool.external_used_mib());
    let deficit = (pool.used_mib() + ctx.incoming_memory_mib).saturating_sub(budget);

    // The shortest lowest-priority run of the candidates seen so far
    // whose memory reaches the deficit, lowest priority first: its
    // first member in packing order is `run.last()`. With no deficit
    // the run stays empty.
    let mut run: Vec<Candidate> = Vec::new();
    let mut run_mib = 0u64;
    let residents = pool.iter().map(|c| (c.func, c.memory_mib, false));
    let incoming = (ctx.incoming_func, ctx.incoming_memory_mib, true);
    for (func, memory_mib, incoming) in residents.chain(std::iter::once(incoming)) {
        let c = Candidate {
            func,
            memory_mib,
            density: weighted_benefit(func, catalog.profile(func)) / memory_mib.max(1) as f64,
            incoming,
        };
        if run_mib >= deficit && run.last().is_none_or(|first| packs_ahead(&c, first)) {
            continue;
        }
        // Behind the candidates it ties with: they came first, and the
        // packing order is stable.
        let at = run.partition_point(|x| packs_ahead(&c, x));
        run.insert(at, c);
        run_mib += memory_mib;
        while let Some(first) = run.last() {
            if run_mib - first.memory_mib < deficit {
                break;
            }
            run_mib -= first.memory_mib;
            run.pop();
        }
    }

    // Everything ahead of the run is kept, which leaves the run
    // `budget − (used + incoming − run_mib) = run_mib − deficit`. The
    // run's first member is the misfit: the rest of the run holds less
    // than the deficit, so that member needs more than the room left.
    let mut room = run_mib - deficit;
    let mut place_incoming = true;
    let mut displace = Vec::new();
    for (i, c) in run.iter().rev().enumerate() {
        if i > 0 && c.memory_mib <= room {
            room -= c.memory_mib;
        } else if c.incoming {
            place_incoming = false;
        } else {
            displace.push(c.func);
        }
    }

    AdjustPlan {
        displace,
        place_incoming,
        transfer_targets: Some(transfer_targets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_carbon::CarbonModel;
    use ecolife_hw::skus;
    use ecolife_sim::{Cluster, WarmContainer};
    use proptest::prelude::*;

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

    /// The packing as first written, kept as the model of
    /// [`priority_adjustment_with_targets`]: rank every candidate with
    /// one comparator sort, then pack greedily. Verbatim but for the
    /// budget, which counts the other shards' share of the node.
    fn sort_everything_adjustment(
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

        let capacity = pool.capacity_mib().saturating_sub(pool.external_used_mib());
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

    /// Densities the model test draws from: few, so that ties are
    /// common, with both zeros and negative values.
    const DENSITIES: [f64; 7] = [-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random overflows: 0–200 residents of 1–4 096 MiB (all sizes
        /// a multiple of 1, 64 or 256 MiB, so that exact fits are
        /// common) at sparse function ids, a pool nearly full (0–3
        /// grains free) or barely used (up to ~8× its residents free),
        /// an external share of 0 or up to the capacity, and an incoming
        /// container of 1 MiB up to the whole budget at a free id. Both
        /// routines must call the benefit once per candidate in the same
        /// order and return the same plan.
        #[test]
        fn tail_packing_matches_the_sort_everything_model(
            grain in (0usize..3).prop_map(|i| [1u64, 64, 256][i]),
            residents in prop::collection::vec((0u32..3, 1u64..=4_096, 0..DENSITIES.len()), 0..201),
            pool in (0u8..2, 0.0f64..1.0, 0u8..3, 0.0f64..=1.0),
            incoming in (0.0f64..=1.0, 0..DENSITIES.len(), 0usize..=600),
        ) {
            let (fill, fill_frac, external_kind, external_frac) = pool;
            let (incoming_frac, incoming_density, incoming_pick) = incoming;
            let mut members = Vec::new();
            let mut next = 0u32;
            for &(gap, mib, d) in &residents {
                let func = FunctionId(next + gap);
                next = func.0 + 1;
                members.push((func, (mib / grain).max(1) * grain, DENSITIES[d]));
            }
            let used: u64 = members.iter().map(|m| m.1).sum();
            let slack = if fill == 0 {
                (fill_frac * 4.0) as u64 * grain
            } else {
                (fill_frac * 8.0 * (used + 4_096) as f64) as u64 / grain * grain
            };
            let capacity = used + slack;
            let external = match external_kind {
                0 => 0,
                _ => (external_frac * capacity as f64) as u64 / grain * grain,
            };
            let budget = capacity.saturating_sub(external);
            let incoming_mib = ((incoming_frac * budget as f64) as u64 / grain * grain).max(1);
            let free: Vec<FunctionId> = (0..=next)
                .map(FunctionId)
                .filter(|f| !members.iter().any(|m| m.0 == *f))
                .collect();
            let incoming_func = free[incoming_pick % free.len()];

            let mut benefit = vec![0.0; next as usize + 1];
            for &(func, mib, d) in &members {
                benefit[func.as_usize()] = d * mib as f64;
            }
            benefit[incoming_func.as_usize()] = DENSITIES[incoming_density] * incoming_mib as f64;
            let profile = FunctionProfile::new("f", 100, 100, 128, 0.5);
            let cat = WorkloadCatalog::new(vec![profile; next as usize + 1]);

            let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(capacity);
            let mut cluster = Cluster::new(fleet);
            let pool = cluster.pool_mut(NodeId(0));
            for &(func, memory_mib, _) in &members {
                let c = WarmContainer {
                    func,
                    memory_mib,
                    warm_since_ms: 0,
                    expiry_ms: 600_000,
                    origin_record: 0,
                    transfer_latency_ms: 0,
                };
                prop_assert!(pool.insert(c).is_ok());
            }
            pool.set_external_used_mib(external);
            let ctx = OverflowCtx {
                location: NodeId(0),
                incoming_func,
                incoming_memory_mib: incoming_mib,
                t_ms: 0,
                ci_now: 200.0,
                ci_by_node: vec![200.0, 200.0],
                cluster: &cluster,
            };

            let (mut tail_calls, mut model_calls) = (Vec::new(), Vec::new());
            let tail = priority_adjustment_with_targets(
                &cat,
                &ctx,
                |f, _| {
                    tail_calls.push(f);
                    benefit[f.as_usize()]
                },
                vec![NodeId(1)],
            );
            let model = sort_everything_adjustment(
                &cat,
                &ctx,
                |f, _| {
                    model_calls.push(f);
                    benefit[f.as_usize()]
                },
                vec![NodeId(1)],
            );
            prop_assert_eq!(&tail_calls, &model_calls);
            prop_assert_eq!(
                &tail,
                &model,
                "budget {} used {} incoming {:?} of {} MiB",
                budget,
                used,
                incoming_func,
                incoming_mib
            );
        }
    }

    #[test]
    fn packing_leaves_room_for_the_other_shards_share() {
        // A 4 GiB node: this shard's pool holds two 128 MiB containers,
        // the other shards hold 3 000 MiB, and a 1 024 MiB container
        // with the highest priority arrives. Against the whole capacity
        // everything would fit; against the 1 096 MiB the node leaves
        // this pool, both residents must go for the incoming one.
        let cat = catalog();
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(4_096);
        let mut cluster = Cluster::new(fleet);
        let pool = cluster.pool_mut(NodeId(0));
        for name in ["110.dynamic-html", "210.thumbnailer"] {
            pool.insert(container(&cat, name, 600_000)).unwrap();
        }
        pool.set_external_used_mib(3_000);
        let (inc_id, inc_p) = cat.by_name("411.image-recognition").unwrap();
        let ctx = OverflowCtx {
            location: NodeId(0),
            incoming_func: inc_id,
            incoming_memory_mib: inc_p.memory_mib,
            t_ms: 0,
            ci_now: 200.0,
            ci_by_node: vec![200.0, 200.0],
            cluster: &cluster,
        };
        let plan = priority_adjustment_with_targets(
            &cat,
            &ctx,
            |f, p| {
                if f == inc_id {
                    1e6
                } else {
                    p.memory_mib as f64
                }
            },
            vec![NodeId(1)],
        );
        let residents: Vec<FunctionId> = cluster.pool(NodeId(0)).iter().map(|c| c.func).collect();
        assert_eq!(plan.displace, residents);
        assert!(plan.place_incoming);
        // The engine's admission agrees: once the plan has run, the
        // incoming container fits.
        let mut after = cluster.pool(NodeId(0)).clone();
        for func in &plan.displace {
            after.remove(*func);
        }
        assert!(after.fits(&container(&cat, "411.image-recognition", 600_000)));
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
