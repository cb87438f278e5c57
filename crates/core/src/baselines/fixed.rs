//! `New-Only` / `Old-Only`: single-node execution with the
//! OpenWhisk-style fixed 10-minute keep-alive (Sec. V).
//!
//! "Utilizing multi-generation hardware to keep functions alive is not a
//! feature introduced in either the New-Only or Old-Only scheme" — these
//! policies never look at the rest of the fleet and never adjust the warm
//! pool (overflows simply drop the keep-alive). On an N-node fleet the
//! same policy pins any node via [`FixedPolicy::pinned`].

use ecolife_hw::NodeId;
use ecolife_sim::{Decision, InvocationCtx, KeepAliveChoice, Scheduler, MINUTE_MS};

/// A fixed single-node policy.
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy {
    node: NodeId,
    label: &'static str,
    keepalive_min: u64,
}

impl FixedPolicy {
    /// Pin execution and keep-alive to one fleet node, labelled `Pinned`.
    /// A node id names a position, not a generation, so no Old/New label
    /// is inferred — only the named [`FixedPolicy::new_only`] /
    /// [`FixedPolicy::old_only`] constructors (which assume a Table I
    /// pair fleet: old node 0, new node 1) carry the paper's scheme names.
    pub fn pinned(node: NodeId, keepalive_min: u64) -> Self {
        FixedPolicy {
            node,
            label: "Pinned",
            keepalive_min,
        }
    }

    /// The paper's `New-Only` scheme: a Table I pair fleet's new node
    /// (node 1), 10-minute keep-alive.
    pub fn new_only() -> Self {
        FixedPolicy {
            node: NodeId(1),
            label: "New-Only",
            keepalive_min: 10,
        }
    }

    /// The paper's `Old-Only` scheme (node 0 of a Table I pair fleet).
    pub fn old_only() -> Self {
        FixedPolicy {
            node: NodeId(0),
            label: "Old-Only",
            keepalive_min: 10,
        }
    }

    /// The pinned node.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl Scheduler for FixedPolicy {
    fn name(&self) -> &'static str {
        self.label
    }

    fn decide(&mut self, _ctx: &InvocationCtx<'_>) -> Decision {
        Decision {
            exec: self.node,
            keepalive: (self.keepalive_min > 0).then_some(KeepAliveChoice {
                location: self.node,
                duration_ms: self.keepalive_min * MINUTE_MS,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_carbon::CarbonIntensityTrace;
    use ecolife_hw::skus;
    use ecolife_sim::Simulation;
    use ecolife_trace::{SynthTraceConfig, WorkloadCatalog};

    #[test]
    fn names_and_nodes() {
        assert_eq!(FixedPolicy::new_only().name(), "New-Only");
        assert_eq!(FixedPolicy::old_only().name(), "Old-Only");
        assert_eq!(FixedPolicy::new_only().node(), NodeId(1));
        // A raw node id is a position, not a generation: no Old/New label.
        assert_eq!(FixedPolicy::pinned(NodeId(0), 10).name(), "Pinned");
        assert_eq!(FixedPolicy::pinned(NodeId(2), 10).name(), "Pinned");
    }

    #[test]
    fn old_only_never_touches_new_hardware() {
        let trace = SynthTraceConfig::small(3).generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(200.0, 120);
        let m = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut FixedPolicy::old_only());
        assert!(m.records.iter().all(|r| r.exec_location == NodeId(0)));
    }

    #[test]
    fn pinned_policy_stays_on_a_mid_fleet_node() {
        let trace = SynthTraceConfig::small(3).generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(200.0, 120);
        let fleet = skus::fleet_three_generations();
        let m = Simulation::new(&trace, &ci, fleet).run(&mut FixedPolicy::pinned(NodeId(1), 10));
        assert!(m.records.iter().all(|r| r.exec_location == NodeId(1)));
    }

    #[test]
    fn new_only_is_faster_but_dirtier_than_old_only() {
        // The Fig. 9 relationship: Old-Only saves carbon at a service-time
        // cost; New-Only is fast but pays keep-alive carbon on new silicon.
        let trace = SynthTraceConfig {
            n_functions: 16,
            duration_min: 120,
            ..SynthTraceConfig::small(5)
        }
        .generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(300.0, 180);
        let m_new = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut FixedPolicy::new_only());
        let m_old = Simulation::new(&trace, &ci, skus::fleet_a()).run(&mut FixedPolicy::old_only());
        assert!(m_new.total_service_ms() < m_old.total_service_ms());
        assert!(m_new.total_carbon_g() > m_old.total_carbon_g());
    }
}
