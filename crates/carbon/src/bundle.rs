//! Region-keyed carbon-intensity bundles and the per-node resolver.
//!
//! A multi-region fleet needs one minute-resolution CI series *per grid
//! region*; [`CiBundle`] is that validated collection, and
//! [`CiProvider`] resolves it (or a single shared series — the paper's
//! single-region setup) per [`NodeId`] at observation time. Every CI
//! read in the simulator goes through the provider, so "which grid does
//! this node burn" is answered exactly once, at construction, instead of
//! being implicit in a shared global trace.

use crate::intensity::CarbonIntensityTrace;
use ecolife_hw::{Fleet, NodeId, Region};

/// Typed errors of CI plumbing: bundle construction and per-node
/// resolution. These are *construction-time* failures by design — a
/// mis-wired or too-short CI feed must never degrade into silently
/// frozen intensity mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum CiError {
    /// The bundle holds no series at all.
    Empty,
    /// Two series were registered for the same region.
    DuplicateRegion(Region),
    /// The bundle's series disagree on coverage: every region must span
    /// the same minutes, otherwise a multi-region comparison is lopsided
    /// and span validation is ambiguous.
    UnequalLength {
        region: Region,
        len_minutes: usize,
        expected_minutes: usize,
    },
    /// A fleet node's region has no series in the bundle.
    MissingRegion { node: NodeId, region: Region },
    /// The series for `region` ends before the workload does. Extend the
    /// feed (e.g. [`CarbonIntensityTrace::extend_cyclic`]) or trim the
    /// workload; the engine refuses to freeze the last sample silently.
    TooShort {
        region: Region,
        ci_ms: u64,
        required_ms: u64,
    },
}

impl std::fmt::Display for CiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CiError::Empty => write!(f, "carbon-intensity bundle holds no series"),
            CiError::DuplicateRegion(r) => {
                write!(f, "duplicate carbon-intensity series for region {r}")
            }
            CiError::UnequalLength {
                region,
                len_minutes,
                expected_minutes,
            } => write!(
                f,
                "region {region}'s series covers {len_minutes} min, others cover {expected_minutes} min"
            ),
            CiError::MissingRegion { node, region } => {
                write!(f, "node {node} is deployed in {region}, which has no CI series")
            }
            CiError::TooShort {
                region,
                ci_ms,
                required_ms,
            } => write!(
                f,
                "carbon-intensity series for {region} covers {ci_ms} ms but the workload spans \
                 {required_ms} ms; refusing to freeze the last sample — extend the series \
                 (e.g. extend_cyclic) or trim the workload"
            ),
        }
    }
}

impl std::error::Error for CiError {}

/// A validated, region-keyed collection of carbon-intensity series.
///
/// Invariants (checked at construction): non-empty, one series per
/// region, and every series covering the same number of minutes.
#[derive(Debug, Clone, PartialEq)]
pub struct CiBundle {
    entries: Vec<(Region, CarbonIntensityTrace)>,
}

impl CiBundle {
    /// Build a bundle from (region, series) pairs.
    pub fn new(entries: Vec<(Region, CarbonIntensityTrace)>) -> Result<Self, CiError> {
        let expected = match entries.first() {
            None => return Err(CiError::Empty),
            Some((_, t)) => t.len_minutes(),
        };
        for (i, (region, trace)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(r, _)| r == region) {
                return Err(CiError::DuplicateRegion(*region));
            }
            if trace.len_minutes() != expected {
                return Err(CiError::UnequalLength {
                    region: *region,
                    len_minutes: trace.len_minutes(),
                    expected_minutes: expected,
                });
            }
        }
        Ok(CiBundle { entries })
    }

    /// Synthesize `minutes` of intensity for each region, deterministically
    /// from `seed` (each region's stream derives from its own profile, so
    /// the same seed yields the paper's five distinct feeds).
    pub fn synthetic(regions: &[Region], minutes: usize, seed: u64) -> Result<Self, CiError> {
        CiBundle::new(
            regions
                .iter()
                .map(|&r| (r, CarbonIntensityTrace::synthetic(r, minutes, seed)))
                .collect(),
        )
    }

    /// All five evaluated regions ([`Region::ALL`]), synthesized.
    pub fn synthetic_all(minutes: usize, seed: u64) -> Self {
        Self::synthetic(&Region::ALL, minutes, seed).expect("Region::ALL has no duplicates")
    }

    /// The series for `region`, if registered.
    pub fn get(&self, region: Region) -> Option<&CarbonIntensityTrace> {
        self.entries
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, t)| t)
    }

    /// Registered (region, series) pairs, in registration order.
    pub fn entries(&self) -> &[(Region, CarbonIntensityTrace)] {
        &self.entries
    }

    /// Minutes covered by every series (they are equal by construction).
    pub fn len_minutes(&self) -> usize {
        self.entries[0].1.len_minutes()
    }

    /// Milliseconds covered by every series.
    pub fn len_ms(&self) -> u64 {
        self.entries[0].1.len_ms()
    }
}

/// How long a carbon-intensity feed may serve last-known-good data
/// before the scheduler stops trusting it.
///
/// During a `CiOutage` the provider freezes each affected minute at the
/// reading taken when the outage began. Up to `max_stale_min` minutes of
/// that is tolerable — grid intensity moves slowly — but past the bound
/// the region is considered *blacked out* and the engine falls back to a
/// carbon-agnostic placement for the duration (counted as
/// `degraded_decisions` in `RunMetrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessPolicy {
    /// Minutes of last-known-good data the scheduler will still act on.
    pub max_stale_min: u64,
    /// Keep-alive minutes the carbon-agnostic fallback grants on the
    /// execution node (0 disables fallback keep-alives).
    pub fallback_keepalive_min: u64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy {
            max_stale_min: 15,
            fallback_keepalive_min: 10,
        }
    }
}

impl StalenessPolicy {
    /// Override the staleness bound.
    pub fn with_max_stale_min(mut self, minutes: u64) -> Self {
        self.max_stale_min = minutes;
        self
    }

    /// Override the fallback keep-alive duration.
    pub fn with_fallback_keepalive_min(mut self, minutes: u64) -> Self {
        self.fallback_keepalive_min = minutes;
        self
    }

    /// The staleness bound in milliseconds.
    pub fn max_stale_ms(&self) -> u64 {
        self.max_stale_min.saturating_mul(60_000)
    }
}

/// Per-node carbon-intensity resolution for one fleet: every node id maps
/// to the series of its deployment region. This is the object the
/// simulation engine (and schedulers, via `InvocationCtx::ci`) read CI
/// through — `at(node, t)` replaces the old fleet-wide `at(t)`.
///
/// Fault injection can overlay *degraded* data ([`CiProvider::apply_outages`]):
/// outage minutes are rewritten to the last-known-good reading, and every
/// read resolves through the overlay. With no outages applied the overlay
/// is absent and reads delegate to the original series bit-for-bit.
#[derive(Debug, Clone)]
pub struct CiProvider<'a> {
    /// Series per node, indexed by `NodeId`.
    series: Vec<&'a CarbonIntensityTrace>,
    /// Degraded overlay per node: `Some` only when an outage touches the
    /// node's region, holding a copy of its series with the outage
    /// minutes frozen at last-known-good.
    degraded: Vec<Option<CarbonIntensityTrace>>,
    /// Region tag per node, indexed by `NodeId`.
    regions: Vec<Region>,
    /// Distinct regions in first-appearance (node id) order, each with a
    /// representative node index — the iteration order for per-region
    /// global signals (EcoLife's ΔCI).
    distinct: Vec<(Region, usize)>,
    /// How long stale data stays actionable (see [`StalenessPolicy`]).
    staleness: StalenessPolicy,
}

impl<'a> CiProvider<'a> {
    /// Every node reads the same series, regardless of its region tag —
    /// the paper's single-region setup, and the compatibility path behind
    /// `Simulation::new(trace, ci, fleet)`.
    pub fn shared(ci: &'a CarbonIntensityTrace, fleet: &Fleet) -> Self {
        let regions: Vec<Region> = fleet.iter().map(|n| n.region).collect();
        let series = vec![ci; regions.len()];
        CiProvider {
            distinct: Self::distinct_of(&regions),
            degraded: (0..series.len()).map(|_| None).collect(),
            series,
            regions,
            staleness: StalenessPolicy::default(),
        }
    }

    /// Resolve each fleet node's region against `bundle`.
    pub fn from_bundle(bundle: &'a CiBundle, fleet: &Fleet) -> Result<Self, CiError> {
        let mut series = Vec::with_capacity(fleet.len());
        let mut regions = Vec::with_capacity(fleet.len());
        for node in fleet.iter() {
            let trace = bundle.get(node.region).ok_or(CiError::MissingRegion {
                node: node.id,
                region: node.region,
            })?;
            series.push(trace);
            regions.push(node.region);
        }
        Ok(CiProvider {
            distinct: Self::distinct_of(&regions),
            degraded: (0..series.len()).map(|_| None).collect(),
            series,
            regions,
            staleness: StalenessPolicy::default(),
        })
    }

    fn distinct_of(regions: &[Region]) -> Vec<(Region, usize)> {
        let mut out: Vec<(Region, usize)> = Vec::new();
        for (i, &r) in regions.iter().enumerate() {
            if !out.iter().any(|&(seen, _)| seen == r) {
                out.push((r, i));
            }
        }
        out
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.series.len()
    }

    /// The series `node` actually reads: the degraded overlay when an
    /// outage touches its region, the original otherwise.
    #[inline]
    fn eff(&self, idx: usize) -> &CarbonIntensityTrace {
        match &self.degraded[idx] {
            Some(patched) => patched,
            None => self.series[idx],
        }
    }

    /// Intensity on `node`'s grid at `t_ms`.
    #[inline]
    pub fn at(&self, node: NodeId, t_ms: u64) -> f64 {
        self.eff(node.index()).at(t_ms)
    }

    /// Time-weighted average intensity on `node`'s grid over `[t0, t1)`.
    #[inline]
    pub fn average_over(&self, node: NodeId, t0_ms: u64, t1_ms: u64) -> f64 {
        self.eff(node.index()).average_over(t0_ms, t1_ms)
    }

    /// The full series `node` reads (schedulers must not peek past the
    /// current simulated minute; oracle-family baselines read their
    /// future knowledge through this provider).
    #[inline]
    pub fn series(&self, node: NodeId) -> &CarbonIntensityTrace {
        self.eff(node.index())
    }

    /// The region `node` is deployed in.
    #[inline]
    pub fn region(&self, node: NodeId) -> Region {
        self.regions[node.index()]
    }

    /// Intensity at `t_ms` on every node's grid, indexed by `NodeId` —
    /// the per-node snapshot EPDM-style placement scores compare.
    pub fn at_each_node(&self, t_ms: u64) -> Vec<f64> {
        (0..self.series.len())
            .map(|i| self.eff(i).at(t_ms))
            .collect()
    }

    /// Distinct (region, series) pairs in first-appearance node order —
    /// the deterministic iteration order for per-region global signals.
    pub fn distinct_regions(&self) -> impl Iterator<Item = (Region, &CarbonIntensityTrace)> + '_ {
        self.distinct.iter().map(|&(r, i)| (r, self.eff(i)))
    }

    /// The shortest coverage (ms) across nodes — what span validation
    /// checks the workload against.
    pub fn min_len_ms(&self) -> u64 {
        self.series
            .iter()
            .map(|s| s.len_ms())
            .min()
            .expect("provider covers a non-empty fleet")
    }

    /// The staleness policy reads are governed by.
    #[inline]
    pub fn staleness(&self) -> StalenessPolicy {
        self.staleness
    }

    /// Override the staleness policy (see [`StalenessPolicy`]).
    pub fn with_staleness(mut self, policy: StalenessPolicy) -> Self {
        self.staleness = policy;
        self
    }

    /// Overlay CI-feed outages: for every `(region, from_ms, to_ms)`
    /// span, affected nodes read the last-known-good sample (the reading
    /// at the outage start) for every minute that *begins* inside the
    /// span. Healing is therefore observed at minute granularity — the
    /// native resolution of the feeds. Spans outside the series or for
    /// regions no node reads are ignored; with no applicable outage the
    /// overlay stays absent and reads are bit-identical to the original.
    pub fn apply_outages(&mut self, outages: &[(Region, u64, u64)]) {
        for idx in 0..self.series.len() {
            let region = self.regions[idx];
            let mut samples: Option<Vec<f64>> = None;
            for &(r, from_ms, to_ms) in outages {
                if r != region || to_ms <= from_ms {
                    continue;
                }
                let base = samples.get_or_insert_with(|| self.series[idx].samples().to_vec());
                let n = base.len();
                let from_min = ((from_ms / 60_000) as usize).min(n - 1);
                let stale = base[from_min];
                let mut m = from_min + 1;
                while m < n && (m as u64) * 60_000 < to_ms {
                    base[m] = stale;
                    m += 1;
                }
            }
            if let Some(samples) = samples {
                self.degraded[idx] = Some(CarbonIntensityTrace::from_samples(samples));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_hw::skus;

    #[test]
    fn bundle_validates_shape() {
        assert_eq!(CiBundle::new(vec![]), Err(CiError::Empty));
        let t60 = CarbonIntensityTrace::constant(100.0, 60);
        let t61 = CarbonIntensityTrace::constant(100.0, 61);
        assert_eq!(
            CiBundle::new(vec![
                (Region::Caiso, t60.clone()),
                (Region::Caiso, t60.clone())
            ]),
            Err(CiError::DuplicateRegion(Region::Caiso))
        );
        assert_eq!(
            CiBundle::new(vec![(Region::Caiso, t60.clone()), (Region::Texas, t61)]),
            Err(CiError::UnequalLength {
                region: Region::Texas,
                len_minutes: 61,
                expected_minutes: 60,
            })
        );
        let ok = CiBundle::new(vec![(Region::Caiso, t60)]).unwrap();
        assert_eq!(ok.len_minutes(), 60);
        assert_eq!(ok.len_ms(), 60 * 60_000);
        assert!(ok.get(Region::Caiso).is_some());
        assert!(ok.get(Region::Texas).is_none());
    }

    #[test]
    fn ci_error_displays_and_is_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(CiError::Empty),
            Box::new(CiError::DuplicateRegion(Region::Caiso)),
            Box::new(CiError::UnequalLength {
                region: Region::Texas,
                len_minutes: 61,
                expected_minutes: 60,
            }),
            Box::new(CiError::MissingRegion {
                node: NodeId(3),
                region: Region::Florida,
            }),
            Box::new(CiError::TooShort {
                region: Region::NewYork,
                ci_ms: 60_000,
                required_ms: 120_000,
            }),
        ];
        let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("no series"));
        assert!(rendered[1].contains("duplicate carbon-intensity series"));
        assert!(rendered[2].contains("covers 61 min"));
        assert!(rendered[3].contains("has no CI series"));
        assert!(rendered[4].contains("refusing to freeze the last sample"));
    }

    #[test]
    fn synthetic_all_covers_every_region() {
        let b = CiBundle::synthetic_all(120, 7);
        for r in Region::ALL {
            assert_eq!(b.get(r).unwrap().len_minutes(), 120);
        }
        // Region feeds are genuinely distinct series.
        assert_ne!(b.get(Region::Caiso), b.get(Region::Florida));
    }

    #[test]
    fn shared_provider_reads_one_series_everywhere() {
        let ci = CarbonIntensityTrace::from_samples(vec![100.0, 200.0]);
        let fleet = skus::fleet_a();
        let p = CiProvider::shared(&ci, &fleet);
        assert_eq!(p.n_nodes(), 2);
        assert_eq!(p.at(NodeId(0), 70_000), 200.0);
        assert_eq!(p.at(NodeId(1), 0), 100.0);
        assert_eq!(p.at_each_node(0), vec![100.0, 100.0]);
        // fleet_a is single-region: one distinct signal.
        assert_eq!(p.distinct_regions().count(), 1);
        assert_eq!(p.min_len_ms(), 120_000);
    }

    #[test]
    fn bundle_provider_resolves_per_node_regions() {
        let bundle = CiBundle::new(vec![
            (Region::Texas, CarbonIntensityTrace::constant(400.0, 60)),
            (Region::NewYork, CarbonIntensityTrace::constant(200.0, 60)),
        ])
        .unwrap();
        let fleet = skus::fleet_a()
            .with_region(NodeId(0), Region::Texas)
            .with_region(NodeId(1), Region::NewYork);
        let p = CiProvider::from_bundle(&bundle, &fleet).unwrap();
        assert_eq!(p.at(NodeId(0), 0), 400.0);
        assert_eq!(p.at(NodeId(1), 0), 200.0);
        assert_eq!(p.region(NodeId(1)), Region::NewYork);
        assert_eq!(p.at_each_node(0), vec![400.0, 200.0]);
        let distinct: Vec<Region> = p.distinct_regions().map(|(r, _)| r).collect();
        assert_eq!(distinct, vec![Region::Texas, Region::NewYork]);
    }

    #[test]
    fn outage_overlay_freezes_last_known_good_per_minute() {
        let bundle = CiBundle::new(vec![
            (
                Region::Texas,
                CarbonIntensityTrace::from_samples(vec![400.0, 410.0, 420.0, 430.0]),
            ),
            (
                Region::NewYork,
                CarbonIntensityTrace::from_samples(vec![200.0, 210.0, 220.0, 230.0]),
            ),
        ])
        .unwrap();
        let fleet = skus::fleet_a()
            .with_region(NodeId(0), Region::Texas)
            .with_region(NodeId(1), Region::NewYork);
        let mut p = CiProvider::from_bundle(&bundle, &fleet).unwrap();
        // No outage: the overlay is absent and reads delegate exactly.
        p.apply_outages(&[(Region::Florida, 0, 240_000)]);
        assert_eq!(p.at(NodeId(0), 120_000), 420.0);
        // Outage over minutes 1..3 of Texas: the reading taken in the
        // minute the outage starts (410) is the last-known-good.
        p.apply_outages(&[(Region::Texas, 60_000, 180_000)]);
        assert_eq!(p.at(NodeId(0), 60_000), 410.0);
        assert_eq!(p.at(NodeId(0), 120_000), 410.0);
        assert_eq!(p.at(NodeId(0), 180_000), 430.0); // healed
        assert_eq!(p.at(NodeId(1), 120_000), 220.0); // other region live
        assert_eq!(p.at_each_node(120_000), vec![410.0, 220.0]);
        let texas = p
            .distinct_regions()
            .find(|&(r, _)| r == Region::Texas)
            .unwrap()
            .1;
        assert_eq!(texas.at(120_000), 410.0);
    }

    #[test]
    fn staleness_policy_defaults_and_builders() {
        let p = StalenessPolicy::default();
        assert_eq!(p.max_stale_min, 15);
        assert_eq!(p.max_stale_ms(), 15 * 60_000);
        let q = p.with_max_stale_min(3).with_fallback_keepalive_min(0);
        assert_eq!((q.max_stale_min, q.fallback_keepalive_min), (3, 0));
    }

    #[test]
    fn bundle_provider_rejects_uncovered_regions() {
        let bundle = CiBundle::new(vec![(
            Region::Texas,
            CarbonIntensityTrace::constant(400.0, 60),
        )])
        .unwrap();
        let fleet = skus::fleet_a().with_region(NodeId(1), Region::Texas);
        // Node 0 keeps the default CISO tag, which the bundle lacks.
        assert_eq!(
            CiProvider::from_bundle(&bundle, &fleet).unwrap_err(),
            CiError::MissingRegion {
                node: NodeId(0),
                region: Region::Caiso,
            }
        );
    }
}
