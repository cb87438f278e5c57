//! The SeBS-style workload catalog.
//!
//! The paper executes functions from the SeBS benchmark suite [28] and
//! maps Azure-trace entries onto "the closest match, considering the
//! memory and execution time" (Sec. V). Each profile here carries what the
//! perf/power/carbon models need:
//!
//! * `base_exec_ms` — execution time on the reference (newest) generation;
//! * `base_cold_ms` — cold-start overhead (image pull + runtime init) on
//!   the reference generation;
//! * `memory_mib` — container memory footprint (drives warm-pool pressure
//!   and the DRAM share in the carbon model);
//! * `cpu_sensitivity ∈ [0,1]` — fraction of the runtime that scales with
//!   single-thread CPU speed (the old-generation penalty knob; Fig. 2
//!   shows this varies strongly per function).

/// Index of a function within a [`WorkloadCatalog`] / trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u32);

impl FunctionId {
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Static profile of one serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// SeBS-style benchmark name, e.g. `"220.video-processing"`.
    pub name: String,
    /// Execution time on the reference generation (ms).
    pub base_exec_ms: u64,
    /// Cold-start overhead on the reference generation (ms).
    pub base_cold_ms: u64,
    /// Container memory footprint (MiB).
    pub memory_mib: u64,
    /// CPU-bound fraction of the runtime, in `[0, 1]`.
    pub cpu_sensitivity: f64,
}

impl FunctionProfile {
    pub fn new(
        name: &str,
        base_exec_ms: u64,
        base_cold_ms: u64,
        memory_mib: u64,
        cpu_sensitivity: f64,
    ) -> Self {
        assert!(base_exec_ms > 0, "execution time must be positive");
        assert!(memory_mib > 0, "memory footprint must be positive");
        assert!(
            (0.0..=1.0).contains(&cpu_sensitivity),
            "cpu_sensitivity out of [0,1]"
        );
        FunctionProfile {
            name: name.to_string(),
            base_exec_ms,
            base_cold_ms,
            memory_mib,
            cpu_sensitivity,
        }
    }
}

/// A set of function profiles addressed by [`FunctionId`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadCatalog {
    profiles: Vec<FunctionProfile>,
}

impl WorkloadCatalog {
    pub fn new(profiles: Vec<FunctionProfile>) -> Self {
        WorkloadCatalog { profiles }
    }

    /// The SeBS catalog used throughout the evaluation. Timings follow the
    /// published SeBS measurements' orders of magnitude; the three
    /// functions the paper's motivation plots (video-processing,
    /// graph-bfs, dna-visualization) are calibrated to reproduce the
    /// Fig. 1/2/3 shapes (the comment above each names its target).
    pub fn sebs() -> Self {
        WorkloadCatalog::new(vec![
            // Fig. 2: +15.9% exec on A_OLD → sensitivity ≈ 0.64 at 1.25x.
            FunctionProfile::new("220.video-processing", 2_000, 2_500, 512, 0.64),
            // Fig. 2: barely slower on C_OLD → low sensitivity; mid memory.
            FunctionProfile::new("503.graph-bfs", 6_000, 2_000, 256, 0.15),
            // Long-running, large memory: the Fig. 3 inverted-case function.
            FunctionProfile::new("504.dna-visualization", 12_000, 5_000, 4_096, 0.30),
            FunctionProfile::new("501.graph-pagerank", 5_000, 2_000, 512, 0.20),
            FunctionProfile::new("502.graph-mst", 4_500, 2_000, 512, 0.25),
            FunctionProfile::new("210.thumbnailer", 300, 1_500, 128, 0.50),
            FunctionProfile::new("311.compression", 1_500, 1_800, 256, 0.70),
            FunctionProfile::new("411.image-recognition", 800, 4_000, 1_024, 0.60),
            FunctionProfile::new("110.dynamic-html", 100, 1_000, 128, 0.40),
            FunctionProfile::new("120.uploader", 400, 1_200, 128, 0.10),
            FunctionProfile::new("130.crud-api", 150, 1_100, 192, 0.30),
            FunctionProfile::new("601.ml-training-lite", 9_000, 3_500, 2_048, 0.80),
        ])
    }

    /// Number of profiles.
    #[inline]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile lookup; panics on an out-of-range id (trace and catalog are
    /// always constructed together).
    #[inline]
    pub fn profile(&self, id: FunctionId) -> &FunctionProfile {
        &self.profiles[id.as_usize()]
    }

    /// Look a profile up by name.
    pub fn by_name(&self, name: &str) -> Option<(FunctionId, &FunctionProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
            .map(|(i, p)| (FunctionId(i as u32), p))
    }

    /// Iterate `(id, profile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (FunctionId(i as u32), p))
    }

    /// Map an observed (memory MiB, average duration ms) pair to the
    /// closest catalog entry — the paper's Azure→SeBS mapping rule.
    /// Distance is measured in log space so that a 128-vs-256 MiB gap
    /// counts like a 2048-vs-4096 gap.
    pub fn closest_match(&self, memory_mib: u64, duration_ms: u64) -> FunctionId {
        assert!(!self.profiles.is_empty(), "empty catalog");
        let lm = (memory_mib.max(1) as f64).ln();
        let ld = (duration_ms.max(1) as f64).ln();
        let mut best = (f64::INFINITY, 0usize);
        for (i, p) in self.profiles.iter().enumerate() {
            let dm = (p.memory_mib as f64).ln() - lm;
            let dd = (p.base_exec_ms as f64).ln() - ld;
            let dist = dm * dm + dd * dd;
            if dist < best.0 {
                best = (dist, i);
            }
        }
        FunctionId(best.1 as u32)
    }

    /// Add a profile, returning its id.
    pub fn push(&mut self, profile: FunctionProfile) -> FunctionId {
        self.profiles.push(profile);
        FunctionId(self.profiles.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sebs_catalog_has_the_three_motivation_functions() {
        let c = WorkloadCatalog::sebs();
        for name in [
            "220.video-processing",
            "503.graph-bfs",
            "504.dna-visualization",
        ] {
            assert!(c.by_name(name).is_some(), "{name} missing");
        }
        assert!(c.len() >= 10);
    }

    #[test]
    fn profile_lookup_roundtrips() {
        let c = WorkloadCatalog::sebs();
        let (id, p) = c.by_name("503.graph-bfs").unwrap();
        assert_eq!(c.profile(id), p);
    }

    #[test]
    fn iter_covers_all_ids_in_order() {
        let c = WorkloadCatalog::sebs();
        let ids: Vec<u32> = c.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..c.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn closest_match_exact_hit() {
        let c = WorkloadCatalog::sebs();
        let (id, p) = c.by_name("504.dna-visualization").unwrap();
        assert_eq!(c.closest_match(p.memory_mib, p.base_exec_ms), id);
    }

    #[test]
    fn closest_match_prefers_log_scale_neighbors() {
        let c = WorkloadCatalog::sebs();
        // 140 MiB / 120 ms is clearly a dynamic-html-like tiny function.
        let id = c.closest_match(140, 120);
        assert_eq!(c.profile(id).name, "110.dynamic-html");
        // Huge memory + long duration → dna-visualization.
        let id = c.closest_match(3_500, 10_000);
        assert_eq!(c.profile(id).name, "504.dna-visualization");
    }

    #[test]
    fn push_returns_new_id() {
        let mut c = WorkloadCatalog::default();
        let id = c.push(FunctionProfile::new("x", 10, 10, 10, 0.5));
        assert_eq!(id, FunctionId(0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cpu_sensitivity")]
    fn profile_rejects_bad_sensitivity() {
        FunctionProfile::new("bad", 10, 10, 10, 1.5);
    }

    #[test]
    fn function_id_display() {
        assert_eq!(FunctionId(3).to_string(), "f3");
    }

    #[test]
    fn cold_start_is_comparable_to_execution_for_sebs() {
        // Sec. II: "execution times for typical production serverless
        // functions can be comparable to the cold start overhead" — the
        // catalog must keep cold starts in the same order of magnitude.
        let c = WorkloadCatalog::sebs();
        let comparable = c
            .iter()
            .filter(|(_, p)| p.base_cold_ms as f64 >= 0.2 * p.base_exec_ms as f64)
            .count();
        assert!(comparable as f64 >= 0.75 * c.len() as f64);
    }
}
