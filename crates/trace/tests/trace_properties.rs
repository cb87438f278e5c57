//! Property tests on trace structure: ordering, gap computation, window
//! counting, and inter-arrival statistics (the tracked grid estimates
//! against the window scans).

use ecolife_trace::stats::InterArrivalStats;
use ecolife_trace::{FunctionId, FunctionProfile, Invocation, Trace, WorkloadCatalog};
use proptest::prelude::*;

fn catalog(n: usize) -> WorkloadCatalog {
    WorkloadCatalog::new(
        (0..n)
            .map(|i| FunctionProfile::new(&format!("f{i}"), 100 + i as u64, 100, 128, 0.5))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn invocations_are_sorted_and_gaps_consistent(
        raw in prop::collection::vec((0u32..6, 0u64..100_000), 0..80),
    ) {
        let cat = catalog(6);
        let invs: Vec<Invocation> = raw
            .iter()
            .map(|&(f, t)| Invocation { func: FunctionId(f), t_ms: t })
            .collect();
        let trace = Trace::new(cat, invs);

        // Sorted.
        prop_assert!(trace.invocations().windows(2).all(|w| w[0].t_ms <= w[1].t_ms));

        // Gap oracle: for every invocation with Some(gap), the invocation
        // at t + gap exists for the same function and nothing in between.
        let gaps = trace.next_arrival_gaps();
        prop_assert_eq!(gaps.len(), trace.len());
        for (i, gap) in gaps.iter().enumerate() {
            let inv = trace.invocations()[i];
            match gap {
                Some(g) => {
                    let next_t = inv.t_ms + g;
                    prop_assert!(trace.invocations()[i + 1..]
                        .iter()
                        .any(|j| j.func == inv.func && j.t_ms == next_t));
                    prop_assert!(!trace.invocations()[i + 1..]
                        .iter()
                        .any(|j| j.func == inv.func && j.t_ms < next_t));
                }
                None => {
                    prop_assert!(!trace.invocations()[i + 1..]
                        .iter()
                        .any(|j| j.func == inv.func));
                }
            }
        }
    }

    #[test]
    fn window_counts_conserve_total(
        raw in prop::collection::vec((0u32..4, 0u64..50_000), 1..60),
        window in 1u64..10_000,
    ) {
        let cat = catalog(4);
        let invs: Vec<Invocation> = raw
            .iter()
            .map(|&(f, t)| Invocation { func: FunctionId(f), t_ms: t })
            .collect();
        let trace = Trace::new(cat, invs);
        let counts = trace.invocations_per_window(window);
        prop_assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), trace.len());
    }

    #[test]
    fn interarrival_probabilities_are_probabilities(
        times in prop::collection::vec(0u64..1_000_000, 1..50),
        k in 0u64..1_000_000,
    ) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut s = InterArrivalStats::new(16);
        for t in &sorted {
            s.record_arrival(*t);
        }
        let p = s.p_within(k);
        prop_assert!((0.0..=1.0).contains(&p));
        // E[min(gap,k)] can never exceed k.
        prop_assert!(s.expected_resident_ms(k) <= k as f64 + 1e-9);
        // Monotone in k.
        prop_assert!(s.p_within(k) <= s.p_within(k.saturating_add(60_000)));
    }

    #[test]
    fn grid_estimates_equal_the_window_scans(
        gaps in prop::collection::vec(
            prop_oneof![Just(0u64), 1u64..90_000, 0u64..2_000_000],
            0..100,
        ),
        capacity in 1usize..40,
        grid in prop::collection::vec(
            prop_oneof![Just(0u64), 0u64..1_500_000, Just(u64::MAX)],
            1..12,
        ),
    ) {
        // Up to 100 gaps through windows of 1..40 wrap the ring many
        // times; zero gaps and k = 0 meet the `≤` boundary.
        let mut s = InterArrivalStats::with_grid(capacity, grid.iter().copied());
        let mut t = 1_000u64;
        for step in 0..=gaps.len() {
            if step > 0 {
                t += gaps[step - 1];
                s.record_arrival(t);
            }
            for (i, &k) in grid.iter().enumerate() {
                // Before any gap both sides answer with the priors
                // (0.5 and k/2).
                prop_assert_eq!(
                    s.p_within_grid(i).to_bits(),
                    s.p_within(k).to_bits(),
                    "P(gap <= {}) after {} arrivals",
                    k,
                    step
                );
                prop_assert_eq!(
                    s.expected_resident_grid_ms(i).to_bits(),
                    s.expected_resident_ms(k).to_bits(),
                    "E[min(gap, {})] after {} arrivals",
                    k,
                    step
                );
            }
        }
        if gaps.is_empty() {
            prop_assert_eq!(s.p_within_grid(0), 0.5);
            prop_assert_eq!(s.expected_resident_grid_ms(0), grid[0] as f64 / 2.0);
        }
    }
}
