//! Invocation events and the trace container.

use crate::workload::{FunctionId, WorkloadCatalog};
use std::fmt;

/// Why [`Trace::push_arrival`] refused an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The arrival is earlier than the trace's current horizon. A trace
    /// is chronologically sorted by construction; live appends must keep
    /// it that way (equal timestamps are fine — arrival order breaks the
    /// tie, exactly like the stable sort in batch construction).
    OutOfOrder {
        /// The rejected arrival time.
        t_ms: u64,
        /// The trace's last-arrival time it would have to rewind past.
        horizon_ms: u64,
    },
    /// The invocation references a function id outside the catalog.
    UnknownFunction {
        /// The unresolvable id.
        func: FunctionId,
        /// Catalog size (valid ids are `0..catalog_len`).
        catalog_len: usize,
    },
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::OutOfOrder { t_ms, horizon_ms } => write!(
                f,
                "arrival at {t_ms} ms precedes the trace horizon {horizon_ms} ms"
            ),
            PushError::UnknownFunction { func, catalog_len } => write!(
                f,
                "invocation references function {func} outside catalog (len {catalog_len})"
            ),
        }
    }
}

impl std::error::Error for PushError {}

/// One function invocation request arriving at the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Which function is invoked.
    pub func: FunctionId,
    /// Arrival time (simulation ms).
    pub t_ms: u64,
}

/// A chronologically sorted invocation stream plus the catalog resolving
/// its function ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    catalog: WorkloadCatalog,
    invocations: Vec<Invocation>,
    horizon_ms: u64,
}

impl Trace {
    /// Build a trace; invocations are sorted by arrival time with a
    /// stable LSD radix sort through a scratch of half their number.
    /// Stability matters: equal timestamps keep their input order, so
    /// the trace is exactly `sort_by_key(|i| i.t_ms)`'s and the engine
    /// serves ties in the order they were given.
    ///
    /// # Panics
    /// Panics when an invocation references a function outside the
    /// catalog, checked once, on the largest function id.
    pub fn new(catalog: WorkloadCatalog, mut invocations: Vec<Invocation>) -> Self {
        if let Some(func) = invocations.iter().map(|i| i.func).max() {
            assert!(
                func.as_usize() < catalog.len(),
                "invocation references function {func} outside catalog (len {})",
                catalog.len()
            );
        }
        crate::sort::sort_by_arrival(&mut invocations);
        let horizon_ms = invocations.last().map(|i| i.t_ms).unwrap_or(0);
        Trace {
            catalog,
            invocations,
            horizon_ms,
        }
    }

    #[inline]
    pub fn catalog(&self) -> &WorkloadCatalog {
        &self.catalog
    }

    #[inline]
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Arrival time of the last invocation.
    #[inline]
    pub fn horizon_ms(&self) -> u64 {
        self.horizon_ms
    }

    /// For every invocation, the arrival time of the *next* invocation of
    /// the same function (`None` for the last one). This is the future
    /// knowledge the Oracle-family baselines are granted; online
    /// schedulers never see it.
    pub fn next_arrival_gaps(&self) -> Vec<Option<u64>> {
        let mut next_seen: Vec<Option<u64>> = vec![None; self.catalog.len()];
        let mut gaps = vec![None; self.invocations.len()];
        for (i, inv) in self.invocations.iter().enumerate().rev() {
            let slot = &mut next_seen[inv.func.as_usize()];
            gaps[i] = slot.map(|t: u64| t - inv.t_ms);
            *slot = Some(inv.t_ms);
        }
        gaps
    }

    /// Number of invocations per `window_ms` bucket — the ΔF signal source.
    pub fn invocations_per_window(&self, window_ms: u64) -> Vec<u32> {
        assert!(window_ms > 0);
        let buckets = (self.horizon_ms / window_ms + 1) as usize;
        let mut counts = vec![0u32; buckets];
        for inv in &self.invocations {
            counts[(inv.t_ms / window_ms) as usize] += 1;
        }
        counts
    }

    /// Count invocations of one function.
    pub fn count_for(&self, func: FunctionId) -> usize {
        self.invocations.iter().filter(|i| i.func == func).count()
    }

    /// Stream this trace's invocations in order — the batch workload as
    /// an [`InvocationSource`](crate::InvocationSource) for the live
    /// service path.
    pub fn source(&self) -> crate::source::TraceSource<'_> {
        crate::source::TraceSource::new(&self.invocations)
    }

    /// Append one arrival to a live, growing trace, keeping the
    /// chronological-sort invariant. Returns the invocation's index.
    ///
    /// This is the ingest edge of the service path
    /// (`ecolife-service`): each accepted arrival lands here before the
    /// engine steps over it, so a service run over a growing trace sees
    /// exactly the prefix a batch replay of the final trace would see.
    /// Equal-timestamp appends keep arrival order, matching the stable
    /// sort of batch construction.
    pub fn push_arrival(&mut self, inv: Invocation) -> Result<usize, PushError> {
        if inv.func.as_usize() >= self.catalog.len() {
            return Err(PushError::UnknownFunction {
                func: inv.func,
                catalog_len: self.catalog.len(),
            });
        }
        if inv.t_ms < self.horizon_ms {
            return Err(PushError::OutOfOrder {
                t_ms: inv.t_ms,
                horizon_ms: self.horizon_ms,
            });
        }
        self.horizon_ms = inv.t_ms;
        self.invocations.push(inv);
        Ok(self.invocations.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FunctionProfile;

    fn catalog2() -> WorkloadCatalog {
        WorkloadCatalog::new(vec![
            FunctionProfile::new("a", 100, 100, 128, 0.5),
            FunctionProfile::new("b", 200, 100, 128, 0.5),
        ])
    }

    fn inv(f: u32, t: u64) -> Invocation {
        Invocation {
            func: FunctionId(f),
            t_ms: t,
        }
    }

    #[test]
    fn trace_sorts_by_time() {
        let t = Trace::new(catalog2(), vec![inv(0, 50), inv(1, 10), inv(0, 30)]);
        let times: Vec<u64> = t.invocations().iter().map(|i| i.t_ms).collect();
        assert_eq!(times, vec![10, 30, 50]);
        assert_eq!(t.horizon_ms(), 50);
    }

    #[test]
    #[should_panic(expected = "outside catalog")]
    fn trace_rejects_unknown_function() {
        Trace::new(catalog2(), vec![inv(7, 0)]);
    }

    #[test]
    fn next_arrival_gaps_per_function() {
        let t = Trace::new(
            catalog2(),
            vec![inv(0, 0), inv(1, 5), inv(0, 100), inv(0, 250)],
        );
        let gaps = t.next_arrival_gaps();
        assert_eq!(gaps, vec![Some(100), None, Some(150), None]);
    }

    #[test]
    fn invocations_per_window_counts() {
        let t = Trace::new(
            catalog2(),
            vec![inv(0, 0), inv(0, 500), inv(1, 1_200), inv(0, 2_100)],
        );
        assert_eq!(t.invocations_per_window(1_000), vec![2, 1, 1]);
    }

    #[test]
    fn count_for_filters_by_function() {
        let t = Trace::new(catalog2(), vec![inv(0, 0), inv(1, 1), inv(0, 2)]);
        assert_eq!(t.count_for(FunctionId(0)), 2);
        assert_eq!(t.count_for(FunctionId(1)), 1);
    }

    #[test]
    fn push_arrival_appends_monotone() {
        let mut t = Trace::new(catalog2(), vec![inv(0, 10)]);
        assert_eq!(t.push_arrival(inv(1, 10)), Ok(1)); // ties allowed
        assert_eq!(t.push_arrival(inv(0, 25)), Ok(2));
        assert_eq!(t.horizon_ms(), 25);
        assert_eq!(
            t.push_arrival(inv(0, 24)),
            Err(PushError::OutOfOrder {
                t_ms: 24,
                horizon_ms: 25
            })
        );
        assert_eq!(
            t.push_arrival(inv(9, 30)),
            Err(PushError::UnknownFunction {
                func: FunctionId(9),
                catalog_len: 2
            })
        );
        // Rejected pushes leave the trace untouched.
        assert_eq!(t.len(), 3);
        assert_eq!(t.horizon_ms(), 25);
    }

    #[test]
    fn pushed_trace_equals_batch_trace() {
        let batch = Trace::new(catalog2(), vec![inv(0, 0), inv(1, 5), inv(0, 5)]);
        let mut grown = Trace::new(catalog2(), vec![]);
        for &i in batch.invocations() {
            grown.push_arrival(i).unwrap();
        }
        assert_eq!(grown, batch);
    }

    #[test]
    fn push_error_displays_and_is_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(PushError::OutOfOrder {
                t_ms: 24,
                horizon_ms: 25,
            }),
            Box::new(PushError::UnknownFunction {
                func: FunctionId(9),
                catalog_len: 2,
            }),
        ];
        let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("precedes the trace horizon 25 ms"));
        assert!(rendered[1].contains("outside catalog (len 2)"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(catalog2(), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.horizon_ms(), 0);
        assert!(t.next_arrival_gaps().is_empty());
    }
}
