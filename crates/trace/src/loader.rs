//! Chunked, preallocated trace construction.
//!
//! [`Trace::new`] is fine at test scale, but a 10⁷-invocation build
//! pays twice there: the destination `Vec` regrows (copying hundreds of
//! megabytes) when the producer cannot size it up front, and every
//! invocation is re-validated against the catalog in a second full
//! pass. [`TraceLoader`] is the streaming producer-side fix: reserve
//! from a capacity estimate (exact for Azure expansions, a calibrated
//! rate for the synthetic generator), [`push`](TraceLoader::push)
//! without any per-invocation work beyond a running-maximum update, and
//! validate once against that maximum in [`finish`](TraceLoader::finish).
//! The result is **byte-identical** to the `Trace::new` path — both end
//! in the same stable LSD radix sort by arrival time, which takes a
//! scratch of half the invocations. Stability is what makes the paths
//! agree: equal timestamps keep their push order, exactly as
//! `sort_by_key(|i| i.t_ms)` would keep them.

use crate::invocation::{Invocation, Trace};
use crate::workload::WorkloadCatalog;

/// Accumulates invocations ahead of [`Trace`] construction.
#[derive(Debug, Clone, Default)]
pub struct TraceLoader {
    invocations: Vec<Invocation>,
    /// Running maximum function id — `finish` validates the whole batch
    /// against the catalog with this single value.
    max_func: u32,
}

impl TraceLoader {
    pub fn new() -> Self {
        Self::default()
    }

    /// A loader with room for `estimate` invocations. The estimate does
    /// not bound anything — pushes past it regrow normally — it only
    /// sizes the single up-front allocation.
    pub fn with_capacity(estimate: usize) -> Self {
        TraceLoader {
            invocations: Vec::with_capacity(estimate),
            max_func: 0,
        }
    }

    /// Reserve room for `additional` more invocations (chunk boundary
    /// hint for producers that learn sizes incrementally).
    pub fn reserve(&mut self, additional: usize) {
        self.invocations.reserve(additional);
    }

    #[inline]
    pub fn push(&mut self, inv: Invocation) {
        self.max_func = self.max_func.max(inv.func.0);
        self.invocations.push(inv);
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Allocated capacity (for asserting a producer's estimate held).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.invocations.capacity()
    }

    /// Validate against `catalog` and build the [`Trace`] (one stable
    /// radix sort by arrival time through an n/2 scratch, identical to
    /// [`Trace::new`]).
    ///
    /// # Panics
    /// Panics when any pushed invocation references a function outside
    /// the catalog — same contract as [`Trace::new`], checked in O(1)
    /// via the running maximum.
    pub fn finish(self, catalog: WorkloadCatalog) -> Trace {
        assert!(
            self.invocations.is_empty() || (self.max_func as usize) < catalog.len(),
            "invocation references function {} outside catalog (len {})",
            self.max_func,
            catalog.len()
        );
        Trace::from_prevalidated(catalog, self.invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FunctionId, FunctionProfile};

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
    fn loader_matches_trace_new_exactly() {
        // Includes equal timestamps: the stable sort must keep their
        // input order, byte for byte.
        let raw = vec![inv(0, 50), inv(1, 10), inv(0, 10), inv(1, 50), inv(0, 0)];
        let via_new = Trace::new(catalog2(), raw.clone());
        let mut loader = TraceLoader::with_capacity(raw.len());
        for i in raw {
            loader.push(i);
        }
        let via_loader = loader.finish(catalog2());
        assert_eq!(via_new, via_loader);
    }

    #[test]
    fn estimate_only_sizes_the_allocation() {
        let mut loader = TraceLoader::with_capacity(2);
        for t in 0..100 {
            loader.push(inv(0, t));
        }
        assert_eq!(loader.len(), 100);
        assert!(loader.capacity() >= 100);
        assert_eq!(loader.finish(catalog2()).len(), 100);
    }

    #[test]
    fn empty_loader_builds_empty_trace() {
        let t = TraceLoader::new().finish(catalog2());
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside catalog")]
    fn finish_rejects_unknown_function() {
        let mut loader = TraceLoader::new();
        loader.push(inv(7, 0));
        loader.finish(catalog2());
    }
}
