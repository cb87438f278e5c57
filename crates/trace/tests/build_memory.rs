//! Heap bound of trace construction: the arrival-time sort behind
//! `Trace::new` takes a scratch of half the trace, no more than the
//! standard library's stable sort takes at this scale.
//!
//! The counting global allocator of `tests/support/counting_alloc.rs`
//! tracks the live heap bytes and their peak. This file holds one test,
//! so nothing else allocates while it measures.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use ecolife_trace::{splitmix64, FunctionId, FunctionProfile, Invocation, Trace, WorkloadCatalog};

/// 10⁶ invocations in generator order (function by function, each
/// ascending) over a 10-hour day. Beyond the input vector, `Trace::new`
/// may add at most 0.6× the invocations' bytes of peak heap. The n/2
/// scratch reads ~0.51×, the standard library's stable sort 0.5×; a
/// radix sort through a full-length scratch reads 1.0×.
#[test]
fn building_a_trace_adds_at_most_half_its_bytes() {
    const N: u64 = 1_000_000;
    const FUNCTIONS: u64 = 1_000;
    let catalog = WorkloadCatalog::new(
        (0..FUNCTIONS)
            .map(|f| FunctionProfile::new(&format!("f{f}"), 100, 100, 128, 0.5))
            .collect(),
    );
    let day_ms = 600 * 60_000;
    let invocations: Vec<Invocation> = (0..N)
        .map(|i| Invocation {
            func: FunctionId((i / (N / FUNCTIONS)) as u32),
            t_ms: (i % (N / FUNCTIONS)) * (day_ms / (N / FUNCTIONS)) + splitmix64(i) % 1_000,
        })
        .collect();
    let input_bytes = invocations.len() * size_of::<Invocation>();

    let (trace, added) = counting_alloc::peak_added(|| Trace::new(catalog, invocations));

    assert_eq!(trace.len(), N as usize);
    assert!(trace.invocations().is_sorted_by_key(|i| i.t_ms));
    let ratio = added as f64 / input_bytes as f64;
    assert!(
        ratio <= 0.6,
        "building the trace grew the peak heap by {added} B, \
         {ratio:.2}× its {input_bytes} B of invocations"
    );
}
