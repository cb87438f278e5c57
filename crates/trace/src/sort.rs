//! The arrival-time sort behind every trace build.
//!
//! [`Trace::new`](crate::Trace::new), which both synthetic generators
//! and the Azure expansion end in, sorts by `t_ms` stably: equal
//! timestamps keep their input order, exactly as
//! `sort_by_key(|i| i.t_ms)` keeps them. The sort is an LSD radix sort:
//! each half is radix-sorted through one scratch of half the length,
//! then the halves are merged, the left half first on ties. Its extra
//! memory is that scratch and the digit counters: the standard
//! library's stable sort takes the same n/2 invocations from 10⁶ of them
//! up, and more below. One sort serves every length: a digit is never
//! wider than the half it sorts needs (`⌈log₂ len⌉` bits), so a short
//! trace zeroes and sums a few hundred counters per pass, not thousands.

use crate::invocation::Invocation;
use crate::workload::FunctionId;

/// Widest radix digit: the pass count comes from the largest key, with
/// digits of at most this many bits (a 13-bit digit's 8 192 counters fit
/// in cache), and of at most `⌈log₂ len⌉` bits for a half of `len`
/// invocations, so no pass has many more counters than invocations.
/// Halves of 8 192 invocations or more keep 13-bit digits: two passes
/// cover a 10⁶-invocation synthetic trace's 26-bit keys, three the
/// 27-bit keys of a 10⁷ one.
const MAX_DIGIT_BITS: u32 = 13;

/// Sort `invocations` by arrival time, stably: exactly the order
/// `invocations.sort_by_key(|i| i.t_ms)` gives.
pub(crate) fn sort_by_arrival(invocations: &mut [Invocation]) {
    let n = invocations.len();
    // At least one bit, so all-zero keys take one pass that moves nothing.
    let max = invocations.iter().map(|i| i.t_ms).max().unwrap_or(0);
    let bits = (u64::BITS - max.leading_zeros()).max(1);
    let mid = n / 2;
    let widest = MAX_DIGIT_BITS.min((n - mid).max(2).next_power_of_two().ilog2());
    let passes = bits.div_ceil(widest);
    let width = bits.div_ceil(passes);

    let blank = Invocation {
        func: FunctionId(0),
        t_ms: 0,
    };
    let mut scratch = vec![blank; n - mid];
    let (left, right) = invocations.split_at_mut(mid);
    // The right half must end in place; the left half is merged out of
    // the scratch, so it may end there.
    if radix_sort(right, &mut scratch, passes, width) {
        right.copy_from_slice(&scratch);
    }
    let scratch = &mut scratch[..mid];
    if !radix_sort(left, scratch, passes, width) {
        scratch.copy_from_slice(left);
    }
    merge_halves(scratch, invocations);
}

/// Stable LSD radix sort of `v` by `t_ms`: `passes` digits of `width`
/// bits, least significant first, each a counting scatter between `v`
/// and `scratch` (of `v`'s length). Returns whether the sorted run ended
/// in `scratch` (an odd pass count).
fn radix_sort(v: &mut [Invocation], scratch: &mut [Invocation], passes: u32, width: u32) -> bool {
    let radix = 1usize << width;
    let mask = radix as u64 - 1;
    let digit = |t_ms: u64, pass: u32| ((t_ms >> (pass * width)) & mask) as usize;

    // One read counts every pass's digits; each pass's counts become the
    // offset of its digit's first slot.
    let mut offsets = vec![0usize; passes as usize * radix];
    for inv in v.iter() {
        for (pass, counts) in (0..passes).zip(offsets.chunks_exact_mut(radix)) {
            counts[digit(inv.t_ms, pass)] += 1;
        }
    }
    for counts in offsets.chunks_exact_mut(radix) {
        let mut start = 0;
        for c in counts {
            let count = *c;
            *c = start;
            start += count;
        }
    }

    let (mut src, mut dst) = (v, scratch);
    for (pass, offsets) in (0..passes).zip(offsets.chunks_exact_mut(radix)) {
        for inv in src.iter() {
            let slot = &mut offsets[digit(inv.t_ms, pass)];
            dst[*slot] = *inv;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    passes % 2 == 1
}

/// Merge the sorted `left` (the first `left.len()` invocations, moved
/// out) with the sorted run that follows it in `v`, into `v`. Ties take
/// `left` first, which keeps the sort stable. Every write lands at or
/// below the next unread element of the right run.
fn merge_halves(left: &[Invocation], v: &mut [Invocation]) {
    let (mid, n) = (left.len(), v.len());
    let (mut i, mut j) = (0, mid);
    while i < mid && j < n {
        let (l, r) = (left[i], v[j]);
        let right_first = r.t_ms < l.t_ms;
        v[i + j - mid] = if right_first { r } else { l };
        i += usize::from(!right_first);
        j += usize::from(right_first);
    }
    // The right run's rest is already in place.
    let rest = &left[i..];
    v[i + j - mid..][..rest.len()].copy_from_slice(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FunctionProfile, WorkloadCatalog};
    use crate::{splitmix64, Trace};
    use proptest::prelude::*;

    const FUNCTIONS: u32 = 5;

    fn catalog() -> WorkloadCatalog {
        WorkloadCatalog::new(
            (0..FUNCTIONS)
                .map(|f| FunctionProfile::new(&format!("f{f}"), 100, 100, 128, 0.5))
                .collect(),
        )
    }

    /// The order a build must give.
    fn oracle(raw: &[Invocation]) -> Vec<Invocation> {
        let mut want = raw.to_vec();
        want.sort_by_key(|i| i.t_ms);
        want
    }

    fn check(raw: Vec<Invocation>) -> Result<(), TestCaseError> {
        let want = oracle(&raw);
        let trace = Trace::new(catalog(), raw);
        let got = trace.invocations();
        prop_assert!(
            got == want,
            "Trace::new: {} of {} invocations, first difference at {:?}",
            got.len(),
            want.len(),
            got.iter().zip(&want).position(|(g, w)| g != w)
        );
        Ok(())
    }

    /// `len` invocations from `seed`. `key_bits` bounds the keys (64
    /// reaches `u64::MAX`); `distinct`, when nonzero, folds them onto
    /// that many timestamps; `busy_pct` of them go to function 0, the
    /// rest spread over the catalog.
    fn invocations(
        len: usize,
        seed: u64,
        key_bits: u32,
        distinct: u64,
        busy_pct: u64,
    ) -> Vec<Invocation> {
        (0..len as u64)
            .map(|i| {
                let r = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let max = u64::MAX >> (64 - key_bits);
                let mut t_ms = r >> (64 - key_bits);
                if distinct > 0 {
                    t_ms = (t_ms % distinct) * (max / distinct);
                }
                let func = if r % 100 < busy_pct {
                    0
                } else {
                    (splitmix64(r) % u64::from(FUNCTIONS)) as u32
                };
                Invocation {
                    func: FunctionId(func),
                    t_ms,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `Trace::new` gives `sort_by_key`'s order: empty and
        /// one-element traces, a few invocations, and thousands (odd
        /// and even lengths and pass counts), with keys from 1 to 64
        /// bits wide, with heavy ties across functions and within one
        /// busy function.
        #[test]
        fn trace_builds_sort_exactly_like_the_stable_sort(
            len in prop_oneof![
                Just(0usize),
                Just(1usize),
                2usize..64,
                64usize..16_384,
            ],
            seed in 0u64..u64::MAX,
            key_bits in 1u32..65,
            distinct in prop_oneof![Just(0u64), 1u64..40],
            busy_pct in prop_oneof![Just(0u64), 50u64..101],
        ) {
            check(invocations(len, seed, key_bits, distinct, busy_pct))?;
        }
    }

    #[test]
    fn extreme_and_presorted_keys_keep_the_stable_order() {
        let n = 12_295;
        let mut raw = invocations(n, 1, 64, 0, 0);
        raw[n / 3].t_ms = u64::MAX;
        raw[2 * n / 3].t_ms = u64::MAX;
        raw[n - 1].t_ms = 0;
        check(raw.clone()).unwrap();
        // Every key 0.
        check(invocations(n, 2, 1, 1, 0)).unwrap();
        // Sorted but for its tail, then sorted outright.
        let mut tail = oracle(&raw);
        tail.extend(invocations(4_096, 3, 64, 5, 0));
        check(tail.clone()).unwrap();
        check(oracle(&tail)).unwrap();
    }
}
