//! Host-speed calibration: a fixed reference kernel timed right before
//! and right after every measured pass.
//!
//! On a shared host, neighbours on the same cores and memory slow every
//! pass by a varying factor: identical replays a minute apart differed
//! by up to 1.5× on a 2-vCPU VM. The kernel mimics the engine's access
//! pattern — hash-map probes and updates over a warm-pool-sized key
//! space, a ring of record-sized structs, a min-heap — so it slows by a
//! similar factor. It belongs to the benchmark, so no change to the
//! program moves it. Each pass is scaled by
//! `NOMINAL_KERNEL_S / (mean kernel time around it)`: the time the pass
//! would take on a host where the kernel runs in [`NOMINAL_KERNEL_S`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The kernel's time on an uncontended 2.1 GHz Xeon vCPU; scaled times
/// are "seconds on that host".
pub const NOMINAL_KERNEL_S: f64 = 0.070;

const KEYS: u64 = 8_192;
const STEPS: u64 = 800_000;
/// Records kept: a ring the size of a busy pool's working set.
const RING: usize = 1 << 16;

/// A record the size of the engine's invocation record.
#[derive(Clone, Copy)]
struct Rec {
    a: [u64; 10],
    b: u64,
}

/// Seconds one run of the kernel takes right now.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut recs = vec![Rec { a: [0; 10], b: 0 }; RING];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        let e = map.entry(key).or_insert(0);
        *e = e.wrapping_add(i);
        heap.push(Reverse(x >> 20));
        if heap.len() > KEYS as usize {
            heap.pop();
        }
        recs[i as usize % RING] = Rec { a: [x; 10], b: *e };
    }
    let sum = recs.iter().fold(0u64, |s, r| s.wrapping_add(r.a[3] ^ r.b));
    std::hint::black_box((sum, map.len(), heap.len()));
    start.elapsed().as_secs_f64()
}

/// Raw and host-scaled wall times of a series of passes.
#[derive(Debug, Default)]
pub struct Passes {
    pub raw_s: Vec<f64>,
    pub scaled_s: Vec<f64>,
}

impl Passes {
    /// Time `f` between two kernel runs.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.time_own(|| {
            let (s, out) = crate::timed(f);
            (out, s)
        })
    }

    /// Like [`Passes::time`] for a pass that measures its own region:
    /// `f` returns its result and the seconds that count. The first pass
    /// is also a peak-memory window; later passes repeat it, and the
    /// memory the allocator keeps between them would only add noise.
    pub fn time_own<T>(&mut self, f: impl FnOnce() -> (T, f64)) -> T {
        let before = kernel_s();
        let first = self.raw_s.is_empty();
        if first {
            crate::sys::open_window();
        }
        let (out, s) = f();
        if first {
            crate::sys::close_window();
        }
        let after = kernel_s();
        self.raw_s.push(s);
        self.scaled_s
            .push(s * 2.0 * NOMINAL_KERNEL_S / (before + after));
        out
    }

    pub fn len(&self) -> usize {
        self.raw_s.len()
    }

    /// Median host-scaled seconds per pass.
    pub fn scaled(&self) -> f64 {
        crate::stats::median(&self.scaled_s)
    }

    /// Median raw seconds per pass.
    pub fn raw(&self) -> f64 {
        crate::stats::median(&self.raw_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        let mut p = Passes::default();
        p.time_own(|| ((), 1.0));
        // Whatever the kernel measured, scaled = raw × nominal / kernel,
        // and the kernel takes tens of milliseconds.
        let kernel = p.raw_s[0] * NOMINAL_KERNEL_S / p.scaled_s[0];
        assert!((0.005..1.0).contains(&kernel), "kernel took {kernel} s");
        eprintln!("kernel ≈ {kernel:.4} s");
    }
}
