//! Synthetic Azure-like invocation trace generator.
//!
//! "Serverless in the Wild" \[26\] characterizes the Azure 2019 workload:
//! a heavy-tailed popularity distribution (a few functions dominate total
//! invocations), a mix of arrival behaviours (roughly: frequent quasi-
//! Poisson functions, timer-driven periodic functions, and rare bursty
//! functions), and inter-arrival CVs spanning orders of magnitude. The
//! generator reproduces those marginals with a seeded RNG so every
//! experiment is deterministic.

use crate::invocation::{Invocation, Trace};
use crate::workload::{FunctionId, WorkloadCatalog};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Arrival behaviour class of one trace function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalClass {
    /// Memoryless arrivals at `rate_per_min`.
    Poisson { rate_per_min: f64 },
    /// Timer-triggered: one invocation every `period_min`, with uniform
    /// jitter of ±`jitter_frac × period`.
    Periodic { period_min: f64, jitter_frac: f64 },
    /// On/off bursts: Poisson at `burst_rate_per_min` during bursts of
    /// exponential mean length `burst_len_min`, silent for exponential
    /// mean `gap_min` between bursts.
    Bursty {
        burst_rate_per_min: f64,
        burst_len_min: f64,
        gap_min: f64,
    },
}

/// Configuration of the synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthTraceConfig {
    /// Number of distinct trace functions (each mapped onto a catalog
    /// profile; many-to-one).
    pub n_functions: usize,
    /// Trace duration in minutes.
    pub duration_min: u64,
    /// RNG seed.
    pub seed: u64,
    /// Class mix (fractions; must sum to ≈1): poisson, periodic, bursty.
    pub class_mix: [f64; 3],
    /// Time-zone phase shift (minutes): every arrival is rotated by this
    /// offset **modulo the trace duration** — the same diurnal rhythm,
    /// started later in the day. Five configs differing only in offset
    /// model five regions' local working hours against one wall clock
    /// (the follow-the-sun workload). `0` (the default) is the identity:
    /// the generated trace is byte-identical to the pre-offset
    /// generator's.
    pub phase_offset_min: u64,
}

impl Default for SynthTraceConfig {
    fn default() -> Self {
        SynthTraceConfig {
            n_functions: 40,
            duration_min: 240,
            seed: 0xEC0_11FE,
            // Azure: most load from frequently invoked apps; timers are a
            // large trigger class; true bursts are the minority.
            class_mix: [0.55, 0.30, 0.15],
            phase_offset_min: 0,
        }
    }
}

impl SynthTraceConfig {
    /// This config with its arrivals rotated `offset_min` minutes into
    /// the trace (modulo the duration) — see
    /// [`SynthTraceConfig::phase_offset_min`].
    pub fn with_phase_offset_min(mut self, offset_min: u64) -> Self {
        self.phase_offset_min = offset_min;
        self
    }

    /// Small config for fast unit tests.
    pub fn small(seed: u64) -> Self {
        SynthTraceConfig {
            n_functions: 8,
            duration_min: 60,
            seed,
            ..Default::default()
        }
    }

    /// Production-scale preset: enough functions and hours that
    /// [`SynthTraceConfig::generate_scaled`] emits **over a million
    /// invocations** — the workload class the sharded simulator exists
    /// for (the default 40-function config tops out in the thousands).
    pub fn million(seed: u64) -> Self {
        SynthTraceConfig {
            n_functions: 6_000,
            duration_min: 600,
            seed,
            ..Default::default()
        }
    }

    /// Order-of-magnitude-up preset: **over ten million invocations**
    /// under [`SynthTraceConfig::generate_scaled`] (24 000 functions ×
    /// 25 hours at the same marginals as [`SynthTraceConfig::million`]).
    /// Per-function seeding makes it reproducible — and stable under
    /// `n_functions` growth at this duration — so 10⁷-scale benchmarks
    /// need no Azure data.
    pub fn ten_million(seed: u64) -> Self {
        SynthTraceConfig {
            n_functions: 24_000,
            duration_min: 1_500,
            seed,
            ..Default::default()
        }
    }

    /// Expected invocation volume, for sizing the invocations' one
    /// up-front allocation: the class mix and popularity law land around
    /// 0.3 invocations per function-minute (the million preset's 3.6 M
    /// function-minutes produce ≈1.06 M invocations). Slightly generous
    /// so the common case never regrows; an underestimate only costs a
    /// regrowth, never correctness.
    fn estimated_invocations(&self) -> usize {
        let function_minutes = (self.n_functions as u64).saturating_mul(self.duration_min);
        (function_minutes.saturating_mul(8) / 25) as usize + 1_024
    }

    /// Generate the trace against `base_catalog`.
    ///
    /// Each synthetic function becomes a *distinct* catalog entry cloned
    /// from a uniformly chosen base profile (the paper invokes trace
    /// functions "randomly, but uniformly to ensure representativeness")
    /// with a small deterministic perturbation of execution time and
    /// memory, then draws a Pareto popularity weight and an arrival class
    /// from `class_mix`. Distinct entries matter: EcoLife keeps per-
    /// function optimizer state and warm-pool slots, so function identity
    /// drives memory pressure.
    pub fn generate(&self, base_catalog: &WorkloadCatalog) -> Trace {
        assert!(self.n_functions > 0, "need at least one function");
        assert!(!base_catalog.is_empty(), "catalog must not be empty");
        let mix_sum: f64 = self.class_mix.iter().sum();
        assert!(
            (mix_sum - 1.0).abs() < 1e-6,
            "class mix must sum to 1 (got {mix_sum})"
        );

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut invocations = Vec::with_capacity(self.estimated_invocations());
        let mut catalog = WorkloadCatalog::default();

        for fid in 0..self.n_functions {
            self.emit_function(&mut rng, fid, base_catalog, &mut catalog, &mut invocations);
        }

        Trace::new(catalog, invocations)
    }

    /// The scale-up generation path: same marginals as
    /// [`SynthTraceConfig::generate`], but every function draws from its
    /// **own** RNG stream seeded from `(seed, fid)` instead of sharing
    /// one sequential stream. Two consequences matter at the
    /// million-invocation scale this path exists for:
    ///
    /// * a function's profile and arrival stream depend only on `(seed,
    ///   fid)` — growing `n_functions` appends functions without
    ///   perturbing existing streams (`generate` would reshuffle
    ///   everything);
    /// * generation is embarrassingly parallel per function if it ever
    ///   needs to be (the sharded simulator's own partitioning axis).
    ///
    /// Use [`SynthTraceConfig::million`] for a ≥10⁶-invocation preset.
    pub fn generate_scaled(&self, base_catalog: &WorkloadCatalog) -> Trace {
        assert!(self.n_functions > 0, "need at least one function");
        assert!(!base_catalog.is_empty(), "catalog must not be empty");
        let mix_sum: f64 = self.class_mix.iter().sum();
        assert!(
            (mix_sum - 1.0).abs() < 1e-6,
            "class mix must sum to 1 (got {mix_sum})"
        );

        let mut invocations = Vec::with_capacity(self.estimated_invocations());
        let mut catalog = WorkloadCatalog::default();
        for fid in 0..self.n_functions {
            // Per-function seed through the shared splitmix64 mixer:
            // nearby (seed, fid) pairs land in unrelated streams.
            let s = self
                .seed
                .wrapping_add((fid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = SmallRng::seed_from_u64(crate::splitmix64(s));
            self.emit_function(&mut rng, fid, base_catalog, &mut catalog, &mut invocations);
        }
        Trace::new(catalog, invocations)
    }

    /// Emit one synthetic function: a perturbed catalog entry cloned from
    /// a base profile plus its arrival stream. Shared by the sequential
    /// ([`SynthTraceConfig::generate`]) and per-function-seeded
    /// ([`SynthTraceConfig::generate_scaled`]) paths — only the RNG
    /// stream discipline differs.
    fn emit_function(
        &self,
        rng: &mut SmallRng,
        fid: usize,
        base_catalog: &WorkloadCatalog,
        catalog: &mut WorkloadCatalog,
        out: &mut Vec<Invocation>,
    ) {
        let horizon_ms = self.duration_min * 60_000;
        let (_, base) = base_catalog
            .iter()
            .nth(fid % base_catalog.len())
            .expect("non-empty catalog");
        // ±20% runtime and ±25% memory perturbation keeps profiles
        // realistic while making every function distinct.
        let exec_scale = rng.gen_range(0.8..1.2);
        let mem_scale = rng.gen_range(0.75..1.25);
        let func = catalog.push(crate::workload::FunctionProfile::new(
            &format!("synth-{fid}({})", base.name),
            ((base.base_exec_ms as f64 * exec_scale).round() as u64).max(1),
            (base.base_cold_ms as f64 * exec_scale).round() as u64,
            ((base.memory_mib as f64 * mem_scale).round() as u64).max(64),
            base.cpu_sensitivity,
        ));
        debug_assert_eq!(func, FunctionId(fid as u32));

        // Pareto(α=1.2) popularity weight, truncated: heavy tail with
        // a few dominant functions. The cap keeps the head of the
        // distribution at minutes-scale inter-arrivals — the regime
        // where the keep-alive decision is actually contested (the
        // paper replays Azure functions uniformly, which produces the
        // same sparse per-function arrival rhythm).
        let u: f64 = rng.gen_range(1e-9..1.0f64);
        let weight = (1.0 / u).powf(1.0 / 1.2).min(15.0);

        let class = self.sample_class(rng, weight);
        self.emit_arrivals(rng, func, class, horizon_ms, out);
    }

    fn sample_class(&self, rng: &mut SmallRng, weight: f64) -> ArrivalClass {
        let x: f64 = rng.gen();
        if x < self.class_mix[0] {
            // Base 0.1/min scaled by popularity: typical functions see
            // minutes-scale gaps, the busiest one or two invocations per
            // minute — matching the Azure head of the distribution.
            ArrivalClass::Poisson {
                rate_per_min: 0.1 * weight,
            }
        } else if x < self.class_mix[0] + self.class_mix[1] {
            // Azure timers cluster at minutes-scale periods.
            let period = *[1.0f64, 5.0, 10.0, 15.0, 30.0, 60.0]
                .get(rng.gen_range(0..6usize))
                .unwrap();
            ArrivalClass::Periodic {
                period_min: period,
                jitter_frac: 0.05,
            }
        } else {
            ArrivalClass::Bursty {
                burst_rate_per_min: 2.0 * weight.min(10.0),
                burst_len_min: 3.0,
                gap_min: 45.0,
            }
        }
    }

    fn emit_arrivals(
        &self,
        rng: &mut SmallRng,
        func: FunctionId,
        class: ArrivalClass,
        horizon_ms: u64,
        out: &mut Vec<Invocation>,
    ) {
        // Time-zone rotation: the RNG draws are untouched (the stream is
        // identical for any offset); only the wall-clock placement moves,
        // wrapping past the horizon back to the start of the trace. With
        // a zero offset this is the identity. Every arrival and the
        // offset are below the horizon, so one subtraction wraps the sum.
        let offset_ms = self
            .phase_offset_min
            .checked_mul(60_000)
            .expect("phase offset overflows ms")
            % horizon_ms.max(1);
        let shift = |t: u64| -> u64 {
            debug_assert!(t < horizon_ms);
            let s = t + offset_ms;
            if s >= horizon_ms {
                s - horizon_ms
            } else {
                s
            }
        };
        match class {
            ArrivalClass::Poisson { rate_per_min } => {
                if rate_per_min <= 0.0 {
                    return;
                }
                let mean_gap_ms = 60_000.0 / rate_per_min;
                let mut t = exp_sample(rng, mean_gap_ms);
                while (t as u64) < horizon_ms {
                    out.push(Invocation {
                        func,
                        t_ms: shift(t as u64),
                    });
                    t += exp_sample(rng, mean_gap_ms);
                }
            }
            ArrivalClass::Periodic {
                period_min,
                jitter_frac,
            } => {
                let period_ms = period_min * 60_000.0;
                let mut t = rng.gen_range(0.0..period_ms);
                while (t as u64) < horizon_ms {
                    let jitter = rng.gen_range(-jitter_frac..jitter_frac) * period_ms;
                    let at = (t + jitter).max(0.0) as u64;
                    if at < horizon_ms {
                        out.push(Invocation {
                            func,
                            t_ms: shift(at),
                        });
                    }
                    t += period_ms;
                }
            }
            ArrivalClass::Bursty {
                burst_rate_per_min,
                burst_len_min,
                gap_min,
            } => {
                let mut t = exp_sample(rng, gap_min * 60_000.0);
                while (t as u64) < horizon_ms {
                    let burst_end = t + exp_sample(rng, burst_len_min * 60_000.0);
                    let mean_gap_ms = 60_000.0 / burst_rate_per_min;
                    let mut bt = t;
                    while bt < burst_end && (bt as u64) < horizon_ms {
                        out.push(Invocation {
                            func,
                            t_ms: shift(bt as u64),
                        });
                        bt += exp_sample(rng, mean_gap_ms);
                    }
                    t = burst_end + exp_sample(rng, gap_min * 60_000.0);
                }
            }
        }
    }
}

/// Exponential sample with the given mean (inverse-CDF method).
fn exp_sample(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0f64);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> WorkloadCatalog {
        WorkloadCatalog::sebs()
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthTraceConfig::small(11);
        let a = cfg.generate(&catalog());
        let b = cfg.generate(&catalog());
        assert_eq!(a, b);
        let c = SynthTraceConfig::small(12).generate(&catalog());
        assert_ne!(a, c);
    }

    #[test]
    fn trace_respects_horizon() {
        let cfg = SynthTraceConfig {
            duration_min: 30,
            ..SynthTraceConfig::small(5)
        };
        let t = cfg.generate(&catalog());
        assert!(t.horizon_ms() < 30 * 60_000);
        assert!(!t.is_empty());
    }

    #[test]
    fn default_config_produces_substantial_load() {
        let t = SynthTraceConfig::default().generate(&catalog());
        // 40 functions over 4 hours must produce hundreds of invocations.
        assert!(t.len() > 500, "only {} invocations", t.len());
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let t = SynthTraceConfig {
            n_functions: 60,
            duration_min: 480,
            ..Default::default()
        }
        .generate(&catalog());
        let mut counts: Vec<usize> = (0..t.catalog().len())
            .map(|i| t.count_for(FunctionId(i as u32)))
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top_quarter: usize = counts[..counts.len() / 4].iter().sum();
        // The busiest quarter of functions carries the majority of load.
        assert!(
            top_quarter as f64 > 0.5 * total as f64,
            "top quarter {top_quarter} of {total}"
        );
    }

    #[test]
    fn periodic_functions_have_low_gap_variance() {
        let cfg = SynthTraceConfig {
            n_functions: 1,
            duration_min: 600,
            seed: 3,
            class_mix: [0.0, 1.0, 0.0],
            phase_offset_min: 0,
        };
        let t = cfg.generate(&catalog());
        let times: Vec<u64> = t.invocations().iter().map(|i| i.t_ms).collect();
        assert!(times.len() >= 9);
        let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let cv = (gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64)
            .sqrt()
            / mean;
        assert!(cv < 0.5, "periodic CV {cv:.2} too high");
    }

    #[test]
    fn scaled_generation_is_deterministic_and_distinct_from_sequential() {
        let cfg = SynthTraceConfig::small(19);
        let a = cfg.generate_scaled(&catalog());
        let b = cfg.generate_scaled(&catalog());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Different RNG discipline, different (deterministic) trace.
        assert_ne!(a, cfg.generate(&catalog()));
    }

    #[test]
    fn scaled_streams_are_stable_under_function_count_growth() {
        // Growing the workload appends functions; the first k functions'
        // profiles and arrival streams must not move.
        let small = SynthTraceConfig {
            n_functions: 6,
            ..SynthTraceConfig::small(23)
        }
        .generate_scaled(&catalog());
        let grown = SynthTraceConfig {
            n_functions: 11,
            ..SynthTraceConfig::small(23)
        }
        .generate_scaled(&catalog());
        for fid in 0..6u32 {
            let f = FunctionId(fid);
            assert_eq!(
                small.catalog().profile(f),
                grown.catalog().profile(f),
                "profile of {f} moved"
            );
            let arrivals = |t: &Trace| -> Vec<u64> {
                t.invocations()
                    .iter()
                    .filter(|i| i.func == f)
                    .map(|i| i.t_ms)
                    .collect()
            };
            assert_eq!(arrivals(&small), arrivals(&grown), "stream of {f} moved");
        }
    }

    /// The trace's length and its invocation sequence folded through
    /// splitmix64. The presets' pins were taken while traces were still
    /// built with the standard library's stable sort, so a sort or a
    /// generator that moves one invocation fails them.
    fn digest(t: &Trace) -> (usize, u64) {
        let h = t.invocations().iter().fold(t.len() as u64, |h, i| {
            crate::splitmix64(crate::splitmix64(h ^ i.t_ms) ^ u64::from(i.func.0))
        });
        (t.len(), h)
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "million-invocation generation; run under --release"
    )]
    fn million_preset_tops_a_million_invocations() {
        let t = SynthTraceConfig::million(41).generate_scaled(&catalog());
        assert!(
            t.len() >= 1_000_000,
            "million preset produced only {} invocations",
            t.len()
        );
        assert_eq!(t.catalog().len(), 6_000);
        assert_eq!(digest(&t), (1_064_337, 0x5d12_8bf2_a553_6a9f));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "ten-million-invocation generation; run under --release"
    )]
    fn ten_million_preset_tops_ten_million_invocations() {
        let cfg = SynthTraceConfig::ten_million(41);
        let t = cfg.generate_scaled(&catalog());
        assert!(
            t.len() >= 10_000_000,
            "ten-million preset produced only {} invocations",
            t.len()
        );
        assert_eq!(t.catalog().len(), 24_000);
        assert_eq!(digest(&t), (10_644_824, 0x4724_3dc6_7e07_9014));
        // Regenerating is bit-identical (per-function seeding).
        assert_eq!(t, cfg.generate_scaled(&catalog()));
    }

    #[test]
    fn phase_offset_rotates_arrivals_modulo_duration() {
        let base = SynthTraceConfig::small(31); // 60-minute duration
        let a = base.clone().generate(&catalog());
        let b = base.clone().with_phase_offset_min(20).generate(&catalog());
        assert_eq!(a.len(), b.len(), "rotation must not add or drop arrivals");
        let key = |func: u32, t: u64| (func, t);
        let mut rotated: Vec<(u32, u64)> = a
            .invocations()
            .iter()
            .map(|i| key(i.func.0, (i.t_ms + 20 * 60_000) % (60 * 60_000)))
            .collect();
        rotated.sort_unstable();
        let mut got: Vec<(u32, u64)> = b
            .invocations()
            .iter()
            .map(|i| key(i.func.0, i.t_ms))
            .collect();
        got.sort_unstable();
        assert_eq!(rotated, got);
        // Zero offset is the identity.
        assert_eq!(a, base.with_phase_offset_min(0).generate(&catalog()));
    }

    #[test]
    #[should_panic(expected = "class mix")]
    fn rejects_bad_mix() {
        let cfg = SynthTraceConfig {
            class_mix: [0.5, 0.5, 0.5],
            ..SynthTraceConfig::small(0)
        };
        cfg.generate(&catalog());
    }
}
