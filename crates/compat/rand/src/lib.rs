//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this in-tree crate provides the (small) `rand 0.8` API subset the
//! workspace actually uses: [`StdRng`] seeded via
//! [`SeedableRng::seed_from_u64`], the [`Rng`] extension trait with
//! `gen_range`/`gen_bool`, and [`SliceRandom::choose`].
//!
//! The generator is xoshiro256** seeded through SplitMix64 — not the
//! ChaCha12 the real `StdRng` uses, but statistically strong far beyond
//! what Monte-Carlo channel simulation needs, `Copy`-free, and fully
//! deterministic across platforms and thread counts (which the
//! `BatchEngine` reproducibility guarantee relies on).

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Core RNG interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seedable construction (only the `u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's standard RNG: xoshiro256** with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

/// SplitMix64's state increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        StdRng { s }
    }
}

/// xoshiro256**'s output scrambler, applied to the state word `s[1]`.
#[inline]
fn starstar(s1: u64) -> u64 {
    s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

impl StdRng {
    /// The first output of the generator seeded with `seed`, without
    /// building it: equal to `StdRng::seed_from_u64(seed).next_u64()`.
    /// That output reads only `s[1]`, the second SplitMix64 word, so it
    /// costs one SplitMix64 step at the seed advanced by two increments.
    #[inline]
    pub fn first_u64(seed: u64) -> u64 {
        let mut sm = seed.wrapping_add(GAMMA);
        starstar(splitmix64(&mut sm))
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let out = starstar(self.s[1]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// Types that can be drawn uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`hi` included when `inclusive`).
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128) - (lo as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "gen_range called with an empty range");
                // Modulo draw: the bias over a u64 source is negligible for
                // the simulation-sized spans used here. Every span but the
                // full 2^64 fits a u64, where the remainder is the same
                // value at a fraction of a 128-bit division's cost, and a
                // power-of-two span (every contention window) takes it
                // with a mask.
                let x = rng.next_u64();
                let v = match u64::try_from(span) {
                    Ok(span) if span.is_power_of_two() => i128::from(x & (span - 1)),
                    Ok(span) => i128::from(x % span),
                    Err(_) => (u128::from(x) % span as u128) as i128,
                };
                (lo as i128 + v) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        _inclusive: bool,
    ) -> Self {
        assert!(hi > lo || (_inclusive && hi >= lo), "gen_range called with an empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        _inclusive: bool,
    ) -> Self {
        lo + (rng.next_f64() as f32) * (hi - lo)
    }
}

/// Range-like arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_range(rng, lo, hi, true)
    }
}

/// Extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from a range, e.g. `rng.gen_range(0..10)` or
    /// `rng.gen_range(-1.0..1.0)`.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Random selection from slices.
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// Uniformly random element, `None` if empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            self.get(rng.gen_range(0..self.len()))
        }
    }
}

/// One-stop import, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::{Rng, RngCore, SampleUniform, SeedableRng, SliceRandom, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&f));
            let w = rng.gen_range(0..=4u32);
            assert!(w <= 4);
        }
    }

    /// The reference draw: the remainder taken in 128 bits for every span.
    fn wide_draw(x: u64, lo: i128, hi: i128) -> i128 {
        lo + (u128::from(x) % (hi - lo + 1) as u128) as i128
    }

    #[test]
    fn narrow_modulo_equals_the_wide_formula() {
        const DRAWS: usize = 100_000;
        // Each case draws from one stream while a clone of it feeds the
        // reference formula the same raw word.
        fn check<T: SampleUniform + Into<i128> + std::fmt::Debug>(lo: T, hi: T, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut raw = rng.clone();
            for _ in 0..DRAWS {
                let got: T = rng.gen_range(lo..=hi);
                let want = wide_draw(raw.next_u64(), lo.into(), hi.into());
                assert_eq!(got.into(), want, "range {lo:?}..={hi:?}");
            }
        }
        check(0u8, u8::MAX, 1);
        check(3u8, 200, 2);
        check(i8::MIN, i8::MAX, 3);
        check(-5i8, 17, 4);
        check(0u32, 31, 5);
        check(0u32, u32::MAX, 6);
        check(i32::MIN, i32::MAX, 7);
        check(-1_000i32, 1_000, 8);
        check(i64::MIN + 1, i64::MAX, 9);
        check(-3i64, i64::MAX / 3, 10);
        // span 2^64: the only spans that still take the 128-bit path
        check(0u64, u64::MAX, 11);
        check(i64::MIN, i64::MAX, 12);
        // every power-of-two span below it takes the mask
        for k in 0..64 {
            let span = 1u64 << k;
            check(0u64, span - 1, 14 + k);
            check(u64::MAX - (span - 1), u64::MAX, 78 + k);
        }

        // half-open ranges share the draw
        let mut rng = StdRng::seed_from_u64(13);
        let mut raw = rng.clone();
        for _ in 0..DRAWS {
            let got = rng.gen_range(7u32..1_031);
            assert_eq!(i128::from(got), wide_draw(raw.next_u64(), 7, 1_030));
        }
    }

    #[test]
    fn first_u64_is_the_first_output() {
        for seed in [0, 1, 7, u64::MAX, GAMMA, 1 << 63] {
            assert_eq!(StdRng::first_u64(seed), StdRng::seed_from_u64(seed).next_u64(), "{seed}");
        }
    }

    #[test]
    fn unit_floats_cover_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
    }

    #[test]
    fn choose_is_uniform_ish() {
        let mut rng = StdRng::seed_from_u64(4);
        let items = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[*items.as_slice().choose(&mut rng).unwrap()] += 1;
        }
        for c in counts {
            assert!(c > 1_500, "{counts:?}");
        }
    }
}
