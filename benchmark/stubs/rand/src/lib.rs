//! Offline stand-in for `rand` 0.8 (features `std`, `small_rng`).
//!
//! Not merely API-compatible: on 64-bit targets `SmallRng` yields the
//! same stream as the published crate, so every seeded world, schedule
//! and threshold keeps its value. That means xoshiro256++ for the
//! generator, the `Standard` `f64` conversion `(x >> 11) * 2^-53`, and
//! the widening-multiply rejection sampler behind `gen_range`.

use std::ops::Range;

/// Error type of `RngCore::try_fill_bytes`; this generator never fails.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("random number generator failed")
    }
}

impl std::error::Error for Error {}

/// Core generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Seed the generator from one `u64`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

/// Integer types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform draw from the half-open `range`; panics if it is empty.
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty) => {
        impl SampleUniform for $ty {
            fn sample_range<R: RngCore + ?Sized>(range: Range<$ty>, rng: &mut R) -> $ty {
                assert!(range.start < range.end, "cannot sample empty range");
                // rand 0.8 `UniformInt::sample_single`: multiply a full
                // word by the span, keep the high half, and reject the
                // draws whose low half falls in the biased zone.
                let span = (range.end - range.start) as u64;
                let zone = (span << span.leading_zeros()).wrapping_sub(1);
                loop {
                    let wide = u128::from(rng.next_u64()) * u128::from(span);
                    if (wide as u64) <= zone {
                        return range.start + (wide >> 64) as $ty;
                    }
                }
            }
        }
    };
}

uniform_int!(u64);
#[cfg(target_pointer_width = "64")]
uniform_int!(usize);

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of a [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++, the algorithm behind rand 0.8's `SmallRng` on
    /// 64-bit targets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        /// Start from an explicit state (at least one word non-zero).
        pub fn from_state(s: [u64; 4]) -> Self {
            assert!(s != [0; 4], "xoshiro256++ state must not be all zero");
            SmallRng { s }
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // SplitMix64 fills the four state words, as xoshiro's authors
            // recommend and as the ROADMAP states for the in-tree
            // generator that is to replace this crate.
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng::from_state(s)
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }
}
