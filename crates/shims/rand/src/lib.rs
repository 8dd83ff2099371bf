//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! the subset of the `rand 0.8` API the repo actually uses, backed by a
//! deterministic SplitMix64 generator. Statistical quality is more than
//! adequate for data generation and Monte-Carlo estimation; the point is
//! that every artifact stays reproducible from a `u64` seed. To use the
//! real crate, swap the `rand` entry in `[workspace.dependencies]` for a
//! registry version — no source changes needed.
//!
//! Every draw takes exactly one `next_u64` word: `gen_range(lo..hi)` is
//! `lo + word % (hi − lo)` and `gen::<f64>()` is `(word >> 11)·2⁻⁵³`.
//! The Monte-Carlo confidence estimator reads its samples as raw words
//! with this mapping, so the output bytes of a `confidence ε` statement
//! depend on it; `one_word_per_draw` pins it.

pub mod rngs;
pub mod seq;

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (subset: `seed_from_u64`).
pub trait SeedableRng: Sized {
    /// Construct deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable by [`Rng::gen`].
pub trait Standard {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

/// Ranges acceptable to [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range (panics if empty).
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range over empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range over empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// The user-facing generator interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform draw from a range.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::sample(self) < p
    }

    /// Draw a value of any [`Standard`]-samplable type.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3i64..9);
            assert!((3..9).contains(&v));
            let v = rng.gen_range(2usize..=5);
            assert!((2..=5).contains(&v));
            let v = rng.gen_range(-4i64..=-1);
            assert!((-4..=-1).contains(&v));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    /// Each draw consumes one word: `gen_range(0..n)` is `word % n` and
    /// `gen::<f64>()` is `(word >> 11)·2⁻⁵³`.
    #[test]
    fn one_word_per_draw() {
        let mut draws = StdRng::seed_from_u64(0xC0FF_1DE5);
        let mut words = StdRng::seed_from_u64(0xC0FF_1DE5);
        for n in (1usize..=50).chain([97, 1 << 20, usize::MAX]) {
            assert_eq!(
                draws.gen_range(0..n),
                (words.next_u64() % n as u64) as usize
            );
            let u: f64 = draws.gen();
            let want = (words.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(u.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
