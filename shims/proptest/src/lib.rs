//! Offline stand-in for `proptest`.
//!
//! Supports the property-test surface this workspace uses: the
//! [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//! header), range/tuple/closure strategies, `prop::collection::vec`,
//! `prop::sample::select`, `any::<T>()`, and the `prop_assert*` macros.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with the assertion message directly. Case generation is deterministic —
//! the RNG is seeded from the test function's name — so failures reproduce
//! across runs and machines.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Deterministic case generation.

    /// Per-test configuration (case count only).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// SplitMix64 generator used to drive strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed directly.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Seed deterministically from a test name (FNV-1a).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
            }
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}


pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generate a value, then generate from a strategy built from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Box the strategy (type erasure).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Type-erased strategy.
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    (lo + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    // span can exceed u64 only for 128-bit-wide full ranges,
                    // which this workspace never uses.
                    (lo + rng.below(span as u64) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! float_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as f64;
                    let hi = self.end as f64;
                    (lo + rng.unit_f64() * (hi - lo)) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as f64;
                    let hi = *self.end() as f64;
                    (lo + rng.unit_f64() * (hi - lo)) as $t
                }
            }
        )*};
    }

    float_range_strategies!(f32, f64);

    macro_rules! tuple_strategies {
        ($(($($name:ident),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy generating a `Vec` of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and size bounds.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy choosing uniformly from a fixed list.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Choose uniformly from `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draw an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_ints!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            (rng.unit_f64() * 2.0 - 1.0) as f32 * 1e3
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            (rng.unit_f64() * 2.0 - 1.0) * 1e3
        }
    }

    /// Strategy produced by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Namespaced access to strategy modules, mirroring `proptest::prop`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    //! The usual imports: `use proptest::prelude::*;`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

// Re-exports so macro expansions can use absolute paths.
pub use strategy::Strategy;
pub use test_runner::ProptestConfig;

/// Assert inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Define property tests.
///
/// Each `fn name(pat in strategy, ...) { body }` becomes a `#[test]`
/// function running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($config:expr)) => {};
    (@cfg ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for __case in 0..__config.cases {
                let ($($arg,)*) = (
                    $( $crate::Strategy::sample(&($strat), &mut __rng), )*
                );
                $body
            }
        }
        $crate::__proptest_impl!(@cfg ($config) $($rest)*);
    };
}

// Keep the unused-import lints honest in downstream crates.
#[doc(hidden)]
pub struct __Unused(PhantomData<(Range<u8>, RangeInclusive<u8>)>);

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_same_name_same_stream() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(v in -50i32..=50, u in 3usize..9, f in 0.5f32..2.0) {
            prop_assert!((-50..=50).contains(&v));
            prop_assert!((3..9).contains(&u));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_and_map_compose(
            xs in prop::collection::vec((-8i32..=8).prop_map(|v| v * 2), 2..6),
            flag in any::<bool>(),
            pick in prop::sample::select(vec!["a", "b", "c"]),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|v| v % 2 == 0));
            // Every bool is a valid draw; the point is that `any::<bool>()`
            // composes with the other strategies.
            let _: bool = flag;
            prop_assert!(["a", "b", "c"].contains(&pick));
        }

        #[test]
        fn flat_map_links_dimensions(
            (len, v) in (1usize..5).prop_flat_map(|n| {
                (Just(n), prop::collection::vec(0u64..10, n))
            }),
        ) {
            prop_assert_eq!(v.len(), len);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_header_accepted(x in 0u64..100) {
            prop_assert!(x < 100);
        }
    }
}
