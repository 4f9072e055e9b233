//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the API subset its property tests use: the [`proptest!`]
//! macro, [`Strategy`](strategy::Strategy) with `prop_map`/`prop_shuffle`/`boxed`,
//! integer ranges, [`Just`](strategy::Just), [`any`](arbitrary::any), `prop::collection::vec`, [`prop_oneof!`]
//! and the `prop_assert*` macros. Inputs are sampled from a seeded
//! generator (deterministic per test name), so runs are reproducible.
//! There is no shrinking: a failing case panics with the case number so
//! it can be replayed under a debugger.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

/// Per-test configuration (only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` sampled inputs.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Samples one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Shuffles generated collections.
        fn prop_shuffle(self) -> Shuffle<Self>
        where
            Self: Sized,
            Self::Value: Shuffleable,
        {
            Shuffle { inner: self }
        }

        /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Collections whose element order can be randomized.
    pub trait Shuffleable {
        /// Shuffles in place.
        fn shuffle_with(&mut self, rng: &mut StdRng);
    }

    impl<T> Shuffleable for Vec<T> {
        fn shuffle_with(&mut self, rng: &mut StdRng) {
            use rand::seq::SliceRandom;
            self.as_mut_slice().shuffle(rng);
        }
    }

    /// See [`Strategy::prop_shuffle`].
    pub struct Shuffle<S> {
        inner: S,
    }

    impl<S> Strategy for Shuffle<S>
    where
        S: Strategy,
        S::Value: Shuffleable,
    {
        type Value = S::Value;
        fn sample(&self, rng: &mut StdRng) -> S::Value {
            let mut v = self.inner.sample(rng);
            v.shuffle_with(rng);
            v
        }
    }

    /// Uniform choice between type-erased alternatives.
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union of the given arms (at least one).
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            let arm = rng.gen_range(0..self.arms.len());
            self.arms[arm].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod arbitrary {
    //! The `any::<T>()` entry point.

    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Samples one arbitrary value.
        fn arbitrary_value(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut StdRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut StdRng) -> Self {
            rng.gen::<bool>()
        }
    }

    /// Strategy over the full domain of `T`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T` (`any::<u64>()` etc.).
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// Strategy for vectors with sampled length.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// A vector of `element`-generated values with a length drawn from
    /// `len` (half-open, as in `proptest`).
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic per-test seeding.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds the RNG for one sampled case (macro plumbing).
    #[must_use]
    pub fn new_rng(base: u64, case: u32) -> StdRng {
        StdRng::seed_from_u64(
            base.wrapping_add(u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// FNV-1a hash of the test path, used as the base RNG seed so each
    /// test gets a stable, distinct input stream.
    #[must_use]
    pub fn seed_for(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Samples a strategy once (macro plumbing; public for the macros).
pub fn sample_one<S: strategy::Strategy>(strat: &S, rng: &mut StdRng) -> S::Value {
    strat.sample(rng)
}

/// The `proptest!` test-block macro: expands each contained `fn` into a
/// `#[test]` that runs `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (@with_config ($cfg:expr)
        $(
            #[test]
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let base = $crate::test_runner::seed_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    let mut prop_rng = $crate::test_runner::new_rng(base, case);
                    $(let $arg = $crate::sample_one(&($strat), &mut prop_rng);)+
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Asserts a condition inside a property (panics on failure — no
/// shrinking in this offline stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    // The `prop::collection::vec(..)` path used by callers.
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn ranges_and_maps_sample_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let strat = (10u64..20).prop_map(|x| x * 2);
        for _ in 0..200 {
            let v = crate::sample_one(&strat, &mut rng);
            assert!((20..40).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = StdRng::seed_from_u64(2);
        let strat = Just((0..20).collect::<Vec<usize>>()).prop_shuffle();
        let v = crate::sample_one(&strat, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<usize>>());
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = StdRng::seed_from_u64(3);
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[crate::sample_one(&strat, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn vec_lengths_respect_the_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let strat = prop::collection::vec(0u32..5, 2..7);
        for _ in 0..100 {
            let v = crate::sample_one(&strat, &mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn the_macro_itself_works(x in 0u64..100, flip in any::<bool>()) {
            prop_assert!(x < 100);
            prop_assert_eq!(flip as u64 * 2 % 2, 0);
        }
    }
}
