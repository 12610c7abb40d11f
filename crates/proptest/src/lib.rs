//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no network access to a crates registry, so this
//! crate vendors the subset of proptest's API that the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`/`prop_filter`, range and
//! tuple strategies, [`any`], [`Just`], `prop_oneof!`, `collection::vec`,
//! `array::uniform16`, the `proptest!`/`prop_assert*`/`prop_assume!` macros,
//! and [`ProptestConfig`].
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports the generated inputs verbatim.
//! * **Deterministic seeding.** Each test derives its RNG seed from the test
//!   name, so runs are reproducible without a persistence file.
//! * Filters resample locally (bounded retries) instead of global rejection
//!   bookkeeping; `prop_assume!` discards the whole case.

#![forbid(unsafe_code)]

use core::fmt;
use core::marker::PhantomData;
use core::ops::Range;

/// Deterministic PRNG used to drive generation (xoshiro256** core).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut sm = seed;
        TestRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// Creates an RNG whose seed is derived from a test name (FNV-1a hash).
    pub fn from_name(name: &str) -> TestRng {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h)
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a test case did not produce a pass/fail verdict, or failed.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was discarded (`prop_assume!` failed); it is retried with
    /// fresh inputs and does not count towards the case budget.
    Reject(String),
    /// An assertion failed; the harness panics with this message.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure from any message.
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(reason.into())
    }

    /// Constructs a rejection from any message.
    pub fn reject(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(reason.into())
    }
}

/// Result type produced by a `proptest!` case body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Configuration for a `proptest!` block (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases (everything else default).
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
///
/// Unlike real proptest there is no shrinking: `generate` returns a value
/// directly.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `pred` holds, resampling otherwise.
    ///
    /// `whence` labels the filter in the panic raised if the predicate
    /// rejects too many consecutive samples.
    fn prop_filter<F>(self, whence: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, whence: whence.into(), pred }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter {:?} rejected 1000 consecutive samples", self.whence);
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: fmt::Debug + Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Returns a strategy generating arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                ((self.start as i128) + off as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let (lo, hi) = (self.start as f64, self.end as f64);
                (lo + (hi - lo) * rng.next_f64()) as $t
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// Uniform choice between boxed alternative strategies (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T: fmt::Debug> Union<T> {
    /// Creates a union over `arms`; each generation picks one uniformly.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: fmt::Debug> fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

pub mod collection {
    //! Strategies for collections (subset: `vec`).

    use super::{fmt, Range, Strategy, TestRng};

    /// A size specification: an exact length or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose elements come from `element` and whose length
    /// is drawn from `size` (an exact `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod array {
    //! Strategies for fixed-size arrays (subset: `uniform16`).

    use super::{Strategy, TestRng};

    /// Strategy returned by [`uniform16`].
    #[derive(Debug, Clone)]
    pub struct Uniform16<S>(S);

    /// Generates `[T; 16]` arrays with each element drawn from `element`.
    pub fn uniform16<S: Strategy>(element: S) -> Uniform16<S> {
        Uniform16(element)
    }

    impl<S: Strategy> Strategy for Uniform16<S> {
        type Value = [S::Value; 16];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; 16] {
            core::array::from_fn(|_| self.0.generate(rng))
        }
    }
}

pub mod runner {
    //! The case-execution loop behind the `proptest!` macro.

    use super::{ProptestConfig, TestCaseError, TestCaseResult, TestRng};

    /// Runs `case` until `config.cases` cases pass, panicking on the first
    /// failure. Rejected cases (`prop_assume!`) are retried with fresh
    /// inputs, up to a bounded number of consecutive discards.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> (String, TestCaseResult),
    {
        let mut rng = TestRng::from_name(name);
        let mut passed = 0u32;
        let mut rejected = 0u64;
        let reject_limit = 256 * config.cases.max(1) as u64;
        while passed < config.cases {
            let (inputs, outcome) = case(&mut rng);
            match outcome {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejected += 1;
                    if rejected > reject_limit {
                        panic!(
                            "proptest {name}: too many rejected cases \
                             ({rejected}, last: {why})"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest {name}: case failed after {passed} passes\n\
                         \tinputs: {inputs}\n\t{msg}"
                    );
                }
            }
        }
    }
}

/// Runs property-test functions over generated inputs.
///
/// Supported form (a subset of real proptest):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in collection::vec(any::<u8>(), 1..20)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::runner::run(&config, stringify!($name), |rng| {
                let generated = $crate::Strategy::generate(&($($strat,)+), rng);
                let inputs = format!("{:?}", generated);
                let ($($arg,)+) = generated;
                let outcome: $crate::TestCaseResult = (|| {
                    $body
                    Ok(())
                })();
                (inputs, outcome)
            });
        }
    )*};
}

/// Fails the current case with a formatted message if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case if `left != right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?} ({})", l, r, format!($($fmt)*)
        );
    }};
}

/// Fails the current case if `left == right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Discards the current case (retried with fresh inputs) if `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniformly picks one of several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let arms: Vec<Box<dyn $crate::Strategy<Value = _>>> = vec![$(Box::new($arm)),+];
        $crate::Union::new(arms)
    }};
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 5u32..17, y in -3i32..4, f in -2.0f32..2.0) {
            prop_assert!((5..17).contains(&x));
            prop_assert!((-3..4).contains(&y));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn map_and_filter_compose(v in (0u8..100).prop_map(|x| x * 2).prop_filter("even", |x| x % 2 == 0)) {
            prop_assert!(v % 2 == 0);
            prop_assert!(v < 200);
        }

        #[test]
        fn vec_sizes(v in crate::collection::vec(any::<u8>(), 3..9), exact in crate::collection::vec(any::<bool>(), 4)) {
            prop_assert!(v.len() >= 3 && v.len() < 9);
            prop_assert_eq!(exact.len(), 4);
        }

        #[test]
        fn oneof_hits_all_arms(picks in crate::collection::vec(prop_oneof![Just(1u8), Just(2u8), Just(3u8)], 64)) {
            for p in &picks {
                prop_assert!((1..=3).contains(p));
            }
        }

        #[test]
        fn assume_discards(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn config_with_cases_is_respected() {
        let mut runs = 0u32;
        super::runner::run(&ProptestConfig::with_cases(13), "count", |_| {
            runs += 1;
            (String::new(), Ok(()))
        });
        assert_eq!(runs, 13);
    }

    #[test]
    fn uniform16_generates_full_arrays() {
        let mut rng = super::TestRng::from_name("u16arr");
        let arr = Strategy::generate(&super::array::uniform16(-1.0f32..1.0), &mut rng);
        assert_eq!(arr.len(), 16);
        assert!(arr.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "rejected 1000 consecutive")]
    fn filter_exhaustion_panics() {
        let mut rng = super::TestRng::from_name("exhaust");
        let s = (0u8..10).prop_filter("impossible", |_| false);
        let _ = Strategy::generate(&s, &mut rng);
    }
}
