//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset the property tests in this workspace use: the
//! `proptest!` macro, `prop_assert*`, `any::<T>()`, numeric-range and tuple
//! strategies, `prop_map`, `proptest::collection::vec`, and a string
//! strategy that honours a `{lo,hi}` length suffix. No shrinking: a failing
//! case reports its deterministic seed and input count instead. Case
//! generation is seeded from the test name, so runs are reproducible
//! without a persistence file.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator; one instance per test case.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// 128 random bits, for reducing into wide ranges.
    pub fn next_u128(&mut self) -> u128 {
        (self.next_u64() as u128) << 64 | self.next_u64() as u128
    }
}

// ---------------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with a pure function.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategies {
    ($($ty:ty),* $(,)?) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u128() % span) as i128;
                (self.start as i128 + offset) as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u128() % span) as i128;
                (start as i128 + offset) as $ty
            }
        }
    )*};
}

int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
}

/// String strategy from a pattern literal.
///
/// Real proptest compiles the full regex; here only the length bound
/// matters for the tests in this workspace, so a trailing `{lo,hi}` is
/// honoured and the character class itself is approximated by a pool of
/// printable ASCII plus a few multi-byte code points (which is what
/// `\PC` — printable — generates in practice).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const POOL: &[char] = &[
            'a',
            'b',
            'z',
            'A',
            'Q',
            '0',
            '7',
            '9',
            ' ',
            '!',
            '#',
            '%',
            '+',
            '-',
            '.',
            '/',
            ':',
            '?',
            '[',
            ']',
            '_',
            '~',
            '\u{e9}',
            '\u{3bb}',
            '\u{4e2d}',
            '\u{1F600}',
        ];
        let (lo, hi) = parse_length_bounds(self).unwrap_or((0, 32));
        let len = lo + (rng.next_u128() % (hi - lo + 1) as u128) as usize;
        (0..len)
            .map(|_| POOL[(rng.next_u64() % POOL.len() as u64) as usize])
            .collect()
    }
}

fn parse_length_bounds(pattern: &str) -> Option<(usize, usize)> {
    let body = pattern.strip_suffix('}')?;
    let brace = body.rfind('{')?;
    let (lo, hi) = body[brace + 1..].split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a full-domain default strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($ty:ty),* $(,)?) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Signed, scale-spread finite values.
        let magnitude = rng.next_f64() * 10f64.powi((rng.next_u64() % 19) as i32 - 9);
        if rng.next_u64() & 1 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// The strategy behind [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Generate any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

// ---------------------------------------------------------------------------
// collections
// ---------------------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Element-count bounds for collection strategies (inclusive).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
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

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u128;
            let len = self.size.lo + (rng.next_u128() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector with element strategy `element` and a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------------

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
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

/// A failed `prop_assert*` inside a test case.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    #[must_use]
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Drive `cases` deterministic cases of one property; panics on the first
/// failure with enough detail to replay it.
pub fn run_cases<F>(name: &str, cases: u32, mut property: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = base ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::from_seed(seed);
        if let Err(failure) = property(&mut rng) {
            panic!("property `{name}` failed at case {case}/{cases} (seed {seed:#x}): {failure}");
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// macros
// ---------------------------------------------------------------------------

/// Declare property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(stringify!($name), __config.cases, |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), __rng);)+
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                __outcome
            });
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

/// Assert inside a `proptest!` body; failure aborts the case, not the
/// process, so the runner can report the seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            __l,
            __r
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `left != right`\n  both: {:?}",
            __l
        );
    }};
}

/// What `use proptest::prelude::*` brings in.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..200 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (1u8..=255).generate(&mut rng);
            assert!(w >= 1);
            let f = (2.0f64..3.0).generate(&mut rng);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = collection::vec(any::<u8>(), 0..64);
        let a: Vec<u8> = strat.generate(&mut TestRng::from_seed(42));
        let b: Vec<u8> = strat.generate(&mut TestRng::from_seed(42));
        assert_eq!(a, b);
    }

    #[test]
    fn string_pattern_length_bounds_apply() {
        let mut rng = TestRng::from_seed(3);
        for _ in 0..50 {
            let s = "\\PC{2,9}".generate(&mut rng);
            let chars = s.chars().count();
            assert!((2..=9).contains(&chars), "got {chars} chars");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn shim_macro_self_test(x in 0u32..100, pair in (0.0f64..1.0, 1usize..4)) {
            prop_assert!(x < 100);
            prop_assert_eq!(pair.1.min(3), pair.1);
        }
    }
}
