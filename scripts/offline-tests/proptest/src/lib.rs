//! Offline stand-in for `proptest` 1 (the container has no registry): the
//! subset the `#[cfg(test)]` modules of `chariots-flstore` and
//! `chariots-core` use, over a seeded generator.
//!
//! What differs from the real crate: no shrinking (a failure reports the
//! inputs as generated), no persistence of failing cases, and of regex
//! string strategies only `[class]{m,n}`. The run is deterministic: every test draws from a generator
//! seeded with `PROPTEST_SEED` (a `u64`, default 0) mixed with the test's
//! name, and a failure prints the seed and the case number so the same
//! command reproduces it. `PROPTEST_CASES` overrides the number of cases.

/// SplitMix64: the whole generator.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what a
    /// few hundred cases can see.
    pub fn below(&mut self, n: u128) -> u128 {
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        wide % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub mod strategy {
    use super::TestRng;
    use std::fmt::Debug;

    /// A recipe for values of one type.
    pub trait Strategy {
        type Value: Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// What `prop_oneof!` builds: one of several strategies, by weight.
    pub struct Union<T>(Vec<(u32, BoxedStrategy<T>)>);

    impl<T: Debug> Union<T> {
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(
                arms.iter().any(|(w, _)| *w > 0),
                "prop_oneof! needs a weight"
            );
            Union(arms)
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u128 = self.0.iter().map(|(w, _)| *w as u128).sum();
            let mut pick = rng.below(total);
            for (weight, arm) in &self.0 {
                if pick < *weight as u128 {
                    return arm.generate(rng);
                }
                pick -= *weight as u128;
            }
            unreachable!("pick is below the total weight")
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                    (*self.start() as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    /// The one shape of regex the repository's tests use as a string
    /// strategy: a character class with a repeat count, `[a-z]{0,6}` or
    /// `[ -~]{0,12}`. Anything else panics rather than generate something
    /// the pattern does not describe.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let unsupported = || -> ! { panic!("string strategy {self:?}: only `[class]{{m,n}}`") };
            let Some((class, count)) = self
                .strip_prefix('[')
                .and_then(|rest| rest.strip_suffix('}'))
                .and_then(|rest| rest.split_once("]{"))
            else {
                unsupported()
            };
            let mut alphabet = Vec::new();
            let class: Vec<char> = class.chars().collect();
            let mut i = 0;
            while i < class.len() {
                if i + 2 < class.len() && class[i + 1] == '-' {
                    alphabet.extend(class[i]..=class[i + 2]);
                    i += 3;
                } else {
                    alphabet.push(class[i]);
                    i += 1;
                }
            }
            let (min, max) = count.split_once(',').unwrap_or((count, count));
            let (Ok(min), Ok(max)) = (min.parse::<usize>(), max.parse::<usize>()) else {
                unsupported()
            };
            if alphabet.is_empty() || min > max {
                unsupported()
            }
            let len = min + rng.below((max - min) as u128 + 1) as usize;
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u128) as usize])
                .collect()
        }
    }

    macro_rules! tuples {
        ($(($($s:ident . $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    tuples! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// A type with a default strategy over its whole domain.
    pub trait Arbitrary: Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // One draw in eight is an edge of the domain.
                    match rng.next_u64() % 16 {
                        0 => <$t>::MIN,
                        1 => <$t>::MAX,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }

    arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Either value, evenly.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::collections::BTreeSet;

    /// How many elements: an exact count or a range of counts.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive.
        max: usize,
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below((self.max - self.min) as u128 + 1) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // A small domain may not hold `n` distinct values: give up on
            // the count, never on the test, after enough tries.
            for _ in 0..n.saturating_mul(16) {
                if out.len() >= n {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }

    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (rng.next_u64() % 4 != 0).then(|| self.0.generate(rng))
        }
    }

    /// `None` one time in four, like the real crate's default.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod test_runner {
    /// Why a case did not pass.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError(reason.into())
        }
    }

    /// `cases` is honoured; `max_shrink_iters` is accepted and unused
    /// (nothing shrinks).
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}={raw:?} is not an unsigned integer")),
    )
}

/// Runs one property: `case` draws its inputs from the generator, returns
/// how it would print them, and the outcome of the body.
#[doc(hidden)]
pub fn run(
    config: &test_runner::Config,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> (String, Result<(), test_runner::TestCaseError>),
) {
    let seed = env_u64("PROPTEST_SEED").unwrap_or(0);
    let cases = env_u64("PROPTEST_CASES").unwrap_or(config.cases as u64);
    // FNV-1a of the name: tests do not share a stream.
    let salt = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let mut rng = TestRng::new(seed ^ salt);
    for case_no in 0..cases {
        // However a case fails — a `prop_assert!`, or a panic in the body —
        // the report says how to get back to it.
        struct OnPanic<'a>(&'a str, u64, u64);
        impl Drop for OnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!(
                        "{} failed in case {} with PROPTEST_SEED={}",
                        self.0, self.1, self.2
                    );
                }
            }
        }
        let _on_panic = OnPanic(name, case_no, seed);
        let (inputs, outcome) = case(&mut rng);
        if let Err(test_runner::TestCaseError(why)) = outcome {
            panic!("{why}\n  inputs: {inputs}");
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run(&__config, stringify!($name), |__rng| {
                let __values = ($($crate::strategy::Strategy::generate(&$strategy, __rng),)+);
                let __inputs = ::std::format!("{:?}", __values);
                let ($($arg,)+) = __values;
                let __outcome = (move || -> ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    ::core::result::Result::Ok(())
                })();
                (__inputs, __outcome)
            });
        }
    )*};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} at {}:{}", format!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__left, __right) = (&$left, &$right);
        $crate::prop_assert!(
            *__left == *__right,
            "{}: `{}` = {:?}, `{}` = {:?}",
            format!($($fmt)+),
            stringify!($left),
            __left,
            stringify!($right),
            __right
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__left, __right) = (&$left, &$right);
        $crate::prop_assert!(
            *__left != *__right,
            "`{}` and `{}` are both {:?}",
            stringify!($left),
            stringify!($right),
            __left
        );
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}
