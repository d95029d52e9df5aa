//! A seeded property-case runner and the input generators the
//! workspace's property suites share.
//!
//! A property is a closure over a [`DetRng`]; [`check`] runs it on a fixed
//! number of cases. The stream of case `i` depends only on the property's
//! name and `i`, so every run of a test executes identical inputs, and a
//! failing case is reproduced by running the test again. There is no
//! shrinking: properties assert with messages that name the values.
//!
//! Generators are plain `fn(&mut DetRng) -> T`; the helpers here cover
//! what more than one suite draws (lengths, byte and element vectors,
//! strings over a character class, printable Unicode).

use crate::hash::fnv1a64;
use crate::rng::DetRng;
use rand::RngCore;
use std::ops::{Range, RangeInclusive};

/// Prints which case was running if the property panics out of it.
struct CaseReport<'a> {
    name: &'a str,
    case: u64,
    cases: u64,
}

impl Drop for CaseReport<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property `{}` failed at case {} of {}; re-running the test replays \
                 the same inputs",
                self.name, self.case, self.cases
            );
        }
    }
}

/// Run `property` on `cases` inputs drawn from per-case streams derived
/// from `(name, case index)`. A panic inside the property fails the test
/// after reporting `name` and the case index on stderr.
pub fn check(name: &str, cases: u64, mut property: impl FnMut(&mut DetRng)) {
    let root = DetRng::new(fnv1a64(name.as_bytes()));
    for case in 0..cases {
        let _report = CaseReport { name, case, cases };
        property(&mut root.derive_indexed("case", case));
    }
}

/// Uniform over all of `u64` (truncate with `as` for narrower integers).
pub fn any_u64(rng: &mut DetRng) -> u64 {
    rng.next_u64()
}

/// Uniform `usize` in `[range.start, range.end)`.
pub fn usize_in(rng: &mut DetRng, range: Range<usize>) -> usize {
    range.start + rng.index(range.end - range.start)
}

/// Uniform `f64` in `[lo, hi)`.
pub fn f64_in(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    lo + rng.unit() * (hi - lo)
}

/// A vector whose length is uniform in `len` and whose elements come
/// from `element`.
pub fn vec_of<T>(
    rng: &mut DetRng,
    len: Range<usize>,
    mut element: impl FnMut(&mut DetRng) -> T,
) -> Vec<T> {
    (0..usize_in(rng, len)).map(|_| element(rng)).collect()
}

/// Uniform random bytes, length uniform in `len`.
pub fn bytes(rng: &mut DetRng, len: Range<usize>) -> Vec<u8> {
    vec_of(rng, len, |r| r.next_u32() as u8)
}

/// A string of `len` characters drawn uniformly from `class`, written as
/// the inside of a regex character class: literal characters and `a-z`
/// ranges (`"a-zA-Z0-9._-"`, `" -~"`).
pub fn string_of(rng: &mut DetRng, class: &str, len: RangeInclusive<usize>) -> String {
    let spec: Vec<char> = class.chars().collect();
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < spec.len() {
        if i + 2 < spec.len() && spec[i + 1] == '-' {
            alphabet.extend(spec[i]..=spec[i + 2]);
            i += 3;
        } else {
            alphabet.push(spec[i]);
            i += 1;
        }
    }
    let n = usize_in(rng, *len.start()..*len.end() + 1);
    (0..n).map(|_| *rng.pick(&alphabet)).collect()
}

/// Blocks of assigned, non-control code points: ASCII (twice, so quotes,
/// backslashes and separators stay common), Latin-1 letters, Cyrillic,
/// CJK ideographs and emoji — one block per UTF-8 encoded length.
const PRINTABLE_BLOCKS: [(u32, u32); 6] = [
    (0x20, 0x7E),
    (0x20, 0x7E),
    (0xC0, 0xFF),
    (0x0410, 0x044F),
    (0x4E00, 0x9FA5),
    (0x1F600, 0x1F64F),
];

/// A string of `len` printable (non-control) Unicode characters.
pub fn printable(rng: &mut DetRng, len: RangeInclusive<usize>) -> String {
    let n = usize_in(rng, *len.start()..*len.end() + 1);
    (0..n)
        .map(|_| {
            let &(first, last) = rng.pick(&PRINTABLE_BLOCKS);
            let code = rng.range_u64(first.into(), u64::from(last) + 1);
            // The blocks hold only scalar values, so the fallback is dead.
            char::from_u32(code as u32).unwrap_or(char::REPLACEMENT_CHARACTER)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(name: &str) -> Vec<(u64, String)> {
        let mut seen = Vec::new();
        check(name, 16, |rng| {
            seen.push((any_u64(rng), printable(rng, 0..=8)));
        });
        seen
    }

    #[test]
    fn cases_are_a_function_of_name_and_index() {
        let a = inputs("propcheck::a");
        assert_eq!(a, inputs("propcheck::a"));
        assert_ne!(a, inputs("propcheck::b"));
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn failure_surfaces_at_the_same_case_every_run() {
        let failing_case = || {
            let mut ran = 0u64;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check("propcheck::fails", 64, |rng| {
                    ran += 1;
                    assert!(usize_in(rng, 0..10) != 3, "drew the forbidden value");
                })
            }));
            assert!(outcome.is_err());
            ran
        };
        assert_eq!(failing_case(), failing_case());
    }

    #[test]
    fn generators_respect_their_bounds() {
        check("propcheck::bounds", 256, |rng| {
            assert!((3..9).contains(&usize_in(rng, 3..9)));
            assert!((-2.0..5.0).contains(&f64_in(rng, -2.0, 5.0)));
            assert!(bytes(rng, 0..32).len() < 32);
            let s = string_of(rng, "a-cX_-", 2..=6);
            assert!((2..=6).contains(&s.chars().count()));
            assert!(s.chars().all(|c| "abcX_-".contains(c)), "{s:?}");
            let p = printable(rng, 0..=24);
            assert!(p.chars().count() <= 24 && !p.chars().any(char::is_control));
        });
    }
}
