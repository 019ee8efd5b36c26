//! The reply writer: how a graph answer becomes payload bytes.
//!
//! A `QUERY` or `EXPR` reply is one JSON object appended into one
//! `String`: the head fields, then the `[[i,v],...]` or `[[i,j,v],...]`
//! body read straight off the typed container (no boxed
//! `(index, DynScalar)` copy, no per-entry `String`, no `join`), then
//! the tail. The body's room is reserved up front from the entry count.
//!
//! Values render exactly as `DynScalar`'s `Display` does, so a reply is
//! byte-identical to what `format!("{v}")` per entry produced: integers,
//! `bool`s and integral floats below the dtype's exact-integer bound
//! (2⁵³ for `fp64`, 2²⁴ for `fp32`; `-0.0` excluded) take a digit loop
//! with no `fmt` machinery, every other finite float is written with
//! `write!` into the same buffer. The one deliberate difference is
//! non-finite floats, which `Display` spells as the bare tokens `NaN`,
//! `inf` and `-inf` — invalid JSON — and which this writer emits as
//! the JSON strings `"NaN"`, `"inf"` and `"-inf"`.

// Reply hot path: every served answer runs through here once per entry,
// so no `unwrap`/`expect` (clippy.toml) and no per-entry `format!`.
#![warn(
    clippy::disallowed_methods,
    clippy::format_collect,
    clippy::format_push_string
)]

use std::fmt::{Display, Write as _};

use pygb::store::{MatrixStore, VectorStore};
use pygb::{DType, DynScalar, Element, Matrix, PygbError, Vector};
use pygb_obs::json_escape;

use crate::query::MAX_RESULT_ENTRIES;

/// Run the generic function `$f::<T>($args)` with `T` the element type
/// of `$dtype`: the one dtype dispatch a typed read of a store needs.
macro_rules! with_element {
    ($dtype:expr, $f:ident($($arg:expr),*)) => {
        match $dtype {
            DType::Bool => $f::<bool>($($arg),*),
            DType::Int8 => $f::<i8>($($arg),*),
            DType::Int16 => $f::<i16>($($arg),*),
            DType::Int32 => $f::<i32>($($arg),*),
            DType::Int64 => $f::<i64>($($arg),*),
            DType::UInt8 => $f::<u8>($($arg),*),
            DType::UInt16 => $f::<u16>($($arg),*),
            DType::UInt32 => $f::<u32>($($arg),*),
            DType::UInt64 => $f::<u64>($($arg),*),
            DType::Fp32 => $f::<f32>($($arg),*),
            DType::Fp64 => $f::<f64>($($arg),*),
        }
    };
}
pub(crate) use with_element;

/// Room for the head and tail fields of any reply.
const HEAD_BYTES: usize = 160;

/// One JSON object reply under construction.
pub(crate) struct Reply {
    out: String,
}

impl Reply {
    /// An empty object, `{`.
    pub(crate) fn new() -> Reply {
        let mut out = String::with_capacity(HEAD_BYTES);
        out.push('{');
        Reply { out }
    }

    /// `"key":` with the separating comma.
    fn key(&mut self, key: &str) -> &mut String {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        &mut self.out
    }

    /// A string field, JSON-escaped.
    pub(crate) fn str(&mut self, key: &str, value: &str) -> &mut Reply {
        let out = self.key(key);
        out.push('"');
        if value.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            out.push_str(&json_escape(value));
        } else {
            out.push_str(value);
        }
        out.push('"');
        self
    }

    /// An unsigned integer field.
    pub(crate) fn uint(&mut self, key: &str, n: usize) -> &mut Reply {
        push_uint(self.key(key), n as u64);
        self
    }

    /// A signed integer field.
    pub(crate) fn int(&mut self, key: &str, n: i64) -> &mut Reply {
        push_int(self.key(key), n);
        self
    }

    /// A boolean field.
    pub(crate) fn flag(&mut self, key: &str, b: bool) -> &mut Reply {
        self.key(key).push_str(if b { "true" } else { "false" });
        self
    }

    /// A vector's stored entries as `[[i,v],...]`, at most
    /// [`MAX_RESULT_ENTRIES`] of them; settles deferred work first.
    /// Returns whether entries were cut.
    pub(crate) fn pairs(&mut self, key: &str, v: &mut Vector) -> Result<bool, PygbError> {
        v.settle()?;
        let store = v.store();
        let out = self.key(key);
        out.reserve(body_bytes(
            store.nvals(),
            digits(store.size()),
            store.dtype(),
        ));
        Ok(with_element!(store.dtype(), push_pairs(out, store)))
    }

    /// A matrix's stored entries as `[[i,j,v],...]` in row-major
    /// order, capped like [`Reply::pairs`]; settles deferred work first.
    pub(crate) fn triples(&mut self, key: &str, m: &mut Matrix) -> Result<bool, PygbError> {
        m.settle()?;
        let store = m.store();
        let out = self.key(key);
        let index = digits(store.nrows()) + 1 + digits(store.ncols());
        out.reserve(body_bytes(store.nvals(), index, store.dtype()));
        Ok(with_element!(store.dtype(), push_triples(out, store)))
    }

    /// Close the object and hand over the payload.
    pub(crate) fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Decimal digits of `n`'s largest index `n - 1` (1 for `n ≤ 1`).
fn digits(n: usize) -> usize {
    n.saturating_sub(1)
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1)
}

/// Estimated bytes of a body of `nvals` entries whose indices take
/// `index` bytes: brackets and commas, plus a typical value width.
fn body_bytes(nvals: usize, index: usize, dtype: DType) -> usize {
    let value = match dtype {
        DType::Fp32 | DType::Fp64 => 20,
        DType::Bool => 5,
        _ => 6,
    };
    2 + nvals.min(MAX_RESULT_ENTRIES) * (index + value + 4)
}

fn push_pairs<T: Element>(out: &mut String, store: &VectorStore) -> bool {
    let Some(v) = T::unwrap_vector(store) else {
        unreachable!("dispatched on the store's own dtype")
    };
    out.push('[');
    for (k, (i, x)) in v.iter().take(MAX_RESULT_ENTRIES).enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('[');
        push_uint(out, i as u64);
        out.push(',');
        push_scalar(out, x.to_dyn());
        out.push(']');
    }
    out.push(']');
    v.nvals() > MAX_RESULT_ENTRIES
}

fn push_triples<T: Element>(out: &mut String, store: &MatrixStore) -> bool {
    let Some(m) = T::unwrap_matrix(store) else {
        unreachable!("dispatched on the store's own dtype")
    };
    out.push('[');
    for (k, (i, j, x)) in m.iter().take(MAX_RESULT_ENTRIES).enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('[');
        push_uint(out, i as u64);
        out.push(',');
        push_uint(out, j as u64);
        out.push(',');
        push_scalar(out, x.to_dyn());
        out.push(']');
    }
    out.push(']');
    m.nvals() > MAX_RESULT_ENTRIES
}

/// Append `n` in decimal.
pub(crate) fn push_uint(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

fn push_int(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_uint(out, n.unsigned_abs());
}

/// Whether `x` is an integer the digit loop renders exactly as
/// `Display` would: integral, `|x| < bound`, and not `-0.0` (which
/// `Display` spells `-0`).
fn exact_int(x: f64, bound: f64) -> bool {
    x.fract() == 0.0 && x.abs() < bound && (x != 0.0 || x.is_sign_positive())
}

/// 2⁵³: every `fp64` integer below it is exact.
const FP64_EXACT: f64 = 9_007_199_254_740_992.0;
/// 2²⁴: every `fp32` integer below it is exact.
const FP32_EXACT: f64 = 16_777_216.0;

/// Append one value: `Display`'s bytes for every finite value, the JSON
/// strings `"NaN"`, `"inf"`, `"-inf"` for the non-finite ones.
pub(crate) fn push_scalar(out: &mut String, v: DynScalar) {
    match v {
        DynScalar::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        DynScalar::Int8(n) => push_int(out, n.into()),
        DynScalar::Int16(n) => push_int(out, n.into()),
        DynScalar::Int32(n) => push_int(out, n.into()),
        DynScalar::Int64(n) => push_int(out, n),
        DynScalar::UInt8(n) => push_uint(out, n.into()),
        DynScalar::UInt16(n) => push_uint(out, n.into()),
        DynScalar::UInt32(n) => push_uint(out, n.into()),
        DynScalar::UInt64(n) => push_uint(out, n),
        DynScalar::Fp32(x) if exact_int(x.into(), FP32_EXACT) => push_int(out, x as i64),
        DynScalar::Fp64(x) if exact_int(x, FP64_EXACT) => push_int(out, x as i64),
        DynScalar::Fp32(x) => push_float(out, x.into(), x),
        DynScalar::Fp64(x) => push_float(out, x, x),
    }
}

/// A float the digit loop does not cover; `wide` is `x` as `f64`.
fn push_float(out: &mut String, wide: f64, x: impl Display) {
    if wide.is_nan() {
        out.push_str("\"NaN\"");
    } else if wide.is_infinite() {
        out.push_str(if wide > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{x}");
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn rendered(v: DynScalar) -> String {
        let mut out = String::new();
        push_scalar(&mut out, v);
        out
    }

    #[test]
    fn scalar_writer_matches_display_for_every_dtype() {
        use DynScalar::*;
        let two53 = 9_007_199_254_740_992.0f64;
        let two24 = 16_777_216.0f32;
        let table = [
            Bool(false),
            Bool(true),
            Int8(i8::MIN),
            Int8(0),
            Int8(i8::MAX),
            Int16(i16::MIN),
            Int16(0),
            Int16(i16::MAX),
            Int32(i32::MIN),
            Int32(-7),
            Int32(0),
            Int32(i32::MAX),
            Int64(i64::MIN),
            Int64(0),
            Int64(i64::MAX),
            UInt8(0),
            UInt8(u8::MAX),
            UInt16(0),
            UInt16(u16::MAX),
            UInt32(0),
            UInt32(u32::MAX),
            UInt64(0),
            UInt64(10),
            UInt64(u64::MAX),
            Fp32(f32::MIN),
            Fp32(f32::MAX),
            Fp32(f32::MIN_POSITIVE),
            Fp32(0.0),
            Fp32(-0.0),
            Fp32(two24 - 1.0),
            Fp32(-(two24 - 1.0)),
            Fp32(two24),
            Fp32(two24 + 2.0),
            Fp32(0.1),
            Fp32(1.5),
            Fp32(-3.0),
            Fp32(1e-40), // subnormal
            Fp64(f64::MIN),
            Fp64(f64::MAX),
            Fp64(f64::MIN_POSITIVE),
            Fp64(0.0),
            Fp64(-0.0),
            Fp64(two53 - 1.0),
            Fp64(-(two53 - 1.0)),
            Fp64(two53),
            Fp64(two53 + 2.0),
            Fp64(0.1),
            Fp64(0.030000000000000006),
            Fp64(-2.5),
            Fp64(10.0),
            Fp64(1e-310), // subnormal
            Fp64(1e300),
        ];
        for v in table {
            assert_eq!(rendered(v), format!("{v}"), "{v:?}");
        }
    }

    #[test]
    fn non_finite_floats_are_json_strings() {
        for (v, want) in [
            (DynScalar::Fp64(f64::NAN), "\"NaN\""),
            (DynScalar::Fp64(f64::INFINITY), "\"inf\""),
            (DynScalar::Fp64(f64::NEG_INFINITY), "\"-inf\""),
            (DynScalar::Fp32(f32::NAN), "\"NaN\""),
            (DynScalar::Fp32(f32::INFINITY), "\"inf\""),
            (DynScalar::Fp32(f32::NEG_INFINITY), "\"-inf\""),
        ] {
            // `Display`'s bare token, quoted.
            assert_eq!(rendered(v), format!("\"{v}\""));
            assert_eq!(rendered(v), want);
        }
    }

    #[test]
    fn object_fields_are_comma_separated_and_escaped() {
        let mut r = Reply::new();
        r.str("graph", "a\"b")
            .uint("version", 3)
            .int("triangles", -4)
            .flag("truncated", false);
        assert_eq!(
            r.finish(),
            r#"{"graph":"a\"b","version":3,"triangles":-4,"truncated":false}"#
        );
        assert_eq!(Reply::new().finish(), "{}");
    }

    #[test]
    fn index_digits() {
        for (n, d) in [(0, 1), (1, 1), (10, 1), (11, 2), (100, 2), (101, 3)] {
            assert_eq!(digits(n), d, "{n}");
        }
    }
}
