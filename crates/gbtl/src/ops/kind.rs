//! Runtime operator selection — the value-level mirror of the functor
//! types, used by the dynamic DSL and the JIT kernel registry.
//!
//! The paper's pipeline passes operator *names* to the C++ preprocessor
//! (`-DADD_BINOP=Plus -DIDENTITY=0 -DMULT_BINOP=Times`, Fig. 9). Kinds
//! play that role here: the DSL resolves the strings of Fig. 6 into
//! [`BinaryOpKind`] / [`UnaryOpKind`] values, embeds them in a
//! [`KindSemiring`] / [`KindMonoid`], and the registry instantiates a
//! generic kernel with them.
//!
//! A kind is an *interpreter*, not a compiled-in operator: a kernel
//! running on a [`KindSemiring`] executes [`BinaryOpKind::apply`]'s
//! 18-arm `match` once per multiply and once per add. The branch
//! predicts well but is not free — on a push SpMV over min-plus it
//! roughly doubles the kernel (≈ 24 µs with the zero-sized
//! [`super::semiring::MinPlusSemiring`], ≈ 47 µs interpreted, 12 k
//! entries, fp64; EXPERIMENTS.md). The DSL's SpMV modules therefore
//! instantiate on the zero-sized named semirings when the key's triple
//! names one and keep the kinds for everything else: user-defined
//! operators, unlisted triples, and every operation where the
//! interpretation is not what the time goes to (`mxm`, eWise,
//! accumulators).

use std::sync::{OnceLock, RwLock};

use super::{BinaryOp, Monoid, Semiring, UnaryOp};
use crate::scalar::Scalar;

/// A user-registered operator entry (Section VIII of the paper:
/// "user-defined operators for use in the PyGB operations").
struct UserOpEntry {
    name: &'static str,
    binary: Option<fn(f64, f64) -> f64>,
    unary: Option<fn(f64) -> f64>,
    identity: Option<IdentityKind>,
}

fn user_ops() -> &'static RwLock<Vec<UserOpEntry>> {
    static OPS: OnceLock<RwLock<Vec<UserOpEntry>>> = OnceLock::new();
    OPS.get_or_init(|| RwLock::new(Vec::new()))
}

fn user_entry<R>(id: u16, f: impl FnOnce(&UserOpEntry) -> R) -> R {
    let ops = user_ops().read().expect("user-op registry poisoned");
    f(&ops[id as usize])
}

fn register_user_entry(entry: UserOpEntry) -> u16 {
    let mut ops = user_ops().write().expect("user-op registry poisoned");
    if let Some(pos) = ops.iter().position(|e| e.name == entry.name) {
        ops[pos] = entry; // redefinition, like re-running a Python def
        pos as u16
    } else {
        ops.push(entry);
        (ops.len() - 1) as u16
    }
}

fn find_user_entry(name: &str, want_binary: bool) -> Option<u16> {
    let ops = user_ops().read().expect("user-op registry poisoned");
    ops.iter()
        .position(|e| {
            e.name == name
                && if want_binary {
                    e.binary.is_some()
                } else {
                    e.unary.is_some()
                }
        })
        .map(|p| p as u16)
}

/// Register a user-defined binary operator (Section VIII): `f` computes
/// through `f64` (values are widened in and cast back out, like a
/// Python-level operator crossing the C boundary). An optional named
/// identity lets the operator serve as a monoid/semiring ⊕. Returns the
/// kind usable everywhere a Fig. 6 operator is.
///
/// Re-registering a name replaces its definition and reuses its id.
pub fn register_user_binary_op(
    name: &str,
    f: fn(f64, f64) -> f64,
    identity: Option<IdentityKind>,
) -> BinaryOpKind {
    let entry = UserOpEntry {
        name: Box::leak(name.to_string().into_boxed_str()),
        binary: Some(f),
        unary: None,
        identity,
    };
    BinaryOpKind::User(register_user_entry(entry))
}

/// Register a user-defined unary operator (Section VIII).
pub fn register_user_unary_op(name: &str, f: fn(f64) -> f64) -> UnaryOpKind {
    let entry = UserOpEntry {
        name: Box::leak(name.to_string().into_boxed_str()),
        binary: None,
        unary: Some(f),
        identity: None,
    };
    UnaryOpKind::User(register_user_entry(entry))
}

/// The 17 predefined binary operators of Fig. 6, plus user-registered
/// operators, as a runtime value.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinaryOpKind {
    /// `T(a || b)`
    LogicalOr,
    /// `T(a && b)`
    LogicalAnd,
    /// `T(a ^ b)`
    LogicalXor,
    /// `T(a == b)`
    Equal,
    /// `T(a != b)`
    NotEqual,
    /// `T(a > b)`
    GreaterThan,
    /// `T(a < b)`
    LessThan,
    /// `T(a >= b)`
    GreaterEqual,
    /// `T(a <= b)`
    LessEqual,
    /// `a`
    First,
    /// `b`
    Second,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a + b`
    Plus,
    /// `a - b`
    Minus,
    /// `a * b`
    Times,
    /// `a / b`
    Div,
    /// A user-registered operator (Section VIII future work,
    /// implemented): index into the user-op registry.
    User(u16),
}

/// All binary operator kinds, in Fig. 6 order.
pub const ALL_BINARY_OPS: [BinaryOpKind; 17] = [
    BinaryOpKind::LogicalOr,
    BinaryOpKind::LogicalAnd,
    BinaryOpKind::LogicalXor,
    BinaryOpKind::Equal,
    BinaryOpKind::NotEqual,
    BinaryOpKind::GreaterThan,
    BinaryOpKind::LessThan,
    BinaryOpKind::GreaterEqual,
    BinaryOpKind::LessEqual,
    BinaryOpKind::First,
    BinaryOpKind::Second,
    BinaryOpKind::Min,
    BinaryOpKind::Max,
    BinaryOpKind::Plus,
    BinaryOpKind::Minus,
    BinaryOpKind::Times,
    BinaryOpKind::Div,
];

impl BinaryOpKind {
    /// Parse the Fig. 6 name (`"Plus"`, `"LogicalOr"`, ...).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "LogicalOr" => Self::LogicalOr,
            "LogicalAnd" => Self::LogicalAnd,
            "LogicalXor" => Self::LogicalXor,
            "Equal" => Self::Equal,
            "NotEqual" => Self::NotEqual,
            "GreaterThan" => Self::GreaterThan,
            "LessThan" => Self::LessThan,
            "GreaterEqual" => Self::GreaterEqual,
            "LessEqual" => Self::LessEqual,
            "First" => Self::First,
            "Second" => Self::Second,
            "Min" => Self::Min,
            "Max" => Self::Max,
            "Plus" => Self::Plus,
            "Minus" => Self::Minus,
            "Times" => Self::Times,
            "Div" => Self::Div,
            other => return find_user_entry(other, true).map(Self::User),
        })
    }

    /// The Fig. 6 name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            Self::LogicalOr => "LogicalOr",
            Self::LogicalAnd => "LogicalAnd",
            Self::LogicalXor => "LogicalXor",
            Self::Equal => "Equal",
            Self::NotEqual => "NotEqual",
            Self::GreaterThan => "GreaterThan",
            Self::LessThan => "LessThan",
            Self::GreaterEqual => "GreaterEqual",
            Self::LessEqual => "LessEqual",
            Self::First => "First",
            Self::Second => "Second",
            Self::Min => "Min",
            Self::Max => "Max",
            Self::Plus => "Plus",
            Self::Minus => "Minus",
            Self::Times => "Times",
            Self::Div => "Div",
            Self::User(id) => user_entry(id, |e| e.name),
        }
    }

    /// Apply the operator to two values of any scalar type.
    #[inline]
    pub fn apply<T: Scalar>(self, a: T, b: T) -> T {
        match self {
            Self::LogicalOr => T::from_bool(a.to_bool() || b.to_bool()),
            Self::LogicalAnd => T::from_bool(a.to_bool() && b.to_bool()),
            Self::LogicalXor => T::from_bool(a.to_bool() ^ b.to_bool()),
            Self::Equal => T::from_bool(a == b),
            Self::NotEqual => T::from_bool(a != b),
            Self::GreaterThan => T::from_bool(a > b),
            Self::LessThan => T::from_bool(a < b),
            Self::GreaterEqual => T::from_bool(a >= b),
            Self::LessEqual => T::from_bool(a <= b),
            Self::First => a,
            Self::Second => b,
            Self::Min => a.s_min(b),
            Self::Max => a.s_max(b),
            Self::Plus => a.s_add(b),
            Self::Minus => a.s_sub(b),
            Self::Times => a.s_mul(b),
            Self::Div => a.s_div(b),
            // User ops compute through f64 (widen in, cast out) — the
            // boundary a Python-defined operator would cross.
            Self::User(id) => {
                let f = user_entry(id, |e| e.binary.expect("registered as binary"));
                T::from_f64(f(a.to_f64(), b.to_f64()))
            }
        }
    }

    /// The natural identity for using this op as a monoid ⊕, if it has
    /// one (`Plus → 0`, `Min → MAX`, ...). `None` for non-monoid ops
    /// like `Minus`.
    pub fn default_identity(self) -> Option<IdentityKind> {
        Some(match self {
            Self::Plus | Self::LogicalOr | Self::LogicalXor => IdentityKind::Zero,
            Self::Times | Self::LogicalAnd => IdentityKind::One,
            Self::Min => IdentityKind::MinIdentity,
            Self::Max => IdentityKind::MaxIdentity,
            Self::Equal => IdentityKind::One,
            Self::User(id) => return user_entry(id, |e| e.identity),
            _ => return None,
        })
    }
}

/// A kind-dispatched binary op usable wherever a functor is expected.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct KindBinaryOp(pub BinaryOpKind);

impl<T: Scalar> BinaryOp<T> for KindBinaryOp {
    #[inline]
    fn apply(&self, a: T, b: T) -> T {
        self.0.apply(a, b)
    }
}

/// The 4 predefined unary operators of Fig. 6, as a runtime value.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOpKind {
    /// `a`
    Identity,
    /// `-a`
    AdditiveInverse,
    /// `T(!bool(a))`
    LogicalNot,
    /// `1/a`
    MultiplicativeInverse,
    /// A user-registered operator (Section VIII).
    User(u16),
}

/// All unary operator kinds, in Fig. 6 order.
pub const ALL_UNARY_OPS: [UnaryOpKind; 4] = [
    UnaryOpKind::Identity,
    UnaryOpKind::AdditiveInverse,
    UnaryOpKind::LogicalNot,
    UnaryOpKind::MultiplicativeInverse,
];

impl UnaryOpKind {
    /// Parse the Fig. 6 name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "Identity" => Self::Identity,
            "AdditiveInverse" => Self::AdditiveInverse,
            "LogicalNot" => Self::LogicalNot,
            "MultiplicativeInverse" => Self::MultiplicativeInverse,
            other => return find_user_entry(other, false).map(Self::User),
        })
    }

    /// The Fig. 6 name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            Self::Identity => "Identity",
            Self::AdditiveInverse => "AdditiveInverse",
            Self::LogicalNot => "LogicalNot",
            Self::MultiplicativeInverse => "MultiplicativeInverse",
            Self::User(id) => user_entry(id, |e| e.name),
        }
    }

    /// Apply the operator to a value of any scalar type.
    #[inline]
    pub fn apply<T: Scalar>(self, a: T) -> T {
        match self {
            Self::Identity => a,
            Self::AdditiveInverse => a.s_ainv(),
            Self::LogicalNot => T::from_bool(!a.to_bool()),
            Self::MultiplicativeInverse => a.s_minv(),
            Self::User(id) => {
                let f = user_entry(id, |e| e.unary.expect("registered as unary"));
                T::from_f64(f(a.to_f64()))
            }
        }
    }
}

/// A named identity element, resolved per scalar type — the
/// `"MinIdentity"` strings of Fig. 6 and the `-DIDENTITY=0` preprocessor
/// parameter of Fig. 9.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IdentityKind {
    /// The additive identity (`0` / `false`).
    Zero,
    /// The multiplicative identity (`1` / `true`).
    One,
    /// The identity of `Min` (`MAX` / `+∞`) — Fig. 6's `"MinIdentity"`.
    MinIdentity,
    /// The identity of `Max` (`MIN` / `−∞`).
    MaxIdentity,
}

impl IdentityKind {
    /// Parse an identity name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "Zero" | "0" => Self::Zero,
            "One" | "1" => Self::One,
            "MinIdentity" => Self::MinIdentity,
            "MaxIdentity" => Self::MaxIdentity,
            _ => return None,
        })
    }

    /// Name of the identity.
    pub fn name(self) -> &'static str {
        match self {
            Self::Zero => "Zero",
            Self::One => "One",
            Self::MinIdentity => "MinIdentity",
            Self::MaxIdentity => "MaxIdentity",
        }
    }

    /// Resolve the identity to a concrete value of type `T`.
    #[inline]
    pub fn value<T: Scalar>(self) -> T {
        match self {
            Self::Zero => T::zero(),
            Self::One => T::one(),
            Self::MinIdentity => T::min_identity(),
            Self::MaxIdentity => T::max_identity(),
        }
    }
}

/// A runtime-assembled monoid: binary op kind + identity kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct KindMonoid {
    /// The monoid operation.
    pub op: BinaryOpKind,
    /// The identity element, named.
    pub identity: IdentityKind,
}

impl KindMonoid {
    /// Assemble a monoid from kinds.
    pub fn new(op: BinaryOpKind, identity: IdentityKind) -> Self {
        KindMonoid { op, identity }
    }

    /// The monoid the op's default identity would give, if any.
    pub fn from_op(op: BinaryOpKind) -> Option<Self> {
        op.default_identity()
            .map(|identity| KindMonoid { op, identity })
    }
}

impl<T: Scalar> Monoid<T> for KindMonoid {
    #[inline]
    fn identity(&self) -> T {
        self.identity.value::<T>()
    }
    #[inline]
    fn apply(&self, a: T, b: T) -> T {
        self.op.apply(a, b)
    }
}

/// A runtime-assembled semiring: additive monoid + multiplicative op.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct KindSemiring {
    /// The additive monoid ⊕.
    pub add: KindMonoid,
    /// The multiplicative operation ⊗.
    pub mult: BinaryOpKind,
}

impl KindSemiring {
    /// Assemble a semiring from kinds.
    pub fn new(add: KindMonoid, mult: BinaryOpKind) -> Self {
        KindSemiring { add, mult }
    }

    /// The predefined semirings by their GBTL names.
    pub fn from_name(name: &str) -> Option<Self> {
        let (add, ident, mult) = match name {
            "ArithmeticSemiring" => ("Plus", "Zero", "Times"),
            "LogicalSemiring" => ("LogicalOr", "Zero", "LogicalAnd"),
            "MinPlusSemiring" => ("Min", "MinIdentity", "Plus"),
            "MaxTimesSemiring" => ("Max", "MaxIdentity", "Times"),
            "MinSelect1stSemiring" => ("Min", "MinIdentity", "First"),
            "MinSelect2ndSemiring" => ("Min", "MinIdentity", "Second"),
            "MaxSelect1stSemiring" => ("Max", "MaxIdentity", "First"),
            "MaxSelect2ndSemiring" => ("Max", "MaxIdentity", "Second"),
            _ => return None,
        };
        Some(KindSemiring {
            add: KindMonoid {
                op: BinaryOpKind::from_name(add)?,
                identity: IdentityKind::from_name(ident)?,
            },
            mult: BinaryOpKind::from_name(mult)?,
        })
    }
}

impl<T: Scalar> Semiring<T> for KindSemiring {
    #[inline]
    fn zero(&self) -> T {
        self.add.identity.value::<T>()
    }
    #[inline]
    fn add(&self, a: T, b: T) -> T {
        self.add.op.apply(a, b)
    }
    #[inline]
    fn mult(&self, a: T, b: T) -> T {
        self.mult.apply(a, b)
    }
}

/// A runtime unary operator, possibly a bound binary op — covers the
/// paper's `gb.UnaryOp("Times", damping_factor)` (bind-2nd) form. The
/// bound constant is carried as `f64` and cast into the kernel domain at
/// instantiation, exactly as the DSL passes Python floats to C++.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum AppliedUnaryKind {
    /// A pure unary operator.
    Pure(UnaryOpKind),
    /// `op(k, x)` — constant bound as the first argument.
    Bind1st(BinaryOpKind, f64),
    /// `op(x, k)` — constant bound as the second argument.
    Bind2nd(BinaryOpKind, f64),
}

impl AppliedUnaryKind {
    /// Apply to a value of any scalar type (constants cast via `f64`).
    #[inline]
    pub fn apply<T: Scalar>(self, a: T) -> T {
        match self {
            Self::Pure(k) => k.apply(a),
            Self::Bind1st(k, c) => k.apply(T::from_f64(c), a),
            Self::Bind2nd(k, c) => k.apply(a, T::from_f64(c)),
        }
    }

    /// A stable textual form for JIT module keys.
    pub fn key_string(self) -> String {
        match self {
            Self::Pure(k) => k.name().to_string(),
            Self::Bind1st(k, c) => format!("Bind1st({},{})", k.name(), c),
            Self::Bind2nd(k, c) => format!("Bind2nd({},{})", k.name(), c),
        }
    }
}

/// A kind-dispatched applied-unary usable wherever a functor is expected.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct KindUnaryOp(pub AppliedUnaryKind);

impl<T: Scalar> UnaryOp<T> for KindUnaryOp {
    #[inline]
    fn apply(&self, a: T) -> T {
        self.0.apply(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary as fun;
    use crate::ops::BinaryOp;

    #[test]
    fn name_roundtrip_binary() {
        for k in ALL_BINARY_OPS {
            assert_eq!(BinaryOpKind::from_name(k.name()), Some(k));
        }
        assert_eq!(BinaryOpKind::from_name("Nope"), None);
    }

    #[test]
    fn name_roundtrip_unary() {
        for k in ALL_UNARY_OPS {
            assert_eq!(UnaryOpKind::from_name(k.name()), Some(k));
        }
    }

    #[test]
    fn kinds_agree_with_functors() {
        let pairs: [(i32, i32); 4] = [(2, 3), (-1, 5), (0, 0), (7, -7)];
        for (a, b) in pairs {
            assert_eq!(
                BinaryOpKind::Plus.apply(a, b),
                fun::Plus::<i32>::new().apply(a, b)
            );
            assert_eq!(
                BinaryOpKind::Min.apply(a, b),
                fun::Min::<i32>::new().apply(a, b)
            );
            assert_eq!(
                BinaryOpKind::LessThan.apply(a, b),
                fun::LessThan::<i32>::new().apply(a, b)
            );
        }
    }

    #[test]
    fn identity_kinds_resolve_per_type() {
        assert_eq!(IdentityKind::MinIdentity.value::<i32>(), i32::MAX);
        assert_eq!(IdentityKind::MinIdentity.value::<f64>(), f64::INFINITY);
        assert_eq!(IdentityKind::Zero.value::<u8>(), 0);
        assert!(IdentityKind::One.value::<bool>());
    }

    #[test]
    fn named_semirings_resolve() {
        let s = KindSemiring::from_name("MinPlusSemiring").unwrap();
        assert_eq!(Semiring::<f64>::zero(&s), f64::INFINITY);
        assert_eq!(Semiring::<f64>::add(&s, 3.0, 5.0), 3.0);
        assert_eq!(Semiring::<f64>::mult(&s, 3.0, 5.0), 8.0);
        assert!(KindSemiring::from_name("FancySemiring").is_none());
    }

    #[test]
    fn kind_semiring_matches_static_semiring() {
        use crate::ops::semiring::ArithmeticSemiring;
        use crate::ops::Semiring as _;
        let k = KindSemiring::from_name("ArithmeticSemiring").unwrap();
        let f = ArithmeticSemiring::<i64>::new();
        for (a, b) in [(2i64, 3), (5, -5), (0, 9)] {
            assert_eq!(Semiring::<i64>::add(&k, a, b), f.add(a, b));
            assert_eq!(Semiring::<i64>::mult(&k, a, b), f.mult(a, b));
        }
    }

    #[test]
    fn applied_unary_binds_constants() {
        let damp = AppliedUnaryKind::Bind2nd(BinaryOpKind::Times, 0.85);
        assert!((damp.apply(2.0f64) - 1.7).abs() < 1e-12);
        let sub_from = AppliedUnaryKind::Bind1st(BinaryOpKind::Minus, 10.0);
        assert_eq!(sub_from.apply(3i32), 7);
    }

    #[test]
    fn default_identities() {
        assert_eq!(
            BinaryOpKind::Plus.default_identity(),
            Some(IdentityKind::Zero)
        );
        assert_eq!(
            BinaryOpKind::Min.default_identity(),
            Some(IdentityKind::MinIdentity)
        );
        assert_eq!(BinaryOpKind::Minus.default_identity(), None);
    }

    #[test]
    fn monoid_from_op() {
        let m = KindMonoid::from_op(BinaryOpKind::Min).unwrap();
        assert_eq!(Monoid::<i32>::identity(&m), i32::MAX);
        assert!(KindMonoid::from_op(BinaryOpKind::Div).is_none());
    }

    #[test]
    fn key_strings_are_stable() {
        assert_eq!(
            AppliedUnaryKind::Bind2nd(BinaryOpKind::Times, 0.85).key_string(),
            "Bind2nd(Times,0.85)"
        );
        assert_eq!(
            AppliedUnaryKind::Pure(UnaryOpKind::LogicalNot).key_string(),
            "LogicalNot"
        );
    }
}
