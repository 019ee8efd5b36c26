//! Section VIII future work, implemented: user-defined operators flow
//! through the whole stack — name resolution, context capture, monoid
//! and semiring construction, JIT module keys, and kernels.

use pygb::prelude::*;

#[test]
fn user_binary_op_through_the_dsl() {
    let hypot = BinaryOp::define("Hypot", |a, b| (a * a + b * b).sqrt());
    assert_eq!(hypot.name(), "Hypot");

    let u = Vector::from_dense(&[3.0f64, 5.0]);
    let v = Vector::from_dense(&[4.0f64, 12.0]);
    let _op = hypot.enter();
    let w = Vector::from_expr(&u * &v).unwrap();
    assert_eq!(w.get(0).unwrap().as_f64(), 5.0);
    assert_eq!(w.get(1).unwrap().as_f64(), 13.0);
}

#[test]
fn user_op_resolves_by_name_after_definition() {
    BinaryOp::define("SaturatingSub", |a, b| (a - b).max(0.0));
    // Later code can look it up by name, like a Fig. 6 operator.
    let op = BinaryOp::new("SaturatingSub").unwrap();
    let u = Vector::from_dense(&[5.0f64]);
    let v = Vector::from_dense(&[9.0f64]);
    let _g = op.enter();
    let w = Vector::from_expr(&u * &v).unwrap();
    assert_eq!(w.get(0).unwrap().as_f64(), 0.0);
}

#[test]
fn user_op_with_identity_forms_a_semiring() {
    // A custom ⊕ with identity 0 drives mxv: "log-sum" style semiring
    // (⊕ = hypot, ⊗ = times).
    let hypot =
        BinaryOp::define_with_identity("HypotAdd", |a, b| (a * a + b * b).sqrt(), "Zero").unwrap();
    let monoid = Monoid::from_op(hypot, 0.0).unwrap();
    let sr = Semiring::new(monoid, "Times").unwrap();

    let a = Matrix::from_dense(&[vec![1.0f64, 1.0]]).unwrap();
    let u = Vector::from_dense(&[3.0f64, 4.0]);
    let _sr = sr.enter();
    let w = Vector::from_expr(a.mxv(&u)).unwrap();
    // hypot(1·3, 1·4) = 5.
    assert_eq!(w.get(0).unwrap().as_f64(), 5.0);
}

#[test]
fn user_op_as_accumulator() {
    let keep_bigger_abs =
        BinaryOp::define("BiggerAbs", |a, b| if a.abs() >= b.abs() { a } else { b });
    let mut w = Vector::from_dense(&[-10.0f64, 1.0]);
    let d = Vector::from_dense(&[3.0f64, -7.0]);
    let _acc = Accumulator::from_op(keep_bigger_abs).enter();
    let _sr = ArithmeticSemiring.enter(); // unrelated; accumulator must win
    w.no_mask().accum_assign(&d).unwrap();
    assert_eq!(w.get(0).unwrap().as_f64(), -10.0);
    assert_eq!(w.get(1).unwrap().as_f64(), -7.0);
}

#[test]
fn user_unary_op_in_apply() {
    let clamp01 = UnaryOp::define("Clamp01", |a| a.clamp(0.0, 1.0));
    let u = Vector::from_dense(&[-0.5f64, 0.25, 7.0]);
    let _op = clamp01.enter();
    let w = Vector::from_expr(pygb::apply(&u)).unwrap();
    assert_eq!(w.to_dense_f64(), vec![0.0, 0.25, 1.0]);
}

#[test]
fn user_ops_get_their_own_jit_modules() {
    // Distinct user ops must hash to distinct module keys.
    let u = Vector::from_dense(&[1.0f64]);
    let v = Vector::from_dense(&[2.0f64]);
    let ((), d) = pygb_integration::measure_dispatches(|| {
        for (name, f) in [
            ("ModKeyOpA", (|a, b| a + 2.0 * b) as fn(f64, f64) -> f64),
            ("ModKeyOpB", |a, b| 2.0 * a + b),
        ] {
            let op = BinaryOp::define(name, f);
            let _g = op.enter();
            let _ = Vector::from_expr(&u * &v).unwrap();
        }
    });
    assert_eq!(d.total_dispatches(), 2);
    assert_eq!(d.compiles, 2, "each user op is its own module");
}

#[test]
fn redefining_a_user_op_replaces_it() {
    let op1 = BinaryOp::define("Redefined", |a, _| a);
    let op2 = BinaryOp::define("Redefined", |_, b| b);
    // Same id (name reused), new behaviour.
    assert_eq!(op1, op2);
    let u = Vector::from_dense(&[1.0f64]);
    let v = Vector::from_dense(&[2.0f64]);
    let _g = op2.enter();
    let w = Vector::from_expr(&u * &v).unwrap();
    assert_eq!(w.get(0).unwrap().as_f64(), 2.0);
}

#[test]
fn user_ops_cast_through_f64_on_integer_domains() {
    // The documented boundary: integer containers round-trip through
    // f64 around the user function.
    let avg = BinaryOp::define("AvgInt", |a, b| (a + b) / 2.0);
    let u = Vector::from_dense(&[3i64, 4]);
    let v = Vector::from_dense(&[4i64, 4]);
    let _g = avg.enter();
    let w = Vector::from_expr(&u * &v).unwrap();
    assert_eq!(w.dtype(), DType::Int64);
    assert_eq!(w.get(0).unwrap().as_i64(), 3); // 3.5 truncates
    assert_eq!(w.get(1).unwrap().as_i64(), 4);
}
