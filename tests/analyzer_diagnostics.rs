//! The plan-time static analyzer (`pygb-analyze`) end to end: the
//! exhaustive dimension- and dtype-mismatch matrix for every operation
//! that can fail, each with its golden diagnostic string — errors must
//! name the op, the offending dimensions/dtypes, and the rendered
//! source expression, and must surface at expression-build time, never
//! first at flush.

use pygb::{
    take_lints, ArithmeticSemiring, BinaryOp, DType, LogicalSemiring, Matrix, PygbError, Replace,
    StrictTypes, Vector,
};

fn vf64(vals: &[f64]) -> Vector {
    Vector::from_dense(vals)
}

fn m(nrows: usize, ncols: usize) -> Matrix {
    Matrix::new(nrows, ncols, DType::Fp64)
}

/// Assert an analyzer rejection: the typed fields AND the rendered
/// diagnostic must both match.
fn assert_invalid(err: PygbError, op: &str, golden: &str) {
    match &err {
        PygbError::Invalid { op: got, .. } => assert_eq!(*got, op, "{err}"),
        other => panic!("expected an analyzer diagnostic, got {other:?}"),
    }
    assert_eq!(err.to_string(), golden);
}

// ---------------------------------------------------------------------
// Vector dimension matrix.
// ---------------------------------------------------------------------

#[test]
fn mxv_dimension_mismatch() {
    let _sr = ArithmeticSemiring.enter();
    let a = m(2, 3);
    let u = vf64(&[1.0, 2.0]); // need size 3
    let err = Vector::from_expr(a.mxv(&u)).unwrap_err();
    assert_invalid(
        err,
        "mxv",
        "invalid `mxv`: matrix is 2x3 but vector has size 2 (need 3); \
         in mxv([2x3 fp64], [2 fp64])",
    );
}

#[test]
fn vxm_dimension_mismatch() {
    let _sr = ArithmeticSemiring.enter();
    let a = m(2, 4);
    let u = vf64(&[1.0, 2.0, 3.0]); // need size 2
    let err = Vector::from_expr(u.vxm(&a)).unwrap_err();
    assert_invalid(
        err,
        "vxm",
        "invalid `vxm`: vector has size 3 but matrix is 2x4 (need 2); \
         in vxm([3 fp64], [2x4 fp64])",
    );
}

#[test]
fn ewise_vector_size_mismatches() {
    let u = vf64(&[1.0, 2.0]);
    let v = vf64(&[1.0, 2.0, 3.0]);
    let err = Vector::from_expr(&u + &v).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: operands have sizes 2 and 3; \
         in eWiseAdd([2 fp64], [3 fp64])",
    );
    let err = Vector::from_expr(&u * &v).unwrap_err();
    assert_invalid(
        err,
        "eWiseMult",
        "invalid `eWiseMult`: operands have sizes 2 and 3; \
         in eWiseMult([2 fp64], [3 fp64])",
    );
}

#[test]
fn vector_extract_out_of_bounds() {
    let u = vf64(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let err = Vector::from_expr(u.extract(3..9)).unwrap_err();
    match &err {
        PygbError::Invalid { op, expr, .. } => {
            assert_eq!(*op, "extract");
            assert_eq!(expr, "extract([5 fp64], 3..9)");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn result_size_must_match_target() {
    let u = vf64(&[1.0, 2.0, 3.0]);
    let mut w = Vector::new(2, DType::Fp64);
    let err = w.no_mask().assign(&u + &u).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: result has size 3 but the target vector has size 2; \
         in eWiseAdd([3 fp64], [3 fp64])",
    );
}

#[test]
fn accumulated_assign_gets_the_same_diagnostics() {
    let _acc = pygb::Accumulator::new("Plus").unwrap().enter();
    let u = vf64(&[1.0, 2.0, 3.0]);
    let mut w = Vector::new(2, DType::Fp64);
    let err = w.no_mask().accum_assign(&u + &u).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: result has size 3 but the target vector has size 2; \
         in eWiseAdd([3 fp64], [3 fp64])",
    );
}

#[test]
fn vector_mask_size_mismatch_is_an_error() {
    let u = vf64(&[1.0, 2.0, 3.0]);
    let bad_mask = Vector::new(2, DType::Bool);
    let mut w = Vector::new(3, DType::Fp64);
    let err = w.masked(&bad_mask).assign(&u + &u).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: mask has size 2 but the output has size 3; \
         in eWiseAdd([3 fp64], [3 fp64])",
    );
}

#[test]
fn region_count_must_match_rhs_size() {
    let u = vf64(&[1.0, 2.0, 3.0]);
    let mut w = Vector::new(5, DType::Fp64);
    let err = w.no_mask().slice(1..3).assign(&u + &u).unwrap_err();
    assert_invalid(
        err,
        "assign",
        "invalid `assign`: index region 1..3 selects 2 positions but the \
         right-hand side has size 3; in eWiseAdd([3 fp64], [3 fp64])",
    );
}

#[test]
fn scalar_assign_mask_and_region_diagnostics() {
    let bad_mask = Vector::new(2, DType::Bool);
    let mut w = Vector::new(3, DType::Fp64);
    let err = w.masked(&bad_mask).assign_scalar(1.0f64).unwrap_err();
    assert_invalid(
        err,
        "assign",
        "invalid `assign`: mask has size 2 but the output has size 3; \
         in [3 fp64] = fp64",
    );
    let mut w = Vector::new(5, DType::Fp64);
    let err = w.no_mask().slice(4..9).assign_scalar(1.0f64).unwrap_err();
    match &err {
        PygbError::Invalid { op, expr, .. } => {
            assert_eq!(*op, "assign");
            assert_eq!(expr, "[5 fp64] = fp64");
        }
        other => panic!("unexpected {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Matrix dimension matrix.
// ---------------------------------------------------------------------

#[test]
fn mxm_inner_dimension_mismatch() {
    let _sr = ArithmeticSemiring.enter();
    let a = m(2, 3);
    let b = m(4, 2);
    let err = Matrix::from_expr(a.matmul(&b)).unwrap_err();
    assert_invalid(
        err,
        "mxm",
        "invalid `mxm`: inner dimensions disagree: 2x3 @ 4x2; \
         in mxm([2x3 fp64], [4x2 fp64])",
    );
}

#[test]
fn ewise_matrix_shape_mismatches() {
    let a = m(2, 3);
    let b = m(3, 2);
    let err = Matrix::from_expr(a.ewise_add(&b)).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: operands have shapes 2x3 and 3x2; \
         in eWiseAdd([2x3 fp64], [3x2 fp64])",
    );
    let err = Matrix::from_expr(a.ewise_mult(&b)).unwrap_err();
    assert_invalid(
        err,
        "eWiseMult",
        "invalid `eWiseMult`: operands have shapes 2x3 and 3x2; \
         in eWiseMult([2x3 fp64], [3x2 fp64])",
    );
}

#[test]
fn matrix_extract_selection_diagnostics() {
    let a = m(4, 4);
    let err = Matrix::from_expr(a.extract(5..9, ..)).unwrap_err();
    match &err {
        PygbError::Invalid { op, reason, .. } => {
            assert_eq!(*op, "extract");
            assert!(reason.starts_with("row selection:"), "{reason}");
        }
        other => panic!("unexpected {other:?}"),
    }
    let err = Matrix::from_expr(a.extract(.., 5..9)).unwrap_err();
    match &err {
        PygbError::Invalid { op, reason, .. } => {
            assert_eq!(*op, "extract");
            assert!(reason.starts_with("column selection:"), "{reason}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn matrix_result_shape_must_match_target() {
    let a = m(2, 2);
    let mut c = Matrix::new(3, 3, DType::Fp64);
    let err = c.no_mask().assign(a.ewise_add(&a)).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: result has shape 2x2 but the target matrix has \
         shape 3x3; in eWiseAdd([2x2 fp64], [2x2 fp64])",
    );
}

#[test]
fn matrix_mask_shape_mismatch_is_an_error() {
    let a = m(2, 2);
    let bad_mask = Matrix::new(3, 2, DType::Bool);
    let mut c = Matrix::new(2, 2, DType::Fp64);
    let err = c.masked(&bad_mask).assign(a.ewise_add(&a)).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: mask has shape 3x2 but the output has shape 2x2; \
         in eWiseAdd([2x2 fp64], [2x2 fp64])",
    );
}

#[test]
fn matrix_region_shape_must_match_rhs() {
    let a = m(3, 3);
    let mut c = Matrix::new(4, 4, DType::Fp64);
    let err = c
        .no_mask()
        .region(0..2, 0..2)
        .assign(a.ewise_add(&a))
        .unwrap_err();
    assert_invalid(
        err,
        "assign",
        "invalid `assign`: index region (0..2, 0..2) selects 2x2 positions but \
         the right-hand side has shape 3x3; in eWiseAdd([3x3 fp64], [3x3 fp64])",
    );
}

// ---------------------------------------------------------------------
// Dtype-promotion matrix (Table 1 lattice).
// ---------------------------------------------------------------------

#[test]
fn lossy_promotion_lints_by_default_and_still_computes() {
    let _ = take_lints();
    let u = Vector::from_dense(&[1i64, 2]);
    let v = Vector::from_dense(&[0.5f32, 0.5]);
    let w = Vector::from_expr(&u + &v).unwrap();
    assert_eq!(w.dtype(), DType::Fp32);
    let lints = take_lints();
    assert_eq!(
        lints,
        vec!["`eWiseAdd`: lossy dtype promotion int64 ⊕ fp32 → fp32 \
             (int64: integer values exceed the float mantissa precision); \
             in eWiseAdd([2 int64], [2 fp32])"
            .to_string()]
    );
}

#[test]
fn strict_types_turns_lossy_promotion_into_an_error() {
    let _st = StrictTypes.enter();
    let u = Vector::from_dense(&[1i64, 2]);
    let v = Vector::from_dense(&[0.5f32, 0.5]);
    let err = Vector::from_expr(&u + &v).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: lossy dtype promotion int64 ⊕ fp32 → fp32 \
         (int64: integer values exceed the float mantissa precision); \
         in eWiseAdd([2 int64], [2 fp32])",
    );
}

#[test]
fn exact_promotions_stay_silent_even_in_strict_mode() {
    let _ = take_lints();
    let _st = StrictTypes.enter();
    let u = Vector::from_dense(&[1i16, 2]);
    let v = Vector::from_dense(&[0.5f64, 0.5]);
    let w = Vector::from_expr(&u + &v).unwrap();
    assert_eq!(w.dtype(), DType::Fp64);
    assert!(take_lints().is_empty());
}

#[test]
fn result_cast_into_narrower_target_lints_then_errors_in_strict_mode() {
    let _ = take_lints();
    let u = vf64(&[1.5, 2.5]);
    let mut w = Vector::new(2, DType::Int32);
    w.no_mask().assign(&u + &u).unwrap(); // default: lint, computes
    let lints = take_lints();
    assert_eq!(
        lints,
        vec![
            "`eWiseAdd`: result dtype fp64 does not fit output dtype int32 \
             (float values are truncated to integer); \
             in eWiseAdd([2 fp64], [2 fp64])"
                .to_string()
        ]
    );

    let _st = StrictTypes.enter();
    let err = w.no_mask().assign(&u + &u).unwrap_err();
    assert_invalid(
        err,
        "eWiseAdd",
        "invalid `eWiseAdd`: result dtype fp64 does not fit output dtype int32 \
         (float values are truncated to integer); \
         in eWiseAdd([2 fp64], [2 fp64])",
    );
}

/// A product whose operators are logical stores only 0 or 1, so casting
/// it into a `bool` target — BFS's frontier update — loses nothing: no
/// lint, and no error under `StrictTypes`. A logical `eWiseAdd` still
/// lints, because union entries pass through unchanged.
#[test]
fn logical_product_casts_into_bool_silently() {
    let _ = take_lints();
    let g = Matrix::from_triples(2, 2, [(0usize, 1usize, 2.5f64), (1, 0, 0.5)]).unwrap();
    let u = vf64(&[1.5, 2.5]);
    let mut w = Vector::new(2, DType::Bool);
    let product = |w: &mut Vector| {
        let _sr = LogicalSemiring.enter();
        w.no_mask().assign(g.t().mxv(&u))
    };
    product(&mut w).unwrap();
    assert!(take_lints().is_empty());
    let _st = StrictTypes.enter();
    product(&mut w).unwrap();
    assert_eq!(w.nvals(), 2);
    let _or = BinaryOp::new("LogicalOr").unwrap().enter();
    let err = w.no_mask().assign(&u + &u).unwrap_err();
    assert!(
        matches!(err, PygbError::Invalid { op: "eWiseAdd", .. }),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// Mask-domain lints.
// ---------------------------------------------------------------------

#[test]
fn complemented_empty_mask_lints() {
    let _ = take_lints();
    let u = vf64(&[1.0, 2.0]);
    let empty = Vector::new(2, DType::Bool);
    let mut w = Vector::new(2, DType::Fp64);
    w.masked_complement(&empty).assign(&u + &u).unwrap();
    let lints = take_lints();
    assert_eq!(
        lints,
        vec![
            "`eWiseAdd`: complemented mask has no stored values, so it selects \
             the entire output; in eWiseAdd([2 fp64], [2 fp64])"
                .to_string()
        ]
    );
    assert_eq!(w.to_dense_f64(), vec![2.0, 4.0]);
}

#[test]
fn replace_without_a_mask_lints() {
    let _ = take_lints();
    let u = vf64(&[1.0, 2.0]);
    let mut w = Vector::new(2, DType::Fp64);
    let _rp = Replace.enter();
    w.no_mask().assign(&u + &u).unwrap();
    let lints = take_lints();
    assert_eq!(
        lints,
        vec![
            "`eWiseAdd`: replace without a mask has no effect beyond a full \
             overwrite; in eWiseAdd([2 fp64], [2 fp64])"
                .to_string()
        ]
    );
}

// ---------------------------------------------------------------------
// Provenance: the typed fields every diagnostic must carry.
// ---------------------------------------------------------------------

#[test]
fn diagnostics_carry_op_reason_and_rendered_expression() {
    let _sr = ArithmeticSemiring.enter();
    let a = m(2, 3);
    let u = vf64(&[1.0, 2.0]);
    let err = Vector::from_expr(a.mxv(&u)).unwrap_err();
    match err {
        PygbError::Invalid { op, reason, expr } => {
            assert_eq!(op, "mxv");
            assert!(reason.contains("2x3") && reason.contains('2'), "{reason}");
            assert_eq!(expr, "mxv([2x3 fp64], [2 fp64])");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Transposed operands are analyzed at their logical shape: `Aᵀ @ u`
/// conforms when `A`'s row count matches, and the diagnostic renders
/// the transposed shape when it does not.
#[test]
fn transpose_is_analyzed_at_logical_shape() {
    let _sr = ArithmeticSemiring.enter();
    let a = m(3, 2); // Aᵀ is 2x3
    let u = vf64(&[1.0, 2.0, 3.0]);
    assert!(Vector::from_expr(a.t().mxv(&u)).is_ok());
    let short = vf64(&[1.0, 2.0]);
    let err = Vector::from_expr(a.t().mxv(&short)).unwrap_err();
    assert_invalid(
        err,
        "mxv",
        "invalid `mxv`: matrix is 2x3 but vector has size 2 (need 3); \
         in mxv([2x3 fp64], [2 fp64])",
    );
}
