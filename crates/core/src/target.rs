//! Assignment targets — the left-hand side of `C[M, z] = ...`.
//!
//! PyGB spells the output controls with `__setitem__` syntax:
//! `C[None] = expr`, `C[M] += expr`, `C[~m] = expr`,
//! `C[2:4, 2:4] = A`, `w[:] = 0.25`. The builders here carry the same
//! information — mask (plain or complemented), index region, replace
//! flag — and the finishing call (`assign`, `accum_assign`,
//! `assign_scalar`) triggers evaluation through the JIT dispatch layer.
//!
//! The replace flag resolves like any other context item: explicit
//! `.replace()` wins, otherwise a `gb.Replace` guard in context sets it
//! (Fig. 2b's `with gb.LogicalSemiring, gb.Replace:`).

use std::sync::Arc;

use gbtl::ops::kind::BinaryOpKind;
use gbtl::Indices;

use crate::context;
use crate::dispatch;
use crate::error::{PygbError, Result};
use crate::expr::{MatrixExpr, VectorExpr};
use crate::facts::KernelChoice;
use crate::matrix::Matrix;
use crate::nb::{MatRhs, VecRhs};
use crate::store::{MatrixStore, VectorStore};
use crate::value::DynScalar;
use crate::vector::Vector;

/// Builder for matrix assignment.
pub struct MatrixAssign<'a> {
    target: &'a mut Matrix,
    mask: Option<(Arc<MatrixStore>, bool)>,
    replace: Option<bool>,
    region: Option<(Indices, Indices)>,
}

impl<'a> MatrixAssign<'a> {
    pub(crate) fn new(
        target: &'a mut Matrix,
        mask: Option<Arc<MatrixStore>>,
        complemented: bool,
    ) -> Self {
        MatrixAssign {
            target,
            mask: mask.map(|m| (m, complemented)),
            replace: None,
            region: None,
        }
    }

    /// Force replace semantics (`z = true`), overriding context.
    pub fn replace(mut self) -> Self {
        self.replace = Some(true);
        self
    }

    /// Force merge semantics, overriding a `gb.Replace` context.
    pub fn merge(mut self) -> Self {
        self.replace = Some(false);
        self
    }

    /// Restrict the assignment to an index region —
    /// `C[2:4, 2:4] = ...`.
    pub fn region(mut self, rows: impl Into<Indices>, cols: impl Into<Indices>) -> Self {
        self.region = Some((rows.into(), cols.into()));
        self
    }

    fn replace_flag(&self) -> bool {
        self.replace.unwrap_or_else(context::replace_active)
    }

    fn eval(self, accum: Option<BinaryOpKind>, rhs: MatRhs) -> Result<()> {
        let replace = self.replace_flag();
        dispatch::eval_matrix(
            self.target,
            self.mask,
            accum,
            replace,
            self.region,
            rhs,
            KernelChoice::default(),
        )
    }

    /// `C[...] = expr` — evaluate with no accumulator.
    pub fn assign(self, expr: impl Into<MatrixExpr>) -> Result<()> {
        self.eval(None, MatRhs::Expr(expr.into()))
    }

    /// `C[...] += expr` — evaluate with the accumulator from context
    /// (explicit `Accumulator`, else the nearest monoid/semiring's ⊕).
    pub fn accum_assign(self, expr: impl Into<MatrixExpr>) -> Result<()> {
        self.eval(Some(context_accum()?), MatRhs::Expr(expr.into()))
    }

    /// `C[...] = scalar` — constant assignment over the region.
    pub fn assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        self.eval(None, MatRhs::Scalar(v.into()))
    }

    /// `C[...] += scalar` — accumulated constant assignment.
    pub fn accum_assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        self.eval(Some(context_accum()?), MatRhs::Scalar(v.into()))
    }
}

/// The accumulator `+=` uses: from context, or an error naming `+=`.
fn context_accum() -> Result<BinaryOpKind> {
    context::resolve_accum().ok_or(PygbError::MissingOperator {
        needed: "accumulator",
        operation: "+=",
    })
}

/// Builder for vector assignment.
pub struct VectorAssign<'a> {
    target: &'a mut Vector,
    mask: Option<(Arc<VectorStore>, bool)>,
    replace: Option<bool>,
    region: Option<Indices>,
}

impl<'a> VectorAssign<'a> {
    pub(crate) fn new(
        target: &'a mut Vector,
        mask: Option<Arc<VectorStore>>,
        complemented: bool,
    ) -> Self {
        VectorAssign {
            target,
            mask: mask.map(|m| (m, complemented)),
            replace: None,
            region: None,
        }
    }

    /// Force replace semantics.
    pub fn replace(mut self) -> Self {
        self.replace = Some(true);
        self
    }

    /// Force merge semantics.
    pub fn merge(mut self) -> Self {
        self.replace = Some(false);
        self
    }

    /// Restrict to an index region — `w[1:4] = ...`, `w[:] = ...`.
    pub fn slice(mut self, ix: impl Into<Indices>) -> Self {
        self.region = Some(ix.into());
        self
    }

    fn replace_flag(&self) -> bool {
        self.replace.unwrap_or_else(context::replace_active)
    }

    fn eval(self, accum: Option<BinaryOpKind>, rhs: VecRhs) -> Result<()> {
        let replace = self.replace_flag();
        dispatch::eval_vector(
            self.target,
            self.mask,
            accum,
            replace,
            self.region,
            rhs,
            KernelChoice::default(),
        )
    }

    /// `w[...] = expr`.
    pub fn assign(self, expr: impl Into<VectorExpr>) -> Result<()> {
        self.eval(None, VecRhs::Expr(expr.into()))
    }

    /// `w[...] += expr`.
    pub fn accum_assign(self, expr: impl Into<VectorExpr>) -> Result<()> {
        self.eval(Some(context_accum()?), VecRhs::Expr(expr.into()))
    }

    /// `w[...] = scalar` — `page_rank[:] = 1.0 / rows` (Fig. 7).
    pub fn assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        self.eval(None, VecRhs::Scalar(v.into()))
    }

    /// `w[...] += scalar`.
    pub fn accum_assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        self.eval(Some(context_accum()?), VecRhs::Scalar(v.into()))
    }
}
