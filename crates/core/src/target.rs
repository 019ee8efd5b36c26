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

use gbtl::Indices;

use crate::context;
use crate::dispatch;
use crate::error::{PygbError, Result};
use crate::expr::{MatrixExpr, VectorExpr};
use crate::facts::KernelChoice;
use crate::matrix::Matrix;
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

    /// `C[...] = expr` — evaluate with no accumulator.
    pub fn assign(self, expr: impl Into<MatrixExpr>) -> Result<()> {
        let replace = self.replace_flag();
        dispatch::eval_matrix(
            self.target,
            self.mask,
            None,
            Some(replace),
            self.region,
            expr.into(),
            KernelChoice::default(),
        )
    }

    /// `C[...] += expr` — evaluate with the accumulator from context
    /// (explicit `Accumulator`, else the nearest monoid/semiring's ⊕).
    pub fn accum_assign(self, expr: impl Into<MatrixExpr>) -> Result<()> {
        let accum = context::resolve_accum().ok_or(PygbError::MissingOperator {
            needed: "accumulator",
            operation: "+=",
        })?;
        let replace = self.replace_flag();
        dispatch::eval_matrix(
            self.target,
            self.mask,
            Some(accum),
            Some(replace),
            self.region,
            expr.into(),
            KernelChoice::default(),
        )
    }

    /// `C[...] = scalar` — constant assignment over the region.
    pub fn assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        let replace = self.replace_flag();
        dispatch::assign_matrix_scalar(self.target, self.mask, None, replace, self.region, v.into())
    }

    /// `C[...] += scalar` — accumulated constant assignment.
    pub fn accum_assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        let accum = context::resolve_accum().ok_or(PygbError::MissingOperator {
            needed: "accumulator",
            operation: "+=",
        })?;
        let replace = self.replace_flag();
        dispatch::assign_matrix_scalar(
            self.target,
            self.mask,
            Some(accum),
            replace,
            self.region,
            v.into(),
        )
    }
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

    /// `w[...] = expr`.
    pub fn assign(self, expr: impl Into<VectorExpr>) -> Result<()> {
        let replace = self.replace_flag();
        dispatch::eval_vector(
            self.target,
            self.mask,
            None,
            Some(replace),
            self.region,
            expr.into(),
            KernelChoice::default(),
        )
    }

    /// `w[...] += expr`.
    pub fn accum_assign(self, expr: impl Into<VectorExpr>) -> Result<()> {
        let accum = context::resolve_accum().ok_or(PygbError::MissingOperator {
            needed: "accumulator",
            operation: "+=",
        })?;
        let replace = self.replace_flag();
        dispatch::eval_vector(
            self.target,
            self.mask,
            Some(accum),
            Some(replace),
            self.region,
            expr.into(),
            KernelChoice::default(),
        )
    }

    /// `w[...] = scalar` — `page_rank[:] = 1.0 / rows` (Fig. 7).
    pub fn assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        let replace = self.replace_flag();
        dispatch::assign_vector_scalar(self.target, self.mask, None, replace, self.region, v.into())
    }

    /// `w[...] += scalar`.
    pub fn accum_assign_scalar(self, v: impl Into<DynScalar>) -> Result<()> {
        let accum = context::resolve_accum().ok_or(PygbError::MissingOperator {
            needed: "accumulator",
            operation: "+=",
        })?;
        let replace = self.replace_flag();
        dispatch::assign_vector_scalar(
            self.target,
            self.mask,
            Some(accum),
            replace,
            self.region,
            v.into(),
        )
    }
}
