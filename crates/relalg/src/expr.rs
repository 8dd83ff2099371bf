//! Scalar expressions: construction, compilation, evaluation.
//!
//! Expressions are built by name ([`col`], [`lit`], comparison helpers) and
//! compiled against a [`Schema`] into index-resolved form ([`CompiledExpr`])
//! before evaluation, so the per-row hot path does no name lookups.

use crate::batch::{BatchCol, ColumnBatch};
use crate::error::Result;
use crate::relation::{Column, Row};
use crate::schema::{ColRef, Schema};
use crate::value::{str_eq, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply to a concrete ordering outcome.
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Integer arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Integer division; division by zero yields `Null`.
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression over named columns.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference (resolved at compile time).
    Col(ColRef),
    /// Literal value.
    Lit(Value),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Integer arithmetic; non-integer operands evaluate to `Null`.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Conjunction (empty = true).
    And(Vec<Expr>),
    /// Disjunction (empty = false).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// ψ between two descriptor entries in the [`pack`] code:
    /// `a = b ∨ var(a) ≠ var(b)` (the Figure 4 consistency check for one
    /// entry pair).
    Psi(Box<Expr>, Box<Expr>),
}

/// Column reference expression; accepts `"name"` or `"alias.name"`.
pub fn col(name: &str) -> Expr {
    Expr::Col(ColRef::parse(name))
}

/// Literal expression from anything convertible to [`Value`].
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

/// Integer literal.
pub fn lit_i64(v: i64) -> Expr {
    Expr::Lit(Value::Int(v))
}

/// String literal. Interned, so comparing it against interned (loaded)
/// string columns resolves by pointer on the equality fast path.
pub fn lit_str(s: &str) -> Expr {
    Expr::Lit(Value::interned(s))
}

/// Boolean literal.
pub fn lit_bool(b: bool) -> Expr {
    Expr::Lit(Value::Bool(b))
}

// The builder methods deliberately shadow operator-trait names: they
// construct AST nodes (`col("a").add(lit_i64(1))`), they don't compute.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self + other` (integer).
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other` (integer).
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other` (integer).
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other` (integer; x/0 = Null).
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }

    /// `ψ(self, other)` over two packed descriptor entries ([`psi`]).
    pub fn psi(self, other: Expr) -> Expr {
        Expr::Psi(Box::new(self), Box::new(other))
    }

    /// Conjunction, flattening nested `And`s and dropping `true`.
    pub fn and(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Expr::And(inner) => out.extend(inner),
                Expr::Lit(Value::Bool(true)) => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => lit_bool(true),
            1 => out.pop().unwrap(),
            _ => Expr::And(out),
        }
    }

    /// Disjunction, flattening nested `Or`s and dropping `false`.
    pub fn or(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Expr::Or(inner) => out.extend(inner),
                Expr::Lit(Value::Bool(false)) => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => lit_bool(false),
            1 => out.pop().unwrap(),
            _ => Expr::Or(out),
        }
    }

    /// `¬self`.
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `low <= self AND self <= high` (paper's `between`).
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::and([self.clone().ge(low), self.le(high)])
    }

    /// The set of column references this expression mentions.
    pub fn columns(&self) -> BTreeSet<ColRef> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<ColRef>) {
        match self {
            Expr::Col(c) => {
                out.insert(c.clone());
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::Psi(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::And(parts) | Expr::Or(parts) => {
                for p in parts {
                    p.collect_columns(out);
                }
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }

    /// Visit every conjunct by reference (the allocation-free sibling of
    /// [`Expr::conjuncts`] — cardinality estimation walks predicates a
    /// lot and must not clone them).
    pub fn for_each_conjunct<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::And(parts) => {
                for p in parts {
                    p.for_each_conjunct(f);
                }
            }
            Expr::Lit(Value::Bool(true)) => {}
            other => f(other),
        }
    }

    /// Split a conjunctive expression into its conjuncts.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(parts) => parts.into_iter().flat_map(Expr::conjuncts).collect(),
            Expr::Lit(Value::Bool(true)) => vec![],
            other => vec![other],
        }
    }

    /// `true` iff the expression is the literal `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Expr::Lit(Value::Bool(true)))
    }

    /// Rewrite every column reference with `f`.
    pub fn map_columns(&self, f: &impl Fn(&ColRef) -> ColRef) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(f(c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::And(parts) => Expr::And(parts.iter().map(|p| p.map_columns(f)).collect()),
            Expr::Or(parts) => Expr::Or(parts.iter().map(|p| p.map_columns(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::Psi(a, b) => a.map_columns(f).psi(b.map_columns(f)),
        }
    }

    /// Compile against a schema: resolve all column references to indices.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledExpr> {
        Ok(match self {
            Expr::Col(c) => CompiledExpr::Col(schema.resolve(c)?),
            Expr::Lit(v) => CompiledExpr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => CompiledExpr::Cmp(
                *op,
                Box::new(a.compile(schema)?),
                Box::new(b.compile(schema)?),
            ),
            Expr::Arith(op, a, b) => CompiledExpr::Arith(
                *op,
                Box::new(a.compile(schema)?),
                Box::new(b.compile(schema)?),
            ),
            Expr::And(parts) => CompiledExpr::And(
                parts
                    .iter()
                    .map(|p| p.compile(schema))
                    .collect::<Result<_>>()?,
            ),
            Expr::Or(parts) => CompiledExpr::Or(
                parts
                    .iter()
                    .map(|p| p.compile(schema))
                    .collect::<Result<_>>()?,
            ),
            Expr::Not(e) => CompiledExpr::Not(Box::new(e.compile(schema)?)),
            Expr::Psi(a, b) => {
                CompiledExpr::Psi(Box::new(a.compile(schema)?), Box::new(b.compile(schema)?))
            }
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Psi(a, b) => write!(f, "ψ({a}, {b})"),
        }
    }
}

/// Index-resolved expression; evaluation does no name lookups.
#[derive(Clone, Debug)]
pub enum CompiledExpr {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<CompiledExpr>, Box<CompiledExpr>),
    Arith(ArithOp, Box<CompiledExpr>, Box<CompiledExpr>),
    And(Vec<CompiledExpr>),
    Or(Vec<CompiledExpr>),
    Not(Box<CompiledExpr>),
    Psi(Box<CompiledExpr>, Box<CompiledExpr>),
}

fn eval_arith(op: ArithOp, a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            ArithOp::Add => Value::Int(x.wrapping_add(y)),
            ArithOp::Sub => Value::Int(x.wrapping_sub(y)),
            ArithOp::Mul => Value::Int(x.wrapping_mul(y)),
            ArithOp::Div => {
                if y == 0 {
                    Value::Null
                } else {
                    Value::Int(x.wrapping_div(y))
                }
            }
        },
        _ => Value::Null,
    }
}

impl CompiledExpr {
    /// Evaluate to a value.
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            CompiledExpr::Col(i) => row[*i].clone(),
            CompiledExpr::Lit(v) => v.clone(),
            CompiledExpr::Cmp(op, a, b) => Value::Bool(op.eval(a.eval(row).cmp(&b.eval(row)))),
            CompiledExpr::Arith(op, a, b) => eval_arith(*op, a.eval(row), b.eval(row)),
            CompiledExpr::And(parts) => Value::Bool(parts.iter().all(|p| p.eval_bool(row))),
            CompiledExpr::Or(parts) => Value::Bool(parts.iter().any(|p| p.eval_bool(row))),
            CompiledExpr::Not(e) => Value::Bool(!e.eval_bool(row)),
            CompiledExpr::Psi(a, b) => Value::Bool(psi_values(&a.eval(row), &b.eval(row))),
        }
    }

    /// Evaluate to a boolean; non-boolean results are false (positive
    /// algebra never produces them for well-formed predicates).
    pub fn eval_bool(&self, row: &Row) -> bool {
        matches!(self.eval(row), Value::Bool(true))
    }

    /// Evaluate over a pair of rows viewed as a concatenation without
    /// materializing it (hot path of nested-loop joins).
    pub fn eval_bool_pair(&self, left: &Row, right: &Row) -> bool {
        matches!(self.eval_pair(left, right), Value::Bool(true))
    }

    fn eval_pair(&self, left: &Row, right: &Row) -> Value {
        match self {
            CompiledExpr::Col(i) => {
                if *i < left.len() {
                    left[*i].clone()
                } else {
                    right[*i - left.len()].clone()
                }
            }
            CompiledExpr::Lit(v) => v.clone(),
            CompiledExpr::Cmp(op, a, b) => {
                Value::Bool(op.eval(a.eval_pair(left, right).cmp(&b.eval_pair(left, right))))
            }
            CompiledExpr::Arith(op, a, b) => {
                eval_arith(*op, a.eval_pair(left, right), b.eval_pair(left, right))
            }
            CompiledExpr::And(parts) => Value::Bool(
                parts
                    .iter()
                    .all(|p| matches!(p.eval_pair(left, right), Value::Bool(true))),
            ),
            CompiledExpr::Or(parts) => Value::Bool(
                parts
                    .iter()
                    .any(|p| matches!(p.eval_pair(left, right), Value::Bool(true))),
            ),
            CompiledExpr::Not(e) => {
                Value::Bool(!matches!(e.eval_pair(left, right), Value::Bool(true)))
            }
            CompiledExpr::Psi(a, b) => Value::Bool(psi_values(
                &a.eval_pair(left, right),
                &b.eval_pair(left, right),
            )),
        }
    }

    // -- vectorized evaluation over column batches ------------------------

    /// Evaluate at one logical position of a batch (the generic per-row
    /// fallback behind the vectorized kernels).
    pub fn eval_at(&self, batch: &ColumnBatch<'_>, pos: usize) -> Value {
        match self {
            CompiledExpr::Col(i) => batch.value(*i, pos),
            CompiledExpr::Lit(v) => v.clone(),
            CompiledExpr::Cmp(op, a, b) => {
                Value::Bool(op.eval(a.eval_at(batch, pos).cmp(&b.eval_at(batch, pos))))
            }
            CompiledExpr::Arith(op, a, b) => {
                eval_arith(*op, a.eval_at(batch, pos), b.eval_at(batch, pos))
            }
            CompiledExpr::And(parts) => Value::Bool(
                parts
                    .iter()
                    .all(|p| matches!(p.eval_at(batch, pos), Value::Bool(true))),
            ),
            CompiledExpr::Or(parts) => Value::Bool(
                parts
                    .iter()
                    .any(|p| matches!(p.eval_at(batch, pos), Value::Bool(true))),
            ),
            CompiledExpr::Not(e) => {
                Value::Bool(!matches!(e.eval_at(batch, pos), Value::Bool(true)))
            }
            CompiledExpr::Psi(a, b) => {
                Value::Bool(psi_values(&a.eval_at(batch, pos), &b.eval_at(batch, pos)))
            }
        }
    }

    /// AND this predicate into `mask` over every batch position: after
    /// the call, `mask[pos]` holds iff it held before *and* the predicate
    /// is true at `pos`.
    ///
    /// Comparisons between columns and literals (and between two
    /// columns) dispatch their column types once and then run tight
    /// per-row loops — over `i64` slices for integer columns, with
    /// pointer-first equality for interned string columns. Everything
    /// else falls back to [`CompiledExpr::eval_at`] per surviving row.
    pub fn and_mask(&self, batch: &ColumnBatch<'_>, mask: &mut [bool]) {
        match self {
            CompiledExpr::And(parts) => {
                for p in parts {
                    p.and_mask(batch, mask);
                }
            }
            CompiledExpr::Or(parts) => {
                // acc = candidates satisfying any disjunct.
                let mut acc = vec![false; mask.len()];
                let mut scratch = vec![false; mask.len()];
                for p in parts {
                    scratch.copy_from_slice(mask);
                    p.and_mask(batch, &mut scratch);
                    for (a, s) in acc.iter_mut().zip(&scratch) {
                        *a |= *s;
                    }
                }
                mask.copy_from_slice(&acc);
            }
            CompiledExpr::Not(e) => {
                let mut inner = mask.to_vec();
                e.and_mask(batch, &mut inner);
                for (m, i) in mask.iter_mut().zip(&inner) {
                    *m = *m && !*i;
                }
            }
            CompiledExpr::Lit(Value::Bool(true)) => {}
            CompiledExpr::Lit(_) => mask.fill(false),
            CompiledExpr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (CompiledExpr::Col(i), CompiledExpr::Lit(v)) => {
                    cmp_col_lit_mask(*op, &batch.cols[*i], v, mask);
                }
                (CompiledExpr::Lit(v), CompiledExpr::Col(i)) => {
                    cmp_col_lit_mask(op.flipped(), &batch.cols[*i], v, mask);
                }
                (CompiledExpr::Col(i), CompiledExpr::Col(j)) => {
                    cmp_col_col_mask(*op, &batch.cols[*i], &batch.cols[*j], mask);
                }
                _ => self.and_mask_fallback(batch, mask),
            },
            CompiledExpr::Psi(a, b) => match (int_operand(a, batch), int_operand(b, batch)) {
                (Some(av), Some(bv)) => {
                    for (pos, m) in mask.iter_mut().enumerate() {
                        *m = *m && psi(av.get(pos), bv.get(pos));
                    }
                }
                _ => self.and_mask_fallback(batch, mask),
            },
            _ => self.and_mask_fallback(batch, mask),
        }
    }

    fn and_mask_fallback(&self, batch: &ColumnBatch<'_>, mask: &mut [bool]) {
        for (pos, m) in mask.iter_mut().enumerate() {
            if *m {
                *m = matches!(self.eval_at(batch, pos), Value::Bool(true));
            }
        }
    }

    /// Evaluate into a whole batch column (the vectorized projection
    /// path for computed expressions; plain `Col` references are handled
    /// by the executor as pointer shuffles and never reach here).
    pub fn eval_column<'a>(&self, batch: &ColumnBatch<'a>) -> BatchCol<'a> {
        match self {
            CompiledExpr::Col(i) => batch.cols[*i].clone(),
            CompiledExpr::Lit(v) => BatchCol::Const(v.clone()),
            CompiledExpr::Arith(op, a, b) if !matches!(op, ArithOp::Div) => {
                // Wrapping Add/Sub/Mul over integer operands stays typed;
                // Div can produce Null (x/0) and uses the generic path.
                if let (Some(av), Some(bv)) = (int_operand(a, batch), int_operand(b, batch)) {
                    let vals: Vec<i64> = (0..batch.len())
                        .map(|pos| {
                            let (x, y) = (av.get(pos), bv.get(pos));
                            match op {
                                ArithOp::Add => x.wrapping_add(y),
                                ArithOp::Sub => x.wrapping_sub(y),
                                ArithOp::Mul => x.wrapping_mul(y),
                                ArithOp::Div => unreachable!("guarded above"),
                            }
                        })
                        .collect();
                    return BatchCol::Owned(Arc::new(Column::Int(vals)));
                }
                self.eval_column_fallback(batch)
            }
            _ => self.eval_column_fallback(batch),
        }
    }

    fn eval_column_fallback<'a>(&self, batch: &ColumnBatch<'a>) -> BatchCol<'a> {
        let vals: Vec<Value> = (0..batch.len())
            .map(|pos| self.eval_at(batch, pos))
            .collect();
        BatchCol::Owned(Arc::new(Column::from_values(vals)))
    }
}

/// Integer access to a batch column, resolved once per kernel call.
pub(crate) enum IntOperand<'b> {
    Slice(&'b [i64]),
    Sel(&'b [i64], &'b [u32]),
    Dense(&'b [i64]),
    Const(i64),
}

impl IntOperand<'_> {
    #[inline]
    pub(crate) fn get(&self, pos: usize) -> i64 {
        match self {
            IntOperand::Slice(v) => v[pos],
            IntOperand::Sel(v, sel) => v[sel[pos] as usize],
            IntOperand::Dense(v) => v[pos],
            IntOperand::Const(k) => *k,
        }
    }
}

fn int_col(col: &Column) -> Option<&[i64]> {
    match col {
        Column::Int(v) => Some(v),
        _ => None,
    }
}

/// Integer access to the first `len` positions of a batch column;
/// `None` unless the column is `Int`-typed (or an `Int` constant).
pub(crate) fn int_access<'b>(c: &'b BatchCol<'_>, len: usize) -> Option<IntOperand<'b>> {
    match c {
        BatchCol::Slice { col, start } => {
            Some(IntOperand::Slice(&int_col(col)?[*start..*start + len]))
        }
        BatchCol::View { col, sel } => Some(IntOperand::Sel(int_col(col)?, sel)),
        BatchCol::Owned(col) => Some(IntOperand::Dense(int_col(col.as_ref())?)),
        BatchCol::Const(Value::Int(k)) => Some(IntOperand::Const(*k)),
        BatchCol::Const(_) => None,
        BatchCol::Shared { col, start } => {
            Some(IntOperand::Slice(&int_col(col)?[*start..*start + len]))
        }
        BatchCol::SharedView { col, sel } => Some(IntOperand::Sel(int_col(col)?, sel)),
    }
}

fn int_operand<'b>(e: &CompiledExpr, batch: &'b ColumnBatch<'_>) -> Option<IntOperand<'b>> {
    match e {
        CompiledExpr::Col(i) => int_access(&batch.cols[*i], batch.len()),
        CompiledExpr::Lit(Value::Int(k)) => Some(IntOperand::Const(*k)),
        _ => None,
    }
}

/// String access to a batch column.
enum StrOperand<'b> {
    Slice(&'b [Arc<str>]),
    Sel(&'b [Arc<str>], &'b [u32]),
    Dense(&'b [Arc<str>]),
}

impl StrOperand<'_> {
    #[inline]
    fn get(&self, pos: usize) -> &Arc<str> {
        match self {
            StrOperand::Slice(v) => &v[pos],
            StrOperand::Sel(v, sel) => &v[sel[pos] as usize],
            StrOperand::Dense(v) => &v[pos],
        }
    }
}

fn str_col(col: &Column) -> Option<&[Arc<str>]> {
    match col {
        Column::Str(v) => Some(v),
        _ => None,
    }
}

fn str_access<'b>(c: &'b BatchCol<'_>, len: usize) -> Option<StrOperand<'b>> {
    match c {
        BatchCol::Slice { col, start } => {
            Some(StrOperand::Slice(&str_col(col)?[*start..*start + len]))
        }
        BatchCol::View { col, sel } => Some(StrOperand::Sel(str_col(col)?, sel)),
        BatchCol::Owned(col) => Some(StrOperand::Dense(str_col(col.as_ref())?)),
        BatchCol::Const(_) => None,
        BatchCol::Shared { col, start } => {
            Some(StrOperand::Slice(&str_col(col)?[*start..*start + len]))
        }
        BatchCol::SharedView { col, sel } => Some(StrOperand::Sel(str_col(col)?, sel)),
    }
}

#[inline]
fn int_cmp_fn(op: CmpOp) -> fn(i64, i64) -> bool {
    match op {
        CmpOp::Eq => |x, y| x == y,
        CmpOp::Ne => |x, y| x != y,
        CmpOp::Lt => |x, y| x < y,
        CmpOp::Le => |x, y| x <= y,
        CmpOp::Gt => |x, y| x > y,
        CmpOp::Ge => |x, y| x >= y,
    }
}

fn cmp_col_lit_mask(op: CmpOp, col: &BatchCol<'_>, lit: &Value, mask: &mut [bool]) {
    let len = mask.len();
    // Integer column vs integer literal: the SIMD-friendly tight loop.
    if let (Some(acc), Value::Int(k)) = (int_access(col, len), lit) {
        let f = int_cmp_fn(op);
        let k = *k;
        match acc {
            IntOperand::Slice(v) => {
                for (m, &x) in mask.iter_mut().zip(v) {
                    *m = *m && f(x, k);
                }
            }
            IntOperand::Sel(v, sel) => {
                for (m, &s) in mask.iter_mut().zip(sel) {
                    *m = *m && f(v[s as usize], k);
                }
            }
            IntOperand::Dense(v) => {
                for (m, &x) in mask.iter_mut().zip(v) {
                    *m = *m && f(x, k);
                }
            }
            IntOperand::Const(x) => {
                if !f(x, k) {
                    mask.fill(false);
                }
            }
        }
        return;
    }
    // String column vs string literal: pointer-first equality (interned
    // loads share allocations), byte order for the rest.
    if let (Some(acc), Value::Str(s)) = (str_access(col, len), lit) {
        match op {
            CmpOp::Eq => {
                for (pos, m) in mask.iter_mut().enumerate() {
                    *m = *m && str_eq(acc.get(pos), s);
                }
            }
            CmpOp::Ne => {
                for (pos, m) in mask.iter_mut().enumerate() {
                    *m = *m && !str_eq(acc.get(pos), s);
                }
            }
            _ => {
                for (pos, m) in mask.iter_mut().enumerate() {
                    *m = *m && op.eval(acc.get(pos).as_ref().cmp(s.as_ref()));
                }
            }
        }
        return;
    }
    // Mixed / null / type-mismatched columns: per-row total-order compare.
    for (pos, m) in mask.iter_mut().enumerate() {
        if *m {
            *m = op.eval(col.value(pos).cmp(lit));
        }
    }
}

fn cmp_col_col_mask(op: CmpOp, a: &BatchCol<'_>, b: &BatchCol<'_>, mask: &mut [bool]) {
    let len = mask.len();
    if let (Some(av), Some(bv)) = (int_access(a, len), int_access(b, len)) {
        let f = int_cmp_fn(op);
        // One generic indexed loop covers every Slice/View shape of two
        // integer columns without any Value construction.
        for (pos, m) in mask.iter_mut().enumerate() {
            *m = *m && f(av.get(pos), bv.get(pos));
        }
        return;
    }
    if let (Some(av), Some(bv)) = (str_access(a, len), str_access(b, len)) {
        match op {
            CmpOp::Eq => {
                for (pos, m) in mask.iter_mut().enumerate() {
                    *m = *m && str_eq(av.get(pos), bv.get(pos));
                }
            }
            CmpOp::Ne => {
                for (pos, m) in mask.iter_mut().enumerate() {
                    *m = *m && !str_eq(av.get(pos), bv.get(pos));
                }
            }
            _ => {
                for (pos, m) in mask.iter_mut().enumerate() {
                    *m = *m && op.eval(av.get(pos).as_ref().cmp(bv.get(pos).as_ref()));
                }
            }
        }
        return;
    }
    for (pos, m) in mask.iter_mut().enumerate() {
        if *m {
            *m = op.eval(a.value(pos).cmp(&b.value(pos)));
        }
    }
}

// -- the descriptor-entry code ----------------------------------------------

/// Low bits of a descriptor-entry code that hold its range's bit length.
const WIDTH_BITS: u32 = 5;

/// Pack one ws-descriptor entry `(var, rng)` into one non-negative `Int`
/// with a self-delimiting code: `var << (5 + w) | rng << 5 | w`, where `w`
/// is the bit length of `rng` (0 for `rng = 0`). ⊤ ↦ 0 packs to 0. Small
/// variables and ranges give small codes, which frame-of-reference
/// segments store narrowly. `None` when the entry needs more than 63 bits
/// (`w > 31` or `bitlen(var) + w > 58`); every range below 2²⁶ fits.
pub fn pack(var: u32, rng: u64) -> Option<i64> {
    let w = u64::BITS - rng.leading_zeros();
    let var_bits = u32::BITS - var.leading_zeros();
    if w > 31 || var_bits + w > 58 {
        return None;
    }
    Some((i64::from(var) << (WIDTH_BITS + w)) | ((rng as i64) << WIDTH_BITS) | i64::from(w))
}

/// The entry a code packs, or `None` for an `Int` that [`pack`] never
/// produces.
pub fn unpack(d: i64) -> Option<(u32, u64)> {
    if d < 0 {
        return None;
    }
    let w = (d & 31) as u32;
    let rng = ((d >> WIDTH_BITS) as u64) & ((1u64 << w) - 1);
    let var = u32::try_from(d >> (WIDTH_BITS + w)).ok()?;
    (u64::BITS - rng.leading_zeros() == w).then_some((var, rng))
}

/// The variable of a code, as an `Int`: `d >> (5 + (d & 31))`.
#[inline]
pub fn var_of(d: i64) -> i64 {
    d >> (WIDTH_BITS + (d & 31) as u32)
}

/// ψ for one pair of codes: the entries agree (`a = b`) or constrain
/// different variables. Plain integer arithmetic, so SQL can state it as
/// `a = b OR (a >> (5 + (a & 31))) <> (b >> (5 + (b & 31)))`.
#[inline]
pub fn psi(a: i64, b: i64) -> bool {
    a == b || var_of(a) != var_of(b)
}

/// ψ over values: integer codes as [`psi`], anything else by equality.
fn psi_values(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => psi(*x, *y),
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        vals.into_boxed_slice()
    }

    #[test]
    fn comparisons() {
        let s = Schema::named(["a", "b"]);
        let e = col("a").lt(col("b")).compile(&s).unwrap();
        assert!(e.eval_bool(&row(vec![Value::Int(1), Value::Int(2)])));
        assert!(!e.eval_bool(&row(vec![Value::Int(2), Value::Int(2)])));
        let e = col("a").ge(lit_i64(5)).compile(&s).unwrap();
        assert!(e.eval_bool(&row(vec![Value::Int(5), Value::Null])));
    }

    #[test]
    fn boolean_connectives() {
        let s = Schema::named(["a"]);
        let e = Expr::or([col("a").eq(lit_i64(1)), col("a").eq(lit_i64(2))])
            .compile(&s)
            .unwrap();
        assert!(e.eval_bool(&row(vec![Value::Int(2)])));
        assert!(!e.eval_bool(&row(vec![Value::Int(3)])));
        let e = col("a").eq(lit_i64(1)).not().compile(&s).unwrap();
        assert!(e.eval_bool(&row(vec![Value::Int(9)])));
    }

    #[test]
    fn and_or_flattening() {
        let e = Expr::and([
            Expr::and([col("a").eq(lit_i64(1)), lit_bool(true)]),
            col("b").eq(lit_i64(2)),
        ]);
        assert_eq!(e.conjuncts().len(), 2);
        assert!(Expr::and([]).is_true());
        assert_eq!(Expr::or([]), lit_bool(false));
    }

    #[test]
    fn columns_collected() {
        let e = Expr::and([col("x.a").eq(col("y.b")), col("c").gt(lit_i64(0))]);
        let cols = e.columns();
        assert_eq!(cols.len(), 3);
        assert!(cols.contains(&ColRef::parse("x.a")));
    }

    #[test]
    fn between_inclusive() {
        let s = Schema::named(["d"]);
        let e = col("d")
            .between(lit_i64(10), lit_i64(20))
            .compile(&s)
            .unwrap();
        assert!(e.eval_bool(&row(vec![Value::Int(10)])));
        assert!(e.eval_bool(&row(vec![Value::Int(20)])));
        assert!(!e.eval_bool(&row(vec![Value::Int(21)])));
    }

    #[test]
    fn pair_eval_matches_concat() {
        let s = Schema::named(["a", "b", "c"]);
        let psi = col("b").psi(col("c"));
        assert_eq!(psi.to_string(), "ψ(b, c)");
        let e = Expr::and([col("a").eq(col("c")), col("b").ne(lit_i64(0)), psi])
            .compile(&s)
            .unwrap();
        let l = row(vec![Value::Int(7), Value::Int(1)]);
        let r = row(vec![Value::Int(7)]);
        let concat = row(vec![Value::Int(7), Value::Int(1), Value::Int(7)]);
        assert_eq!(e.eval_bool_pair(&l, &r), e.eval_bool(&concat));
    }

    #[test]
    fn compile_rejects_unknown() {
        let s = Schema::named(["a"]);
        assert!(col("nope").compile(&s).is_err());
    }

    #[test]
    fn arithmetic() {
        let s = Schema::named(["a", "b"]);
        let r = row(vec![Value::Int(10), Value::Int(3)]);
        let cases = [
            (col("a").add(col("b")), Value::Int(13)),
            (col("a").sub(col("b")), Value::Int(7)),
            (col("a").mul(col("b")), Value::Int(30)),
            (col("a").div(col("b")), Value::Int(3)),
            (col("a").div(lit_i64(0)), Value::Null),
            (col("a").add(lit_str("x")), Value::Null),
        ];
        for (e, want) in cases {
            assert_eq!(e.compile(&s).unwrap().eval(&r), want, "{e}");
        }
        // Arithmetic composes with comparisons.
        let e = col("a").add(col("b")).gt(lit_i64(12)).compile(&s).unwrap();
        assert!(e.eval_bool(&r));
    }

    #[test]
    fn vectorized_masks_match_per_row_eval() {
        use crate::relation::Relation;
        // Mixed-type table: Int, Str, and a column with Nulls (Mixed).
        let rel = Relation::from_rows(
            ["a", "s", "m"],
            (0..20)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::interned(if i % 3 == 0 { "x" } else { "y" }),
                        if i % 4 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i)
                        },
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let schema = Schema::named(["a", "s", "m"]);
        let batch = ColumnBatch::slice_of(rel.columns(), 0, 20);
        let preds = [
            col("a").lt(lit_i64(11)),
            col("a").eq(lit_i64(6)),
            lit_i64(3).le(col("a")),
            col("s").eq(lit_str("x")),
            col("s").ne(lit_str("y")),
            col("s").gt(lit_str("w")),
            col("a").eq(col("m")),
            col("m").ne(col("a")),
            col("s").eq(col("s")),
            Expr::or([col("a").lt(lit_i64(3)), col("s").eq(lit_str("x"))]),
            Expr::and([col("a").ge(lit_i64(2)), col("a").le(lit_i64(15))]),
            col("a").eq(lit_i64(5)).not(),
            col("a").add(lit_i64(1)).gt(lit_i64(10)), // arith: fallback path
            col("m").eq(lit(Value::Null)),
            lit_bool(false),
            col("a").psi(col("a")),
            col("m").psi(col("a")), // nulls: fallback path
            col("a").psi(lit_i64(0)),
        ];
        for p in preds {
            let compiled = p.compile(&schema).unwrap();
            let mut mask = vec![true; 20];
            compiled.and_mask(&batch, &mut mask);
            for (pos, row) in rel.rows().iter().enumerate() {
                assert_eq!(
                    mask[pos],
                    compiled.eval_bool(row),
                    "mask diverges from row eval for {p} at row {pos}"
                );
                assert_eq!(compiled.eval_at(&batch, pos), compiled.eval(row), "{p}");
            }
        }
    }

    #[test]
    fn masks_only_narrow() {
        use crate::relation::Relation;
        let rel = Relation::from_rows(
            ["a"],
            (0..8).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let batch = ColumnBatch::slice_of(rel.columns(), 0, 8);
        let compiled = col("a")
            .ge(lit_i64(0))
            .compile(&Schema::named(["a"]))
            .unwrap();
        // Rows already masked out must stay masked out even when the
        // predicate holds.
        let mut mask = vec![false, true, false, true, true, false, true, false];
        let before = mask.clone();
        compiled.and_mask(&batch, &mut mask);
        assert_eq!(mask, before);
    }

    #[test]
    fn eval_column_matches_per_row() {
        use crate::relation::Relation;
        let rel = Relation::from_rows(
            ["a", "b"],
            (0..9)
                .map(|i| vec![Value::Int(i), Value::Int(2 * i)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let schema = Schema::named(["a", "b"]);
        let batch = ColumnBatch::slice_of(rel.columns(), 0, 9);
        let exprs = [
            col("a").add(col("b")),
            col("a").mul(lit_i64(3)),
            col("b").sub(col("a")),
            col("a").div(col("a")), // Div: generic path (x/0 → Null at a=0)
            lit_str("pad"),
            col("a").lt(col("b")),
        ];
        for e in exprs {
            let compiled = e.compile(&schema).unwrap();
            let out = compiled.eval_column(&batch);
            for (pos, row) in rel.rows().iter().enumerate() {
                assert_eq!(out.value(pos), compiled.eval(row), "{e} at {pos}");
            }
        }
        // Typed Add over two int columns stays a typed column.
        let compiled = col("a").add(col("b")).compile(&schema).unwrap();
        let BatchCol::Owned(c) = compiled.eval_column(&batch) else {
            panic!("computed expression yields an owned column");
        };
        assert!(matches!(c.as_ref(), Column::Int(_)));
    }

    #[test]
    fn for_each_conjunct_matches_conjuncts() {
        let e = Expr::and([
            Expr::and([col("a").eq(lit_i64(1)), lit_bool(true)]),
            col("b").eq(lit_i64(2)),
        ]);
        let mut seen = Vec::new();
        e.for_each_conjunct(&mut |c| seen.push(c.clone()));
        assert_eq!(seen, e.conjuncts());
        let mut n = 0;
        lit_bool(true).for_each_conjunct(&mut |_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn map_columns_requalifies() {
        let e = col("a").eq(col("b"));
        let q = e.map_columns(&|c| c.with_qualifier("t"));
        let cols = q.columns();
        assert!(cols.contains(&ColRef::parse("t.a")));
        assert!(cols.contains(&ColRef::parse("t.b")));
    }
}
