//! A small affine-expression / affine-map library.
//!
//! The `cnm` dialect uses affine maps to describe how a host tensor is
//! scattered across the processing units of a workgroup (the
//! `#scatter_map = affine_map<(d0, d1) -> (d0 floordiv 16, ...)>` of the
//! paper's Figure 6a). The lowering passes also use affine maps to express
//! tilings and loop interchanges.

use std::fmt;

/// An affine (plus `floordiv`/`mod`) expression over dimension variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AffineExpr {
    /// The `i`-th dimension variable `d{i}`.
    Dim(usize),
    /// A constant.
    Const(i64),
    /// Sum of two expressions.
    Add(Box<AffineExpr>, Box<AffineExpr>),
    /// Product of two expressions.
    Mul(Box<AffineExpr>, Box<AffineExpr>),
    /// Floor division by a positive constant divisor.
    FloorDiv(Box<AffineExpr>, i64),
    /// Remainder modulo a positive constant divisor.
    Mod(Box<AffineExpr>, i64),
}

impl AffineExpr {
    /// `d{i}` — a dimension variable.
    pub fn dim(i: usize) -> Self {
        AffineExpr::Dim(i)
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr::Const(c)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: AffineExpr) -> Self {
        AffineExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: AffineExpr) -> Self {
        AffineExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self floordiv divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor <= 0`.
    pub fn floor_div(self, divisor: i64) -> Self {
        assert!(divisor > 0, "floordiv divisor must be positive");
        AffineExpr::FloorDiv(Box::new(self), divisor)
    }

    /// `self mod divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor <= 0`.
    pub fn modulo(self, divisor: i64) -> Self {
        assert!(divisor > 0, "mod divisor must be positive");
        AffineExpr::Mod(Box::new(self), divisor)
    }

    /// Evaluates the expression for concrete dimension values.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a dimension not present in `dims`.
    pub fn eval(&self, dims: &[i64]) -> i64 {
        match self {
            AffineExpr::Dim(i) => dims[*i],
            AffineExpr::Const(c) => *c,
            AffineExpr::Add(a, b) => a.eval(dims) + b.eval(dims),
            AffineExpr::Mul(a, b) => a.eval(dims) * b.eval(dims),
            AffineExpr::FloorDiv(a, d) => a.eval(dims).div_euclid(*d),
            AffineExpr::Mod(a, d) => a.eval(dims).rem_euclid(*d),
        }
    }

    /// Largest dimension index referenced, plus one (0 if none).
    pub fn num_dims(&self) -> usize {
        match self {
            AffineExpr::Dim(i) => i + 1,
            AffineExpr::Const(_) => 0,
            AffineExpr::Add(a, b) | AffineExpr::Mul(a, b) => a.num_dims().max(b.num_dims()),
            AffineExpr::FloorDiv(a, _) | AffineExpr::Mod(a, _) => a.num_dims(),
        }
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffineExpr::Dim(i) => write!(f, "d{i}"),
            AffineExpr::Const(c) => write!(f, "{c}"),
            AffineExpr::Add(a, b) => write!(f, "{a} + {b}"),
            AffineExpr::Mul(a, b) => write!(f, "{} * {}", Tight(a), Tight(b)),
            AffineExpr::FloorDiv(a, d) => write!(f, "{} floordiv {d}", Tight(a)),
            AffineExpr::Mod(a, d) => write!(f, "{} mod {d}", Tight(a)),
        }
    }
}

/// An operand of `*`, `floordiv` or `mod`, which bind tighter than `+`:
/// printed in parentheses unless it is a dimension or a constant.
struct Tight<'a>(&'a AffineExpr);

impl fmt::Display for Tight<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            AffineExpr::Dim(_) | AffineExpr::Const(_) => write!(f, "{}", self.0),
            e => write!(f, "({e})"),
        }
    }
}

/// An affine map `(d0, ..., dN-1) -> (e0, ..., eM-1)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    /// Number of input dimensions.
    pub num_dims: usize,
    /// Result expressions.
    pub exprs: Vec<AffineExpr>,
}

impl AffineMap {
    /// Creates a map from explicit result expressions.
    ///
    /// # Panics
    ///
    /// Panics if an expression references a dimension `>= num_dims`.
    pub fn new(num_dims: usize, exprs: Vec<AffineExpr>) -> Self {
        for e in &exprs {
            assert!(
                e.num_dims() <= num_dims,
                "expression {e} references dimension beyond num_dims={num_dims}"
            );
        }
        AffineMap { num_dims, exprs }
    }

    /// The identity map on `n` dimensions.
    pub fn identity(n: usize) -> Self {
        AffineMap::new(n, (0..n).map(AffineExpr::Dim).collect())
    }

    /// A permutation map: result `i` is `d{perm[i]}`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn permutation(perm: &[usize]) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "{perm:?} is not a permutation");
            seen[p] = true;
        }
        AffineMap::new(n, perm.iter().map(|&p| AffineExpr::Dim(p)).collect())
    }

    /// The scatter map of the paper's Figure 6a, generalised: maps an index
    /// in an `n`-dimensional tensor to
    /// `(d0 floordiv t0, ..., dN-1 floordiv tN-1, d0 mod t0, ..., dN-1 mod tN-1)`,
    /// i.e. (tile coordinate, intra-tile coordinate).
    ///
    /// # Panics
    ///
    /// Panics if any tile size is not positive.
    pub fn tiling(tile_sizes: &[i64]) -> Self {
        let n = tile_sizes.len();
        let mut exprs = Vec::with_capacity(2 * n);
        for (i, &t) in tile_sizes.iter().enumerate() {
            assert!(t > 0, "tile sizes must be positive, got {tile_sizes:?}");
            exprs.push(AffineExpr::Dim(i).floor_div(t));
        }
        for (i, &t) in tile_sizes.iter().enumerate() {
            exprs.push(AffineExpr::Dim(i).modulo(t));
        }
        AffineMap::new(n, exprs)
    }

    /// Number of result expressions.
    pub fn num_results(&self) -> usize {
        self.exprs.len()
    }

    /// Evaluates the map on a concrete index tuple.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.num_dims`.
    pub fn eval(&self, dims: &[i64]) -> Vec<i64> {
        assert_eq!(
            dims.len(),
            self.num_dims,
            "affine map expects {} dims, got {}",
            self.num_dims,
            dims.len()
        );
        self.exprs.iter().map(|e| e.eval(dims)).collect()
    }

    /// Returns `Some(permutation)` if this map is a pure permutation.
    pub fn as_permutation(&self) -> Option<Vec<usize>> {
        if self.exprs.len() != self.num_dims {
            return None;
        }
        let mut perm = Vec::with_capacity(self.num_dims);
        let mut seen = vec![false; self.num_dims];
        for e in &self.exprs {
            match e {
                AffineExpr::Dim(i) if !seen[*i] => {
                    seen[*i] = true;
                    perm.push(*i);
                }
                _ => return None,
            }
        }
        Some(perm)
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "affine_map<(")?;
        for i in 0..self.num_dims {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{i}")?;
        }
        write!(f, ") -> (")?;
        for (i, e) in self.exprs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval() {
        // d0 * 2 + d1 mod 3
        let e = AffineExpr::dim(0)
            .mul(AffineExpr::constant(2))
            .add(AffineExpr::dim(1).modulo(3));
        assert_eq!(e.eval(&[5, 7]), 10 + 1);
        assert_eq!(e.num_dims(), 2);
        assert_eq!(e.to_string(), "d0 * 2 + d1 mod 3");
        // A sum under `floordiv` prints in parentheses.
        let sum = AffineExpr::dim(0).mul(AffineExpr::constant(48));
        let e = sum.add(AffineExpr::dim(1)).floor_div(48);
        assert_eq!(e.to_string(), "(d0 * 48 + d1) floordiv 48");
    }

    #[test]
    fn floor_div_is_euclidean() {
        let e = AffineExpr::dim(0).floor_div(16);
        assert_eq!(e.eval(&[31]), 1);
        assert_eq!(e.eval(&[32]), 2);
        assert_eq!(e.eval(&[0]), 0);
    }

    #[test]
    fn identity_and_permutation() {
        let id = AffineMap::identity(3);
        assert_eq!(id.eval(&[4, 5, 6]), vec![4, 5, 6]);
        assert_eq!(id.as_permutation(), Some(vec![0, 1, 2]));

        let p = AffineMap::permutation(&[1, 0]);
        assert_eq!(p.eval(&[10, 20]), vec![20, 10]);
        assert_eq!(p.as_permutation(), Some(vec![1, 0]));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        AffineMap::permutation(&[0, 0]);
    }

    #[test]
    fn tiling_map_matches_paper_scatter_map() {
        // #scatter_map = affine_map<(d0, d1) ->
        //   (d0 floordiv 16, d1 floordiv 16, d0 mod 16, d1 mod 16)>
        let m = AffineMap::tiling(&[16, 16]);
        assert_eq!(m.num_results(), 4);
        assert_eq!(m.eval(&[33, 17]), vec![2, 1, 1, 1]);
        assert_eq!(m.eval(&[0, 0]), vec![0, 0, 0, 0]);
        assert!(m.as_permutation().is_none());
        assert_eq!(
            m.to_string(),
            "affine_map<(d0, d1) -> (d0 floordiv 16, d1 floordiv 16, d0 mod 16, d1 mod 16)>"
        );
    }

    #[test]
    fn map_eval_checks_arity() {
        let m = AffineMap::identity(2);
        let err = std::panic::catch_unwind(|| m.eval(&[1])).is_err();
        assert!(err);
    }
}
