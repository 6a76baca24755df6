//! Variables and literals.
//!
//! [`Var`] and [`Lit`] are index newtypes in the MiniSat tradition: a literal
//! packs a variable index and a sign into one `u32`, so watch lists and
//! assignment vectors can be indexed directly by `lit.code()`.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense index.
///
/// Create variables through [`Solver::new_var`](crate::Solver::new_var) so the
/// solver's internal vectors stay in sync.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Constructs a variable from its dense index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given sign
    /// (`true` means positive).
    #[inline]
    pub fn lit(self, sign: bool) -> Lit {
        if sign {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// # Examples
///
/// ```
/// use qca_sat::{Var, Lit};
/// let v = Var::from_index(3);
/// let p: Lit = v.positive();
/// assert_eq!(!p, v.negative());
/// assert_eq!(p.var(), v);
/// assert!(p.is_positive());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a positive (non-negated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code usable as an array index (`2*var + sign`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Converts from DIMACS convention: positive integers are positive
    /// literals of variable `n-1`, negative integers are negations.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs == 0`.
    pub fn from_dimacs(dimacs: i64) -> Lit {
        assert!(dimacs != 0, "DIMACS literal must be nonzero");
        let var = Var((dimacs.unsigned_abs() - 1) as u32);
        var.lit(dimacs > 0)
    }

    /// [`Lit::from_dimacs`] for parsed text: `None` unless
    /// `0 < |dimacs| ≤ i32::MAX`. The DIMACS and DRAT parsers share this
    /// bound, so every literal they accept also fits the `i32` DIMACS
    /// literals of the `qca-verify` checker.
    pub(crate) fn checked_from_dimacs(dimacs: i64) -> Option<Lit> {
        (dimacs != 0 && dimacs.unsigned_abs() <= i32::MAX as u64).then(|| Lit::from_dimacs(dimacs))
    }

    /// Converts to the DIMACS integer convention.
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().0 + 1) as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Three-valued assignment state of a variable or literal.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_negation_round_trip() {
        let v = Var::from_index(7);
        assert_eq!(!(!v.positive()), v.positive());
        assert_eq!(!v.positive(), v.negative());
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
    }

    #[test]
    fn dimacs_round_trip() {
        for d in [1i64, -1, 5, -42] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn code_round_trip() {
        let l = Var::from_index(12).negative();
        assert_eq!(Lit::from_code(l.code()), l);
    }
}
