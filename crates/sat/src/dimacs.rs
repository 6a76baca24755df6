//! DIMACS CNF reading and writing.
//!
//! Supports the standard `p cnf <vars> <clauses>` header, `c` comment lines,
//! and zero-terminated clause lines (possibly spanning multiple lines).

use crate::lit::{Lit, Var};
use crate::solver::Solver;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error produced when parsing a DIMACS CNF stream.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content, with a human-readable explanation.
    Malformed(String),
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error: {e}"),
            ParseDimacsError::Malformed(m) => write!(f, "malformed dimacs: {m}"),
        }
    }
}

impl Error for ParseDimacsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseDimacsError::Io(e) => Some(e),
            ParseDimacsError::Malformed(_) => None,
        }
    }
}

impl From<std::io::Error> for ParseDimacsError {
    fn from(e: std::io::Error) -> Self {
        ParseDimacsError::Io(e)
    }
}

/// A parsed CNF formula.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables declared in the header (or inferred).
    pub num_vars: usize,
    /// The clauses, as literal lists.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Loads the formula into a fresh [`Solver`], allocating variables
    /// `0..num_vars`.
    ///
    /// Returns the solver, which may already be unsatisfiable at level 0.
    pub fn into_solver(self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            if !s.add_clause(c) {
                break;
            }
        }
        s
    }
}

/// A parse-level observation that does not prevent parsing.
///
/// These are the conditions a solver would otherwise discover (or silently
/// absorb) at load time; reporting them from the parser lets tooling point
/// at the *input* rather than at solver behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsWarning {
    /// Clause `clause` (0-based) listed `lit` more than once; the extra
    /// copies were canonicalized away.
    DuplicateLiteral {
        /// 0-based index of the clause in the parsed formula.
        clause: usize,
        /// The repeated literal.
        lit: Lit,
    },
    /// Unit clauses assert both polarities of `var`: the formula is
    /// trivially unsatisfiable at the root, which almost always means a
    /// generator bug rather than a genuinely hard instance.
    ContradictoryUnits {
        /// The doubly-asserted variable.
        var: Var,
    },
}

impl fmt::Display for DimacsWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsWarning::DuplicateLiteral { clause, lit } => {
                write!(f, "clause {} repeats literal {}", clause, lit.to_dimacs())
            }
            DimacsWarning::ContradictoryUnits { var } => {
                write!(
                    f,
                    "unit clauses assert both {} and {}",
                    var.positive().to_dimacs(),
                    var.negative().to_dimacs()
                )
            }
        }
    }
}

/// Parses a DIMACS CNF stream.
///
/// Duplicate literals within a clause are canonicalized away (first
/// occurrence kept); use [`parse_dimacs_with_report`] to observe them and
/// other parse-level diagnostics.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on I/O failure, non-integer tokens, a
/// literal beyond `±i32::MAX` (naming its line), or a clause not
/// terminated by `0`.
///
/// # Examples
///
/// ```
/// use qca_sat::dimacs::parse_dimacs;
/// let text = "c example\np cnf 2 2\n1 -2 0\n2 0\n";
/// let cnf = parse_dimacs(text.as_bytes())?;
/// assert_eq!(cnf.num_vars, 2);
/// assert_eq!(cnf.clauses.len(), 2);
/// # Ok::<(), qca_sat::dimacs::ParseDimacsError>(())
/// ```
pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<Cnf, ParseDimacsError> {
    parse_dimacs_with_report(reader).map(|(cnf, _)| cnf)
}

/// [`parse_dimacs`] plus the parse-level diagnostics: duplicate literals
/// inside a clause (canonicalized away) and contradictory unit clauses
/// (reported here instead of being left for the solver to "solve" to
/// UNSAT).
///
/// # Errors
///
/// Same as [`parse_dimacs`].
///
/// # Examples
///
/// ```
/// use qca_sat::dimacs::{parse_dimacs_with_report, DimacsWarning};
/// let text = "p cnf 2 3\n1 1 -2 0\n2 0\n-2 0\n";
/// let (cnf, warnings) = parse_dimacs_with_report(text.as_bytes())?;
/// assert_eq!(cnf.clauses[0].len(), 2); // duplicate 1 canonicalized
/// assert_eq!(warnings.len(), 2);
/// assert!(matches!(warnings[1], DimacsWarning::ContradictoryUnits { .. }));
/// # Ok::<(), qca_sat::dimacs::ParseDimacsError>(())
/// ```
pub fn parse_dimacs_with_report<R: BufRead>(
    reader: R,
) -> Result<(Cnf, Vec<DimacsWarning>), ParseDimacsError> {
    let mut cnf = Cnf::default();
    let mut warnings = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    let mut declared_vars: Option<usize> = None;
    let mut max_var = 0usize;
    // Unit-clause polarity per variable: +1, -1, or 2 once contradictory
    // (so each variable is reported once).
    let mut unit_sign: HashMap<Var, i8> = HashMap::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('p') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(ParseDimacsError::Malformed(format!(
                    "bad problem line: {trimmed:?}"
                )));
            }
            let nv: usize = parts[1]
                .parse()
                .map_err(|_| ParseDimacsError::Malformed("bad var count".into()))?;
            declared_vars = Some(nv);
            continue;
        }
        for tok in trimmed.split_whitespace() {
            let val: i64 = tok
                .parse()
                .map_err(|_| ParseDimacsError::Malformed(format!("bad token {tok:?}")))?;
            if val == 0 {
                // Canonicalize: drop repeated literals, keeping first
                // occurrences in order.
                let mut canonical: Vec<Lit> = Vec::with_capacity(current.len());
                for &lit in &current {
                    if canonical.contains(&lit) {
                        if !warnings.contains(&DimacsWarning::DuplicateLiteral {
                            clause: cnf.clauses.len(),
                            lit,
                        }) {
                            warnings.push(DimacsWarning::DuplicateLiteral {
                                clause: cnf.clauses.len(),
                                lit,
                            });
                        }
                    } else {
                        canonical.push(lit);
                    }
                }
                current.clear();
                if canonical.len() == 1 {
                    let l = canonical[0];
                    let sign = unit_sign.entry(l.var()).or_insert(0);
                    let s: i8 = if l.is_positive() { 1 } else { -1 };
                    if *sign == -s {
                        warnings.push(DimacsWarning::ContradictoryUnits { var: l.var() });
                        *sign = 2;
                    } else if *sign != 2 {
                        *sign = s;
                    }
                }
                cnf.clauses.push(canonical);
            } else {
                let lit = Lit::checked_from_dimacs(val).ok_or_else(|| {
                    ParseDimacsError::Malformed(format!(
                        "line {}: literal {val} out of range (|lit| > {})",
                        lineno + 1,
                        i32::MAX
                    ))
                })?;
                max_var = max_var.max(lit.var().index() + 1);
                current.push(lit);
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError::Malformed(
            "final clause not terminated by 0".into(),
        ));
    }
    cnf.num_vars = declared_vars.unwrap_or(max_var).max(max_var);
    Ok((cnf, warnings))
}

/// Writes a formula in DIMACS CNF format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dimacs<W: Write>(w: &mut W, cnf: &Cnf) -> std::io::Result<()> {
    writeln!(w, "p cnf {} {}", cnf.num_vars, cnf.clauses.len())?;
    for c in &cnf.clauses {
        for l in c {
            write!(w, "{} ", l.to_dimacs())?;
        }
        writeln!(w, "0")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn parse_simple() {
        let text = "c hi\np cnf 3 2\n1 -3 0\n2 3 -1 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0][1], Var::from_index(2).negative());
    }

    #[test]
    fn parse_multiline_clause() {
        let text = "p cnf 2 1\n1\n-2\n0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.clauses[0].len(), 2);
    }

    #[test]
    fn unterminated_clause_is_error() {
        let text = "p cnf 2 1\n1 -2\n";
        assert!(parse_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn bad_token_is_error() {
        let text = "p cnf 2 1\n1 x 0\n";
        assert!(parse_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn round_trip() {
        let text = "p cnf 3 2\n1 -3 0\n2 3 -1 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_dimacs(&mut out, &cnf).unwrap();
        let reparsed = parse_dimacs(&out[..]).unwrap();
        assert_eq!(cnf, reparsed);
    }

    #[test]
    fn into_solver_solves() {
        let text = "p cnf 2 2\n1 2 0\n-1 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        let mut s = cnf.into_solver();
        assert!(s.solve());
        assert_eq!(s.value(Var::from_index(1)), Some(true));
    }

    #[test]
    fn header_less_file_infers_vars() {
        let text = "1 -4 0\n";
        let cnf = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(cnf.num_vars, 4);
    }

    #[test]
    fn duplicate_literals_are_canonicalized() {
        let text = "p cnf 3 2\n1 2 1 1 0\n-3 -3 0\n";
        let (cnf, warnings) = parse_dimacs_with_report(text.as_bytes()).unwrap();
        assert_eq!(
            cnf.clauses[0],
            vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]
        );
        assert_eq!(cnf.clauses[1], vec![Lit::from_dimacs(-3)]);
        // One warning per (clause, literal) pair, not per extra copy.
        assert_eq!(
            warnings,
            vec![
                DimacsWarning::DuplicateLiteral {
                    clause: 0,
                    lit: Lit::from_dimacs(1)
                },
                DimacsWarning::DuplicateLiteral {
                    clause: 1,
                    lit: Lit::from_dimacs(-3)
                },
            ]
        );
    }

    #[test]
    fn opposite_polarities_are_not_duplicates() {
        // (x | !x) is a tautology, not a duplicate: both literals survive.
        let text = "p cnf 1 1\n1 -1 0\n";
        let (cnf, warnings) = parse_dimacs_with_report(text.as_bytes()).unwrap();
        assert_eq!(cnf.clauses[0].len(), 2);
        assert!(warnings.is_empty());
    }

    #[test]
    fn contradictory_units_are_reported_once() {
        let text = "p cnf 2 5\n1 0\n-1 0\n1 0\n-1 0\n2 0\n";
        let (cnf, warnings) = parse_dimacs_with_report(text.as_bytes()).unwrap();
        assert_eq!(cnf.clauses.len(), 5);
        assert_eq!(
            warnings,
            vec![DimacsWarning::ContradictoryUnits {
                var: Var::from_index(0)
            }]
        );
    }

    #[test]
    fn clean_file_has_no_warnings() {
        let text = "p cnf 3 3\n1 -3 0\n2 3 -1 0\n-2 0\n";
        let (_, warnings) = parse_dimacs_with_report(text.as_bytes()).unwrap();
        assert!(warnings.is_empty());
    }

    #[test]
    fn warning_display_is_dimacs_flavoured() {
        let w = DimacsWarning::DuplicateLiteral {
            clause: 3,
            lit: Lit::from_dimacs(-2),
        };
        assert_eq!(w.to_string(), "clause 3 repeats literal -2");
        let w = DimacsWarning::ContradictoryUnits {
            var: Var::from_index(4),
        };
        assert_eq!(w.to_string(), "unit clauses assert both 5 and -5");
    }

    #[test]
    fn out_of_range_variables_are_errors_not_aliases() {
        // Past 2^31 a variable would wrap onto a small one, and ±2^31 itself
        // would wrap to `i32::MIN` as an `i32` DIMACS literal; the unit
        // bookkeeping must not allocate per variable either.
        for val in [
            1i64 << 31,
            -(1 << 31),
            (1 << 31) + 1,
            (1 << 32) + 1,
            i64::MIN,
        ] {
            let err = parse_dimacs(format!("p cnf 1 2\n1 0\n{val} 0\n").as_bytes())
                .expect_err(&val.to_string())
                .to_string();
            assert!(err.contains("line 3: literal"), "{err}");
        }
        let cnf = parse_dimacs("2147483647 0\n-2147483647 0\n".as_bytes()).unwrap();
        assert_eq!(cnf.num_vars, i32::MAX as usize);
        assert_eq!(cnf.clauses[1][0].to_dimacs(), -i64::from(i32::MAX));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary DIMACS text for a well-formed CNF (clauses may repeat
    /// literals, which the parser canonicalizes).
    fn arb_dimacs() -> impl Strategy<Value = String> {
        let clause = proptest::collection::vec(
            (1i64..=6).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
            1..=4,
        );
        proptest::collection::vec(clause, 0..=12).prop_map(|clauses| {
            let mut s = String::from("p cnf 6 0\n");
            for c in &clauses {
                for l in c {
                    s.push_str(&format!("{l} "));
                }
                s.push_str("0\n");
            }
            s
        })
    }

    /// `|`-separated DIMACS fragments the token fuzzer strings together.
    const TOKENS: &str = "p cnf |c| |\n|0|-|3|2147483648|4294967297|-9223372036854775808";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// export → parse is the identity on already-canonical formulas:
        /// one parse canonicalizes, and the canonical form is a fixpoint.
        #[test]
        fn write_then_parse_round_trips(text in arb_dimacs()) {
            let (cnf, _) = parse_dimacs_with_report(text.as_bytes()).unwrap();
            let mut out = Vec::new();
            write_dimacs(&mut out, &cnf).unwrap();
            let (reparsed, warnings) = parse_dimacs_with_report(&out[..]).unwrap();
            prop_assert_eq!(&cnf, &reparsed);
            prop_assert!(
                warnings
                    .iter()
                    .all(|w| !matches!(w, DimacsWarning::DuplicateLiteral { .. })),
                "canonical output reparsed with duplicate warnings: {:?}",
                warnings
            );
            for c in &reparsed.clauses {
                for (i, l) in c.iter().enumerate() {
                    prop_assert!(!c[..i].contains(l), "duplicate literal survived");
                }
            }
        }

        /// Arbitrary bytes, and arbitrary sequences of DIMACS tokens, parse
        /// to `Ok` or `Err`, never a panic.
        #[test]
        fn arbitrary_input_never_panics(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
            picks in proptest::collection::vec(0usize..10, 0..48),
        ) {
            let _ = parse_dimacs(&bytes[..]);
            let tokens: Vec<&str> = TOKENS.split('|').collect();
            let text: String = picks.iter().map(|&i| tokens[i]).collect();
            let _ = parse_dimacs(text.as_bytes());
        }
    }
}
