//! DRAT proof logging for the CDCL solver.
//!
//! Every clause the solver *derives* (learnt clauses, level-0 units,
//! simplified problem clauses, the final empty clause) and every learnt
//! clause it *deletes* during database reduction can be streamed to a
//! [`ProofSink`] as a DRAT proof. All clauses the solver emits are RUP
//! (reverse-unit-propagation) consequences of the formula plus the earlier
//! proof prefix, so the resulting trace is checkable by any standard DRAT
//! checker — in particular the independent one in `qca-verify`, which shares
//! no propagation code with this solver.
//!
//! Two sinks are provided: [`MemoryProof`] (cheap shared buffer, used by the
//! certificate machinery) and [`FileProof`] (buffered DRAT text, used by
//! `qsat --proof`). With no sink installed the solver pays exactly one
//! branch per derivation site.
//!
//! # Text format
//!
//! The textual DRAT format is one clause per line in DIMACS literal
//! notation, `0`-terminated; deletions are prefixed with `d`:
//!
//! ```text
//! 1 -3 0
//! d 2 -1 4 0
//! 0
//! ```
//!
//! The final line above is the empty clause that completes an
//! unsatisfiability proof.

use crate::lit::Lit;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

/// One step of a clausal proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// Addition of a derived clause (empty = refutation complete).
    Add(Vec<Lit>),
    /// Deletion of a clause from the active database.
    Delete(Vec<Lit>),
}

impl ProofStep {
    /// The step's literals, regardless of kind.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofStep::Add(l) | ProofStep::Delete(l) => l,
        }
    }

    /// `true` for deletion steps.
    pub fn is_delete(&self) -> bool {
        matches!(self, ProofStep::Delete(_))
    }
}

/// Receives proof steps from a [`Solver`](crate::Solver).
///
/// Implementations must tolerate duplicate deletions and deletions of
/// never-added clauses: the solver only emits deletions for clauses it
/// derived, but a checker consuming the stream applies drat-trim semantics
/// (deleting an absent clause is a no-op).
pub trait ProofSink: std::fmt::Debug + Send {
    /// Records the addition of a derived clause (empty = refutation).
    fn add_clause(&mut self, lits: &[Lit]);
    /// Records the deletion of a clause.
    fn delete_clause(&mut self, lits: &[Lit]);
    /// Flushes any buffered output to its backing store.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while writing, if any.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// In-memory proof buffer behind a shared handle.
///
/// Cloning is cheap and both clones observe the same step list, so a caller
/// can keep one handle, box the other into the solver, and read the steps
/// back without downcasting.
///
/// # Examples
///
/// ```
/// use qca_sat::proof::{MemoryProof, ProofSink};
/// use qca_sat::Solver;
///
/// let proof = MemoryProof::new();
/// let mut s = Solver::new();
/// s.set_proof(Box::new(proof.clone()));
/// let v = s.new_var();
/// s.add_clause(&[v.positive()]);
/// s.add_clause(&[v.negative()]);
/// assert!(!s.solve());
/// assert!(proof.take_steps().iter().any(|s| s.lits().is_empty()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryProof {
    steps: Arc<Mutex<Vec<ProofStep>>>,
}

impl MemoryProof {
    /// An empty proof buffer.
    pub fn new() -> MemoryProof {
        MemoryProof::default()
    }

    /// Moves the steps recorded so far out, leaving the buffer empty.
    pub fn take_steps(&self) -> Vec<ProofStep> {
        std::mem::take(&mut *self.steps.lock().expect("proof mutex poisoned"))
    }
}

impl ProofSink for MemoryProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.steps
            .lock()
            .expect("proof mutex poisoned")
            .push(ProofStep::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.steps
            .lock()
            .expect("proof mutex poisoned")
            .push(ProofStep::Delete(lits.to_vec()));
    }
}

/// Buffered DRAT text writer.
///
/// Write errors are sticky: the first one is kept and returned by
/// [`ProofSink::flush`]; later writes become no-ops. Dropping the sink
/// flushes best-effort.
#[derive(Debug)]
pub struct FileProof {
    writer: std::io::BufWriter<std::fs::File>,
    error: Option<std::io::Error>,
}

impl FileProof {
    /// Creates (truncating) the proof file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the file.
    pub fn create(path: &std::path::Path) -> std::io::Result<FileProof> {
        Ok(FileProof {
            writer: std::io::BufWriter::new(std::fs::File::create(path)?),
            error: None,
        })
    }

    fn write_line(&mut self, prefix: &str, lits: &[Lit]) {
        if self.error.is_some() {
            return;
        }
        let mut line = String::with_capacity(prefix.len() + lits.len() * 4 + 2);
        line.push_str(prefix);
        for l in lits {
            line.push_str(&l.to_dimacs().to_string());
            line.push(' ');
        }
        line.push_str("0\n");
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

impl ProofSink for FileProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.write_line("", lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.write_line("d ", lits);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

impl Drop for FileProof {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Serializes proof steps as DRAT text.
pub fn write_drat<W: Write>(w: &mut W, steps: &[ProofStep]) -> std::io::Result<()> {
    for step in steps {
        if step.is_delete() {
            w.write_all(b"d ")?;
        }
        for l in step.lits() {
            write!(w, "{} ", l.to_dimacs())?;
        }
        w.write_all(b"0\n")?;
    }
    Ok(())
}

/// Parses DRAT text (as written by [`FileProof`] / [`write_drat`]).
///
/// Accepts `c` comment lines, blank lines, and clauses spanning a single
/// line each (the format this crate emits).
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input
/// (non-integer token, literal beyond `±i32::MAX`, missing `0`
/// terminator, zero mid-clause).
pub fn parse_drat<R: BufRead>(reader: R) -> Result<Vec<ProofStep>, String> {
    let mut steps = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let (is_delete, body) = match trimmed.strip_prefix('d') {
            Some(rest) => (true, rest),
            None => (false, trimmed),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in body.split_whitespace() {
            if terminated {
                return Err(format!("line {}: literals after terminating 0", lineno + 1));
            }
            let v: i64 = tok
                .parse()
                .map_err(|_| format!("line {}: bad literal {tok:?}", lineno + 1))?;
            if v == 0 {
                terminated = true;
            } else {
                lits.push(Lit::checked_from_dimacs(v).ok_or_else(|| {
                    format!(
                        "line {}: literal {v} out of range (|lit| > {})",
                        lineno + 1,
                        i32::MAX
                    )
                })?);
            }
        }
        if !terminated {
            return Err(format!("line {}: missing terminating 0", lineno + 1));
        }
        steps.push(if is_delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn memory_proof_shares_steps_across_clones() {
        let a = MemoryProof::new();
        let mut b = a.clone();
        b.add_clause(&[lit(1), lit(-2)]);
        b.delete_clause(&[lit(3)]);
        let steps = a.take_steps();
        assert!(
            b.take_steps().is_empty(),
            "taking the steps empties the shared buffer"
        );
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0], ProofStep::Add(vec![lit(1), lit(-2)]));
        assert_eq!(steps[1], ProofStep::Delete(vec![lit(3)]));
    }

    #[test]
    fn drat_text_round_trip() {
        let steps = vec![
            ProofStep::Add(vec![lit(1), lit(-3), lit(2)]),
            ProofStep::Delete(vec![lit(-1), lit(4)]),
            ProofStep::Add(vec![]),
        ];
        let mut buf = Vec::new();
        write_drat(&mut buf, &steps).unwrap();
        let parsed = parse_drat(&buf[..]).unwrap();
        assert_eq!(parsed, steps);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_drat("1 2\n".as_bytes()).is_err(), "missing 0");
        assert!(parse_drat("1 x 0\n".as_bytes()).is_err(), "bad token");
        assert!(parse_drat("1 0 2 0\n".as_bytes()).is_err(), "zero mid-line");
    }

    #[test]
    fn parse_rejects_literals_beyond_i32() {
        // `Lit::from_dimacs` would alias these onto 1 and -1, and ±2^31
        // would wrap to `i32::MIN` in an `i32` DIMACS checker.
        for val in [
            2_147_483_649i64,
            -4_294_967_297,
            2_147_483_648,
            -2_147_483_648,
        ] {
            let err = parse_drat(format!("1 0\n{val} 0\n").as_bytes()).unwrap_err();
            assert!(err.starts_with("line 2: literal"), "{err}");
        }
        let steps = parse_drat("2147483647 -2147483647 0\n".as_bytes()).unwrap();
        let dimacs: Vec<i64> = steps[0].lits().iter().map(|l| l.to_dimacs()).collect();
        assert_eq!(dimacs, [2_147_483_647, -2_147_483_647]);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let steps = parse_drat("c a comment\n\n1 0\nd 1 0\n".as_bytes()).unwrap();
        assert_eq!(steps.len(), 2);
        assert!(!steps[0].is_delete());
        assert!(steps[1].is_delete());
    }

    #[test]
    fn file_proof_writes_drat_text() {
        let dir = std::env::temp_dir().join("qca_sat_proof_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("p{}.drat", std::process::id()));
        {
            let mut p = FileProof::create(&path).unwrap();
            p.add_clause(&[lit(2), lit(-1)]);
            p.delete_clause(&[lit(2)]);
            p.add_clause(&[]);
            p.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "2 -1 0\nd 2 0\n0\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lit_helpers_cover_var_roundtrip() {
        let v = Var::from_index(4);
        assert_eq!(v.positive().to_dimacs(), 5);
        assert_eq!(v.negative().to_dimacs(), -5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Tokens the fuzzer strings into lines: terminators, deletion and
    /// comment markers, garbage, and literals at and past the `i32` bound.
    const TOKENS: [&str; 14] = [
        "0",
        "0",
        "d",
        "c",
        "x",
        "-",
        "1",
        "-2",
        "2147483647",
        "-2147483647",
        "2147483648",
        "-2147483648",
        "4294967297",
        "-9223372036854775808",
    ];

    /// The nonzero integers of a DRAT line, as the text spells them.
    fn written_literals(line: &str) -> Vec<i64> {
        let body = line.trim().strip_prefix('d').unwrap_or(line.trim());
        body.split_whitespace()
            .map(|t| t.parse::<i64>().unwrap())
            .filter(|&v| v != 0)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary lines of DRAT tokens parse to `Ok` or `Err`, never a
        /// panic; when accepted, every literal fits an `i32` and
        /// round-trips through `to_dimacs` to the integer written in the
        /// text. Each line is
        /// also parsed alone, so most cases reach the round-trip check.
        #[test]
        fn arbitrary_lines_never_panic_and_accepted_literals_round_trip(
            lines in collection::vec(collection::vec(0usize..TOKENS.len(), 0..6), 0..8),
        ) {
            let lines: Vec<String> = lines
                .iter()
                .map(|l| l.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" "))
                .collect();
            let texts = lines.iter().map(|l| vec![l.clone()]).chain([lines.clone()]);
            for text in texts {
                let Ok(steps) = parse_drat(text.join("\n").as_bytes()) else {
                    continue;
                };
                let clauses: Vec<&String> = text
                    .iter()
                    .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('c'))
                    .collect();
                prop_assert_eq!(steps.len(), clauses.len());
                for (step, line) in steps.iter().zip(clauses) {
                    let parsed: Vec<i64> = step.lits().iter().map(|l| l.to_dimacs()).collect();
                    prop_assert!(parsed.iter().all(|&v| i32::try_from(v).is_ok()));
                    prop_assert_eq!(parsed, written_literals(line));
                }
            }
        }
    }
}
