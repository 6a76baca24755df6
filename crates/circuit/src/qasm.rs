//! OpenQASM 2.0 subset parser and printer.
//!
//! Supports the constructs produced by common transpilers for the gate sets
//! this workspace handles: a single quantum register, the `qelib1` gate
//! names used here (`x`, `h`, `rz`, `u1`/`u2`/`u3`, `cx`, `cz`, `swap`,
//! `iswap`, `cp`/`cu1`, `crx`, ...), `barrier` (ignored) and `measure`
//! (excluded from the [`Circuit`] but retained — with positions — on
//! [`QasmProgram`] for diagnostics). Parameter expressions support `pi`,
//! numeric literals, unary minus, `+ - * /` and parentheses.
//!
//! [`parse_qasm_program`] additionally reports a 1-based line *and* column
//! ([`SrcSpan`]) for every parsed statement, so downstream diagnostics (and
//! [`ParseQasmError`]) can point at exact source positions.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::error::Error;
use std::fmt;

/// A position in OpenQASM source: 1-based line and column.
///
/// Columns count characters (not bytes) from the start of the physical
/// line, so they match what an editor displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SrcSpan {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the statement's first character.
    pub col: usize,
}

impl fmt::Display for SrcSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Error produced when parsing OpenQASM source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based source line of the problem.
    pub line: usize,
    /// 1-based source column of the offending statement.
    pub col: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseQasmError {}

/// Largest quantum register the parser accepts. Far beyond any circuit this
/// workspace can adapt, and small enough that per-qubit work on untrusted
/// input (a whole-register `measure`, say) stays cheap.
const MAX_QUBITS: usize = 1 << 16;

fn err(span: SrcSpan, message: impl Into<String>) -> ParseQasmError {
    ParseQasmError {
        line: span.line,
        col: span.col,
        message: message.into(),
    }
}

/// One `measure` statement, retained for diagnostics.
///
/// [`parse_qasm`] drops measurements from the returned [`Circuit`] (the
/// adaptation pipeline works on the unitary part), but static analysis
/// needs to know *where* in the gate stream each qubit was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureStmt {
    /// Measured qubit indices (the whole register for `measure q -> c`).
    pub qubits: Vec<usize>,
    /// Number of gate instructions parsed before this measurement.
    pub at_op: usize,
    /// Source position of the statement.
    pub span: SrcSpan,
}

/// A parsed OpenQASM program with per-statement source metadata.
///
/// Produced by [`parse_qasm_program`]; [`parse_qasm`] is the plain-circuit
/// view. `spans` is parallel to `circuit.instrs()`.
#[derive(Debug, Clone)]
pub struct QasmProgram {
    /// The unitary part of the program.
    pub circuit: Circuit,
    /// Source position of every instruction (parallel to the circuit).
    pub spans: Vec<SrcSpan>,
    /// Measurement statements, in program order.
    pub measures: Vec<MeasureStmt>,
    /// Source position of the `qreg` declaration, when present.
    pub qreg_span: Option<SrcSpan>,
}

/// Parses a full OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unsupported or malformed constructs.
///
/// # Examples
///
/// ```
/// use qca_circuit::qasm::parse_qasm;
///
/// let src = r#"
/// OPENQASM 2.0;
/// include "qelib1.inc";
/// qreg q[2];
/// h q[0];
/// cx q[0],q[1];
/// rz(pi/4) q[1];
/// "#;
/// let c = parse_qasm(src)?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.len(), 3);
/// # Ok::<(), qca_circuit::qasm::ParseQasmError>(())
/// ```
pub fn parse_qasm(src: &str) -> Result<Circuit, ParseQasmError> {
    parse_qasm_program(src).map(|p| p.circuit)
}

/// Parses a full OpenQASM 2.0 program, retaining per-statement source
/// spans and measurement statements for diagnostics.
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unsupported or malformed constructs; the
/// error carries the exact line *and* column of the offending statement.
///
/// # Examples
///
/// ```
/// use qca_circuit::qasm::parse_qasm_program;
///
/// let src = "qreg q[2];\nh q[0];\nmeasure q[0] -> c[0];\n";
/// let p = parse_qasm_program(src)?;
/// assert_eq!(p.circuit.len(), 1);
/// assert_eq!(p.spans[0].line, 2);
/// assert_eq!(p.measures[0].qubits, vec![0]);
/// # Ok::<(), qca_circuit::qasm::ParseQasmError>(())
/// ```
pub fn parse_qasm_program(src: &str) -> Result<QasmProgram, ParseQasmError> {
    let mut num_qubits: Option<usize> = None;
    let mut reg_name = String::from("q");
    let mut program = QasmProgram {
        circuit: Circuit::new(0),
        spans: Vec::new(),
        measures: Vec::new(),
        qreg_span: None,
    };
    // Split each physical line on ';' to allow multi-statement lines,
    // tracking byte offsets so every statement gets a line:column span.
    for (lineno, raw_line) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let mut seg_start = 0usize;
        for segment in line.split(';') {
            let stmt = segment.trim();
            let start_byte = seg_start + (segment.len() - segment.trim_start().len());
            seg_start += segment.len() + 1;
            if stmt.is_empty() {
                continue;
            }
            let span = SrcSpan {
                line: lineno,
                col: raw_line[..start_byte].chars().count() + 1,
            };
            if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let rest = rest.trim();
                let (name, size) = parse_reg_decl(rest)
                    .ok_or_else(|| err(span, format!("bad qreg declaration {rest:?}")))?;
                if num_qubits.is_some() {
                    return Err(err(span, "multiple qreg declarations are unsupported"));
                }
                if size > MAX_QUBITS {
                    return Err(err(
                        span,
                        format!("qreg of {size} qubits exceeds {MAX_QUBITS}"),
                    ));
                }
                reg_name = name;
                num_qubits = Some(size);
                program.circuit = Circuit::new(size);
                program.qreg_span = Some(span);
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("measure") {
                if let Some(nq) = num_qubits {
                    if let Some(qubits) = parse_measure_operand(rest, &reg_name, nq) {
                        program.measures.push(MeasureStmt {
                            qubits,
                            at_op: program.circuit.len(),
                            span,
                        });
                    }
                }
                continue;
            }
            if stmt.starts_with("creg") || stmt.starts_with("barrier") {
                continue;
            }
            // Gate application: name[(params)] operands
            let nq = num_qubits.ok_or_else(|| err(span, "gate before qreg declaration"))?;
            let (gate, qubits) = parse_gate_stmt(stmt, &reg_name, nq, span)?;
            if qubits.iter().any(|&q| q >= nq) {
                return Err(err(span, "qubit index out of range"));
            }
            if qubits.len() == 2 && qubits[0] == qubits[1] {
                return Err(err(span, "two-qubit gate on identical qubits"));
            }
            program.circuit.push(gate, &qubits);
            program.spans.push(span);
        }
    }
    Ok(program)
}

/// Parses the quantum operand of `measure <q> -> <c>`: a single qubit for
/// `q[i]`, the whole register for a bare register name. Malformed
/// measurements are skipped (`None`), matching the parser's historical
/// leniency toward non-unitary statements.
fn parse_measure_operand(rest: &str, reg: &str, nq: usize) -> Option<Vec<usize>> {
    let lhs = rest.split("->").next()?.trim();
    if lhs == reg {
        return Some((0..nq).collect());
    }
    let idx = parse_operand(lhs, reg)?;
    (idx < nq).then(|| vec![idx])
}

/// The `[`/`]` byte offsets of the first bracket pair in `s`.
fn brackets(s: &str) -> Option<(usize, usize)> {
    let open = s.find('[')?;
    Some((open, open + 1 + s[open + 1..].find(']')?))
}

fn parse_reg_decl(s: &str) -> Option<(String, usize)> {
    let (open, close) = brackets(s)?;
    let name = s[..open].trim().to_string();
    let size: usize = s[open + 1..close].trim().parse().ok()?;
    Some((name, size))
}

fn parse_gate_stmt(
    stmt: &str,
    reg: &str,
    _nq: usize,
    span: SrcSpan,
) -> Result<(Gate, Vec<usize>), ParseQasmError> {
    // Split off the mnemonic (up to '(' or whitespace).
    let name_end = stmt
        .find(|c: char| c == '(' || c.is_whitespace())
        .unwrap_or(stmt.len());
    let name = &stmt[..name_end];
    let mut rest = stmt[name_end..].trim();
    let mut params: Vec<f64> = Vec::new();
    if rest.starts_with('(') {
        let close = find_matching_paren(rest)
            .ok_or_else(|| err(span, "unbalanced parameter parentheses"))?;
        let inner = &rest[1..close];
        for p in split_top_level_commas(inner) {
            params.push(parse_expr_detailed(p.trim()).map_err(|detail| {
                err(span, format!("bad parameter expression {p:?}: {detail}"))
            })?);
        }
        rest = rest[close + 1..].trim();
    }
    let mut qubits = Vec::new();
    for operand in rest.split(',') {
        let operand = operand.trim();
        if operand.is_empty() {
            continue;
        }
        let idx = parse_operand(operand, reg)
            .ok_or_else(|| err(span, format!("bad operand {operand:?}")))?;
        qubits.push(idx);
    }
    let p = |i: usize| -> Result<f64, ParseQasmError> {
        params
            .get(i)
            .copied()
            .ok_or_else(|| err(span, format!("gate {name} missing parameter {i}")))
    };
    let gate = match name {
        "id" | "i" => Gate::I,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "sx" => Gate::Sx,
        "rx" => Gate::Rx(p(0)?),
        "ry" => Gate::Ry(p(0)?),
        "rz" => Gate::Rz(p(0)?),
        "p" | "u1" => Gate::Phase(p(0)?),
        "u2" => Gate::U3(std::f64::consts::FRAC_PI_2, p(0)?, p(1)?),
        "u3" | "u" => Gate::U3(p(0)?, p(1)?, p(2)?),
        "cx" | "CX" => Gate::Cx,
        "cz" => Gate::Cz,
        "cz_db" => Gate::CzDiabatic,
        "cp" | "cu1" => Gate::CPhase(p(0)?),
        "crx" | "crot" => Gate::CRot(p(0)?),
        "swap" => Gate::Swap,
        "swap_d" => Gate::SwapDiabatic,
        "swap_c" => Gate::SwapComposite,
        "iswap" => Gate::ISwap,
        "iswapdg" => Gate::ISwapDg,
        other => return Err(err(span, format!("unsupported gate {other:?}"))),
    };
    let expect = gate.num_qubits();
    if qubits.len() != expect {
        return Err(err(
            span,
            format!(
                "gate {name} expects {expect} operand(s), got {}",
                qubits.len()
            ),
        ));
    }
    Ok((gate, qubits))
}

fn find_matching_paren(s: &str) -> Option<usize> {
    let mut depth = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_operand(s: &str, reg: &str) -> Option<usize> {
    let (open, close) = brackets(s)?;
    if s[..open].trim() != reg {
        return None;
    }
    s[open + 1..close].trim().parse().ok()
}

/// Parses a parameter arithmetic expression (`pi/2`, `-0.5*pi`, `3.25`, ...),
/// reporting what went wrong on malformed input (a dangling exponent like
/// `1e` or `2.5e+`, a stray character, trailing tokens, ...). [`parse_qasm`]
/// surfaces the message — with the offending source line — as a
/// [`ParseQasmError`].
pub fn parse_expr_detailed(s: &str) -> Result<f64, String> {
    let tokens = tokenize(s)?;
    if tokens.is_empty() {
        return Err("empty expression".to_string());
    }
    let mut pos = 0;
    let v = parse_add(&tokens, &mut pos).ok_or_else(|| "malformed expression".to_string())?;
    if pos == tokens.len() {
        Ok(v)
    } else {
        Err(format!(
            "trailing tokens after a complete expression (token {} of {})",
            pos + 1,
            tokens.len()
        ))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(s: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            'p' | 'P' if s[i..].to_lowercase().starts_with("pi") => {
                out.push(Token::Num(std::f64::consts::PI));
                i += 2;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'-' || bytes[i] == b'+')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let lit = &s[start..i];
                // A literal that stops right after its exponent marker
                // (`1e`, `2.5E+`) would fail the f64 parse below anyway,
                // but deserves a precise message.
                if lit.ends_with(['e', 'E', '+', '-']) {
                    return Err(format!("dangling exponent in numeric literal {lit:?}"));
                }
                out.push(
                    lit.parse()
                        .map(Token::Num)
                        .map_err(|_| format!("bad numeric literal {lit:?}"))?,
                );
            }
            other => return Err(format!("unexpected character {other:?}")),
        }
    }
    Ok(out)
}

fn parse_add(tokens: &[Token], pos: &mut usize) -> Option<f64> {
    let mut v = parse_mul(tokens, pos)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Token::Plus => {
                *pos += 1;
                v += parse_mul(tokens, pos)?;
            }
            Token::Minus => {
                *pos += 1;
                v -= parse_mul(tokens, pos)?;
            }
            _ => break,
        }
    }
    Some(v)
}

fn parse_mul(tokens: &[Token], pos: &mut usize) -> Option<f64> {
    let mut v = parse_unary(tokens, pos)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Token::Star => {
                *pos += 1;
                v *= parse_unary(tokens, pos)?;
            }
            Token::Slash => {
                *pos += 1;
                v /= parse_unary(tokens, pos)?;
            }
            _ => break,
        }
    }
    Some(v)
}

fn parse_unary(tokens: &[Token], pos: &mut usize) -> Option<f64> {
    match tokens.get(*pos)? {
        Token::Minus => {
            *pos += 1;
            Some(-parse_unary(tokens, pos)?)
        }
        Token::Plus => {
            *pos += 1;
            parse_unary(tokens, pos)
        }
        Token::Num(v) => {
            let v = *v;
            *pos += 1;
            Some(v)
        }
        Token::LParen => {
            *pos += 1;
            let v = parse_add(tokens, pos)?;
            if tokens.get(*pos) == Some(&Token::RParen) {
                *pos += 1;
                Some(v)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Serializes a circuit as OpenQASM 2.0.
///
/// Hardware realization variants (`cz_db`, `swap_d`, `swap_c`) are emitted
/// under those names; [`parse_qasm`] reads them back, and a standard QASM
/// consumer can `gate`-define them as their canonical equivalents.
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for instr in circuit.iter() {
        let params = instr.gate.params();
        let name = instr.gate.name();
        if params.is_empty() {
            out.push_str(name);
        } else {
            let joined: Vec<String> = params.iter().map(|p| format!("{p:.17}")).collect();
            out.push_str(&format!("{name}({})", joined.join(",")));
        }
        let qs: Vec<String> = instr.qubits.iter().map(|q| format!("q[{q}]")).collect();
        out.push_str(&format!(" {};\n", qs.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_num::phase::approx_eq_up_to_phase;
    use std::f64::consts::PI;

    #[test]
    fn parse_basic_program() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn crlf_line_endings_parse_identically() {
        // Files written on Windows arrive with \r\n terminators; the parser
        // must treat them exactly like \n (no ParseQasmError, same circuit).
        let unix = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
        let dos = unix.replace('\n', "\r\n");
        let a = parse_qasm(unix).unwrap();
        let b = parse_qasm(&dos).unwrap();
        assert_eq!(a.num_qubits(), b.num_qubits());
        assert_eq!(a.len(), b.len());
        assert_eq!(to_qasm(&a), to_qasm(&b));
    }

    #[test]
    fn missing_trailing_newline_parses() {
        let src = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
        // Same without a trailing newline *and* with CRLF endings.
        let src = "OPENQASM 2.0;\r\nqreg q[2];\r\ncx q[0],q[1];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn spans_report_correct_lines_under_crlf() {
        // Lint diagnostics anchor on these spans; a CRLF file must not
        // shift line numbers or columns (the \r is not part of the line).
        let src = "OPENQASM 2.0;\r\nqreg q[2];\r\n  h q[0];\r\ncx q[0],q[1];\r\n";
        let program = parse_qasm_program(src).unwrap();
        assert_eq!(program.qreg_span, Some(SrcSpan { line: 2, col: 1 }));
        assert_eq!(program.spans.len(), 2);
        assert_eq!(program.spans[0], SrcSpan { line: 3, col: 3 });
        assert_eq!(program.spans[1], SrcSpan { line: 4, col: 1 });
    }

    #[test]
    fn parse_parameter_expressions() {
        for (expr, expect) in [
            ("pi", PI),
            ("pi/2", PI / 2.0),
            ("-pi/4", -PI / 4.0),
            ("2*pi", 2.0 * PI),
            ("(1+2)*3", 9.0),
            ("1.5e-2", 0.015),
            ("pi/2 + pi/4", 3.0 * PI / 4.0),
            ("-(2-5)", 3.0),
        ] {
            let got = parse_expr_detailed(expr).unwrap_or_else(|e| panic!("{expr}: {e}"));
            assert!((got - expect).abs() < 1e-12, "{expr}: {got} != {expect}");
        }
    }

    #[test]
    fn bad_expressions_rejected() {
        for expr in ["", "pi pi", "1+", "(1", "q[0]", "foo"] {
            assert!(parse_expr_detailed(expr).is_err(), "{expr:?} should fail");
        }
    }

    #[test]
    fn exponent_forms_parse() {
        for (expr, expect) in [
            ("1e3", 1e3),
            ("1E3", 1e3),
            ("2.5e+2", 250.0),
            ("2.5e-2", 0.025),
            ("1e0*pi", PI),
            ("-3E-1", -0.3),
            ("1.5e2/pi", 150.0 / PI),
        ] {
            let got = parse_expr_detailed(expr).unwrap_or_else(|e| panic!("{expr}: {e}"));
            assert!((got - expect).abs() < 1e-12, "{expr}: {got} != {expect}");
        }
    }

    #[test]
    fn dangling_exponents_report_detail() {
        for expr in ["1e", "2.5e+", "2.5E-", "1e*2", "pi/2.5e"] {
            let detail = parse_expr_detailed(expr).unwrap_err();
            assert!(
                detail.contains("dangling exponent"),
                "{expr:?} gave {detail:?}"
            );
        }
    }

    #[test]
    fn pi_arithmetic_forms_parse() {
        for (expr, expect) in [
            ("pi*pi", PI * PI),
            ("PI/2", PI / 2.0),
            ("-pi + 2*pi", PI),
            ("(pi - pi/2)/2", PI / 4.0),
        ] {
            let got = parse_expr_detailed(expr).unwrap_or_else(|e| panic!("{expr}: {e}"));
            assert!((got - expect).abs() < 1e-12, "{expr}: {got} != {expect}");
        }
    }

    #[test]
    fn malformed_parameter_carries_line_and_detail() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(1e) q[1];\n";
        let e = parse_qasm(src).unwrap_err();
        assert_eq!(e.line, 4, "error points at the offending source line");
        assert!(e.message.contains("dangling exponent"), "{}", e.message);
        let src = "qreg q[1];\nrz(2.5e+) q[0];\n";
        let e = parse_qasm(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("2.5e+"), "{}", e.message);
        let src = "qreg q[1];\nrz(1$2) q[0];\n";
        let e = parse_qasm(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unexpected character"), "{}", e.message);
    }

    #[test]
    fn parse_parameterized_gates() {
        let src = "qreg q[2];\nrz(pi/2) q[0];\nu3(0.1,0.2,0.3) q[1];\ncp(-pi) q[0],q[1];\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.instrs()[0].gate, Gate::Rz(PI / 2.0));
        assert_eq!(c.instrs()[1].gate, Gate::U3(0.1, 0.2, 0.3));
        assert_eq!(c.instrs()[2].gate, Gate::CPhase(-PI));
    }

    #[test]
    fn unsupported_gate_errors() {
        let src = "qreg q[1];\nfrobnicate q[0];\n";
        let e = parse_qasm(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn out_of_range_qubit_errors() {
        let src = "qreg q[1];\nh q[3];\n";
        assert!(parse_qasm(src).is_err());
    }

    #[test]
    fn gate_before_qreg_errors() {
        let src = "h q[0];\n";
        assert!(parse_qasm(src).is_err());
    }

    #[test]
    fn wrong_arity_errors() {
        let src = "qreg q[2];\ncx q[0];\n";
        assert!(parse_qasm(src).is_err());
    }

    #[test]
    fn round_trip_preserves_unitary() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(0.7), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::U3(0.1, -0.2, 0.3), &[2]);
        c.push(Gate::CPhase(1.3), &[1, 2]);
        c.push(Gate::Swap, &[0, 2]);
        let qasm = to_qasm(&c);
        let c2 = parse_qasm(&qasm).unwrap();
        assert_eq!(c.len(), c2.len());
        assert!(approx_eq_up_to_phase(&c.unitary(), &c2.unitary(), 1e-9));
    }

    #[test]
    fn round_trip_realization_variants() {
        let mut c = Circuit::new(2);
        c.push(Gate::SwapDiabatic, &[0, 1]);
        c.push(Gate::CzDiabatic, &[0, 1]);
        c.push(Gate::SwapComposite, &[0, 1]);
        let c2 = parse_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(c.instrs(), c2.instrs());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "// header\nqreg q[1];\n\nh q[0]; // inline comment\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn barrier_is_ignored() {
        let src = "qreg q[2];\nh q[0];\nbarrier q;\ncx q[0],q[1];\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn program_spans_are_parallel_to_instrs() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0]; cx q[0],q[1];\n  rz(0.5) q[1];\n";
        let p = parse_qasm_program(src).unwrap();
        assert_eq!(p.circuit.len(), 3);
        assert_eq!(p.spans.len(), p.circuit.len());
        assert_eq!(p.spans[0], SrcSpan { line: 3, col: 1 });
        // Second statement on the same line starts after "h q[0]; ".
        assert_eq!(p.spans[1], SrcSpan { line: 3, col: 9 });
        // Leading whitespace is skipped when computing the column.
        assert_eq!(p.spans[2], SrcSpan { line: 4, col: 3 });
        assert_eq!(p.qreg_span, Some(SrcSpan { line: 2, col: 1 }));
    }

    #[test]
    fn measures_are_recorded_with_positions() {
        let src = "qreg q[3];\nh q[0];\nmeasure q[0] -> c[0];\nx q[1];\nmeasure q -> c;\n";
        let p = parse_qasm_program(src).unwrap();
        assert_eq!(p.circuit.len(), 2, "measures stay out of the circuit");
        assert_eq!(p.measures.len(), 2);
        assert_eq!(p.measures[0].qubits, vec![0]);
        assert_eq!(p.measures[0].at_op, 1);
        assert_eq!(p.measures[0].span, SrcSpan { line: 3, col: 1 });
        // Bare register name measures every qubit.
        assert_eq!(p.measures[1].qubits, vec![0, 1, 2]);
        assert_eq!(p.measures[1].at_op, 2);
    }

    #[test]
    fn parse_errors_carry_column() {
        let src = "qreg q[2];\nh q[0]; frobnicate q[1];\n";
        let e = parse_qasm(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 9, "error points at the second statement");
        assert!(e.to_string().contains("line 2, column 9"), "{e}");
    }

    #[test]
    fn close_bracket_before_open_is_an_error_not_a_panic() {
        assert!(parse_qasm("qreg q]2[;\nh q[0];\n").is_err());
        assert!(parse_qasm("qreg q[2];\nh q]0[;\n").is_err());
        assert!(parse_qasm("qreg q[2];\nmeasure q]0[ -> c[0];\n").is_ok());
    }

    #[test]
    fn oversized_register_is_rejected_before_any_per_qubit_work() {
        let e = parse_qasm("qreg q[100000000000000];\nmeasure q -> c;\n").unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");
        assert!(parse_qasm(&format!("qreg q[{MAX_QUBITS}];\nmeasure q -> c;\n")).is_ok());
    }

    /// `|`-separated QASM fragments the token fuzzer strings together.
    const TOKENS: &str = "qreg |q|[|]|1|99999999999999|;|\n|measure | -> c|cx |rz|(|)|,|pi";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, and arbitrary sequences of QASM tokens, parse to
        /// `Ok` or `Err`, never a panic.
        #[test]
        fn arbitrary_input_never_panics(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
            picks in proptest::collection::vec(0usize..16, 0..48),
        ) {
            let _ = parse_qasm_program(&String::from_utf8_lossy(&bytes));
            let tokens: Vec<&str> = TOKENS.split('|').collect();
            let src: String = picks.iter().map(|&i| tokens[i]).collect();
            let _ = parse_qasm_program(&src);
        }
    }
}
