//! Diagnostic renderers: a compiler-style human format and JSON lines.
//!
//! The human format follows the `file:line:col: severity[CODE]: message`
//! convention so editors and CI log scrapers can parse it. The JSON format
//! emits one object per line with stable keys (`file`, `line`, `col`,
//! `code`, `severity`, `message`, `help`), omitting absent fields.

use crate::diag::Diagnostic;
use qca_trace::json::Json;
use std::fmt::Write as _;

/// Renders one diagnostic in the human `file:line:col:` style. `file` is
/// omitted from the prefix when `None`; a `help:` line is appended when the
/// diagnostic carries one.
pub fn render_human(file: Option<&str>, d: &Diagnostic) -> String {
    let mut out = String::new();
    if let Some(file) = file {
        out.push_str(file);
        out.push(':');
        if let Some(span) = d.span {
            let _ = write!(out, "{span}:");
        }
        out.push(' ');
    } else if let Some(span) = d.span {
        let _ = write!(out, "{span}: ");
    }
    let _ = write!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if let Some(help) = &d.help {
        let _ = write!(out, "\n    help: {help}");
    }
    out
}

/// Renders one diagnostic as a single JSON object; its compact form is
/// one `--json` line.
pub fn render_json(file: Option<&str>, d: &Diagnostic) -> Json {
    let mut members = Vec::with_capacity(7);
    if let Some(file) = file {
        members.push(("file", file.into()));
    }
    if let Some(span) = d.span {
        members.push(("line", span.line.into()));
        members.push(("col", span.col.into()));
    }
    members.push(("code", d.code.to_string().into()));
    members.push(("severity", d.severity.to_string().into()));
    members.push(("message", d.message.as_str().into()));
    if let Some(help) = &d.help {
        members.push(("help", help.as_str().into()));
    }
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintCode;
    use qca_circuit::qasm::SrcSpan;

    #[test]
    fn human_format_matches_compiler_convention() {
        let d = Diagnostic::new(LintCode::ZeroAngle, "rz angle is zero")
            .with_span(SrcSpan { line: 4, col: 2 })
            .with_help("remove the gate");
        assert_eq!(
            render_human(Some("a.qasm"), &d),
            "a.qasm:4:2: warning[QCA0103]: rz angle is zero\n    help: remove the gate"
        );
        let bare = Diagnostic::new(LintCode::EmptyClause, "clause 3 is empty");
        assert_eq!(
            render_human(None, &bare),
            "error[QCA0402]: clause 3 is empty"
        );
    }

    #[test]
    fn json_format_is_stable_and_escaped() {
        let d = Diagnostic::new(LintCode::ParseError, "bad \"token\"")
            .with_span(SrcSpan { line: 1, col: 9 });
        assert_eq!(
            render_json(Some("x.qasm"), &d).to_string_compact(),
            "{\"file\":\"x.qasm\",\"line\":1,\"col\":9,\"code\":\"QCA0001\",\
             \"severity\":\"error\",\"message\":\"bad \\\"token\\\"\"}"
        );
    }
}
