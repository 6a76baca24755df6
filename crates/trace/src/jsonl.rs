//! JSONL serialization of [`TraceEvent`]s.
//!
//! Each event is one compact JSON object per line with a fixed key order.
//! Lines are written directly (the trace sink is on the hot path) with
//! [`json::write_str`] escaping, and read back through the strict
//! [`json::parse`].

use crate::json::{self, Json};
use crate::TraceEvent;
use std::borrow::Cow;

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    json::write_str(value, out);
}

/// Serialize a whole event stream as JSONL text (one event per line, with
/// a trailing newline after each). Round-trips through [`parse_jsonl`].
///
/// # Examples
///
/// ```
/// use qca_trace::{jsonl, Tracer};
///
/// let (tracer, sink) = Tracer::to_memory();
/// tracer.counter("n", 3);
/// let events = sink.take();
/// let text = jsonl::to_jsonl_string(&events);
/// assert_eq!(jsonl::parse_jsonl(&text).unwrap(), events);
/// ```
pub fn to_jsonl_string(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for event in events {
        out.push_str(&to_jsonl(event));
        out.push('\n');
    }
    out
}

/// Serialize one event as a single JSON line (no trailing newline).
pub fn to_jsonl(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    s.push('{');
    match event {
        TraceEvent::SpanEnter {
            id,
            parent,
            thread,
            t_ns,
            name,
            detail,
        } => {
            s.push_str("\"ev\":\"enter\",");
            push_str_field(&mut s, "name", name);
            s.push_str(&format!(",\"id\":{id}"));
            if let Some(p) = parent {
                s.push_str(&format!(",\"parent\":{p}"));
            }
            s.push_str(&format!(",\"thread\":{thread},\"t_ns\":{t_ns}"));
            if let Some(d) = detail {
                s.push(',');
                push_str_field(&mut s, "detail", d);
            }
        }
        TraceEvent::SpanExit {
            id,
            thread,
            t_ns,
            note,
        } => {
            s.push_str(&format!(
                "\"ev\":\"exit\",\"id\":{id},\"thread\":{thread},\"t_ns\":{t_ns}"
            ));
            if let Some(n) = note {
                s.push(',');
                push_str_field(&mut s, "note", n);
            }
        }
        TraceEvent::Counter {
            name,
            span,
            thread,
            t_ns,
            value,
        } => {
            s.push_str("\"ev\":\"counter\",");
            push_str_field(&mut s, "name", name);
            if let Some(sp) = span {
                s.push_str(&format!(",\"span\":{sp}"));
            }
            s.push_str(&format!(
                ",\"thread\":{thread},\"t_ns\":{t_ns},\"value\":{value}"
            ));
        }
        TraceEvent::Gauge {
            name,
            span,
            thread,
            t_ns,
            value,
        } => {
            s.push_str("\"ev\":\"gauge\",");
            push_str_field(&mut s, "name", name);
            if let Some(sp) = span {
                s.push_str(&format!(",\"span\":{sp}"));
            }
            s.push_str(&format!(
                ",\"thread\":{thread},\"t_ns\":{t_ns},\"value\":{value}"
            ));
        }
    }
    s.push('}');
    s
}

/// Parse one JSONL line back into a [`TraceEvent`].
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, String> {
    let doc = json::parse(line).map_err(|e| format!("{e}: {line}"))?;
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        doc.get(key)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("field {key:?} is not a u64: {line}"))
            })
            .transpose()
    };
    let opt_str = |key: &str| -> Result<Option<String>, String> {
        doc.get(key)
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field {key:?} is not a string: {line}"))
            })
            .transpose()
    };
    let missing = |key: &str| format!("missing field {key:?}: {line}");
    let get_u64 = |key: &str| opt_u64(key)?.ok_or_else(|| missing(key));
    let get_str = |key: &str| opt_str(key)?.ok_or_else(|| missing(key));

    match get_str("ev")?.as_str() {
        "enter" => Ok(TraceEvent::SpanEnter {
            id: get_u64("id")?,
            parent: opt_u64("parent")?,
            thread: get_u64("thread")?,
            t_ns: get_u64("t_ns")?,
            name: Cow::Owned(get_str("name")?),
            detail: opt_str("detail")?,
        }),
        "exit" => Ok(TraceEvent::SpanExit {
            id: get_u64("id")?,
            thread: get_u64("thread")?,
            t_ns: get_u64("t_ns")?,
            note: opt_str("note")?,
        }),
        "counter" => Ok(TraceEvent::Counter {
            name: Cow::Owned(get_str("name")?),
            span: opt_u64("span")?,
            thread: get_u64("thread")?,
            t_ns: get_u64("t_ns")?,
            value: get_u64("value")?,
        }),
        "gauge" => Ok(TraceEvent::Gauge {
            name: Cow::Owned(get_str("name")?),
            span: opt_u64("span")?,
            thread: get_u64("thread")?,
            t_ns: get_u64("t_ns")?,
            value: doc
                .get("value")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("field \"value\" is not an i64: {line}"))?,
        }),
        other => Err(format!("unknown event kind {other:?}: {line}")),
    }
}

/// Parse a whole JSONL document (blank lines are skipped).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ev: TraceEvent) {
        let line = to_jsonl(&ev);
        let back = parse_jsonl_line(&line).unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
        assert_eq!(ev, back, "line was {line}");
    }

    #[test]
    fn round_trips_all_variants() {
        round_trip(TraceEvent::SpanEnter {
            id: 7,
            parent: Some(3),
            thread: 1,
            t_ns: 123_456,
            name: "omt.probe".into(),
            detail: Some("bound=5 \"tricky\"\n\ttail\\".to_string()),
        });
        round_trip(TraceEvent::SpanEnter {
            id: 1,
            parent: None,
            thread: 0,
            t_ns: 0,
            name: "adapt".into(),
            detail: None,
        });
        round_trip(TraceEvent::SpanExit {
            id: 7,
            thread: 1,
            t_ns: 200_000,
            note: Some("sat".into()),
        });
        round_trip(TraceEvent::SpanExit {
            id: 1,
            thread: 0,
            t_ns: 9,
            note: None,
        });
        round_trip(TraceEvent::Counter {
            name: "sat.restart".into(),
            span: Some(7),
            thread: 1,
            t_ns: 55,
            value: u64::MAX,
        });
        round_trip(TraceEvent::Gauge {
            name: "omt.best".into(),
            span: None,
            thread: 0,
            t_ns: 55,
            value: -42,
        });
    }

    #[test]
    fn control_characters_escape() {
        round_trip(TraceEvent::SpanEnter {
            id: 2,
            parent: None,
            thread: 0,
            t_ns: 1,
            name: "x".into(),
            detail: Some("\u{1}\u{1f}ünïcode❄".to_string()),
        });
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_jsonl_line("not json").is_err());
        assert!(parse_jsonl_line("{\"ev\":\"enter\"}").is_err());
        assert!(parse_jsonl_line("{\"ev\":\"bogus\",\"id\":1}").is_err());
        assert!(
            parse_jsonl_line("{\"ev\":\"exit\",\"id\":1,\"thread\":0,\"t_ns\":2} extra").is_err()
        );
    }

    #[test]
    fn golden_lines_pin_key_order_and_spelling() {
        let cases = [
            (
                TraceEvent::SpanEnter {
                    id: 7,
                    parent: Some(3),
                    thread: 1,
                    t_ns: 123_456,
                    name: "omt.probe".into(),
                    detail: Some("bound=5 \"q\"\n".to_string()),
                },
                r#"{"ev":"enter","name":"omt.probe","id":7,"parent":3,"thread":1,"t_ns":123456,"detail":"bound=5 \"q\"\n"}"#,
            ),
            (
                TraceEvent::SpanEnter {
                    id: 1,
                    parent: None,
                    thread: 0,
                    t_ns: 0,
                    name: "adapt".into(),
                    detail: None,
                },
                r#"{"ev":"enter","name":"adapt","id":1,"thread":0,"t_ns":0}"#,
            ),
            (
                TraceEvent::SpanExit {
                    id: 7,
                    thread: 1,
                    t_ns: 200_000,
                    note: Some("sat".into()),
                },
                r#"{"ev":"exit","id":7,"thread":1,"t_ns":200000,"note":"sat"}"#,
            ),
            (
                TraceEvent::SpanExit {
                    id: 1,
                    thread: 0,
                    t_ns: 9,
                    note: None,
                },
                r#"{"ev":"exit","id":1,"thread":0,"t_ns":9}"#,
            ),
            (
                TraceEvent::Counter {
                    name: "sat.restart".into(),
                    span: Some(7),
                    thread: 1,
                    t_ns: 55,
                    value: u64::MAX,
                },
                r#"{"ev":"counter","name":"sat.restart","span":7,"thread":1,"t_ns":55,"value":18446744073709551615}"#,
            ),
            (
                TraceEvent::Gauge {
                    name: "omt.best".into(),
                    span: None,
                    thread: 0,
                    t_ns: 55,
                    value: i64::MIN,
                },
                r#"{"ev":"gauge","name":"omt.best","thread":0,"t_ns":55,"value":-9223372036854775808}"#,
            ),
        ];
        for (event, line) in cases {
            assert_eq!(to_jsonl(&event), line);
            assert_eq!(parse_jsonl_line(line).unwrap(), event);
        }
    }

    /// Fragments of trace lines, recombined at random.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        "\"ev\"",
        "\"enter\"",
        "\"exit\"",
        "\"counter\"",
        "\"gauge\"",
        "\"id\"",
        "\"name\"",
        "\"value\"",
        "\"t_ns\"",
        "\"thread\"",
        "0",
        "-1",
        "18446744073709551616",
        "1.5",
        "null",
        "\\",
        "\\u",
        "d800",
        "é",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_lines_never_panic(ix in proptest::collection::vec(0..TOKENS.len(), 0..32)) {
            let line: String = ix.iter().map(|&i| TOKENS[i]).collect();
            let _ = parse_jsonl_line(&line);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            let _ = parse_jsonl_line(&String::from_utf8_lossy(&bytes));
        }
    }
}
