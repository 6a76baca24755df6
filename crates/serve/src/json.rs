//! JSON bodies of API responses, built on the workspace's one JSON
//! reader/writer ([`qca_trace::json`]).

use qca_circuit::qasm;
use qca_engine::{AdaptReport, AdaptStatus};
use qca_trace::json::Json;

/// One error object: `{"error":"..."}`.
pub fn error_body(message: &str) -> Json {
    Json::obj([("error", message.into())])
}

/// Renders one [`AdaptReport`] as the compact `/v1/adapt` response object;
/// see [`report_json`].
pub fn report_to_json(id: &str, report: &AdaptReport, include_circuit: bool) -> String {
    report_json(id, report, include_circuit).to_string_compact()
}

/// One [`AdaptReport`] as the `/v1/adapt` response object.
///
/// `optimal` is the wire-level contract for deadline semantics: a request
/// whose deadline expired mid-search comes back `status: "feasible"` (best
/// incumbent) or `status: "fallback"`, and in both cases `optimal` is
/// `false`.
pub fn report_json(id: &str, report: &AdaptReport, include_circuit: bool) -> Json {
    // SWAP-insertion routing substitutions the solver chose (null for
    // fallbacks, which never went through the solver).
    let routed = report
        .adaptation
        .as_deref()
        .map(|a| a.chosen.iter().filter(|s| s.route.is_some()).count());
    let mut members = vec![
        ("request_id", id.into()),
        ("status", report.status.to_string().into()),
        (
            "optimal",
            matches!(report.status, AdaptStatus::Optimal).into(),
        ),
        ("objective_value", report.objective_value.into()),
        ("cache_hit", report.cache_hit.into()),
        ("wall_ms", (report.wall.as_secs_f64() * 1e3).into()),
        ("gates", report.circuit.len().into()),
        ("qubits", report.circuit.num_qubits().into()),
        ("routed", routed.into()),
        ("error", report.error.as_ref().map(|e| e.to_string()).into()),
        ("audit", report.audit.as_ref().map(|a| a.to_string()).into()),
        (
            "diagnostics",
            Json::Arr(
                report
                    .diagnostics
                    .iter()
                    .map(|d| qca_lint::render_json(None, d))
                    .collect(),
            ),
        ),
    ];
    if include_circuit {
        members.push(("circuit_qasm", qasm::to_qasm(&report.circuit).into()));
    }
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_engine::AuditOutcome;
    use std::time::Duration;

    #[test]
    fn report_json_is_well_formed_and_flags_optimality() {
        let report = AdaptReport {
            job: 0,
            status: AdaptStatus::Feasible,
            circuit: qca_circuit::Circuit::new(2),
            objective_value: Some(42),
            cache_hit: false,
            wall: Duration::from_millis(7),
            solver_stats: None,
            error: None,
            adaptation: None,
            audit: Some(AuditOutcome::Passed),
            diagnostics: Vec::new(),
        };
        let json = report_to_json("req-1", &report, true);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"request_id\":\"req-1\""));
        assert!(json.contains("\"status\":\"feasible\""));
        assert!(json.contains("\"optimal\":false"));
        assert!(json.contains("\"objective_value\":42"));
        assert!(json.contains("\"audit\":\"passed\""));
        assert!(json.contains("\"routed\":null"));
        assert!(json.contains("\"circuit_qasm\":\""));
        let keys: Vec<String> = qca_trace::json::parse(&json)
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            [
                "request_id",
                "status",
                "optimal",
                "objective_value",
                "cache_hit",
                "wall_ms",
                "gates",
                "qubits",
                "routed",
                "error",
                "audit",
                "diagnostics",
                "circuit_qasm"
            ]
        );
    }
}
