//! Output checks and quality metrics, computed outside the timed window
//! from the returned circuits alone.

use crate::corpus::{Item, Plan, Request};
use qca_adapt::Objective;
use qca_baselines::direct_translation;
use qca_circuit::qasm::parse_qasm;
use qca_hw::{spin_qubit_model, CircuitSchedule, CouplingMap, GateTimes, HardwareModel};
use qca_perf::json::{self, Json};
use qca_serve::HttpResponse;
use qca_verify::audit_baseline_with_coupling;
use std::collections::HashMap;

/// What one checked answer established.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `optimal` as answered.
    pub optimal: bool,
    /// % gate-fidelity change against direct translation (Fig. 5).
    pub fidelity_gain_pct: f64,
    /// % idle-time decrease against direct translation (Fig. 6); `None`
    /// when the translation has no idle time.
    pub idle_cut_pct: Option<f64>,
}

/// Checks answers against their sources, remembering each distinct answer
/// so repeats (hot hits, later rounds) cost a lookup.
pub struct Checker {
    hw: HardwareModel,
    seen: HashMap<(usize, String), Result<Answer, String>>,
    /// First valid answer per item, for the corpus-wide quality metrics.
    per_item: HashMap<usize, Answer>,
}

/// One round's check.
#[derive(Debug, Default)]
pub struct RoundCheck {
    /// Circuits sent.
    pub attempted: usize,
    /// Circuits not answered 200 with a checked-valid circuit.
    pub failed: usize,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// FNV-1a over every answer with its timing fields left out: equal
    /// digests mean the round returned the same results.
    pub digest: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            hw: spin_qubit_model(GateTimes::D0),
            seen: HashMap::new(),
            per_item: HashMap::new(),
        }
    }
}

impl Checker {
    /// Checks one round's answers to `requests`.
    pub fn check(
        &mut self,
        plan: &Plan,
        requests: &[Request],
        answers: &[HttpResponse],
    ) -> RoundCheck {
        let mut out = RoundCheck {
            digest: FNV_OFFSET,
            ..RoundCheck::default()
        };
        for (r, answer) in requests.iter().zip(answers) {
            out.attempted += r.items.len();
            let results = match results_of(r, answer) {
                Ok(v) => v,
                Err(e) => {
                    out.fail(r.items.len(), e);
                    continue;
                }
            };
            for (&id, result) in r.items.iter().zip(results) {
                let key = digest_fields(&result);
                out.digest = fnv(out.digest, key.as_bytes());
                let verdict = self
                    .seen
                    .entry((id, key))
                    .or_insert_with(|| check_one(&self.hw, &plan.items[id], &result))
                    .clone();
                match verdict {
                    Ok(a) => {
                        self.per_item.entry(id).or_insert(a);
                    }
                    Err(e) => out.fail(1, format!("item {id} ({}): {e}", plan.items[id].family)),
                }
            }
        }
        out
    }

    /// Corpus-wide quality, one value per item in item order, so it does
    /// not depend on how often or in which order items were asked for:
    /// the mean Fig. 5 gain over the fidelity-objective items; the mean
    /// Fig. 6 cut over the idle-objective items, or over every item on a
    /// workload that sends none; and the share of items answered optimal.
    /// Routed items stay out of both means, since their baseline is
    /// unrouted. `None` when no item of a kind was answered.
    pub fn quality(&self, plan: &Plan) -> (Option<f64>, Option<f64>, Option<f64>) {
        let mut gain = Vec::new();
        let mut idle_cut = Vec::new();
        let mut any_cut = Vec::new();
        let mut proven = 0usize;
        for (id, item) in plan.items.iter().enumerate() {
            let Some(a) = self.per_item.get(&id) else {
                continue;
            };
            proven += a.optimal as usize;
            if item.line {
                continue;
            }
            any_cut.extend(a.idle_cut_pct);
            match item.objective {
                Objective::Fidelity => gain.push(a.fidelity_gain_pct),
                Objective::IdleTime => idle_cut.extend(a.idle_cut_pct),
                Objective::Combined => {}
            }
        }
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        let answered = self.per_item.len();
        let proven_pct = (answered > 0).then(|| 100.0 * proven as f64 / answered as f64);
        let sends_idle = plan
            .items
            .iter()
            .any(|i| i.objective == Objective::IdleTime);
        let cut = if sends_idle {
            mean(&idle_cut)
        } else {
            mean(&any_cut)
        };
        (mean(&gain), cut, proven_pct)
    }
}

impl RoundCheck {
    fn fail(&mut self, n: usize, why: String) {
        self.failed += n;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// The per-circuit result objects of one answer, in body order.
fn results_of(r: &Request, answer: &HttpResponse) -> Result<Vec<Json>, String> {
    if answer.status != 200 {
        return Err(format!("{} answered {}", r.target, answer.status));
    }
    let doc = json::parse(answer.body_text().trim()).map_err(|e| format!("bad json: {e}"))?;
    let results = match doc.get("results") {
        Some(list) => list.as_arr().ok_or("results is not an array")?.to_vec(),
        None => vec![doc],
    };
    if results.len() != r.items.len() {
        return Err(format!(
            "{} results for {} circuits",
            results.len(),
            r.items.len()
        ));
    }
    Ok(results)
}

/// The answer fields that must repeat exactly, as one string.
fn digest_fields(result: &Json) -> String {
    let field = |k: &str| result.get(k).map_or("-".into(), Json::to_string_compact);
    [
        "status",
        "optimal",
        "objective_value",
        "error",
        "audit",
        "circuit_qasm",
    ]
    .iter()
    .map(|k| field(k))
    .collect::<Vec<_>>()
    .join("|")
}

fn check_one(hw: &HardwareModel, item: &Item, result: &Json) -> Result<Answer, String> {
    if let Some(e) = result.get("error").and_then(Json::as_str) {
        return Err(format!("error: {e}"));
    }
    let optimal = result.get("optimal").and_then(Json::as_bool) == Some(true);
    if item.exact && !optimal {
        return Err("exact request not answered optimal".into());
    }
    if item.verify {
        let audit = result.get("audit").and_then(Json::as_str);
        if audit != Some("passed") {
            return Err(format!("server audit {audit:?}"));
        }
    }
    let text = result
        .get("circuit_qasm")
        .and_then(Json::as_str)
        .ok_or("no circuit_qasm")?;
    let adapted = parse_qasm(text).map_err(|e| format!("returned qasm: {e}"))?;
    let coupling = item
        .line
        .then(|| CouplingMap::line(item.circuit.num_qubits()));
    audit_baseline_with_coupling(&item.circuit, &adapted, hw, coupling.as_ref())
        .map_err(|e| format!("audit: {e}"))?;
    let baseline = direct_translation(&item.circuit);
    // The answer passed the audit and the translation is native by
    // construction.
    let fidelity = |c| hw.circuit_fidelity(c).expect("native circuit");
    let idle = |c| {
        CircuitSchedule::asap(c, hw)
            .expect("native circuit")
            .total_idle_time()
    };
    let base_idle = idle(&baseline);
    Ok(Answer {
        optimal,
        fidelity_gain_pct: (fidelity(&adapted) / fidelity(&baseline) - 1.0) * 100.0,
        idle_cut_pct: (base_idle > 0.0).then(|| (1.0 - idle(&adapted) / base_idle) * 100.0),
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
