//! # qca — SAT-Based Quantum Circuit Adaptation
//!
//! A from-scratch Rust reproduction of *"SAT-Based Quantum Circuit
//! Adaptation"* (Brandhofer, Kim, Niu, Bronn — DATE 2023): adapting quantum
//! circuits from a source gate set (e.g. IBM's CX basis) to the
//! semiconducting spin-qubit gate set (CZ, diabatic CZ, CROT, two swap
//! realizations) by selecting a globally optimal combination of substitution
//! rules with an SMT model.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`num`] | `qca-num` | complex matrices, eigensolvers, Haar sampling |
//! | [`sat`] | `qca-sat` | CDCL SAT solver |
//! | [`portfolio`] | `qca-portfolio` | racing solver portfolios with clause sharing |
//! | [`smt`] | `qca-smt` | SMT/OMT engine (bit-blasting, difference logic) |
//! | [`circuit`] | `qca-circuit` | circuit IR, QASM, block partitioning |
//! | [`synth`] | `qca-synth` | KAK/ZYZ synthesis, equivalence library |
//! | [`hw`] | `qca-hw` | hardware models (Table I), ASAP scheduling |
//! | [`adapt`] | `qca-adapt` | **the paper's SMT adaptation** |
//! | [`baselines`] | `qca-baselines` | direct translation, KAK-only, template opt |
//! | [`sim`] | `qca-sim` | noisy density-matrix simulator, Hellinger fidelity |
//! | [`workloads`] | `qca-workloads` | quantum-volume and random circuits |
//! | [`engine`] | `qca-engine` | parallel batch adaptation, result cache, metrics |
//! | [`trace`] | `qca-trace` | hierarchical span tracing, JSONL sink, reports, the one JSON reader/writer |
//! | [`lint`] | `qca-lint` | static diagnostics: circuit, hardware, rule-coverage, encoding lints |
//! | [`serve`] | `qca-serve` | HTTP adaptation service: event loop, admission control, deadlines, sharding, live drain |
//! | [`store`] | `qca-store` | persistent cache tier: WAL + snapshots, warm restart, single-flight, shard ring |
//! | [`perf`] | `qca-perf` | benchmark telemetry: measurement harness, `BENCH_<pr>.json`, regression gating |
//!
//! # Examples
//!
//! ```
//! use qca::circuit::{Circuit, Gate};
//! use qca::hw::{spin_qubit_model, GateTimes};
//! use qca::adapt::{adapt, AdaptContext, Objective};
//!
//! // Three alternating CNOTs = a SWAP; the SMT adaptation replaces them
//! // with a native swap realization.
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[1, 0]);
//! c.push(Gate::Cx, &[0, 1]);
//! let hw = spin_qubit_model(GateTimes::D0);
//! let result = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity))?;
//! assert!(hw.circuit_fidelity(&result.circuit).unwrap()
//!     >= hw.circuit_fidelity(&result.reference).unwrap());
//! # Ok::<(), qca::adapt::AdaptError>(())
//! ```

#![warn(missing_docs)]

pub use qca_adapt as adapt;
pub use qca_baselines as baselines;
pub use qca_circuit as circuit;
pub use qca_engine as engine;
pub use qca_hw as hw;
pub use qca_lint as lint;
pub use qca_num as num;
pub use qca_perf as perf;
pub use qca_portfolio as portfolio;
pub use qca_sat as sat;
pub use qca_serve as serve;
pub use qca_sim as sim;
pub use qca_smt as smt;
pub use qca_store as store;
pub use qca_synth as synth;
pub use qca_trace as trace;
pub use qca_workloads as workloads;
