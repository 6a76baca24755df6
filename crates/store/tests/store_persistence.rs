//! Property and crash-recovery tests for the persistent store.
//!
//! Adaptations are generated structurally (arbitrary circuits, routed
//! substitutions, audit bundles, optimality certificates) rather than by
//! running the solver, so the codec is exercised over a far wider space
//! than real solves produce. "Bit-identical" is checked by re-encoding:
//! `encode(decode(bytes)) == bytes` holds exactly when every field —
//! including IEEE-754 bit patterns — survived the round trip.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use qca_adapt::{
    adapt, AdaptContext, Adaptation, Objective, Route, SmtAdaptation, Substitution,
    SubstitutionKind, VerificationData,
};
use qca_circuit::{Circuit, Gate};
use qca_hw::{spin_qubit_model, GateTimes};
use qca_sat::dimacs::Cnf;
use qca_sat::proof::ProofStep;
use qca_sat::{Lit, SolverStats};
use qca_smt::omt::OptimalityCertificate;
use qca_smt::record::{AuditBundle, RecordedConstraint};
use qca_smt::{IntExpr, SmtModel};
use qca_store::{decode_adaptation, encode_adaptation, Store, StoreOptions, WAL_FILE};
use qca_verify::audit_adaptation;
use qca_workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};

/// Fresh scratch directory per call, cleaned up by the OS tempdir reaper.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qca-store-test-{}-{tag}-{n}", std::process::id()))
}

// ----------------------------------------------------------- strategies

fn arb_gate() -> impl Strategy<Value = Gate> {
    let angle = -7.0..7.0f64;
    prop_oneof![
        Just(Gate::I),
        Just(Gate::X),
        Just(Gate::H),
        Just(Gate::Sdg),
        Just(Gate::Sx),
        angle.clone().prop_map(Gate::Rx),
        angle.clone().prop_map(Gate::Rz),
        angle.clone().prop_map(Gate::Phase),
        (angle.clone(), angle.clone(), angle.clone()).prop_map(|(t, p, l)| Gate::U3(t, p, l)),
        Just(Gate::Cx),
        Just(Gate::Cz),
        Just(Gate::CzDiabatic),
        angle.clone().prop_map(Gate::CPhase),
        angle.prop_map(Gate::CRot),
        Just(Gate::Swap),
        Just(Gate::SwapDiabatic),
        Just(Gate::SwapComposite),
        Just(Gate::ISwapDg),
    ]
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..6).prop_flat_map(|n| {
        collection::vec((arb_gate(), 0usize..n, 1usize..n), 0..12).prop_map(move |instrs| {
            let mut c = Circuit::new(n);
            for (gate, q0, dq) in instrs {
                match gate.num_qubits() {
                    1 => c.push(gate, &[q0]),
                    2 => {
                        let q1 = (q0 + dq) % n;
                        if q1 != q0 {
                            c.push(gate, &[q0, q1]);
                        }
                    }
                    _ => {}
                }
            }
            c
        })
    })
}

fn arb_kind() -> impl Strategy<Value = SubstitutionKind> {
    prop_oneof![
        Just(SubstitutionKind::KakCz),
        Just(SubstitutionKind::KakCzDiabatic),
        Just(SubstitutionKind::ConditionalRotation),
        Just(SubstitutionKind::SwapDiabatic),
        Just(SubstitutionKind::SwapComposite),
        Just(SubstitutionKind::RouteSwapDiabatic),
        Just(SubstitutionKind::RouteSwapComposite),
    ]
}

fn arb_route() -> impl Strategy<Value = Option<Route>> {
    prop_oneof![
        Just(None),
        (collection::vec(0usize..8, 2..5), arb_gate())
            .prop_map(|(path, gate)| Some(Route { path, gate })),
    ]
}

fn arb_substitution() -> impl Strategy<Value = Substitution> {
    (
        (
            0usize..64,
            arb_kind(),
            0usize..8,
            collection::vec(0usize..32, 0..4),
        ),
        arb_circuit(),
        arb_route(),
        (-4.0..4.0f64, -4.0..4.0f64),
    )
        .prop_map(
            |((id, kind, block, ops), replacement, route, (dd, df))| Substitution {
                id,
                kind,
                block,
                ops,
                replacement,
                route,
                delta_duration: dd,
                delta_log_fidelity: df,
            },
        )
}

fn arb_lit(num_vars: usize) -> impl Strategy<Value = Lit> {
    (0usize..2 * num_vars.max(1)).prop_map(Lit::from_code)
}

fn arb_cnf() -> impl Strategy<Value = Cnf> {
    (1usize..12).prop_flat_map(|num_vars| {
        collection::vec(collection::vec(arb_lit(num_vars), 0..5), 0..8)
            .prop_map(move |clauses| Cnf { num_vars, clauses })
    })
}

fn arb_int_expr(num_vars: usize) -> impl Strategy<Value = IntExpr> {
    (
        collection::vec(arb_lit(num_vars), 0..5),
        -100i64..100,
        -100i64..0,
        0i64..100,
    )
        .prop_map(|(bits, offset, lo, hi)| IntExpr::from_parts(bits, offset, lo, hi))
}

fn arb_constraint(num_vars: usize) -> impl Strategy<Value = RecordedConstraint> {
    prop_oneof![
        collection::vec(arb_lit(num_vars), 0..5).prop_map(RecordedConstraint::Clause),
        arb_int_expr(num_vars).prop_map(|out| RecordedConstraint::IntVar { out }),
        (
            arb_int_expr(num_vars),
            arb_int_expr(num_vars),
            arb_int_expr(num_vars)
        )
            .prop_map(|(out, a, b)| RecordedConstraint::Add { out, a, b }),
        (
            arb_int_expr(num_vars),
            -50i64..50,
            collection::vec((-10i64..10, arb_lit(num_vars)), 0..4)
        )
            .prop_map(|(out, base, terms)| RecordedConstraint::PbSum { out, base, terms }),
        (arb_int_expr(num_vars), arb_int_expr(num_vars), -10i64..10)
            .prop_map(|(out, a, k)| RecordedConstraint::MulConst { out, a, k }),
        (arb_int_expr(num_vars), -50i64..50, arb_int_expr(num_vars))
            .prop_map(|(out, c, e)| RecordedConstraint::SubFromConst { out, c, e }),
        (arb_int_expr(num_vars), arb_int_expr(num_vars))
            .prop_map(|(a, b)| RecordedConstraint::Ge { a, b }),
        (
            arb_lit(num_vars),
            arb_int_expr(num_vars),
            arb_int_expr(num_vars)
        )
            .prop_map(|(lit, a, b)| RecordedConstraint::GeReified { lit, a, b }),
        (
            arb_int_expr(num_vars),
            arb_lit(num_vars),
            arb_int_expr(num_vars),
            arb_int_expr(num_vars)
        )
            .prop_map(|(out, cond, a, b)| RecordedConstraint::Ite { out, cond, a, b }),
        (
            arb_int_expr(num_vars),
            collection::vec(arb_int_expr(num_vars), 0..3)
        )
            .prop_map(|(out, exprs)| RecordedConstraint::MaxOf { out, exprs }),
    ]
}

fn arb_model() -> impl Strategy<Value = SmtModel> {
    collection::vec(
        prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
        0..16,
    )
    .prop_map(SmtModel::from_raw_values)
}

fn arb_proof_step(num_vars: usize) -> impl Strategy<Value = ProofStep> {
    prop_oneof![
        collection::vec(arb_lit(num_vars), 0..4).prop_map(ProofStep::Add),
        collection::vec(arb_lit(num_vars), 0..4).prop_map(ProofStep::Delete),
    ]
}

/// A certificate over `cnf`, the formula of the bundle that holds it.
fn arb_certificate(cnf: Arc<Cnf>) -> impl Strategy<Value = OptimalityCertificate> {
    let nv = cnf.num_vars;
    (
        arb_lit(nv),
        collection::vec(arb_proof_step(nv), 0..6),
        -100i64..100,
    )
        .prop_map(
            move |(refuted, steps, refuted_bound)| OptimalityCertificate {
                cnf: Arc::clone(&cnf),
                refuted,
                steps,
                refuted_bound,
            },
        )
}

fn arb_verification() -> impl Strategy<Value = Option<VerificationData>> {
    prop_oneof![
        Just(None),
        (arb_cnf(), arb_model()).prop_flat_map(|(cnf, model)| {
            let cnf = Arc::new(cnf);
            let nv = cnf.num_vars;
            (
                collection::vec(arb_constraint(nv), 0..6),
                prop_oneof![Just(None), arb_certificate(Arc::clone(&cnf)).prop_map(Some)],
            )
                .prop_map(move |(constraints, certificate)| {
                    Some(VerificationData {
                        bundle: AuditBundle {
                            constraints,
                            cnf: Arc::clone(&cnf),
                            model: model.clone(),
                        },
                        certificate,
                    })
                })
        }),
    ]
}

fn arb_solver_stats() -> impl Strategy<Value = SolverStats> {
    (
        (0u64..9999, 0u64..9999, 0u64..9999, 0u64..9999),
        (0u64..999, 0u64..999, 0u64..999),
    )
        .prop_map(|((d, p, c, r), (l, del, min))| SolverStats {
            decisions: d,
            propagations: p,
            conflicts: c,
            restarts: r,
            learnt_clauses: l,
            deleted_clauses: del,
            minimized_literals: min,
        })
}

fn arb_adaptation() -> impl Strategy<Value = Adaptation> {
    (
        (arb_circuit(), arb_circuit()),
        collection::vec(arb_substitution(), 0..4),
        (0usize..256, collection::vec(0usize..64, 0..5)),
        (-1000i64..1000, 0u64..50, 0usize..500, any::<bool>()),
        arb_solver_stats(),
        arb_verification(),
    )
        .prop_map(
            |(
                (circuit, reference),
                chosen,
                (catalog_size, solver_chosen),
                (objective_value, queries, sat_vars, optimal),
                solver_stats,
                verification,
            )| Adaptation {
                circuit,
                reference,
                chosen,
                catalog_size,
                solver: SmtAdaptation {
                    chosen: solver_chosen,
                    objective_value,
                    queries,
                    sat_vars,
                    optimal,
                    solver_stats,
                    verification,
                },
            },
        )
}

// ------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_round_trips_bit_identically(a in arb_adaptation()) {
        let bytes = encode_adaptation(&a);
        let back = decode_adaptation(&bytes).expect("decode");
        prop_assert_eq!(bytes, encode_adaptation(&back));
    }

    #[test]
    fn store_round_trips_through_wal_and_snapshot(batch in collection::vec(arb_adaptation(), 1..5)) {
        let dir = scratch_dir("roundtrip");
        let originals: Vec<Vec<u8>> = batch.iter().map(encode_adaptation).collect();
        {
            let store = Store::open_with(
                &dir,
                StoreOptions { compact_after: 10_000, fsync: false },
            ).unwrap();
            for (i, a) in batch.iter().enumerate() {
                store.append(i as u64, a).unwrap();
            }
            // Read back while records live in the WAL.
            for (i, want) in originals.iter().enumerate() {
                let got = store.get(i as u64).expect("wal get");
                prop_assert_eq!(want, &encode_adaptation(&got));
            }
            store.compact().unwrap();
            // And again once they live in the snapshot.
            for (i, want) in originals.iter().enumerate() {
                let got = store.get(i as u64).expect("snapshot get");
                prop_assert_eq!(want, &encode_adaptation(&got));
            }
        }
        // Cold restart: replay must surface the same bytes.
        let store = Store::open(&dir).unwrap();
        let mut replayed = vec![None; batch.len()];
        store.replay(|k, a| replayed[k as usize] = Some(encode_adaptation(&a)));
        for (want, got) in originals.iter().zip(&replayed) {
            prop_assert_eq!(Some(want), got.as_ref());
        }
        prop_assert_eq!(store.stats().replays as usize, batch.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------------ recovery tests

fn sample_adaptation(seed: u64) -> Adaptation {
    let mut rng = TestRng::from_seed(seed);
    arb_adaptation().new_value(&mut rng)
}

#[test]
fn truncated_tail_drops_only_the_damaged_suffix() {
    let dir = scratch_dir("trunc");
    let a = sample_adaptation(1);
    let b = sample_adaptation(2);
    let c = sample_adaptation(3);
    {
        let store = Store::open(&dir).unwrap();
        store.append(1, &a).unwrap();
        store.append(2, &b).unwrap();
        store.append(3, &c).unwrap();
    }
    // Simulate a torn write: chop bytes off the WAL tail mid-frame.
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);

    let store = Store::open(&dir).unwrap();
    let stats = store.stats();
    assert!(stats.recovered_dropped_bytes > 0, "tail should be dropped");
    assert_eq!(store.len(), 2, "only the torn record is lost");
    assert_eq!(
        encode_adaptation(&store.get(1).expect("key 1 survives")),
        encode_adaptation(&a)
    );
    assert_eq!(
        encode_adaptation(&store.get(2).expect("key 2 survives")),
        encode_adaptation(&b)
    );
    assert!(store.get(3).is_none(), "torn record must not resurrect");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_checksum_drops_the_damaged_record() {
    let dir = scratch_dir("bitflip");
    let a = sample_adaptation(4);
    let b = sample_adaptation(5);
    {
        let store = Store::open(&dir).unwrap();
        store.append(10, &a).unwrap();
        store.append(11, &b).unwrap();
    }
    // Flip one bit inside the *second* frame's payload. Frame 1 starts at
    // the 12-byte header; its length prefix tells us where frame 2 lives.
    let wal = dir.join(WAL_FILE);
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&wal)
        .unwrap();
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).unwrap();
    let frame1_payload = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as u64;
    let frame2_start = 12 + 12 + frame1_payload;
    let target = frame2_start + 12 + 9; // somewhere inside frame 2's payload
    f.seek(SeekFrom::Start(target)).unwrap();
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(target)).unwrap();
    f.write_all(&[byte[0] ^ 0x10]).unwrap();
    drop(f);

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 1, "damaged suffix dropped, prefix kept");
    assert_eq!(
        encode_adaptation(&store.get(10).expect("undamaged record survives")),
        encode_adaptation(&a)
    );
    assert!(store.get(11).is_none());
    assert!(store.stats().recovered_dropped_bytes > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_write_then_restart_serves_fsynced_entries() {
    let dir = scratch_dir("killwrite");
    let a = sample_adaptation(6);
    let b = sample_adaptation(7);
    {
        let store = Store::open(&dir).unwrap();
        store.append(100, &a).unwrap();
        store.append(101, &b).unwrap();
    }
    // A kill -9 mid-append leaves a partial frame: emulate by appending
    // a prefix of a valid frame (length prefix promises more bytes than
    // were ever written).
    let wal = dir.join(WAL_FILE);
    let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
    let garbage_frame = {
        let c = sample_adaptation(8);
        let full = qca_store::encode_adaptation(&c);
        let mut frame = (full.len() as u32 + 8).to_le_bytes().to_vec();
        frame.extend_from_slice(&0xdeadbeefu64.to_le_bytes()); // bogus checksum
        frame.extend_from_slice(&102u64.to_le_bytes());
        frame.extend_from_slice(&full[..full.len() / 2]); // torn payload
        frame
    };
    f.write_all(&garbage_frame).unwrap();
    drop(f);

    // No panic, damaged tail dropped, fsynced entries bit-identical.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(
        encode_adaptation(&store.get(100).unwrap()),
        encode_adaptation(&a)
    );
    assert_eq!(
        encode_adaptation(&store.get(101).unwrap()),
        encode_adaptation(&b)
    );
    assert_eq!(
        store.stats().recovered_dropped_bytes,
        garbage_frame.len() as u64
    );

    // The truncation is persistent: appends after recovery extend a clean
    // file and survive another restart.
    let c = sample_adaptation(9);
    store.append(102, &c).unwrap();
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(store.stats().recovered_dropped_bytes, 0);
    assert_eq!(
        encode_adaptation(&store.get(102).unwrap()),
        encode_adaptation(&c)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_shrinks_the_wal_and_keeps_newest_versions() {
    let dir = scratch_dir("compact");
    let old = sample_adaptation(10);
    let new = sample_adaptation(11);
    let store = Store::open_with(
        &dir,
        StoreOptions {
            compact_after: 4,
            fsync: false,
        },
    )
    .unwrap();
    // Same key three times, then another key: the 4th append triggers
    // compaction (and says so), which must keep only the *latest* version
    // per key.
    assert!(!store.append(7, &old).unwrap());
    assert!(!store.append(7, &old).unwrap());
    assert!(!store.append(7, &new).unwrap());
    assert!(store.append(8, &old).unwrap());
    let stats = store.stats();
    assert_eq!(stats.compactions, 1);
    assert_eq!(stats.wal_records, 0, "WAL reset after compaction");
    assert_eq!(stats.live_records, 2);
    assert_eq!(
        encode_adaptation(&store.get(7).unwrap()),
        encode_adaptation(&new),
        "compaction must keep the newest version"
    );
    drop(store);
    // Restart reads from the snapshot.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(
        encode_adaptation(&store.get(7).unwrap()),
        encode_adaptation(&new)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_snapshot_tmp_is_discarded_on_open() {
    let dir = scratch_dir("tmpfile");
    let a = sample_adaptation(12);
    {
        let store = Store::open(&dir).unwrap();
        store.append(1, &a).unwrap();
    }
    // Crash between writing snapshot.tmp and the rename.
    std::fs::write(dir.join("snapshot.tmp"), b"half-written snapshot").unwrap();
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 1);
    assert!(!dir.join("snapshot.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A real certified answer keeps one formula through the store: its
/// certificate shares the bundle's `Arc` before it is written and after it
/// is replayed on a restart, and the replayed answer passes the audit.
#[test]
fn certified_adaptation_keeps_one_shared_formula_across_a_restart() {
    let circuit = random_template_circuit(3, 6, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
    ctx.options.exact = true;
    ctx.options.certify = true;
    let original = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    let shares_one_formula = |a: &Adaptation| {
        let v = a
            .solver
            .verification
            .as_ref()
            .expect("certify attaches data");
        let cert = v.certificate.as_ref().expect("an exact solve is certified");
        Arc::ptr_eq(&v.bundle.cnf, &cert.cnf)
    };
    assert!(shares_one_formula(&original));

    let dir = scratch_dir("certified");
    Store::open(&dir).unwrap().append(7, &original).unwrap();
    let store = Store::open(&dir).unwrap();
    let mut replayed = None;
    store.replay(|_, a| replayed = Some(a));
    let replayed = replayed.expect("the record replays");
    assert!(shares_one_formula(&replayed));
    assert_eq!(encode_adaptation(&replayed), encode_adaptation(&original));
    audit_adaptation(&circuit, &replayed, &hw, Objective::Fidelity)
        .expect("the replayed answer audits");
    std::fs::remove_dir_all(&dir).ok();
}
