//! Fault-injection harness: arms every `fail-points` hook in the
//! workspace and checks the fault-tolerance contract end to end.
//!
//! For each fail point the harness asserts three things:
//!
//! 1. the fault surfaces as a **typed error** (`AnalysisError`,
//!    `TransientError`, `EvalError` or `SweepError`) — never a panic
//!    escaping a thread scope;
//! 2. the touched session is either **bitwise intact** (rejections) or
//!    **explicitly poisoned** (mid-recompute faults), verified against a
//!    fault-free twin session driven through the same calls;
//! 3. recovery works: `recover`/`recover_with` restores a clean state
//!    whose subsequent results are bitwise identical to the twin's.
//!
//! The persistence and budget hooks extend the same contract to I/O and
//! time: a torn snapshot write never replaces the target file, corrupted
//! reads are typed decode rejections, and an injected deadline at any
//! budget checkpoint is either a clean entry rejection or an explicit
//! poisoning — never a torn in-between.
//!
//! Build with `cargo test --features fail-points`; without the feature
//! this file compiles to nothing and the hooks cost zero in production.

#![cfg(feature = "fail-points")]

use ser_bench::corners::{try_sweep_session, CornerGrid, SweepError};
use soft_error::aserta::{
    AnalysisError, AnalysisSession, AsertaConfig, CircuitCells, Deadline, DegradationEvent,
    PoisonReason, SessionSnapshot, SessionSnapshotError,
};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::failpoint::{self, FailAction};
use soft_error::netlist::generate::TiledSpec;
use soft_error::netlist::govern::InterruptReason;
use soft_error::netlist::snapshot::SnapshotError;
use soft_error::netlist::{generate, Circuit, NodeId};
use soft_error::sertopt::matching::MatchingConfig;
use soft_error::sertopt::{AllowedParams, CostWeights, DelayProblem, EnergyModel, EvalError};
use soft_error::spice::transient::{try_simulate_gate, TransientConfig};
use soft_error::spice::waveform::ramp;
use soft_error::spice::{GateElectrical, GateParams, Technology, TransientError};

// ---------------------------------------------------------------- fixtures

fn fast_cfg() -> AsertaConfig {
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = 512;
    cfg
}

fn session_pair(circuit: &Circuit) -> (AnalysisSession<'_>, AnalysisSession<'_>) {
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let session =
        AnalysisSession::builder(circuit, CircuitCells::nominal(circuit), lib, fast_cfg())
            .build()
            .unwrap();
    let twin = session.clone();
    (session, twin)
}

/// The observable analysis state, bit-for-bit.
fn snapshot(s: &AnalysisSession<'_>) -> (u64, u64, CircuitCells) {
    (
        s.unreliability().to_bits(),
        s.critical_delay().to_bits(),
        s.cells().clone(),
    )
}

fn first_gate(circuit: &Circuit) -> NodeId {
    circuit.gates().next().expect("circuit has gates")
}

/// An upsize delta for `id` that genuinely changes the assignment.
fn upsize(circuit: &Circuit, id: NodeId) -> GateParams {
    let node = circuit.node(id);
    GateParams::new(node.kind, node.fanin.len()).with_size(2.0)
}

fn c17_problem<'a>(circuit: &'a Circuit, lib: &mut Library) -> DelayProblem<'a> {
    DelayProblem::new(
        circuit,
        lib,
        CircuitCells::nominal(circuit),
        CostWeights::default(),
        MatchingConfig::new(AllowedParams::tiny()),
        fast_cfg(),
        EnergyModel::default(),
    )
}

// ------------------------------------------------- aserta: clean rejections

/// `aserta::set_charge` — the fault is a typed rejection and the session
/// is bitwise intact: the retried call lands bitwise on the twin.
#[test]
fn set_charge_fault_rejects_and_leaves_session_intact() {
    let circuit = generate::c17();
    let (mut session, mut twin) = session_pair(&circuit);
    let before = snapshot(&session);

    let _guard = failpoint::scenario();
    failpoint::set_times("aserta::set_charge", FailAction::Error, 1);
    let err = session.try_set_charge(32.0e-15).unwrap_err();
    assert_eq!(err, AnalysisError::FaultInjected("aserta::set_charge"));
    assert_eq!(failpoint::hits("aserta::set_charge"), 1);
    assert!(!session.is_poisoned());
    assert_eq!(
        snapshot(&session),
        before,
        "rejected call must leave no trace"
    );

    // The fail point is exhausted: the same call now succeeds and the
    // session tracks a fault-free twin bitwise.
    session.try_set_charge(32.0e-15).expect("disarmed point");
    twin.try_set_charge(32.0e-15).expect("twin is clean");
    assert_eq!(snapshot(&session), snapshot(&twin));
}

/// `aserta::resample_rows` — same contract for the Monte-Carlo
/// refinement entry point.
#[test]
fn resample_rows_fault_rejects_and_leaves_session_intact() {
    let circuit = generate::c17();
    let (mut session, mut twin) = session_pair(&circuit);
    let g = first_gate(&circuit);
    let before = snapshot(&session);

    let _guard = failpoint::scenario();
    failpoint::set_times("aserta::resample_rows", FailAction::Error, 1);
    let err = session.try_resample_pij_rows(&[g], 256, 7).unwrap_err();
    assert_eq!(err, AnalysisError::FaultInjected("aserta::resample_rows"));
    assert_eq!(failpoint::hits("aserta::resample_rows"), 1);
    assert!(!session.is_poisoned());
    assert_eq!(snapshot(&session), before);

    session
        .try_resample_pij_rows(&[g], 256, 7)
        .expect("disarmed");
    twin.try_resample_pij_rows(&[g], 256, 7).expect("twin");
    assert_eq!(snapshot(&session), snapshot(&twin));
}

// -------------------------------------------- aserta: poisoning + recovery

/// `aserta::session_recompute` — a mid-recompute fault poisons the
/// session: mutations are refused with a typed error, reads keep
/// working, and `recover()` restores a state bitwise identical to a
/// twin that took the incremental path.
#[test]
fn recompute_fault_poisons_then_recover_restores_bitwise() {
    let circuit = generate::c17();
    let (mut session, mut twin) = session_pair(&circuit);
    let g = first_gate(&circuit);
    let delta = upsize(&circuit, g);

    let _guard = failpoint::scenario();
    failpoint::set_times("aserta::session_recompute", FailAction::Error, 1);
    let err = session.try_apply(&[(g, delta)]).unwrap_err();
    assert_eq!(
        err,
        AnalysisError::Poisoned(PoisonReason::Injected("aserta::session_recompute"))
    );
    assert!(session.is_poisoned());

    // Poisoned: further mutations are refused without touching the
    // (already exhausted) fail point...
    let refused = session.try_set_charge(32.0e-15).unwrap_err();
    assert!(matches!(refused, AnalysisError::Poisoned(_)));
    assert_eq!(failpoint::hits("aserta::session_recompute"), 1);
    // ...but reads still answer from the last consistent results.
    assert!(session.unreliability().is_finite());
    assert!(session.critical_delay().is_finite());

    // Recovery rebuilds at the current cells (the delta was staged
    // before the recompute fault) — bitwise equal to the twin applying
    // the same delta incrementally, by the session fidelity contract.
    session.recover().expect("full rebuild succeeds");
    assert!(!session.is_poisoned());
    twin.try_apply(&[(g, delta)]).expect("twin is clean");
    assert_eq!(snapshot(&session), snapshot(&twin));
}

/// `aserta::full_rebuild` — a fault during recovery itself keeps the
/// session explicitly poisoned; the next recovery attempt succeeds.
#[test]
fn failed_recovery_keeps_session_poisoned() {
    let circuit = generate::c17();
    let (mut session, mut twin) = session_pair(&circuit);
    let g = first_gate(&circuit);
    let delta = upsize(&circuit, g);

    let _guard = failpoint::scenario();
    failpoint::set_times("aserta::session_recompute", FailAction::Error, 1);
    session.try_apply(&[(g, delta)]).unwrap_err();
    assert!(session.is_poisoned());

    failpoint::set_times("aserta::full_rebuild", FailAction::Error, 1);
    let err = session.recover().unwrap_err();
    assert_eq!(err, AnalysisError::FaultInjected("aserta::full_rebuild"));
    assert!(
        session.is_poisoned(),
        "failed recovery must not clear poison"
    );
    assert!(matches!(
        session.try_set_charge(32.0e-15).unwrap_err(),
        AnalysisError::Poisoned(_)
    ));

    session.recover().expect("second recovery, point disarmed");
    assert!(!session.is_poisoned());
    twin.try_apply(&[(g, delta)]).expect("twin");
    assert_eq!(snapshot(&session), snapshot(&twin));
}

// ------------------------------------------------------- spice: transient

/// `spice::transient_step` — one bad RK4 step is healed by the bounded
/// step-halving retry; a persistent fault surfaces as the typed
/// `TransientError::NonConvergence` instead of an assert.
#[test]
fn transient_fault_heals_once_then_surfaces_nonconvergence() {
    let tech = Technology::ptm70();
    let gate = GateElectrical::from_params(
        &tech,
        &GateParams::new(soft_error::netlist::GateKind::Not, 1),
    );
    let vin = ramp(0.0, 1.0, 20.0e-12, 10.0e-12);
    let cfg = TransientConfig::default();

    let _guard = failpoint::scenario();
    failpoint::set_times("spice::transient_step", FailAction::Error, 1);
    let out = try_simulate_gate(&tech, &gate, &vin, false, 2.0e-15, &cfg)
        .expect("one bad step is recovered by refinement");
    // The refined step lands on the real waveform: a rising input
    // drives the inverter's output low.
    let settled = out.value_at(out.t_end());
    assert!(settled.is_finite() && settled < 0.1, "settled at {settled}");
    assert_eq!(failpoint::hits("spice::transient_step"), 1);

    failpoint::set("spice::transient_step", FailAction::Error);
    let err = try_simulate_gate(&tech, &gate, &vin, false, 2.0e-15, &cfg).unwrap_err();
    assert!(matches!(err, TransientError::NonConvergence { .. }));
}

// ----------------------------------------------------- sertopt: evaluation

/// `sertopt::match_realize` and `sertopt::match_refine` — matcher
/// faults surface as typed `EvalError`s from `try_evaluate_phi`, and a
/// later fault-free evaluation is bitwise unaffected.
#[test]
fn matching_faults_are_typed_and_transient() {
    let circuit = generate::c17();
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut problem = c17_problem(&circuit, &mut lib);
    let phi = vec![0.0; problem.dim()];

    let _guard = failpoint::scenario();
    let clean = problem
        .try_evaluate_phi(&phi)
        .expect("no faults armed")
        .cost;

    failpoint::set_times("sertopt::match_realize", FailAction::Error, 1);
    let err = problem.try_evaluate_phi(&phi).unwrap_err();
    assert_eq!(err, EvalError::FaultInjected("sertopt::match_realize"));
    assert_eq!(failpoint::hits("sertopt::match_realize"), 1);

    failpoint::set_times("sertopt::match_refine", FailAction::Error, 1);
    let err = problem.try_evaluate_phi(&phi).unwrap_err();
    assert_eq!(err, EvalError::FaultInjected("sertopt::match_refine"));
    assert_eq!(failpoint::hits("sertopt::match_refine"), 1);

    let after = problem
        .try_evaluate_phi(&phi)
        .expect("points disarmed")
        .cost;
    assert_eq!(clean.to_bits(), after.to_bits());
}

/// `sertopt::replica_evaluate` (Error) — an injected evaluation fault
/// fails exactly one candidate of a batch; the rest are bitwise equal
/// to a fault-free run.
#[test]
fn replica_fault_is_contained_to_one_candidate() {
    let circuit = generate::c17();
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut problem = c17_problem(&circuit, &mut lib);
    problem.threads = 1; // deterministic: candidate 0 takes the hit
    let dim = problem.dim();
    let phis: Vec<Vec<f64>> = (0..4)
        .map(|s| (0..dim).map(|i| 1e-13 * ((s + i) % 3) as f64).collect())
        .collect();

    let _guard = failpoint::scenario();
    let clean: Vec<f64> = problem
        .evaluate_batch(&phis)
        .into_iter()
        .map(|c| c.expect("no faults armed").cost)
        .collect();

    failpoint::set_times("sertopt::replica_evaluate", FailAction::Error, 1);
    let faulted = problem.evaluate_batch(&phis);
    assert_eq!(failpoint::hits("sertopt::replica_evaluate"), 1);
    assert!(matches!(
        faulted[0],
        Err(EvalError::FaultInjected("sertopt::replica_evaluate"))
    ));
    for (i, r) in faulted.iter().enumerate().skip(1) {
        let c = r.as_ref().expect("only candidate 0 was faulted");
        assert_eq!(c.cost.to_bits(), clean[i].to_bits(), "candidate {i}");
    }
}

/// `sertopt::replica_evaluate` (Panic) — a panic storm inside the
/// scoped evaluation threads is caught per candidate; nothing escapes
/// the thread scope, and once the storm clears the wrecked replicas
/// heal themselves back to bitwise-identical results.
#[test]
fn replica_panics_are_caught_and_replicas_self_heal() {
    let circuit = generate::c17();
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut problem = c17_problem(&circuit, &mut lib);
    problem.threads = 2;
    let dim = problem.dim();
    let phis: Vec<Vec<f64>> = (0..4)
        .map(|s| (0..dim).map(|i| 1e-13 * ((s + i) % 3) as f64).collect())
        .collect();

    let _guard = failpoint::scenario();
    let clean: Vec<f64> = problem
        .evaluate_batch(&phis)
        .into_iter()
        .map(|c| c.expect("no faults armed").cost)
        .collect();

    // Persistent panic: every candidate fails, but each panic is caught
    // at the thread-scope boundary — this test completing at all proves
    // no panic escaped.
    failpoint::set("sertopt::replica_evaluate", FailAction::Panic);
    let stormed = problem.evaluate_batch(&phis);
    assert_eq!(stormed.len(), phis.len());
    for r in &stormed {
        assert!(
            matches!(r, Err(EvalError::Panicked { .. })),
            "caught panic must surface as a typed error, got {r:?}"
        );
    }

    // Disarm: the wrecked replicas rebuild themselves at the incoming
    // candidate and the batch is bitwise identical to the clean run.
    failpoint::clear("sertopt::replica_evaluate");
    let healed: Vec<f64> = problem
        .evaluate_batch(&phis)
        .into_iter()
        .map(|c| c.expect("storm is over").cost)
        .collect();
    for (i, (h, c)) in healed.iter().zip(&clean).enumerate() {
        assert_eq!(h.to_bits(), c.to_bits(), "candidate {i}");
    }
}

// --------------------------------------------------- ser-bench: corner sweep

/// `ser_bench::corner_eval` — a corner fault surfaces as a typed
/// `SweepError` for that corner only; the replica heals and the rest of
/// the grid is bitwise equal to a clean sweep. A persistent panic storm
/// is caught per corner at the thread-scope boundary.
#[test]
fn corner_faults_and_panics_are_contained_per_corner() {
    let circuit = generate::c17();
    let base = CircuitCells::nominal(&circuit);
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let cfg = fast_cfg();
    let corners = CornerGrid::smoke().corners();

    let _guard = failpoint::scenario();
    let clean: Vec<_> = try_sweep_session(&circuit, &base, lib.clone(), &cfg, &corners, 1)
        .into_iter()
        .map(|p| p.expect("no faults armed"))
        .collect();

    failpoint::set_times("ser_bench::corner_eval", FailAction::Error, 1);
    let faulted = try_sweep_session(&circuit, &base, lib.clone(), &cfg, &corners, 1);
    assert_eq!(failpoint::hits("ser_bench::corner_eval"), 1);
    assert_eq!(
        faulted[0],
        Err(SweepError::FaultInjected("ser_bench::corner_eval"))
    );
    for (i, p) in faulted.iter().enumerate().skip(1) {
        assert_eq!(
            p.as_ref().expect("only corner 0 was faulted"),
            &clean[i],
            "corner {i}"
        );
    }

    // Panic storm across two workers: every corner fails typed, nothing
    // escapes the scope.
    failpoint::set("ser_bench::corner_eval", FailAction::Panic);
    let stormed = try_sweep_session(&circuit, &base, lib, &cfg, &corners, 2);
    assert_eq!(stormed.len(), corners.len());
    for p in &stormed {
        assert_eq!(p, &Err(SweepError::Panicked));
    }
}

// ------------------------------------------------- snapshot: persistence I/O

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sersnap-fi-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `snapshot::torn_write` — a crash mid-write leaves only a torn
/// temporary file: the target keeps its previous good image, the torn
/// bytes never decode, and a retry after the fault lands a snapshot that
/// restores bitwise.
#[test]
fn torn_snapshot_write_never_replaces_the_target() {
    let circuit = generate::c17();
    let (session, _twin) = session_pair(&circuit);
    let dir = temp_dir("torn");
    let path = dir.join("c17.sersnap");

    session.snapshot_to(&path).expect("clean write");
    let good = std::fs::read(&path).expect("target exists");

    let _guard = failpoint::scenario();
    failpoint::set_times("snapshot::torn_write", FailAction::Error, 1);
    let err = session.snapshot_to(&path).unwrap_err();
    assert!(
        matches!(
            err,
            SessionSnapshotError::Codec(SnapshotError::FaultInjected("snapshot::torn_write"))
        ),
        "{err}"
    );
    assert_eq!(failpoint::hits("snapshot::torn_write"), 1);
    assert_eq!(
        std::fs::read(&path).expect("target still exists"),
        good,
        "a torn write must never replace the target"
    );
    // The half-written temporary is not a decodable snapshot.
    if let Ok(torn) = std::fs::read(dir.join("c17.sersnap.tmp")) {
        assert!(SessionSnapshot::from_bytes(&torn).is_err());
    }

    // Disarmed: the retry succeeds and the image restores bitwise.
    session.snapshot_to(&path).expect("disarmed");
    let snap = SessionSnapshot::read_file(&path).expect("read back");
    let restored = AnalysisSession::restore_from(&snap).expect("restore");
    assert_eq!(snapshot(&session), snapshot(&restored));
    std::fs::remove_dir_all(&dir).ok();
}

/// `snapshot::short_read` and `snapshot::crc_flip` — I/O corruption on
/// the read path surfaces as typed decode rejections; once the fault
/// clears, the same file restores bitwise.
#[test]
fn short_reads_and_bit_rot_are_typed_decode_rejections() {
    let circuit = generate::c17();
    let (session, _twin) = session_pair(&circuit);
    let dir = temp_dir("rot");
    let path = dir.join("c17.sersnap");
    session.snapshot_to(&path).expect("clean write");

    let _guard = failpoint::scenario();
    failpoint::set_times("snapshot::short_read", FailAction::Error, 1);
    let err = SessionSnapshot::read_file(&path).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::Truncated { .. } | SnapshotError::CrcMismatch { .. }
        ),
        "a short read must be a typed rejection, got {err}"
    );
    assert_eq!(failpoint::hits("snapshot::short_read"), 1);

    failpoint::set_times("snapshot::crc_flip", FailAction::Error, 1);
    let err = SessionSnapshot::read_file(&path).unwrap_err();
    assert!(
        matches!(err, SnapshotError::CrcMismatch { .. }),
        "bit rot must trip a section CRC, got {err}"
    );
    assert_eq!(failpoint::hits("snapshot::crc_flip"), 1);

    // Disarmed: the untouched file on disk is still perfectly good.
    let snap = SessionSnapshot::read_file(&path).expect("disarmed");
    let restored = AnalysisSession::restore_from(&snap).expect("restore");
    assert_eq!(snapshot(&session), snapshot(&restored));
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------ govern: deadline injection

/// `govern::deadline` — walks the injected interruption through *every*
/// budget checkpoint a mutation crosses, in order: checkpoint 0 is the
/// clean entry rejection (session bitwise intact), every later one is a
/// mid-recompute poisoning, and in both cases the session lands bitwise
/// on a fault-free twin after retry/recovery.
#[test]
fn deadline_at_every_checkpoint_is_typed_and_recoverable() {
    let circuit = generate::c17();
    let g = first_gate(&circuit);
    let delta = upsize(&circuit, g);
    let mut k = 0usize;
    loop {
        let (mut session, mut twin) = session_pair(&circuit);

        let _guard = failpoint::scenario();
        failpoint::set_after("govern::deadline", FailAction::Error, k, 1);
        let result = session.try_apply(&[(g, delta)]);
        if failpoint::hits("govern::deadline") == 0 {
            // The call crossed fewer than k+1 checkpoints and ran clean.
            result.expect("unarmed run succeeds");
            assert!(
                k >= 3,
                "expected an entry checkpoint plus several stage checkpoints, found only {k}"
            );
            break;
        }

        match result.unwrap_err() {
            // Checkpoint 0: the entry check refuses before any mutation.
            AnalysisError::Interrupted(i) => {
                assert_eq!(i.stage, "session::entry", "checkpoint {k}");
                assert_eq!(i.reason, InterruptReason::Injected);
                assert!(!session.is_poisoned(), "entry rejection must not poison");
                // The exhausted fail point lets the retry through.
                session.try_apply(&[(g, delta)]).expect("retry");
            }
            // Later checkpoints: stage boundaries inside the recompute
            // poison (caches are partially updated there).
            AnalysisError::Poisoned(PoisonReason::Interrupted(i)) => {
                assert!(
                    i.stage.starts_with("session::"),
                    "checkpoint {k}: unexpected stage {}",
                    i.stage
                );
                assert!(session.is_poisoned());
                session.recover().expect("recovery after interruption");
            }
            other => panic!("checkpoint {k}: unexpected error {other:?}"),
        }

        twin.try_apply(&[(g, delta)]).expect("twin is clean");
        assert_eq!(
            snapshot(&session),
            snapshot(&twin),
            "checkpoint {k}: session must land bitwise on the twin"
        );
        k += 1;
    }
}

/// `govern::deadline` during governed construction — interrupting before
/// any Monte-Carlo block is a typed construction failure; interrupting
/// after the first block yields a *usable* session whose truncated
/// estimate is surfaced as a degradation event.
#[test]
fn deadline_mid_estimate_truncates_or_rejects_construction() {
    let circuit = generate::sec32("c499");
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut cfg = fast_cfg();
    // Two 4096-vector estimation blocks, so there is a consistent
    // boundary to interrupt at.
    cfg.sensitization_vectors = 8192;
    let cells = CircuitCells::nominal(&circuit);

    {
        let _guard = failpoint::scenario();
        failpoint::set_times("govern::deadline", FailAction::Error, 1);
        let err = AnalysisSession::builder(&circuit, cells.clone(), lib.clone(), cfg.clone())
            .deadline(Deadline::none())
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, AnalysisError::Interrupted(_)),
            "zero completed blocks must reject construction, got {err}"
        );
    }

    {
        let _guard = failpoint::scenario();
        failpoint::set_after("govern::deadline", FailAction::Error, 1, 1);
        let session = AnalysisSession::builder(&circuit, cells, lib, cfg.clone())
            .deadline(Deadline::none())
            .build()
            .expect("a partial estimate is still usable");
        assert_eq!(failpoint::hits("govern::deadline"), 1);
        let truncated = session.degradations().iter().find_map(|e| match e {
            DegradationEvent::EstimateTruncated {
                completed,
                requested,
            } => Some((*completed, *requested)),
            _ => None,
        });
        let (completed, requested) =
            truncated.expect("truncation must surface as a degradation event");
        assert_eq!(requested, cfg.sensitization_vectors);
        assert!(
            completed > 0 && completed < requested,
            "a consistent partial estimate: {completed}/{requested}"
        );
        assert!(session.unreliability().is_finite());
        assert!(
            !session.report().degradations.is_empty(),
            "the report must carry the degradation"
        );
    }
}

// --------------------------------------------------- recovery at 10k scale

/// `aserta::session_recompute` at tiled-10k scale — a poisoning
/// mid-recompute on a 10 000-gate session recovers via `recover_with`
/// back to a state bitwise identical to the fresh build (this test also
/// runs under the CI scaling job's 64 MiB address-space ulimit).
#[test]
fn tiled10k_poisoned_session_recovers_bitwise_fresh() {
    let circuit = generate::tiled(&TiledSpec::scaled("tiled10k", 10_000));
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = 128;
    let nominal = CircuitCells::nominal(&circuit);
    let mut session = AnalysisSession::builder(&circuit, nominal.clone(), lib, cfg)
        .build()
        .unwrap();
    let fresh = snapshot(&session);

    let g = first_gate(&circuit);
    let delta = upsize(&circuit, g);
    let _guard = failpoint::scenario();
    failpoint::set_times("aserta::session_recompute", FailAction::Error, 1);
    let err = session.try_apply(&[(g, delta)]).unwrap_err();
    assert!(matches!(err, AnalysisError::Poisoned(_)));
    assert!(session.is_poisoned());

    // Recover *with* the original nominal assignment: the rebuild must
    // land bitwise on the fresh-construction state.
    session
        .recover_with(nominal)
        .expect("recovery at 10k gates");
    assert!(!session.is_poisoned());
    assert_eq!(
        snapshot(&session),
        fresh,
        "recover_with must be bitwise-fresh at scale"
    );
}

// ------------------------------------------------------------ meta coverage

/// The harness above must exercise every fail point the workspace
/// declares — grep-level insurance that a new hook gets a test.
#[test]
fn harness_covers_all_declared_fail_points() {
    const COVERED: [&str; 13] = [
        "aserta::set_charge",
        "aserta::resample_rows",
        "aserta::session_recompute",
        "aserta::full_rebuild",
        "spice::transient_step",
        "sertopt::match_realize",
        "sertopt::match_refine",
        "sertopt::replica_evaluate",
        "ser_bench::corner_eval",
        "snapshot::torn_write",
        "snapshot::short_read",
        "snapshot::crc_flip",
        "govern::deadline",
    ];
    assert!(COVERED.len() >= 8, "ISSUE floor: at least 8 fail points");
    // Each name must actually be armable and consumable.
    let _guard = failpoint::scenario();
    for name in COVERED {
        failpoint::set_times(name, FailAction::Error, 1);
        assert_eq!(failpoint::check(name), Some(FailAction::Error), "{name}");
        assert_eq!(failpoint::hits(name), 1, "{name}");
    }
}
