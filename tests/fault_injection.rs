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

use soft_error::aserta::corners::{sweep, CornerGrid, SweepError};
use soft_error::aserta::{
    AnalysisError, AnalysisSession, AsertaConfig, CircuitCells, PoisonReason, SessionSnapshot,
    SessionSnapshotError,
};
use soft_error::cells::{CharGrids, Library};
use soft_error::netlist::failpoint::{self, FailAction};
use soft_error::netlist::generate::TiledSpec;
use soft_error::netlist::govern::InterruptReason;
use soft_error::netlist::snapshot::SnapshotError;
use soft_error::netlist::{generate, Circuit, NodeId};
use soft_error::sertopt::matching::MatchingConfig;
use soft_error::sertopt::{
    AllowedParams, CostWeights, DelayProblem, EnergyModel, EvalError, MatchPlan,
};
use soft_error::serve::{
    serve, ApiError, CircuitSource, Client, GridKind, Listen, PoolConfig, Request, Response,
    ServerConfig, DEFAULT_MAX_FRAME,
};
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
    .expect("c17 problem builds")
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

/// `sertopt::match_refine` between two refinement passes — the failed
/// realization has already recorded its pass-1 and first refinement
/// scans in the plan's memo, and every later realization must still be
/// bitwise that of a freshly built plan.
#[test]
fn refine_fault_leaves_later_realizations_fresh() {
    let circuit = generate::c17();
    let mut lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut allowed = AllowedParams::tiny();
    allowed.vdds = vec![0.8, 1.0];
    let mut cfg = MatchingConfig::new(allowed);
    cfg.refine_passes = 2;
    let nominal = CircuitCells::nominal(&circuit);
    let targets = |round: usize| -> Vec<f64> {
        (0..circuit.node_count())
            .map(|i| 8.0e-12 + ((i * 7 + round * 13) % 11) as f64 * 9.0e-12)
            .collect()
    };
    let mut plan = MatchPlan::build(&circuit, &mut lib, &cfg, Some(&nominal));

    let _guard = failpoint::scenario();
    plan.try_realize(&circuit, &targets(0))
        .expect("no faults armed");
    failpoint::set_after("sertopt::match_refine", FailAction::Error, 1, 1);
    let err = plan.try_realize(&circuit, &targets(1)).unwrap_err();
    assert_eq!(err, EvalError::FaultInjected("sertopt::match_refine"));
    assert_eq!(failpoint::hits("sertopt::match_refine"), 1);

    for round in [1, 0, 2, 1] {
        let got = plan
            .try_realize(&circuit, &targets(round))
            .expect("point disarmed");
        let want = MatchPlan::build(&circuit, &mut lib, &cfg, Some(&nominal))
            .try_realize(&circuit, &targets(round))
            .expect("point disarmed");
        assert_eq!(got, want, "round {round}");
    }
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

// ------------------------------------------------------ aserta: corner sweep

/// `aserta::corner_eval` — a corner fault surfaces as a typed
/// `SweepError` for that corner only; the replica heals and the rest of
/// the grid is bitwise equal to a clean sweep. A persistent panic storm
/// is caught per corner, on every replica.
#[test]
fn corner_faults_and_panics_are_contained_per_corner() {
    let circuit = generate::c17();
    let base = CircuitCells::nominal(&circuit);
    let lib = Library::new(Technology::ptm70(), CharGrids::coarse());
    let cfg = fast_cfg();
    let corners = CornerGrid::smoke().corners();

    let session = |lib: Library| {
        AnalysisSession::builder(&circuit, base.clone(), lib, cfg.clone())
            .build()
            .expect("session builds")
    };

    let _guard = failpoint::scenario();
    let clean: Vec<_> = sweep(&mut session(lib.clone()), &base, &corners, 1)
        .into_iter()
        .map(|p| p.expect("no faults armed"))
        .collect();

    failpoint::set_times("aserta::corner_eval", FailAction::Error, 1);
    let faulted = sweep(&mut session(lib.clone()), &base, &corners, 1);
    assert_eq!(failpoint::hits("aserta::corner_eval"), 1);
    assert_eq!(
        faulted[0],
        Err(SweepError::FaultInjected("aserta::corner_eval"))
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
    failpoint::set("aserta::corner_eval", FailAction::Panic);
    let stormed = sweep(&mut session(lib), &base, &corners, 2);
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

// ------------------------------------------------ daemon: panic containment

/// A panic inside one daemon request is answered as a typed
/// `ApiError::Internal` and the only worker keeps serving. The panicking
/// request's checked-out session unwinds with it instead of being
/// returned to the pool, so the next analysis of the same circuit is a
/// pool miss that builds afresh.
///
/// A charge delta on a warm session reaches `aserta::set_charge` (it
/// refreshes the generated widths directly, without the cell-delta
/// recompute), so that is the point armed to panic.
#[test]
fn daemon_request_panic_is_an_internal_error_not_a_dead_worker() {
    let dir = temp_dir("daemon-panic");
    let handle = serve(ServerConfig {
        listen: Listen::Unix(dir.join("daemon.sock")),
        workers: 1,
        max_frame: DEFAULT_MAX_FRAME,
        pool: PoolConfig {
            dir: None,
            ..PoolConfig::default()
        },
    })
    .expect("daemon boots");
    let analyze = |charge: f64| {
        let mut config = fast_cfg();
        config.charge = charge;
        Request::Analyze {
            circuit: CircuitSource::Named("c17".to_owned()),
            config,
            grids: GridKind::Coarse,
            deadline_ms: None,
        }
    };
    let stats = |client: &mut Client| match client.request(&Request::Stats).expect("stats") {
        Response::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    };
    let charge = fast_cfg().charge;

    let _guard = failpoint::scenario();
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let warm = client.request(&analyze(charge)).expect("cold analyze");
    assert!(matches!(warm, Response::Analyzed(_)), "{warm:?}");

    failpoint::set_times("aserta::set_charge", FailAction::Panic, 1);
    match client
        .request(&analyze(2.0 * charge))
        .expect("an error reply, not a hang-up")
    {
        Response::Error(ApiError::Internal { detail }) => {
            assert!(detail.contains("aserta::set_charge"), "{detail}");
        }
        other => panic!("expected an Internal error, got {other:?}"),
    }
    assert_eq!(failpoint::hits("aserta::set_charge"), 1);
    failpoint::clear("aserta::set_charge");
    drop(client);

    let mut client = Client::connect(&handle.endpoint()).expect("reconnect");
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong { .. }
    ));
    let before = stats(&mut client);
    assert_eq!(before.sessions, 0, "the panicked session is not pooled");
    let fresh = client.request(&analyze(charge)).expect("fresh analyze");
    assert!(matches!(fresh, Response::Analyzed(_)), "{fresh:?}");
    let after = stats(&mut client);
    assert_eq!(after.misses, before.misses + 1, "a pool miss");
    assert_eq!(after.hits, before.hits);
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ meta coverage

/// The harness above must exercise exactly the fail points the
/// workspace declares: the `failpoint!` names in the library sources of
/// `crates/*/src` (each file up to its `#[cfg(test)]` module) must equal
/// `COVERED`, so a new hook without a test and a stale name whose hook
/// is gone both fail here.
#[test]
fn harness_covers_all_declared_fail_points() {
    const COVERED: [&str; 12] = [
        "aserta::set_charge",
        "aserta::session_recompute",
        "aserta::full_rebuild",
        "aserta::corner_eval",
        "spice::transient_step",
        "sertopt::match_realize",
        "sertopt::match_refine",
        "sertopt::replica_evaluate",
        "snapshot::torn_write",
        "snapshot::short_read",
        "snapshot::crc_flip",
        "govern::deadline",
    ];
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut declared = std::collections::BTreeSet::new();
    for krate in std::fs::read_dir(&crates).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            declared_fail_points(&src, &mut declared);
        }
    }
    let covered: std::collections::BTreeSet<String> =
        COVERED.iter().map(|s| s.to_string()).collect();
    assert_eq!(declared, covered, "declared fail points vs COVERED");
    assert!(COVERED.len() >= 8, "ISSUE floor: at least 8 fail points");
    // Each name must actually be armable and consumable.
    let _guard = failpoint::scenario();
    for name in COVERED {
        failpoint::set_times(name, FailAction::Error, 1);
        assert_eq!(failpoint::check(name), Some(FailAction::Error), "{name}");
        assert_eq!(failpoint::hits(name), 1, "{name}");
    }
}

/// Adds the name of every `failpoint!("name", ..)` call in the `.rs`
/// files under `dir` to `out`. Comment lines and everything from a
/// file's `#[cfg(test)]` on are skipped; a call may span lines.
fn declared_fail_points(dir: &std::path::Path, out: &mut std::collections::BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("source entry").path();
        if path.is_dir() {
            declared_fail_points(&path, out);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source file");
        let code: String = text
            .lines()
            .take_while(|l| l.trim() != "#[cfg(test)]")
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        let mut rest = code.as_str();
        while let Some(at) = rest.find("failpoint!(") {
            rest = rest[at + "failpoint!(".len()..].trim_start();
            if let Some(quoted) = rest.strip_prefix('"') {
                let close = quoted.find('"').expect("closing quote");
                out.insert(quoted[..close].to_string());
                rest = &quoted[close..];
            }
        }
    }
}
