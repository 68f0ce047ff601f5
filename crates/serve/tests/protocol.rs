//! Protocol-level integration tests against a real daemon:
//!
//! * concurrent clients over a Unix socket get responses **bitwise
//!   identical** to direct library calls at the same configuration —
//!   warm-pool reuse is observable only in the stats, never in the
//!   numbers;
//! * malformed frames and oversized payloads come back as typed
//!   [`ApiError`]s (and a malformed frame does not kill the
//!   connection), and so do an `optimize` request whose analysis
//!   config fails validation and a corner sweep over too many corners
//!   (the worker survives both);
//! * a daemon `kill -9`'d mid-trace and restarted on the same pool
//!   directory restores its sessions from the eager `.sersnap` images
//!   and keeps answering bitwise-identically;
//! * `ser-serve serve` refuses a flag it does not know.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aserta::{AnalysisSession, AsertaConfig, CircuitCells};
use ser_cells::{CharGrids, Library};
use ser_netlist::generate;
use ser_serve::api::{
    AnalyzeResult, ApiError, CircuitSource, GridKind, OptimizeSpec, Request, Response,
};
use ser_serve::pool::PoolConfig;
use ser_serve::server::{serve, Listen, ServerConfig};
use ser_serve::{Client, EngineConfig};
use ser_spice::Technology;

fn fast_cfg(vectors: usize) -> AsertaConfig {
    let mut cfg = AsertaConfig::fast();
    cfg.sensitization_vectors = vectors;
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ser-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The direct library answer an Analyze request must match bitwise: a
/// fresh session at the request's exact configuration.
fn direct_analyze(name: &str, cfg: &AsertaConfig) -> (f64, f64, Vec<f64>) {
    let circuit = if name == "sec32" {
        generate::sec32("sec32")
    } else {
        generate::iscas85(name).expect("known circuit")
    };
    let library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let session = AnalysisSession::builder(
        &circuit,
        CircuitCells::nominal(&circuit),
        library,
        cfg.clone(),
    )
    .build()
    .expect("fresh session");
    (
        session.unreliability(),
        session.critical_delay(),
        session.per_gate_unreliability().to_vec(),
    )
}

fn assert_bitwise(got: &AnalyzeResult, want: &(f64, f64, Vec<f64>), what: &str) {
    assert_eq!(
        got.unreliability.to_bits(),
        want.0.to_bits(),
        "{what}: unreliability"
    );
    assert_eq!(
        got.critical_delay_s.to_bits(),
        want.1.to_bits(),
        "{what}: critical delay"
    );
    assert_eq!(
        got.per_gate_unreliability.len(),
        want.2.len(),
        "{what}: per-gate len"
    );
    for (i, (g, w)) in got.per_gate_unreliability.iter().zip(&want.2).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: per-gate U[{i}]");
    }
}

#[test]
fn concurrent_clients_are_bitwise_identical_to_direct_calls() {
    let dir = temp_dir("concurrent");
    let socket = dir.join("daemon.sock");
    let handle = serve(ServerConfig {
        listen: Listen::Unix(socket.clone()),
        workers: 4,
        max_frame: ser_serve::DEFAULT_MAX_FRAME,
        pool: PoolConfig {
            dir: None,
            ..PoolConfig::default()
        },
    })
    .expect("daemon boots");
    let endpoint = handle.endpoint();

    // Three charges on one circuit (shared warm session, charge moved as
    // a delta) plus a second circuit, hammered from 4 threads at once.
    let charges = [8.0e-15, 16.0e-15, 32.0e-15];
    let mut expected = Vec::new();
    for &q in &charges {
        let mut cfg = fast_cfg(256);
        cfg.charge = q;
        expected.push(("c17", cfg.clone(), direct_analyze("c17", &cfg)));
    }
    let sec_cfg = fast_cfg(256);
    expected.push(("sec32", sec_cfg.clone(), direct_analyze("sec32", &sec_cfg)));

    std::thread::scope(|scope| {
        for t in 0..4 {
            let endpoint = endpoint.clone();
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).expect("connect");
                // Each thread walks the cases in a different order so
                // warm/cold interleavings differ per run.
                for step in 0..expected.len() {
                    let (name, cfg, want) = &expected[(step + t) % expected.len()];
                    let response = client
                        .request(&Request::Analyze {
                            circuit: CircuitSource::Named((*name).to_owned()),
                            config: cfg.clone(),
                            grids: GridKind::Coarse,
                            deadline_ms: None,
                        })
                        .expect("analyze round trip");
                    let Response::Analyzed(got) = response else {
                        panic!("thread {t}: expected Analyzed, got {response:?}");
                    };
                    assert_bitwise(&got, want, &format!("thread {t} {name}"));
                }
            });
        }
    });

    // The sweep path too: daemon points vs the same deltas run locally.
    let sweep_cfg = fast_cfg(256);
    let mut client = Client::connect(&endpoint).expect("connect");
    let response = client
        .request(&Request::CornerSweep {
            circuit: CircuitSource::Named("c17".to_owned()),
            config: sweep_cfg.clone(),
            grids: GridKind::Coarse,
            vdds: vec![0.9, 1.1],
            vths: vec![0.2],
            charges: vec![8.0e-15, 16.0e-15],
            threads: 2,
            deadline_ms: None,
        })
        .expect("sweep round trip");
    let Response::Swept { points } = response else {
        panic!("expected Swept, got {response:?}");
    };
    assert_eq!(points.len(), 4);
    let circuit = generate::c17();
    let base = CircuitCells::nominal(&circuit);
    let library = Library::new(Technology::ptm70(), CharGrids::coarse());
    let mut local = AnalysisSession::builder(&circuit, base.clone(), library, sweep_cfg)
        .build()
        .expect("local session");
    let mut i = 0;
    for &vdd in &[0.9, 1.1] {
        for &q in &[8.0e-15, 16.0e-15] {
            local.try_set_charge(q).expect("charge");
            local
                .try_set_cells(&CircuitCells::from_fn(&circuit, |id| {
                    let mut p = *base.get(id).expect("gate params");
                    p.vdd = vdd;
                    p.vth = 0.2;
                    p
                }))
                .expect("cells");
            assert_eq!(
                points[i].unreliability.to_bits(),
                local.unreliability().to_bits(),
                "corner {i}"
            );
            assert_eq!(
                points[i].critical_delay_s.to_bits(),
                local.critical_delay().to_bits(),
                "corner {i}"
            );
            i += 1;
        }
    }

    // Warmness was real: the trace hit the pool, and every request was
    // either a hit or a miss (racing same-identity requests may each
    // build their own session — that inflates misses, never corrupts
    // answers).
    let stats = handle.pool().stats();
    assert!(
        stats.hits > 0,
        "concurrent trace must hit the warm pool: {stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, stats.requests, "{stats:?}");
    assert_eq!(stats.sessions, 2, "two identities stay resident: {stats:?}");

    let shutdown = client.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(shutdown, Response::ShuttingDown);
    handle.join();
    assert!(!socket.exists(), "socket file removed on clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_oversized_frames_get_typed_rejections() {
    let dir = temp_dir("frames");
    let socket = dir.join("daemon.sock");
    let handle = serve(ServerConfig {
        listen: Listen::Unix(socket.clone()),
        workers: 1,
        max_frame: 1024,
        pool: PoolConfig {
            dir: None,
            ..PoolConfig::default()
        },
    })
    .expect("daemon boots");

    fn read_response(stream: &mut UnixStream) -> Response {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).expect("reply prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        stream.read_exact(&mut payload).expect("reply payload");
        serde_json::from_str(std::str::from_utf8(&payload).expect("utf8")).expect("reply decodes")
    }

    // Malformed payload: typed rejection, connection survives.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let garbage = b"{\"type\": not json";
    stream
        .write_all(&u32::try_from(garbage.len()).expect("len").to_be_bytes())
        .expect("prefix");
    stream.write_all(garbage).expect("payload");
    match read_response(&mut stream) {
        Response::Error(ApiError::MalformedFrame { .. }) => {}
        other => panic!("expected MalformedFrame, got {other:?}"),
    }
    // A structurally-valid-JSON unknown request is also malformed.
    let unknown = b"{\"type\":\"frobnicate\"}";
    stream
        .write_all(&u32::try_from(unknown.len()).expect("len").to_be_bytes())
        .expect("prefix");
    stream.write_all(unknown).expect("payload");
    match read_response(&mut stream) {
        Response::Error(ApiError::MalformedFrame { .. }) => {}
        other => panic!("expected MalformedFrame, got {other:?}"),
    }
    // Same connection still serves typed requests.
    let ping = serde_json::to_string(&Request::Ping).expect("encode");
    stream
        .write_all(&u32::try_from(ping.len()).expect("len").to_be_bytes())
        .expect("prefix");
    stream.write_all(ping.as_bytes()).expect("payload");
    assert!(matches!(read_response(&mut stream), Response::Pong { .. }));

    // Oversized announcement: typed rejection naming both numbers, then
    // the server hangs up (the stream cannot be resynchronized). Drop
    // the first connection first: with one worker, an open connection
    // pins it.
    drop(stream);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .write_all(&9_999_999u32.to_be_bytes())
        .expect("prefix");
    match read_response(&mut stream) {
        Response::Error(ApiError::Oversized {
            limit: 1024,
            got: 9_999_999,
        }) => {}
        other => panic!("expected Oversized, got {other:?}"),
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "server closes after an oversized frame");

    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `optimize` request with zero Monte-Carlo vectors gets a typed
/// error, and the only worker keeps serving: a ping on a new connection
/// is answered.
#[test]
fn invalid_optimize_config_is_an_error_reply_not_a_dead_worker() {
    let dir = temp_dir("optimize-config");
    let handle = serve(ServerConfig {
        listen: Listen::Unix(dir.join("daemon.sock")),
        workers: 1,
        max_frame: ser_serve::DEFAULT_MAX_FRAME,
        pool: PoolConfig {
            dir: None,
            ..PoolConfig::default()
        },
    })
    .expect("daemon boots");

    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let request = Request::Optimize {
        circuit: CircuitSource::Named("c17".to_owned()),
        spec: OptimizeSpec {
            profile: "tiny".to_owned(),
            iterations: 1,
            vectors: Some(0),
            ..OptimizeSpec::default()
        },
        budget_ms: None,
    };
    match client
        .request(&request)
        .expect("an error reply, not a hang-up")
    {
        Response::Error(ApiError::Analysis { detail }) => {
            assert!(detail.contains("sensitization_vectors"), "{detail}");
        }
        other => panic!("expected an Analysis error, got {other:?}"),
    }
    drop(client);

    let mut client = Client::connect(&handle.endpoint()).expect("reconnect");
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong { .. }
    ));
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corner sweep over three 1,000-value axes (10^9 corners) is refused
/// with a typed error before anything is allocated for it, and the only
/// worker keeps serving: a ping on a new connection is answered.
#[test]
fn oversized_sweep_grid_is_a_bad_request_not_a_dead_daemon() {
    let dir = temp_dir("oversized-sweep");
    let handle = serve(ServerConfig {
        listen: Listen::Unix(dir.join("daemon.sock")),
        workers: 1,
        max_frame: ser_serve::DEFAULT_MAX_FRAME,
        pool: PoolConfig {
            dir: None,
            ..PoolConfig::default()
        },
    })
    .expect("daemon boots");

    let axis =
        |lo: f64, step: f64| -> Vec<f64> { (0..1000).map(|i| lo + step * i as f64).collect() };
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let request = Request::CornerSweep {
        circuit: CircuitSource::Named("c17".to_owned()),
        config: fast_cfg(256),
        grids: GridKind::Coarse,
        vdds: axis(0.8, 1.0e-4),
        vths: axis(0.15, 1.0e-4),
        charges: axis(8.0e-15, 1.0e-17),
        threads: 1,
        deadline_ms: None,
    };
    match client
        .request(&request)
        .expect("an error reply, not a hang-up")
    {
        Response::Error(ApiError::BadRequest { detail }) => {
            assert!(detail.contains("1 to 4096 corners"), "{detail}");
        }
        other => panic!("expected a BadRequest error, got {other:?}"),
    }
    drop(client);

    let mut client = Client::connect(&handle.endpoint()).expect("reconnect");
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong { .. }
    ));
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boots the ser-serve binary on `socket` with `pool_dir`, returning
/// the child once the socket answers a ping.
// The lint cannot see past the return: every caller kills or waits the
// returned child (the kill-9 test does both, on purpose).
#[allow(clippy::zombie_processes)]
fn spawn_daemon(socket: &Path, pool_dir: &Path) -> std::process::Child {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ser-serve"))
        .args([
            "serve",
            "--listen",
            &format!("unix:{}", socket.display()),
            "--workers",
            "2",
            "--pool-dir",
            &pool_dir.display().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut client) = Client::connect(&Listen::Unix(socket.to_path_buf())) {
            if let Ok(Response::Pong { .. }) = client.request(&Request::Ping) {
                return child;
            }
        }
        if Instant::now() >= deadline {
            // Reap the child before failing so the timeout path never
            // leaves a zombie daemon behind.
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon never came up");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn serve_rejects_unknown_flags() {
    let dir = temp_dir("unknown-flag");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ser-serve"))
        .args([
            "serve",
            "--listen",
            &format!("unix:{}", dir.join("daemon.sock").display()),
            "--exact-support",
            "20",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("ser-serve spawns");
    // A daemon that ignored the flag would come up and never exit.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve started despite an unknown flag");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--exact-support"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_dash_nine_restart_restores_the_pool_bitwise() {
    let dir = temp_dir("kill9");
    let socket = dir.join("daemon.sock");
    let pool_dir = dir.join("pool");
    let endpoint = Listen::Unix(socket.clone());
    let cfg = fast_cfg(256);
    let analyze = Request::Analyze {
        circuit: CircuitSource::Named("c17".to_owned()),
        config: cfg.clone(),
        grids: GridKind::Coarse,
        deadline_ms: None,
    };

    // First life: one cold build (eagerly imaged), then SIGKILL — no
    // graceful shutdown path runs.
    let mut child = spawn_daemon(&socket, &pool_dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let Response::Analyzed(before) = client.request(&analyze).expect("analyze") else {
        panic!("expected Analyzed");
    };
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Second life, same pool directory: the pool restores from the
    // crash images *before* serving, and the restored session answers
    // warm and bitwise-identically.
    let mut child = spawn_daemon(&socket, &pool_dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected Stats");
    };
    assert_eq!(
        stats.restored, 1,
        "the killed daemon's session restores: {stats:?}"
    );
    assert_eq!(stats.sessions, 1, "{stats:?}");

    let Response::Analyzed(after) = client.request(&analyze).expect("analyze") else {
        panic!("expected Analyzed");
    };
    let direct = direct_analyze("c17", &cfg);
    assert_bitwise(&before, &direct, "pre-kill");
    assert_bitwise(&after, &direct, "post-restart");

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected Stats");
    };
    assert_eq!(
        stats.misses, 0,
        "the restored session serves warm, no rebuild: {stats:?}"
    );
    assert!(stats.hits >= 1, "{stats:?}");

    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown exits 0: {status:?}");
    // The graceful path re-imaged the pool: the snapshot is restorable.
    let snaps: Vec<_> = std::fs::read_dir(&pool_dir)
        .expect("pool dir")
        .flatten()
        .filter(|d| d.path().extension().is_some_and(|e| e == "sersnap"))
        .collect();
    assert_eq!(snaps.len(), 1, "one identity, one image");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resolved estimator knobs are part of the pool identity: a daemon
/// restarted over the same snapshot directory with different accuracy
/// settings must never serve an image whose `P_ij` matrices were
/// estimated under the old ones — and restarting with the *original*
/// settings serves the original image warm, bitwise.
#[test]
fn estimator_knobs_split_pool_identity_across_restarts() {
    let dir = temp_dir("estimator-identity");
    let pool_dir = dir.join("pool");
    let cfg = fast_cfg(256);
    let request = Request::Analyze {
        circuit: CircuitSource::Named("c17".to_owned()),
        config: cfg.clone(),
        grids: GridKind::Coarse,
        deadline_ms: None,
    };
    // The fixed-budget estimator: no early stops.
    let fixed = EngineConfig::default().with_pij_tolerance(0.0);

    let boot = |tag: &str, engine: EngineConfig| {
        serve(ServerConfig {
            listen: Listen::Unix(dir.join(format!("{tag}.sock"))),
            workers: 1,
            max_frame: ser_serve::DEFAULT_MAX_FRAME,
            pool: PoolConfig {
                dir: Some(pool_dir.clone()),
                engine,
                ..PoolConfig::default()
            },
        })
        .expect("daemon boots")
    };
    let shutdown = |client: &mut Client, handle: ser_serve::server::ServerHandle| {
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShuttingDown
        );
        handle.join();
    };

    // First life: fixed-budget estimator, one cold build (imaged).
    let handle = boot("first", fixed);
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let Response::Analyzed(under_fixed) = client.request(&request).expect("analyze") else {
        panic!("expected Analyzed");
    };
    shutdown(&mut client, handle);

    // Second life, same directory, default (adaptive) knobs:
    // the fixed-budget image restores but must NOT serve this request.
    let handle = boot("second", EngineConfig::default());
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let Response::Analyzed(_) = client.request(&request).expect("analyze") else {
        panic!("expected Analyzed");
    };
    let stats = handle.pool().stats();
    assert_eq!(stats.restored, 1, "{stats:?}");
    assert_eq!(
        stats.hits, 0,
        "a warm hit here would mix accuracy settings: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "{stats:?}");
    shutdown(&mut client, handle);

    // Third life, fixed knobs again: both images are on disk now, and
    // the fixed one serves warm — bitwise equal to the first life.
    let handle = boot("third", fixed);
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let Response::Analyzed(again) = client.request(&request).expect("analyze") else {
        panic!("expected Analyzed");
    };
    let stats = handle.pool().stats();
    assert_eq!(stats.restored, 2, "{stats:?}");
    assert_eq!(
        stats.hits, 1,
        "the matching-identity image serves warm: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "{stats:?}");
    let want = (
        under_fixed.unreliability,
        under_fixed.critical_delay_s,
        under_fixed.per_gate_unreliability.clone(),
    );
    assert_bitwise(&again, &want, "fixed-knob restart");
    shutdown(&mut client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
