//! End-to-end tests: a real `Server` on an ephemeral port, driven through
//! the blocking client. Covers the happy path, parse errors, admission
//! control (429), per-request deadlines degrading (not failing) the
//! answer, request tracing, batch requests, and graceful drain.

use qca_serve::client::Connection;
use qca_serve::{ServeConfig, Server};
use qca_trace::json::{self, Json};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const GOOD_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n";

/// A circuit large enough that its solve cannot finish within a
/// millisecond-scale deadline (distinct per test via `seed` so the
/// engine's cache cannot short-circuit it).
fn big_qasm(seed: usize) -> String {
    let mut qasm = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n");
    for i in 0..48 {
        let a = (i + seed) % 5;
        let b = (i + seed + 1) % 5;
        qasm.push_str(&format!("cx q[{a}], q[{b}];\n"));
    }
    qasm
}

struct TestServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&flag));
        TestServer {
            addr,
            shutdown,
            handle,
        }
    }

    fn connect(&self) -> Connection {
        Connection::connect(self.addr, Duration::from_secs(60)).expect("connect")
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread")
            .expect("clean drain");
    }
}

fn small_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn bind_rejects_an_invalid_engine_config() {
    let config = ServeConfig {
        workers: qca_engine::EngineConfig::MAX_WORKERS + 1,
        ..small_config()
    };
    let Err(err) = Server::bind(config) else {
        panic!("invalid config must not bind");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("ceiling"), "{err}");
}

/// Pulls `"request_id":"..."` out of a response body.
fn request_id(body: &str) -> String {
    let start = body
        .find("\"request_id\":\"")
        .expect("request_id in response")
        + "\"request_id\":\"".len();
    body[start..].chars().take_while(|&c| c != '"').collect()
}

#[test]
fn adapt_roundtrip_and_errors() {
    let server = TestServer::start(small_config());
    let mut connection = server.connect();

    // Happy path: valid QASM adapts to a native circuit.
    let ok = connection
        .request("POST", "/v1/adapt", GOOD_QASM.as_bytes())
        .expect("adapt request");
    assert_eq!(ok.status, 200, "{}", ok.body_text());
    let body = ok.body_text();
    assert!(body.contains("\"status\":"), "{body}");
    assert!(body.contains("\"circuit_qasm\":"), "{body}");

    // Malformed QASM: 400 with a JSON error, connection stays usable.
    let bad = connection
        .request("POST", "/v1/adapt", b"this is not qasm\n")
        .expect("bad request");
    assert_eq!(bad.status, 400, "{}", bad.body_text());
    assert!(bad.body_text().contains("\"error\""), "{}", bad.body_text());

    // Bad query parameter: also 400.
    let bad_param = connection
        .request("POST", "/v1/adapt?objective=bogus", GOOD_QASM.as_bytes())
        .expect("bad param request");
    assert_eq!(bad_param.status, 400);

    // Unknown path: 404; wrong method: 405.
    assert_eq!(connection.request("GET", "/nope", b"").unwrap().status, 404);
    assert_eq!(
        connection.request("PUT", "/v1/adapt", b"").unwrap().status,
        405
    );

    // Health endpoint.
    let health = connection.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"state\":\"running\""));

    // Metrics show both layers.
    let metrics = connection.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text();
    assert!(text.contains("\"server\":"), "{text}");
    assert!(text.contains("\"engine\":"), "{text}");

    server.stop();
}

#[test]
fn full_queue_answers_429_without_blocking() {
    let server = TestServer::start(small_config());

    // Occupy the single worker for a while...
    let addr = server.addr;
    let holder = std::thread::spawn(move || {
        let mut connection = Connection::connect(addr, Duration::from_secs(60)).unwrap();
        connection
            .request("POST", "/v1/adapt?hold_ms=1500", GOOD_QASM.as_bytes())
            .expect("held request")
            .status
    });
    std::thread::sleep(Duration::from_millis(300));
    // ...fill the queue (capacity 1)...
    let filler = std::thread::spawn(move || {
        let mut connection = Connection::connect(addr, Duration::from_secs(60)).unwrap();
        connection
            .request("POST", "/v1/adapt", GOOD_QASM.as_bytes())
            .expect("queued request")
            .status
    });
    std::thread::sleep(Duration::from_millis(300));

    // ...and the next submission must be rejected immediately.
    let mut connection = server.connect();
    let t0 = Instant::now();
    let rejected = connection
        .request("POST", "/v1/adapt", GOOD_QASM.as_bytes())
        .expect("rejected request");
    assert_eq!(rejected.status, 429, "{}", rejected.body_text());
    // Retry-After is derived from backlog and observed latency; it must be
    // a positive integer number of seconds.
    let retry: u64 = rejected
        .header("Retry-After")
        .expect("Retry-After header")
        .parse()
        .expect("integer Retry-After");
    assert!((1..=600).contains(&retry), "Retry-After {retry}");
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "429 must not wait for capacity (took {:?})",
        t0.elapsed()
    );

    assert_eq!(holder.join().unwrap(), 200);
    assert_eq!(filler.join().unwrap(), 200);
    server.stop();
}

#[test]
fn deadline_degrades_the_answer_instead_of_failing() {
    let server = TestServer::start(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let mut connection = server.connect();

    let deadline = Duration::from_millis(1);
    let t0 = Instant::now();
    let response = connection
        .request(
            "POST",
            "/v1/adapt?deadline_ms=1&exact=1&objective=idle",
            big_qasm(1).as_bytes(),
        )
        .expect("deadline request");
    let elapsed = t0.elapsed();
    assert_eq!(response.status, 200, "{}", response.body_text());
    let body = response.body_text();
    // A 48-gate idle solve (tens of ms) cannot finish within 1ms: the
    // answer is the best incumbent (feasible) or a fallback — never an
    // error, never optimal. (A fidelity answer is decided from its bound,
    // with no solver, in about as long as the deadline, so it may finish
    // first and be optimal.)
    assert!(body.contains("\"optimal\":false"), "{body}");
    assert!(
        body.contains("\"status\":\"feasible\"") || body.contains("\"status\":\"fallback\""),
        "{body}"
    );
    // Cancellation is cooperative but prompt: well within 2x the deadline
    // plus scheduling slack.
    assert!(
        elapsed < deadline * 2 + Duration::from_secs(1),
        "deadline request took {elapsed:?}"
    );
    server.stop();
}

#[test]
fn concurrent_identical_posts_coalesce_onto_one_solve() {
    let server = TestServer::start(ServeConfig {
        workers: 4,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let qasm = big_qasm(7);

    // N identical POSTs in flight at once. Timing-independent invariant:
    // whatever the interleaving, at any moment a key has at most one
    // leader actually solving — every other request either coalesces onto
    // that flight or hits the cache the leader filled. So all N answers
    // are 200 with the same objective, and exactly one reports a miss.
    const N: usize = 6;
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let qasm = qasm.as_str();
                scope.spawn(move || {
                    let mut connection =
                        Connection::connect(addr, Duration::from_secs(60)).unwrap();
                    let response = connection
                        .request("POST", "/v1/adapt?circuit=0", qasm.as_bytes())
                        .expect("adapt request");
                    assert_eq!(response.status, 200, "{}", response.body_text());
                    response.body_text()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let misses = bodies
        .iter()
        .filter(|b| b.contains("\"cache_hit\":false"))
        .count();
    assert_eq!(misses, 1, "exactly one solve expected: {bodies:#?}");

    // Every answer carries the leader's objective — byte-identical values.
    let objective = |body: &str| -> String {
        let start = body
            .find("\"objective_value\":")
            .expect("objective_value in response")
            + "\"objective_value\":".len();
        body[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect()
    };
    let first = objective(&bodies[0]);
    for body in &bodies[1..] {
        assert_eq!(objective(body), first, "{body}");
    }
    server.stop();
}

#[test]
fn trace_records_the_request_span_forest() {
    let server = TestServer::start(small_config());
    let mut connection = server.connect();
    let response = connection
        .request("POST", "/v1/adapt?trace=1", GOOD_QASM.as_bytes())
        .expect("traced request");
    assert_eq!(response.status, 200);
    let id = request_id(&response.body_text());
    let trace = connection
        .request("GET", &format!("/v1/trace/{id}"), b"")
        .expect("trace fetch");
    assert_eq!(trace.status, 200, "{}", trace.body_text());
    let text = trace.body_text();
    assert!(text.contains("serve.request"), "{text}");
    assert!(text.contains("engine.job"), "{text}");

    // Unknown ids are a 404, and untraced requests record nothing.
    let missing = connection
        .request("GET", "/v1/trace/req-99999", b"")
        .unwrap();
    assert_eq!(missing.status, 404);
    server.stop();
}

#[test]
fn batch_adapts_several_circuits() {
    let server = TestServer::start(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let mut connection = server.connect();
    let body = format!("{GOOD_QASM}// ---\n{}", big_qasm(2));
    let response = connection
        .request("POST", "/v1/batch?circuit=0", body.as_bytes())
        .expect("batch request");
    assert_eq!(response.status, 200, "{}", response.body_text());
    let text = response.body_text();
    assert_eq!(text.matches("\"status\":").count(), 2, "{text}");
    server.stop();
}

#[test]
fn coupling_param_routes_uncoupled_gates() {
    let server = TestServer::start(small_config());
    let mut connection = server.connect();

    // cx q[0], q[2] on a 3-qubit line device must be routed via SWAPs, and
    // the audited result still passes under the coupling-aware checker.
    let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncx q[0], q[2];\n";
    let ok = connection
        .request(
            "POST",
            "/v1/adapt?coupling=line&verify=1&circuit=0",
            qasm.as_bytes(),
        )
        .expect("routed request");
    assert_eq!(ok.status, 200, "{}", ok.body_text());
    let body = ok.body_text();
    assert!(body.contains("\"audit\":\"passed\""), "{body}");
    assert!(body.contains("\"routed\":1"), "{body}");

    // The same circuit without a coupling map needs no routing.
    let flat = connection
        .request("POST", "/v1/adapt?circuit=0", qasm.as_bytes())
        .expect("flat request");
    assert!(
        flat.body_text().contains("\"routed\":0"),
        "{}",
        flat.body_text()
    );

    // Unknown topologies are rejected up front.
    let bad = connection
        .request("POST", "/v1/adapt?coupling=torus", qasm.as_bytes())
        .expect("bad topology");
    assert_eq!(bad.status, 400, "{}", bad.body_text());
    server.stop();
}

#[test]
fn recalibrate_walks_the_cached_corpus() {
    let server = TestServer::start(small_config());
    let mut connection = server.connect();

    // An empty corpus recalibrates trivially.
    let empty = connection
        .request("POST", "/v1/recalibrate", b"")
        .expect("empty recalibrate");
    assert_eq!(empty.status, 200, "{}", empty.body_text());
    assert!(
        empty.body_text().contains("\"entries\":0"),
        "{}",
        empty.body_text()
    );

    // Populate the corpus, then recalibrate against drifted fidelities.
    let ok = connection
        .request("POST", "/v1/adapt", GOOD_QASM.as_bytes())
        .expect("adapt request");
    assert_eq!(ok.status, 200, "{}", ok.body_text());
    let recal = connection
        .request("POST", "/v1/recalibrate?perturb=2", b"")
        .expect("recalibrate request");
    assert_eq!(recal.status, 200, "{}", recal.body_text());
    let body = recal.body_text();
    assert!(body.contains("\"entries\":1"), "{body}");
    assert!(body.contains("\"failed\":0"), "{body}");

    // A re-submission against the drifted table now hits the refreshed cache.
    let again = connection
        .request("POST", "/v1/recalibrate?perturb=2", b"")
        .expect("second recalibrate");
    assert!(
        again.body_text().contains("\"failed\":0"),
        "{}",
        again.body_text()
    );

    // Malformed perturbation factors are rejected up front.
    let bad = connection
        .request("POST", "/v1/recalibrate?perturb=-1", b"")
        .expect("bad perturb");
    assert_eq!(bad.status, 400, "{}", bad.body_text());
    let nan = connection
        .request("POST", "/v1/recalibrate?perturb=wat", b"")
        .expect("nan perturb");
    assert_eq!(nan.status, 400);
    assert_eq!(
        connection
            .request("GET", "/v1/recalibrate", b"")
            .unwrap()
            .status,
        405
    );
    server.stop();
}

#[test]
fn metrics_keep_the_paths_ci_and_e2ebench_read() {
    let tag = format!("qca-serve-paths-{}", std::process::id());
    let metrics_path = std::env::temp_dir().join(format!("{tag}.json"));
    let store_dir = std::env::temp_dir().join(format!("{tag}-store"));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = TestServer::start(ServeConfig {
        metrics_out: Some(metrics_path.clone()),
        store_dir: Some(store_dir.clone()),
        ..small_config()
    });
    let mut connection = server.connect();
    let ok = connection
        .request("POST", "/v1/adapt", GOOD_QASM.as_bytes())
        .expect("good request");
    assert_eq!(ok.status, 200, "{}", ok.body_text());
    let bad = connection
        .request("POST", "/v1/adapt", b"this is not qasm\n")
        .expect("bad request");
    assert_eq!(bad.status, 400, "{}", bad.body_text());
    drop(connection);
    server.stop();

    // The drain snapshot counts exactly the two requests above.
    let text = std::fs::read_to_string(&metrics_path).expect("metrics file");
    let metrics = json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let at = |path: &[&str]| -> &Json {
        path.iter()
            .try_fold(&metrics, |doc, key| doc.get(key))
            .unwrap_or_else(|| panic!("no /metrics path {}\n{text}", path.join(".")))
    };
    for key in [
        "requests",
        "ok",
        "client_errors",
        "rejected_429",
        "unavailable_503",
        "timeouts_504",
        "server_errors",
        "forwarded",
    ] {
        assert!(at(&["server", key]).as_u64().is_some(), "server.{key}");
    }
    for key in [
        "cache_hits",
        "cache_misses",
        "sat_conflicts",
        "sat_propagations",
        "store_replays",
    ] {
        assert!(at(&["engine", key]).as_u64().is_some(), "engine.{key}");
    }
    for key in ["hits", "replays"] {
        assert!(at(&["store", key]).as_u64().is_some(), "store.{key}");
    }
    assert_eq!(at(&["cache", "entries"]).as_u64(), Some(1));
    assert_eq!(at(&["server", "requests"]).as_u64(), Some(2));
    assert_eq!(at(&["server", "ok"]).as_u64(), Some(1));
    assert_eq!(at(&["server", "client_errors"]).as_u64(), Some(1));
    assert_eq!(at(&["server", "rejected_429"]).as_u64(), Some(0));
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn drain_finishes_in_flight_work_and_writes_metrics() {
    let metrics_path =
        std::env::temp_dir().join(format!("qca-serve-metrics-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);
    let server = TestServer::start(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        metrics_out: Some(metrics_path.clone()),
        ..ServeConfig::default()
    });

    // An in-flight request that outlives the shutdown signal...
    let addr = server.addr;
    let in_flight = std::thread::spawn(move || {
        let mut connection = Connection::connect(addr, Duration::from_secs(60)).unwrap();
        connection
            .request("POST", "/v1/adapt?hold_ms=800", GOOD_QASM.as_bytes())
            .expect("in-flight request")
            .status
    });
    std::thread::sleep(Duration::from_millis(250));

    // ...must still complete successfully during the drain.
    server.stop();
    assert_eq!(in_flight.join().unwrap(), 200);

    // The final metrics snapshot was flushed.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file");
    assert!(metrics.contains("\"server\":"), "{metrics}");
    assert!(metrics.contains("\"engine\":"), "{metrics}");
    let _ = std::fs::remove_file(&metrics_path);

    // And the listener is gone: new connections are refused.
    assert!(Connection::connect(addr, Duration::from_millis(500)).is_err());
}
