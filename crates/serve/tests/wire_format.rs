//! Wire compatibility: every body the server emits parses under the
//! workspace's strict JSON reader and keeps its documented keys, in order.

use qca_serve::client::{Connection, HttpResponse};
use qca_serve::{ServeConfig, Server};
use qca_trace::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n";
const OTHER_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[1], q[0];\n";

const REPORT_KEYS: [&str; 13] = [
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
    "circuit_qasm",
];

const STORE_KEYS: [&str; 8] = [
    "hits",
    "misses",
    "replays",
    "compactions",
    "recovered_dropped_bytes",
    "live_records",
    "wal_records",
    "wal_bytes",
];

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

/// Sends one request and parses its body strictly; the body is one JSON
/// document plus a trailing newline.
fn call(conn: &mut Connection, method: &str, target: &str, body: &str) -> (u16, Json) {
    let response: HttpResponse = conn
        .request(method, target, body.as_bytes())
        .unwrap_or_else(|e| panic!("{method} {target}: {e}"));
    let text = response.body_text();
    assert!(text.ends_with('\n'), "{target}: body lacks its newline");
    let doc =
        json::parse(&text[..text.len() - 1]).unwrap_or_else(|e| panic!("{target}: {e}\n{text}"));
    (response.status, doc)
}

fn keys(doc: &Json) -> Vec<&str> {
    doc.as_obj()
        .unwrap_or_else(|| panic!("not an object: {}", doc.to_string_compact()))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn assert_error_body(status: u16, doc: &Json, want: u16) {
    assert_eq!(status, want, "{}", doc.to_string_compact());
    assert_eq!(keys(doc), ["error"]);
    assert!(doc.get("error").and_then(Json::as_str).is_some());
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qca-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_endpoint_answers_strict_json_with_and_without_a_store() {
    let store_dir = scratch_dir("store");
    for store in [None, Some(store_dir.clone())] {
        let server = TestServer::start(ServeConfig {
            workers: 1,
            queue_capacity: 4,
            store_dir: store.clone(),
            ..ServeConfig::default()
        });
        let mut conn = server.connect();

        let (status, report) = call(&mut conn, "POST", "/v1/adapt?verify=1", QASM);
        assert_eq!(status, 200);
        assert_eq!(keys(&report), REPORT_KEYS);
        assert!(report.get("objective_value").unwrap().as_i64().is_some());
        assert!(report.get("wall_ms").unwrap().as_f64().is_some());
        assert_eq!(report.get("audit").and_then(Json::as_str), Some("passed"));

        let (status, health) = call(&mut conn, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert_eq!(
            keys(&health),
            [
                "status",
                "state",
                "queued",
                "queue_capacity",
                "node_id",
                "peers",
                "store"
            ]
        );
        assert_eq!(health.get("queue_capacity").unwrap().as_u64(), Some(4));

        let (status, metrics) = call(&mut conn, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert_eq!(keys(&metrics), ["server", "engine", "cache", "store"]);
        assert_eq!(
            keys(metrics.get("server").unwrap()),
            [
                "requests",
                "ok",
                "client_errors",
                "rejected_429",
                "unavailable_503",
                "timeouts_504",
                "server_errors",
                "forwarded"
            ]
        );
        let engine = metrics.get("engine").unwrap();
        assert_eq!(engine.get("cache_misses").unwrap().as_u64(), Some(1));
        assert!(engine.get("cache_hit_rate").unwrap().as_f64().is_some());
        assert_eq!(
            keys(engine.get("solve_wall_us").unwrap()),
            ["count", "sum", "mean", "max", "p50", "p90", "p95", "p99"]
        );
        assert_eq!(
            keys(metrics.get("cache").unwrap()),
            ["entries", "capacity", "shards"]
        );
        for doc in [&health, &metrics] {
            match &store {
                None => assert_eq!(doc.get("store"), Some(&Json::Null)),
                Some(_) => assert_eq!(keys(doc.get("store").unwrap()), STORE_KEYS),
            }
        }

        let (status, recal) = call(&mut conn, "POST", "/v1/recalibrate", "");
        assert_eq!(status, 200);
        assert_eq!(keys(&recal), ["entries", "reused", "resolved", "failed"]);

        for (target, body) in [
            ("/v1/adapt", "not qasm \"at\" all\n"),
            ("/v1/adapt?budget=0", QASM),
        ] {
            let (status, doc) = call(&mut conn, "POST", target, body);
            assert_error_body(status, &doc, 400);
        }
        let (status, doc) = call(&mut conn, "GET", "/nope", "");
        assert_error_body(status, &doc, 404);
        let (status, doc) = call(&mut conn, "PUT", "/v1/adapt", "");
        assert_error_body(status, &doc, 405);
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn batch_with_a_rejected_slot_and_429_503_bodies_are_strict_json() {
    let server = TestServer::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    // Hold the only worker...
    let addr = server.addr;
    let holder = std::thread::spawn(move || {
        let mut conn = Connection::connect(addr, Duration::from_secs(60)).unwrap();
        call(&mut conn, "POST", "/v1/adapt?hold_ms=1500", QASM)
    });
    std::thread::sleep(Duration::from_millis(300));
    // ...so a two-circuit batch fills the one queue slot and loses the
    // other to admission control.
    let batch = std::thread::spawn(move || {
        let mut conn = Connection::connect(addr, Duration::from_secs(60)).unwrap();
        let body = format!("{QASM}// ---\n{OTHER_QASM}");
        call(&mut conn, "POST", "/v1/batch", &body)
    });
    std::thread::sleep(Duration::from_millis(300));
    // With the queue full, a single adapt is shed as a 429.
    let mut conn = server.connect();
    let (status, doc) = call(&mut conn, "POST", "/v1/adapt", OTHER_QASM);
    assert_error_body(status, &doc, 429);

    let (status, batch) = batch.join().unwrap();
    assert_eq!(status, 200);
    assert_eq!(keys(&batch), ["request_id", "results"]);
    let id = batch.get("request_id").and_then(Json::as_str).unwrap();
    let results = batch.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(keys(&results[0]), REPORT_KEYS);
    assert_eq!(keys(&results[1]), ["request_id", "error"]);
    assert_eq!(
        results[1].get("request_id").and_then(Json::as_str),
        Some(format!("{id}.1").as_str())
    );
    assert_eq!(
        results[1].get("error").and_then(Json::as_str),
        Some("submission queue is full")
    );

    assert_eq!(holder.join().unwrap().0, 200);

    // A request still arriving when the drain starts is answered 503: its
    // head is in before shutdown, its body after.
    let mut raw = TcpStream::connect(addr).unwrap();
    write!(
        raw,
        "POST /v1/adapt HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        QASM.len()
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(200));
    raw.write_all(QASM.as_bytes()).unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 503"), "{answer}");
    let (_, body) = answer.split_once("\r\n\r\n").expect("head/body split");
    let doc = json::parse(body.strip_suffix('\n').expect("trailing newline")).unwrap();
    assert_error_body(503, &doc, 503);
    server.stop();
}
