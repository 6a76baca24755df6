//! Starts the in-process server and drives one round of requests over a
//! single keep-alive connection (a closed loop: each request is sent once
//! the previous answer has been read).

use crate::corpus::{Plan, Request, Workload, HOT_BATCH, HOT_LRU, POPULATE_BATCH};
use crate::heap;
use qca_perf::json::{self, Json};
use qca_serve::{Connection, HttpResponse, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client-side socket timeout; longer than any solve in the corpus.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(170);

/// The server configuration of a workload. One solver worker, so the
/// cache sees the same access order on every run.
pub fn serve_config(workload: Workload, store_dir: Option<&Path>) -> ServeConfig {
    let mut config = ServeConfig {
        workers: 1,
        request_timeout: CLIENT_TIMEOUT,
        ..ServeConfig::default()
    };
    if workload == Workload::HotTiered {
        config.cache_capacity = HOT_LRU;
        // Every circuit of a batch is admitted at once: the queue must
        // hold the largest batch (the store-filling ones) or items come
        // back rejected.
        config.queue_capacity = POPULATE_BATCH.max(HOT_BATCH);
        config.store_dir = store_dir.map(PathBuf::from);
    }
    config
}

/// A server running on its own thread.
pub struct Running {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    /// Binds the server (opening and replaying the store when configured)
    /// and starts its event loop.
    pub fn start(config: ServeConfig) -> Result<Running, String> {
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || server.run(&flag));
        Ok(Running {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// A new keep-alive connection to the server.
    pub fn connect(&self) -> Result<Connection, String> {
        Connection::connect(self.addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    /// Drains the server and joins its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.take() {
            None => Ok(()),
            Some(t) => match t.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("server: {e}")),
                Err(_) => Err("server thread panicked".into()),
            },
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

/// A started server, its client connection, and what starting them cost.
pub struct Setup {
    /// The round's plan, regenerated from the seed.
    pub plan: Plan,
    /// The server.
    pub running: Running,
    /// The client connection.
    pub conn: Connection,
    /// Plan generation + bind (store open and replay) + first answered
    /// request, in seconds.
    pub seconds: f64,
}

/// Generates the plan, starts the server and waits until it answers.
pub fn setup(workload: Workload, seed: u64, store_dir: Option<&Path>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let plan = Plan::new(workload, seed);
    let running = Running::start(serve_config(workload, store_dir))?;
    let mut conn = running.connect()?;
    let health = conn
        .request("GET", "/healthz", b"")
        .map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    Ok(Setup {
        plan,
        running,
        conn,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// What one round observed.
pub struct RoundResult {
    /// Per-request round-trip latency in ms, in request order.
    pub latencies_ms: Vec<f64>,
    /// The most heap one request needed beyond what was in use when it
    /// was sent, in MB.
    pub request_heap_mb: f64,
    /// Per-request answers, in request order.
    pub answers: Vec<HttpResponse>,
    /// First byte sent to last byte read, in seconds.
    pub wall_s: f64,
}

/// Sends every request in order and reads each answer.
pub fn run_round(conn: &mut Connection, requests: &[Request]) -> Result<RoundResult, String> {
    let mut latencies_ms = Vec::with_capacity(requests.len());
    let mut answers = Vec::with_capacity(requests.len());
    let mut request_heap_mb = 0.0f64;
    let t0 = Instant::now();
    for r in requests {
        let ((answer, ms), heap_mb) = heap::growth_mb(|| send(conn, r));
        let answer = answer?;
        latencies_ms.push(ms);
        request_heap_mb = request_heap_mb.max(heap_mb);
        answers.push(answer);
    }
    Ok(RoundResult {
        latencies_ms,
        request_heap_mb,
        answers,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// One timed round trip: the answer and its latency in ms.
pub fn send(conn: &mut Connection, r: &Request) -> (Result<HttpResponse, String>, f64) {
    let t = Instant::now();
    let answer = conn
        .request("POST", &r.target, r.body.as_bytes())
        .map_err(|e| format!("{}: {e}", r.target));
    (answer, t.elapsed().as_secs_f64() * 1e3)
}

/// The server's `/metrics` document.
pub fn fetch_metrics(conn: &mut Connection) -> Result<Json, String> {
    let r = conn
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    json::parse(r.body_text().trim()).map_err(|e| format!("metrics json: {e}"))
}

/// Server counters a round must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// `engine.cache_hits`.
    pub cache_hits: u64,
    /// `engine.cache_misses`.
    pub cache_misses: u64,
    /// `store.hits` (0 without a store).
    pub store_hits: u64,
    /// `store.replays` at start-up (0 without a store).
    pub store_replays: u64,
    /// `engine.sat_conflicts`.
    pub sat_conflicts: u64,
    /// `engine.sat_propagations`.
    pub sat_propagations: u64,
}

impl Counters {
    /// Reads the counters from a `/metrics` document.
    pub fn from_metrics(m: &Json) -> Counters {
        let engine = |k: &str| {
            m.get("engine")
                .and_then(|e| e.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        let store = |k: &str| {
            m.get("store")
                .and_then(|e| e.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        Counters {
            cache_hits: engine("cache_hits"),
            cache_misses: engine("cache_misses"),
            store_hits: store("hits"),
            store_replays: store("replays"),
            sat_conflicts: engine("sat_conflicts"),
            sat_propagations: engine("sat_propagations"),
        }
    }
}
