//! The HTTP server: event loop, routing, admission control, deadlines,
//! sharding, drain.
//!
//! # Endpoints
//!
//! | Method | Path            | Purpose                                         |
//! |--------|-----------------|-------------------------------------------------|
//! | POST   | `/v1/adapt`     | Adapt one QASM circuit (body = QASM source)     |
//! | POST   | `/v1/batch`     | Adapt several circuits (separated by `// ---`)  |
//! | GET    | `/healthz`      | Liveness + drain state + queue/store occupancy  |
//! | GET    | `/metrics`      | Server, engine, cache, and store metrics (JSON) |
//! | GET    | `/v1/trace/:id` | Span/event trace of a `?trace=1` request (JSONL)|
//!
//! # Query parameters for `/v1/adapt` and `/v1/batch`
//!
//! * `objective=fidelity|idle|combined` — solver objective
//! * `times=d0|d1` — hardware gate-time column
//! * `coupling=line|ring|star|starmon5|all` — constrain two-qubit gates to
//!   a coupling topology sized per circuit (`starmon5` is the fixed
//!   5-qubit Starmon-5 device); the solver routes uncoupled gates with
//!   SWAP insertions and the response gains a `routed` count
//! * `exact=1` — run the search to proven optimality
//! * `budget=N` — total SAT conflict cap (N ≥ 1)
//! * `deadline_ms=N` — wall-clock deadline: maps to a deterministic
//!   conflict budget ([`AdaptLimits::for_deadline`]) *and* a watchdog-armed
//!   cancellation flag; an expired deadline degrades the result
//!   (`optimal=false`), it does not error
//! * `verify=0|1`, `lint=0|1`, `deny_warnings=0|1` — per-request overrides
//!   of the server-wide policy
//! * `trace=1` — record this request's span forest, retrievable at
//!   `/v1/trace/<request_id>`
//! * `circuit=0` — omit the adapted QASM from the response
//! * `hold_ms=N` — hold the worker for N ms before solving (load-testing
//!   affordance used by `qca-load` and the drain CI gate; capped at 30 s)
//!
//! # The event loop
//!
//! One thread owns every connection. Sockets are nonblocking and
//! multiplexed through [`Poller`] (epoll on Linux, `poll(2)` elsewhere);
//! each connection is a small state machine — *reading* a request
//! incrementally through [`RequestParser`], *busy* while its jobs run on
//! the [`EnginePool`] (read interest off, so a slow solver never admits
//! pipelined work it cannot answer), or *writing* a queued response.
//! Workers, recalibration threads, and peer-forwarding threads never touch
//! sockets: they push a `Completion` over a channel and poke a
//! self-pipe [`Waker`], and the loop marries completions back to
//! connections by token, ignoring any whose request has since timed out
//! or vanished. Admission (pool submit) is therefore fully decoupled from
//! execution — the loop answers `429` from a full queue in microseconds
//! while thousands of keep-alive connections stay parked at no cost.
//!
//! # Sharding and persistence
//!
//! With `--peers`, cache keys are partitioned over a [`ShardRing`]; a
//! single-circuit request whose key belongs to another node is proxied to
//! it (marked `X-QCA-Forwarded` to stop loops) and the peer's answer is
//! relayed verbatim; transport failure falls back to solving locally.
//! With `--store`, the engine persists results through `qca-store` and
//! warm-restarts from it; the drain path flushes the WAL before exit.
//!
//! # Admission control and drain
//!
//! The submission queue is bounded. A request that finds it full is
//! answered `429` immediately — the loop never blocks on solver capacity.
//! The `Retry-After` hint is derived from the current queue depth and the
//! observed mean per-job wall time (floor 1 s, cap 600 s). On shutdown
//! the server drops its listener (new connections are refused at the
//! kernel), answers new adaptation requests on live connections with
//! `503`, finishes every job already admitted, flushes the store WAL, and
//! writes the final metrics. See `DESIGN.md` for the full state machine.

use crate::client::Connection;
use crate::http::{ParseError, Request, RequestParser, Response, DEFAULT_MAX_HEAD};
use crate::json;
use crate::poller::{Event, Interest, Poller, Waker};
use qca_adapt::deadline::Watchdog;
use qca_adapt::AdaptLimits;
use qca_adapt::Objective;
use qca_circuit::{qasm, Circuit};
use qca_engine::cache::AdaptCache;
use qca_engine::{AdaptJob, AdaptReport, Engine, EngineConfig, EnginePool, JobPolicy, SubmitError};
use qca_hw::{spin_qubit_model, CouplingMap, GateTimes, HardwareModel};
use qca_store::{ShardRing, Store};
use qca_trace::json::Json;
use qca_trace::{jsonl, MemorySink, ScopeGuard, ScopedSink, Span, Tracer};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Event-loop tick: the upper bound on how stale the shutdown flag, the
/// request-timeout scan, and the idle-connection scan can be.
const TICK: Duration = Duration::from_millis(50);

/// Hard cap on the `hold_ms` load-testing affordance.
const MAX_HOLD: Duration = Duration::from_secs(30);

/// Keep-alive connections idle longer than this are closed to reclaim
/// their descriptor.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Poller token of the accept listener.
const LISTENER_TOKEN: u64 = 0;
/// Poller token of the completion-channel waker.
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Server configuration. `Default` is suitable for tests and local runs
/// (ephemeral port, one worker per CPU, no persistence, no peers).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Solver worker threads (0: one per CPU).
    pub workers: usize,
    /// Bounded submission-queue capacity (jobs admitted but not started).
    pub queue_capacity: usize,
    /// Adaptation cache capacity (see [`EngineConfig::cache_capacity`]).
    pub cache_capacity: usize,
    /// Server-wide default for trust-but-verify audits.
    pub verify: bool,
    /// Server-wide default for the lint preflight.
    pub lint: bool,
    /// Server-wide default for warning escalation.
    pub deny_warnings: bool,
    /// Deadline applied to requests that do not pass `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Hard cap on how long a request waits for its pool completions
    /// before answering `504` and cancelling the jobs.
    pub request_timeout: Duration,
    /// Budget for reading one request (head + body) off a connection,
    /// measured from its first byte.
    pub read_timeout: Duration,
    /// Budget for flushing a response without any write progress.
    pub write_timeout: Duration,
    /// Maximum request body size in bytes.
    pub max_body: usize,
    /// How many `?trace=1` request traces the in-memory ring retains.
    pub trace_capacity: usize,
    /// Where to write the final metrics JSON during drain.
    pub metrics_out: Option<PathBuf>,
    /// Racing-portfolio escalation members (see
    /// [`EngineConfig::portfolio_members`]; 0 disables).
    pub portfolio_members: usize,
    /// Directory for the persistent adaptation store (`None`: in-memory
    /// cache only). Opened — and warm-replayed into the cache — at bind.
    pub store_dir: Option<PathBuf>,
    /// Shard-ring peer addresses, one per node slot, in ring order. Empty
    /// disables sharding; the slot for this node (or any node that should
    /// never be forwarded to) may be `"-"`.
    pub peers: Vec<String>,
    /// This node's slot in [`ServeConfig::peers`].
    pub node_id: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 16,
            cache_capacity: 256,
            verify: false,
            lint: false,
            deny_warnings: false,
            default_deadline: None,
            request_timeout: Duration::from_secs(120),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: crate::http::DEFAULT_MAX_BODY,
            trace_capacity: 64,
            metrics_out: None,
            portfolio_members: 0,
            store_dir: None,
            peers: Vec::new(),
            node_id: 0,
        }
    }
}

/// Request/response counters for the HTTP layer (solver-side counters live
/// in the engine's own [`MetricsRegistry`](qca_engine::metrics::MetricsRegistry)).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests dispatched (any endpoint).
    pub requests: AtomicU64,
    /// `2xx` responses.
    pub ok: AtomicU64,
    /// `4xx` responses other than 429.
    pub client_errors: AtomicU64,
    /// `429` admission-control rejections.
    pub rejected: AtomicU64,
    /// `503` responses (draining).
    pub unavailable: AtomicU64,
    /// `504` request-timeout responses.
    pub timeouts: AtomicU64,
    /// `5xx` responses other than 503/504.
    pub server_errors: AtomicU64,
    /// Requests proxied to the shard-owning peer.
    pub forwarded: AtomicU64,
}

impl ServeMetrics {
    fn record(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.ok,
            429 => &self.rejected,
            400..=499 => &self.client_errors,
            503 => &self.unavailable,
            504 => &self.timeouts,
            _ => &self.server_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::obj([
            ("requests", load(&self.requests)),
            ("ok", load(&self.ok)),
            ("client_errors", load(&self.client_errors)),
            ("rejected_429", load(&self.rejected)),
            ("unavailable_503", load(&self.unavailable)),
            ("timeouts_504", load(&self.timeouts)),
            ("server_errors", load(&self.server_errors)),
            ("forwarded", load(&self.forwarded)),
        ])
    }
}

/// Bounded ring of per-request JSONL traces, served by `/v1/trace/:id`.
#[derive(Debug)]
struct TraceStore {
    ring: Mutex<VecDeque<(String, String)>>,
    capacity: usize,
}

impl TraceStore {
    fn new(capacity: usize) -> TraceStore {
        TraceStore {
            ring: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    fn insert(&self, id: String, trace: String) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("trace store poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((id, trace));
    }

    fn get(&self, id: &str) -> Option<String> {
        let ring = self.ring.lock().expect("trace store poisoned");
        ring.iter().find(|(k, _)| k == id).map(|(_, v)| v.clone())
    }
}

/// A named coupling-topology family from the `coupling=` query parameter,
/// sized per circuit at submission time (Starmon-5 is a fixed 5-qubit
/// device).
#[derive(Clone, Copy)]
enum CouplingKind {
    Line,
    Ring,
    Star,
    Starmon5,
    AllToAll,
}

impl CouplingKind {
    fn build(self, num_qubits: usize) -> CouplingMap {
        match self {
            CouplingKind::Line => CouplingMap::line(num_qubits),
            CouplingKind::Ring => CouplingMap::ring(num_qubits),
            CouplingKind::Star => CouplingMap::star(num_qubits),
            CouplingKind::Starmon5 => CouplingMap::starmon5(),
            CouplingKind::AllToAll => CouplingMap::all_to_all(num_qubits),
        }
    }
}

/// Per-request knobs decoded from the query string. Cloned into the
/// forwarding fallback so a failed proxy attempt can be re-solved locally.
#[derive(Clone)]
struct RequestOptions {
    objective: Objective,
    times: GateTimes,
    coupling: Option<CouplingKind>,
    exact: bool,
    budget: Option<u64>,
    deadline: Option<Duration>,
    policy: JobPolicy,
    trace: bool,
    include_circuit: bool,
    hold: Duration,
}

/// One connection's state machine. `busy` means a request is in flight on
/// the pool (or a peer): read interest is off, so pipelined bytes sit in
/// the kernel until the response is flushed.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialized response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    busy: bool,
    /// Monotonic per-connection request number; completions carry it so a
    /// late completion from a timed-out request cannot answer a newer one.
    seq: u64,
    last_activity: Instant,
    /// Set when the first bytes of a request arrive, cleared when it
    /// parses; drives the mid-request `408` read timeout.
    reading_since: Option<Instant>,
    close_after_write: bool,
    interest: Interest,
}

/// An admitted request waiting for its completions, keyed by connection
/// token (one in-flight request per connection by construction).
struct Pending {
    id: String,
    req_seq: u64,
    batch: bool,
    include_circuit: bool,
    awaiting: usize,
    reports: Vec<Option<AdaptReport>>,
    cancels: Vec<Arc<AtomicBool>>,
    /// `None` while proxied to a peer or recalibrating (the thread bounds
    /// its own time); `Some` for pool-submitted work.
    deadline: Option<Instant>,
    root: Option<Span>,
    trace_sink: Option<Arc<MemorySink>>,
    keep_alive: bool,
    /// Circuits + options kept aside while forwarding, so a transport
    /// failure can fall back to a local solve.
    fallback: Option<(Vec<Circuit>, RequestOptions)>,
}

/// What worker/recalibration/forwarding threads send back to the loop.
enum Completion {
    /// One pool job finished.
    Job {
        conn: u64,
        req_seq: u64,
        index: usize,
        report: AdaptReport,
    },
    /// A whole response is ready (recalibration, or a peer's relayed
    /// answer).
    Http {
        conn: u64,
        req_seq: u64,
        response: Response,
    },
    /// The proxy attempt failed at the transport level; solve locally.
    ForwardFailed { conn: u64, req_seq: u64 },
}

/// Everything the event loop owns. Lives on the stack of [`Server::run`];
/// helper methods borrow it alongside `&self`.
struct LoopState {
    poller: Poller,
    waker: Arc<Waker>,
    tx: mpsc::Sender<Completion>,
    conns: HashMap<u64, Conn>,
    pending: HashMap<u64, Pending>,
    next_token: u64,
}

enum WriteOutcome {
    Flushed,
    Blocked,
    Dead,
}

/// The adaptation service. Construct with [`Server::bind`], then [`run`]
/// until a shutdown flag is raised.
///
/// [`run`]: Server::run
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    /// Taken (and dropped at drain start, so the kernel refuses new
    /// connections) by [`Server::run`].
    listener: Option<TcpListener>,
    engine: Arc<Engine>,
    pool: EnginePool,
    watchdog: Watchdog,
    hw_d0: Arc<HardwareModel>,
    hw_d1: Arc<HardwareModel>,
    metrics: Arc<ServeMetrics>,
    traces: TraceStore,
    tracer: Tracer,
    ring: Option<ShardRing>,
    next_id: AtomicU64,
    draining: AtomicBool,
    /// Total wall time of completed jobs (ms) and their count, feeding the
    /// derived `Retry-After` hint on 429 responses.
    job_wall_ms: AtomicU64,
    jobs_done: AtomicU64,
}

impl Server {
    /// Binds the listener, opens the persistent store when configured
    /// (warm-replaying it into the cache), and starts the worker pool
    /// (idle until requests arrive). The engine's tracer is a
    /// [`ScopedSink`], so span forests land in per-request buffers for
    /// `?trace=1` requests and are discarded otherwise — while
    /// `engine.*`/`serve.*`/`store.*` counters always feed the metrics
    /// registry.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the engine configuration
    /// derived from `config` fails [`EngineConfig::validate`] (checked
    /// before anything is bound or opened); otherwise the bind or store
    /// open error.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let mut engine_config = EngineConfig {
            workers: config.workers,
            cache_capacity: config.cache_capacity,
            job_conflict_budget: None,
            job_timeout: None,
            tracer: Tracer::new(Arc::new(ScopedSink::new())),
            verify: config.verify,
            lint: config.lint,
            deny_warnings: config.deny_warnings,
            portfolio_members: config.portfolio_members,
            preprocess: true,
            store: None,
        };
        engine_config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        if let Some(dir) = &config.store_dir {
            engine_config.store = Some(Arc::new(Store::open(dir)?));
        }
        let engine = Arc::new(Engine::new(engine_config));
        let pool = EnginePool::new(
            engine.clone(),
            engine.effective_workers(),
            config.queue_capacity,
        );
        // serve.request spans go through the engine's teed tracer so the
        // metrics registry sees them alongside engine.* events.
        let tracer = engine.tracer().clone();
        let ring = (!config.peers.is_empty()).then(|| ShardRing::new(config.peers.len()));
        Ok(Server {
            traces: TraceStore::new(config.trace_capacity),
            config,
            listener: Some(listener),
            engine,
            pool,
            watchdog: Watchdog::new(),
            hw_d0: Arc::new(spin_qubit_model(GateTimes::D0)),
            hw_d1: Arc::new(spin_qubit_model(GateTimes::D1)),
            metrics: Arc::new(ServeMetrics::default()),
            tracer,
            ring,
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            job_wall_ms: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.listener {
            Some(listener) => listener.local_addr(),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener already taken by run()",
            )),
        }
    }

    /// The HTTP-layer metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Serves until `shutdown` becomes `true`, then drains: drop the
    /// listener, let in-flight requests and admitted jobs finish, join the
    /// pool, flush the store WAL, and write the final metrics JSON (when
    /// configured). Returns once the drain is complete.
    pub fn run(mut self, shutdown: &AtomicBool) -> io::Result<()> {
        let listener = self.listener.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "run() may only be called once")
        })?;
        listener.set_nonblocking(true)?;
        let waker = Arc::new(Waker::new()?);
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        let (tx, rx) = mpsc::channel::<Completion>();
        let mut st = LoopState {
            poller,
            waker,
            tx,
            conns: HashMap::new(),
            pending: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        };
        let mut listener = Some(listener);
        let mut events: Vec<Event> = Vec::new();

        loop {
            st.poller.wait(&mut events, Some(TICK))?;
            for event in events.drain(..) {
                match event.token {
                    LISTENER_TOKEN => {
                        if let Some(listener) = &listener {
                            self.accept_ready(&mut st, listener);
                        }
                    }
                    WAKER_TOKEN => st.waker.drain(),
                    token => {
                        if !st.conns.contains_key(&token) {
                            continue;
                        }
                        if event.writable {
                            self.drive_write(&mut st, token);
                        }
                        if event.readable {
                            self.drive_read(&mut st, token);
                        } else if event.hangup {
                            // ERR/HUP (or RDHUP with nothing readable):
                            // the peer is gone; cancel whatever it was
                            // waiting for.
                            self.close_conn(&mut st, token);
                        }
                    }
                }
            }
            while let Ok(completion) = rx.try_recv() {
                self.on_completion(&mut st, completion);
            }
            self.check_timers(&mut st);
            if shutdown.load(Ordering::SeqCst) && !self.draining.load(Ordering::SeqCst) {
                self.draining.store(true, Ordering::SeqCst);
                // Dropping the listener makes the kernel refuse new
                // connections immediately (not just leave them unaccepted
                // in the backlog).
                let _ = st.poller.deregister(LISTENER_TOKEN);
                listener = None;
            }
            if self.draining.load(Ordering::SeqCst) {
                let idle: Vec<u64> = st
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.busy && c.out.is_empty() && c.parser.is_idle())
                    .map(|(&t, _)| t)
                    .collect();
                for token in idle {
                    self.close_conn(&mut st, token);
                }
                if st.conns.is_empty() {
                    break;
                }
            }
        }
        // Every connection is closed; finish every admitted job, then make
        // the store durable before reporting final metrics.
        self.pool.drain();
        if let Some(store) = self.engine.store() {
            let _ = store.flush();
        }
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, self.metrics_json().to_string_compact() + "\n")?;
        }
        Ok(())
    }

    /// The `/metrics` payload: HTTP counters, the engine registry, cache
    /// shard occupancy, and persistent-store statistics.
    pub fn metrics_json(&self) -> Json {
        let shards = self.engine.cache().shard_stats();
        let occupancy: Vec<usize> = shards.iter().map(|&(occupancy, _)| occupancy).collect();
        let cache = Json::obj([
            ("entries", occupancy.iter().sum::<usize>().into()),
            (
                "capacity",
                shards.iter().map(|&(_, cap)| cap).sum::<usize>().into(),
            ),
            ("shards", occupancy.into()),
        ]);
        Json::obj([
            ("server", self.metrics.to_json()),
            ("engine", self.engine.metrics().to_json()),
            ("cache", cache),
            ("store", self.store_json()),
        ])
    }

    fn store_json(&self) -> Json {
        let Some(store) = self.engine.store() else {
            return Json::Null;
        };
        let s = store.stats();
        Json::obj([
            ("hits", s.hits.into()),
            ("misses", s.misses.into()),
            ("replays", s.replays.into()),
            ("compactions", s.compactions.into()),
            ("recovered_dropped_bytes", s.recovered_dropped_bytes.into()),
            ("live_records", s.live_records.into()),
            ("wal_records", s.wal_records.into()),
            ("wal_bytes", s.wal_bytes.into()),
        ])
    }

    // ------------------------------------------------------------------
    // Event-loop plumbing
    // ------------------------------------------------------------------

    fn accept_ready(&self, st: &mut LoopState, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = st.next_token;
                    st.next_token += 1;
                    if st
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    st.conns.insert(
                        token,
                        Conn {
                            stream,
                            parser: RequestParser::with_limits(
                                DEFAULT_MAX_HEAD,
                                self.config.max_body,
                            ),
                            out: Vec::new(),
                            out_pos: 0,
                            busy: false,
                            seq: 0,
                            last_activity: Instant::now(),
                            reading_since: None,
                            close_after_write: false,
                            interest: Interest::READ,
                        },
                    );
                    self.drive_read(st, token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Parses buffered bytes and reads more until the socket would block,
    /// handing each complete request to the router. Stops as soon as the
    /// connection goes busy, starts flushing a response, or closes.
    fn drive_read(&self, st: &mut LoopState, token: u64) {
        let mut chunk = [0u8; 16384];
        loop {
            let Some(conn) = st.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || !conn.out.is_empty() || conn.close_after_write {
                return;
            }
            // A pipelined request may already be buffered in full.
            match conn.parser.feed(&[]) {
                Ok(Some(request)) => {
                    conn.reading_since = None;
                    conn.last_activity = Instant::now();
                    self.on_request(st, token, request);
                    continue;
                }
                Ok(None) => {}
                Err(e) => {
                    self.parse_error(st, token, &e);
                    return;
                }
            }
            let Some(conn) = st.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close_conn(st, token);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    match conn.parser.feed(&chunk[..n]) {
                        Ok(Some(request)) => {
                            conn.reading_since = None;
                            self.on_request(st, token, request);
                        }
                        Ok(None) => {
                            if !conn.parser.is_idle() {
                                conn.reading_since.get_or_insert_with(Instant::now);
                            }
                        }
                        Err(e) => {
                            self.parse_error(st, token, &e);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(st, token);
                    return;
                }
            }
        }
    }

    /// Flushes queued response bytes; arms write interest when the socket
    /// blocks, resumes reading (including pipelined requests) when done.
    fn drive_write(&self, st: &mut LoopState, token: u64) {
        let (outcome, close_after) = {
            let Some(conn) = st.conns.get_mut(&token) else {
                return;
            };
            let outcome = loop {
                if conn.out_pos >= conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    break WriteOutcome::Flushed;
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => break WriteOutcome::Dead,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        break WriteOutcome::Blocked;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break WriteOutcome::Dead,
                }
            };
            (outcome, conn.close_after_write)
        };
        match outcome {
            WriteOutcome::Dead => self.close_conn(st, token),
            WriteOutcome::Blocked => self.set_interest(st, token, Interest::WRITE),
            WriteOutcome::Flushed => {
                if close_after {
                    self.close_conn(st, token);
                } else {
                    self.set_interest(st, token, Interest::READ);
                    self.drive_read(st, token);
                }
            }
        }
    }

    fn set_interest(&self, st: &mut LoopState, token: u64, interest: Interest) {
        if let Some(conn) = st.conns.get_mut(&token) {
            if conn.interest != interest {
                conn.interest = interest;
                let _ = st.poller.modify(token, interest);
            }
        }
    }

    /// Closes a connection, cancelling any request it was waiting on.
    fn close_conn(&self, st: &mut LoopState, token: u64) {
        if let Some(pending) = st.pending.remove(&token) {
            for flag in &pending.cancels {
                flag.store(true, Ordering::SeqCst);
            }
        }
        let _ = st.poller.deregister(token);
        st.conns.remove(&token);
    }

    fn parse_error(&self, st: &mut LoopState, token: u64, e: &ParseError) {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let response = Response::json(e.status(), json::error_body(&e.to_string()));
        self.queue_response(st, token, response, false);
    }

    /// Records, serializes, and starts flushing a response. `keep_alive:
    /// false` closes the connection once the bytes are out.
    fn queue_response(&self, st: &mut LoopState, token: u64, response: Response, keep_alive: bool) {
        self.metrics.record(response.status);
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        conn.busy = false;
        if !keep_alive {
            conn.close_after_write = true;
        }
        let bytes = response.serialize(keep_alive);
        conn.out.extend_from_slice(&bytes);
        self.drive_write(st, token);
    }

    /// Parks a connection while its request runs elsewhere: no read
    /// interest (pipelined bytes wait in the kernel), but hangups still
    /// arrive so a dead client cancels its work.
    fn park_busy(&self, st: &mut LoopState, token: u64) {
        if let Some(conn) = st.conns.get_mut(&token) {
            conn.busy = true;
        }
        self.set_interest(st, token, Interest::NONE);
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    fn on_request(&self, st: &mut LoopState, token: u64, request: Request) {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.wants_keep_alive() && !self.draining.load(Ordering::SeqCst);
        let seq = match st.conns.get_mut(&token) {
            Some(conn) => {
                conn.seq += 1;
                conn.seq
            }
            None => return,
        };
        let respond = |server: &Server, st: &mut LoopState, response: Response| {
            server.queue_response(st, token, response, keep_alive);
        };
        match (request.method.as_str(), request.path()) {
            ("GET", "/healthz") => respond(self, st, self.healthz()),
            ("GET", "/metrics") => respond(self, st, Response::json(200, self.metrics_json())),
            ("GET", path) if path.starts_with("/v1/trace/") => {
                let id = &path["/v1/trace/".len()..];
                let response = match self.traces.get(id) {
                    Some(trace) => Response::new(200)
                        .with_header("Content-Type", "application/x-ndjson")
                        .with_body(trace.into_bytes()),
                    None => Response::json(404, json::error_body("no trace for that id")),
                };
                respond(self, st, response);
            }
            ("POST", "/v1/adapt") => self.adapt(st, token, seq, &request, false, keep_alive),
            ("POST", "/v1/batch") => self.adapt(st, token, seq, &request, true, keep_alive),
            ("POST", "/v1/recalibrate") => self.recalibrate(st, token, seq, &request, keep_alive),
            (_, "/healthz" | "/metrics" | "/v1/adapt" | "/v1/batch" | "/v1/recalibrate") => {
                respond(
                    self,
                    st,
                    Response::json(405, json::error_body("method not allowed")),
                );
            }
            (_, path) if path.starts_with("/v1/trace/") => {
                respond(
                    self,
                    st,
                    Response::json(405, json::error_body("method not allowed")),
                );
            }
            _ => respond(
                self,
                st,
                Response::json(404, json::error_body("no such endpoint")),
            ),
        }
    }

    fn healthz(&self) -> Response {
        let state = if self.draining.load(Ordering::SeqCst) {
            "draining"
        } else {
            "running"
        };
        Response::json(
            200,
            Json::obj([
                ("status", "ok".into()),
                ("state", state.into()),
                ("queued", self.pool.queued().into()),
                ("queue_capacity", self.pool.capacity().into()),
                ("node_id", self.config.node_id.into()),
                ("peers", self.config.peers.len().into()),
                ("store", self.store_json()),
            ]),
        )
    }

    /// `POST /v1/recalibrate` — walk the engine's cached corpus against a
    /// (possibly perturbed) hardware model, reusing entries whose optimum
    /// still certifies and warm-re-solving the rest. Runs on a dedicated
    /// thread (never competes with adaptation jobs for pool slots, so it
    /// cannot be starved into a 429) and completes through the loop.
    fn recalibrate(
        &self,
        st: &mut LoopState,
        token: u64,
        seq: u64,
        request: &Request,
        keep_alive: bool,
    ) {
        if self.draining.load(Ordering::SeqCst) {
            let response = Response::json(503, json::error_body("server is draining"));
            return self.queue_response(st, token, response, keep_alive);
        }
        let bad = |msg: String| Response::json(400, json::error_body(&msg));
        let hw = match request.query_param("times") {
            None | Some("d0") => self.hw_d0.clone(),
            Some("d1") => self.hw_d1.clone(),
            Some(other) => {
                return self.queue_response(
                    st,
                    token,
                    bad(format!("unknown times column {other:?}")),
                    keep_alive,
                )
            }
        };
        let hw = match request.query_param("perturb") {
            None => hw,
            Some(raw) => match raw.parse::<f64>() {
                Ok(factor) if factor.is_finite() && factor >= 0.0 => {
                    Arc::new(hw.with_scaled_infidelity(factor))
                }
                _ => {
                    return self.queue_response(
                        st,
                        token,
                        bad(format!("bad perturbation factor {raw:?}")),
                        keep_alive,
                    )
                }
            },
        };
        st.pending.insert(
            token,
            Pending {
                id: String::new(),
                req_seq: seq,
                batch: false,
                include_circuit: false,
                awaiting: 0,
                reports: Vec::new(),
                cancels: Vec::new(),
                deadline: None,
                root: None,
                trace_sink: None,
                keep_alive,
                fallback: None,
            },
        );
        self.park_busy(st, token);
        let engine = self.engine.clone();
        let tracer = self.tracer.clone();
        let tx = st.tx.clone();
        let waker = st.waker.clone();
        std::thread::spawn(move || {
            let mut root = tracer.span("serve.recalibrate");
            let report = engine.recalibrate(&hw);
            root.set_note(format!(
                "entries={} reused={} resolved={} failed={}",
                report.entries, report.reused, report.resolved, report.failed
            ));
            drop(root);
            let response = Response::json(
                200,
                Json::obj([
                    ("entries", report.entries.into()),
                    ("reused", report.reused.into()),
                    ("resolved", report.resolved.into()),
                    ("failed", report.failed.into()),
                ]),
            );
            let _ = tx.send(Completion::Http {
                conn: token,
                req_seq: seq,
                response,
            });
            waker.wake();
        });
    }

    fn request_options(&self, request: &Request) -> Result<RequestOptions, Response> {
        let bad = |msg: String| Response::json(400, json::error_body(&msg));
        let parse_bool = |name: &str, default: bool| -> Result<bool, Response> {
            match request.query_param(name) {
                None => Ok(default),
                Some("1") | Some("true") => Ok(true),
                Some("0") | Some("false") => Ok(false),
                Some(other) => Err(bad(format!("bad boolean for {name}: {other:?}"))),
            }
        };
        let parse_u64 = |name: &str| -> Result<Option<u64>, Response> {
            match request.query_param(name) {
                None => Ok(None),
                Some(v) => v
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| bad(format!("bad integer for {name}: {v:?}"))),
            }
        };
        let objective = match request.query_param("objective") {
            None | Some("fidelity") => Objective::Fidelity,
            Some("idle") => Objective::IdleTime,
            Some("combined") => Objective::Combined,
            Some(other) => return Err(bad(format!("unknown objective {other:?}"))),
        };
        let times = match request.query_param("times") {
            None | Some("d0") => GateTimes::D0,
            Some("d1") => GateTimes::D1,
            Some(other) => return Err(bad(format!("unknown times column {other:?}"))),
        };
        let deadline = match parse_u64("deadline_ms")? {
            Some(ms) => Some(Duration::from_millis(ms.max(1))),
            None => self.config.default_deadline,
        };
        let coupling = match request.query_param("coupling") {
            None => None,
            Some("line") => Some(CouplingKind::Line),
            Some("ring") => Some(CouplingKind::Ring),
            Some("star") => Some(CouplingKind::Star),
            Some("starmon5") => Some(CouplingKind::Starmon5),
            Some("all") => Some(CouplingKind::AllToAll),
            Some(other) => return Err(bad(format!("unknown coupling topology {other:?}"))),
        };
        let budget = match parse_u64("budget")? {
            Some(0) => {
                return Err(bad(
                    "budget=0 can never make progress; omit it for unlimited".to_string(),
                ))
            }
            budget => budget,
        };
        let deny_warnings = parse_bool("deny_warnings", self.config.deny_warnings)?;
        Ok(RequestOptions {
            objective,
            times,
            coupling,
            exact: parse_bool("exact", false)?,
            budget,
            deadline,
            policy: JobPolicy {
                verify: parse_bool("verify", self.config.verify)?,
                lint: parse_bool("lint", self.config.lint || deny_warnings)?,
                deny_warnings,
            },
            trace: parse_bool("trace", false)?,
            include_circuit: parse_bool("circuit", true)?,
            hold: Duration::from_millis(parse_u64("hold_ms")?.unwrap_or(0)).min(MAX_HOLD),
        })
    }

    /// `POST /v1/adapt` and `POST /v1/batch`: parse, then either proxy to
    /// the shard-owning peer or submit to the pool; either way the
    /// connection parks until a [`Completion`] arrives.
    fn adapt(
        &self,
        st: &mut LoopState,
        token: u64,
        seq: u64,
        request: &Request,
        batch: bool,
        keep_alive: bool,
    ) {
        if self.draining.load(Ordering::SeqCst) {
            let response = Response::json(503, json::error_body("server is draining"));
            return self.queue_response(st, token, response, keep_alive);
        }
        let id = format!("req-{}", self.next_id.fetch_add(1, Ordering::SeqCst) + 1);
        let options = match self.request_options(request) {
            Ok(options) => options,
            Err(response) => return self.queue_response(st, token, response, keep_alive),
        };
        let body = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => {
                let response = Response::json(400, json::error_body("body is not UTF-8"));
                return self.queue_response(st, token, response, keep_alive);
            }
        };
        let sources: Vec<String> = if batch {
            split_batch(body)
        } else {
            vec![body.to_string()]
        };
        if sources.is_empty() {
            let response = Response::json(400, json::error_body("empty request body"));
            return self.queue_response(st, token, response, keep_alive);
        }
        let mut circuits = Vec::with_capacity(sources.len());
        for (index, source) in sources.iter().enumerate() {
            match qasm::parse_qasm(source) {
                Ok(circuit) => circuits.push(circuit),
                Err(e) => {
                    let msg = if batch {
                        format!("circuit {index}: {e}")
                    } else {
                        e.to_string()
                    };
                    let response = Response::json(400, json::error_body(&msg));
                    return self.queue_response(st, token, response, keep_alive);
                }
            }
        }

        let trace_sink = options.trace.then(|| Arc::new(MemorySink::new()));
        // Everything recorded on this thread while the guard lives —
        // including the serve.request root span dropping at finish — lands
        // in the request's buffer; counters always reach the metrics
        // registry through the tracer's tee.
        let scope = enter_scope(trace_sink.as_ref());
        let mut root = self.tracer.span_with("serve.request", || {
            format!("id={id} path={}", request.path())
        });
        self.tracer.counter("serve.requests", 1);

        if !batch {
            if let Some(peer) = self.forward_target(&circuits[0], &options, request) {
                self.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
                root.set_note(format!("forwarded to {peer}"));
                drop(scope);
                st.pending.insert(
                    token,
                    Pending {
                        id,
                        req_seq: seq,
                        batch,
                        include_circuit: options.include_circuit,
                        awaiting: 0,
                        reports: Vec::new(),
                        cancels: Vec::new(),
                        deadline: None,
                        root: Some(root),
                        trace_sink,
                        keep_alive,
                        fallback: Some((circuits, options)),
                    },
                );
                self.park_busy(st, token);
                self.spawn_forward(
                    st,
                    token,
                    seq,
                    peer,
                    request.target.clone(),
                    request.body.clone(),
                );
                return;
            }
        }

        let outcome = self.submit_jobs(
            st.tx.clone(),
            st.waker.clone(),
            token,
            seq,
            circuits,
            &options,
            batch,
            trace_sink.as_ref(),
        );
        match outcome {
            Err(response) => {
                root.set_note(response.status.to_string());
                drop(root);
                drop(scope);
                if let Some(sink) = trace_sink {
                    self.traces.insert(id, jsonl::to_jsonl_string(&sink.take()));
                }
                self.queue_response(st, token, response, keep_alive);
            }
            Ok((reports, submitted, cancels)) => {
                drop(scope);
                st.pending.insert(
                    token,
                    Pending {
                        id,
                        req_seq: seq,
                        batch,
                        include_circuit: options.include_circuit,
                        awaiting: submitted,
                        reports,
                        cancels,
                        deadline: Some(Instant::now() + self.config.request_timeout),
                        root: Some(root),
                        trace_sink,
                        keep_alive,
                        fallback: None,
                    },
                );
                self.park_busy(st, token);
            }
        }
    }

    /// Builds one pool job (without its cancellation flag) exactly as it
    /// will be solved — also the basis for the shard-routing cache key, so
    /// every node hashes identical requests identically.
    fn make_job(&self, circuit: Circuit, options: &RequestOptions) -> AdaptJob {
        let num_qubits = circuit.num_qubits();
        let mut job = AdaptJob::new(circuit);
        job.options.objective = options.objective;
        job.options.exact = options.exact;
        job.options.coupling = options.coupling.map(|k| k.build(num_qubits));
        // Deadline → deterministic conflict budget; an explicit budget
        // param wins. The wall-clock side is the watchdog-armed flag.
        job.limits.total_conflicts = match (options.budget, options.deadline) {
            (Some(budget), _) => Some(budget),
            (None, Some(deadline)) => AdaptLimits::for_deadline(deadline, None).total_conflicts,
            (None, None) => None,
        };
        job
    }

    /// Decides whether a single-circuit request belongs to a peer: ring
    /// configured, key owned by another node with a usable address, and
    /// not already a forwarded hop (`X-QCA-Forwarded` stops loops).
    fn forward_target(
        &self,
        circuit: &Circuit,
        options: &RequestOptions,
        request: &Request,
    ) -> Option<String> {
        let ring = self.ring.as_ref()?;
        if request.header("x-qca-forwarded").is_some() {
            return None;
        }
        let hw = match options.times {
            GateTimes::D0 => &self.hw_d0,
            GateTimes::D1 => &self.hw_d1,
        };
        let job = self.make_job(circuit.clone(), options);
        let key = AdaptCache::key(&job.circuit, hw, &job.options, &job.limits);
        let owner = ring.owner(key);
        if owner == self.config.node_id {
            return None;
        }
        let peer = self.config.peers.get(owner)?;
        if peer == "-" {
            return None;
        }
        Some(peer.clone())
    }

    /// Proxies the raw request to `peer` on a fresh thread; the relayed
    /// response (or a transport-failure fallback marker) comes back as a
    /// [`Completion`].
    fn spawn_forward(
        &self,
        st: &LoopState,
        token: u64,
        seq: u64,
        peer: String,
        target: String,
        body: Vec<u8>,
    ) {
        let tx = st.tx.clone();
        let waker = st.waker.clone();
        let read_timeout = self.config.request_timeout;
        std::thread::spawn(move || {
            let completion = match forward_once(&peer, &target, &body, read_timeout) {
                Some(response) => Completion::Http {
                    conn: token,
                    req_seq: seq,
                    response,
                },
                None => Completion::ForwardFailed {
                    conn: token,
                    req_seq: seq,
                },
            };
            let _ = tx.send(completion);
            waker.wake();
        });
    }

    /// The `Retry-After` hint for 429 responses: the backlog (at least one
    /// job — the one just rejected) times the observed mean per-job wall
    /// time, defaulting to one second before any job has completed.
    /// Floored at 1 s so clients never busy-loop, capped at 600 s so a few
    /// pathological solves cannot push the hint into absurdity.
    fn retry_after_secs(&self) -> u64 {
        let done = self.jobs_done.load(Ordering::Relaxed);
        let avg_ms = self
            .job_wall_ms
            .load(Ordering::Relaxed)
            .checked_div(done)
            .map_or(1000, |avg| avg.max(1));
        let backlog = (self.pool.queued() as u64).max(1);
        (backlog * avg_ms).div_ceil(1000).clamp(1, 600)
    }

    /// Submits the parsed circuits through the pool. Each finished job
    /// sends a [`Completion::Job`] and wakes the loop. Returns the empty
    /// report slots, the number admitted, and the cancellation flags —
    /// or the immediate error response (429 queue-full / 503 draining).
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::type_complexity)]
    fn submit_jobs(
        &self,
        tx: mpsc::Sender<Completion>,
        waker: Arc<Waker>,
        conn: u64,
        req_seq: u64,
        circuits: Vec<Circuit>,
        options: &RequestOptions,
        batch: bool,
        trace_sink: Option<&Arc<MemorySink>>,
    ) -> Result<(Vec<Option<AdaptReport>>, usize, Vec<Arc<AtomicBool>>), Response> {
        let hw = match options.times {
            GateTimes::D0 => self.hw_d0.clone(),
            GateTimes::D1 => self.hw_d1.clone(),
        };
        let total = circuits.len();
        let mut cancels: Vec<Arc<AtomicBool>> = Vec::new();
        let mut submitted = 0usize;
        for (index, circuit) in circuits.into_iter().enumerate() {
            let mut job = self.make_job(circuit, options);
            let flag = match options.deadline {
                Some(deadline) => self.watchdog.arm(Instant::now() + options.hold + deadline),
                None => Arc::new(AtomicBool::new(false)),
            };
            cancels.push(flag.clone());
            job.cancel = Some(flag);
            let tx = tx.clone();
            let waker = waker.clone();
            let hw = hw.clone();
            let policy = options.policy;
            let hold = options.hold;
            let sink = trace_sink.cloned();
            let outcome = self.pool.try_submit_task(move |engine| {
                // Enter the request's trace scope on the worker thread, so
                // the engine's spans join the request's forest.
                let _scope = enter_scope(sink.as_ref());
                if !hold.is_zero() {
                    std::thread::sleep(hold);
                }
                let report = engine.adapt_one_with(&hw, &job, policy);
                let _ = tx.send(Completion::Job {
                    conn,
                    req_seq,
                    index,
                    report,
                });
                waker.wake();
            });
            match outcome {
                Ok(()) => submitted += 1,
                Err(SubmitError::QueueFull) => {
                    self.tracer.counter("serve.rejected", 1);
                    if !batch {
                        return Err(Response::json(
                            429,
                            json::error_body("submission queue is full"),
                        )
                        .with_header("Retry-After", &self.retry_after_secs().to_string()));
                    }
                    // Batch: the item keeps its `None` report slot and is
                    // reported as rejected in the results array.
                }
                Err(SubmitError::ShuttingDown) => {
                    return Err(Response::json(503, json::error_body("server is draining")));
                }
            }
        }
        if batch && submitted == 0 {
            return Err(
                Response::json(429, json::error_body("submission queue is full"))
                    .with_header("Retry-After", &self.retry_after_secs().to_string()),
            );
        }
        Ok(((0..total).map(|_| None).collect(), submitted, cancels))
    }

    // ------------------------------------------------------------------
    // Completions and timers
    // ------------------------------------------------------------------

    fn on_completion(&self, st: &mut LoopState, completion: Completion) {
        match completion {
            Completion::Job {
                conn,
                req_seq,
                index,
                report,
            } => {
                let Some(pending) = st.pending.get_mut(&conn) else {
                    return;
                };
                if pending.req_seq != req_seq {
                    return;
                }
                self.jobs_done.fetch_add(1, Ordering::Relaxed);
                self.job_wall_ms
                    .fetch_add(report.wall.as_millis() as u64, Ordering::Relaxed);
                if pending.reports[index].is_none() {
                    pending.awaiting = pending.awaiting.saturating_sub(1);
                }
                pending.reports[index] = Some(report);
                if pending.awaiting == 0 {
                    let pending = st.pending.remove(&conn).expect("pending present");
                    let response = self.render_reports(&pending);
                    self.finish_request(st, conn, pending, response);
                }
            }
            Completion::Http {
                conn,
                req_seq,
                response,
            } => {
                if st
                    .pending
                    .get(&conn)
                    .is_none_or(|pending| pending.req_seq != req_seq)
                {
                    return;
                }
                let pending = st.pending.remove(&conn).expect("pending present");
                self.finish_request(st, conn, pending, response);
            }
            Completion::ForwardFailed { conn, req_seq } => {
                let Some(pending) = st.pending.get_mut(&conn) else {
                    return;
                };
                if pending.req_seq != req_seq {
                    return;
                }
                let Some((circuits, options)) = pending.fallback.take() else {
                    return;
                };
                // The peer was unreachable: solve locally instead, inside
                // the request's trace scope so the spans stay attached.
                let sink = pending.trace_sink.clone();
                let outcome = {
                    let _scope = enter_scope(sink.as_ref());
                    self.submit_jobs(
                        st.tx.clone(),
                        st.waker.clone(),
                        conn,
                        req_seq,
                        circuits,
                        &options,
                        false,
                        sink.as_ref(),
                    )
                };
                match outcome {
                    Ok((reports, submitted, cancels)) => {
                        let pending = st.pending.get_mut(&conn).expect("pending present");
                        pending.reports = reports;
                        pending.awaiting = submitted;
                        pending.cancels = cancels;
                        pending.deadline = Some(Instant::now() + self.config.request_timeout);
                    }
                    Err(response) => {
                        let pending = st.pending.remove(&conn).expect("pending present");
                        self.finish_request(st, conn, pending, response);
                    }
                }
            }
        }
    }

    /// Renders a fully-completed request: batch results array (rejected
    /// slots carry their own error entries) or the single report.
    fn render_reports(&self, pending: &Pending) -> Response {
        if pending.batch {
            let id = &pending.id;
            let results = pending
                .reports
                .iter()
                .enumerate()
                .map(|(index, slot)| {
                    let item_id = format!("{id}.{index}");
                    match slot {
                        Some(report) => {
                            json::report_json(&item_id, report, pending.include_circuit)
                        }
                        None => Json::obj([
                            ("request_id", item_id.into()),
                            ("error", "submission queue is full".into()),
                        ]),
                    }
                })
                .collect();
            // Partially-admitted batches still answer 200; the rejected
            // items carry their own error entries in `results`.
            Response::json(
                200,
                Json::obj([
                    ("request_id", id.as_str().into()),
                    ("results", Json::Arr(results)),
                ]),
            )
        } else {
            let report = pending.reports[0].as_ref().expect("one report");
            Response::json(
                200,
                json::report_json(&pending.id, report, pending.include_circuit),
            )
        }
    }

    /// Ends an async request: closes its span under the trace scope,
    /// archives the trace, and queues the response.
    fn finish_request(
        &self,
        st: &mut LoopState,
        token: u64,
        mut pending: Pending,
        response: Response,
    ) {
        {
            let _scope = enter_scope(pending.trace_sink.as_ref());
            if let Some(mut root) = pending.root.take() {
                root.set_note(response.status.to_string());
                drop(root);
            }
        }
        if let Some(sink) = pending.trace_sink.take() {
            self.traces
                .insert(pending.id.clone(), jsonl::to_jsonl_string(&sink.take()));
        }
        let keep = pending.keep_alive && !self.draining.load(Ordering::SeqCst);
        self.queue_response(st, token, response, keep);
    }

    /// Per-tick scan: request timeouts (504 + cancel), mid-read timeouts
    /// (408), stalled writes, and idle keep-alive closes.
    fn check_timers(&self, st: &mut LoopState) {
        let now = Instant::now();
        let expired: Vec<u64> = st
            .pending
            .iter()
            .filter(|(_, p)| p.deadline.is_some_and(|d| now >= d))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let pending = st.pending.remove(&token).expect("pending present");
            // Give up on this request: cancel whatever is still running or
            // queued so the pool frees up quickly.
            for flag in &pending.cancels {
                flag.store(true, Ordering::SeqCst);
            }
            self.tracer.counter("serve.request_timeouts", 1);
            let response = Response::json(504, json::error_body("request timed out"));
            self.finish_request(st, token, pending, response);
        }

        let mut to_408: Vec<u64> = Vec::new();
        let mut to_close: Vec<u64> = Vec::new();
        for (&token, conn) in &st.conns {
            if conn.busy {
                continue;
            }
            if let Some(t0) = conn.reading_since {
                if now.duration_since(t0) > self.config.read_timeout {
                    to_408.push(token);
                    continue;
                }
            }
            if !conn.out.is_empty() {
                if now.duration_since(conn.last_activity) > self.config.write_timeout {
                    to_close.push(token);
                }
                continue;
            }
            if conn.parser.is_idle() && now.duration_since(conn.last_activity) > IDLE_TIMEOUT {
                to_close.push(token);
            }
        }
        for token in to_408 {
            self.metrics.requests.fetch_add(1, Ordering::Relaxed);
            let response = Response::json(408, json::error_body("timed out reading the request"));
            self.queue_response(st, token, response, false);
        }
        for token in to_close {
            self.close_conn(st, token);
        }
    }
}

/// One proxy attempt: resolve the peer, relay the request with the
/// `X-QCA-Forwarded` loop-stopper, and repackage its answer (preserving
/// `Retry-After`). `None` on any transport failure — the caller solves
/// locally.
fn forward_once(peer: &str, target: &str, body: &[u8], read_timeout: Duration) -> Option<Response> {
    let addr = peer.to_socket_addrs().ok()?.next()?;
    let mut conn = Connection::connect(addr, Duration::from_secs(10)).ok()?;
    conn.set_read_timeout(read_timeout).ok()?;
    let relayed = conn
        .request_with_headers("POST", target, &[("X-QCA-Forwarded", "1")], body)
        .ok()?;
    let mut response =
        Response::new(relayed.status).with_header("Content-Type", "application/json");
    if let Some(retry) = relayed.header("retry-after") {
        response = response.with_header("Retry-After", retry);
    }
    Some(response.with_body(relayed.body))
}

/// Enters the per-request trace scope when the request asked for tracing.
/// (`ScopedSink::enter` takes `Arc<dyn TraceSink>`; the unsize coercion
/// happens at this call site.)
fn enter_scope(sink: Option<&Arc<MemorySink>>) -> Option<ScopeGuard> {
    sink.map(|s| ScopedSink::enter(s.clone()))
}

/// Splits a `/v1/batch` body into individual QASM programs on `// ---`
/// separator lines. Blank-only segments are dropped.
fn split_batch(body: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    for line in body.lines() {
        if line.trim() == "// ---" {
            out.push(String::new());
        } else {
            let current = out.last_mut().expect("nonempty");
            current.push_str(line);
            current.push('\n');
        }
    }
    out.retain(|s| !s.trim().is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_batch_on_separator_lines() {
        let body = "OPENQASM 2.0;\nqreg q[1];\n// ---\nOPENQASM 2.0;\nqreg q[2];\n";
        let parts = split_batch(body);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("q[1]"));
        assert!(parts[1].contains("q[2]"));
        assert_eq!(split_batch("\n// ---\n\n").len(), 0);
        assert_eq!(split_batch("qreg q[1];").len(), 1);
    }

    #[test]
    fn trace_store_is_a_bounded_ring() {
        let store = TraceStore::new(2);
        store.insert("a".into(), "1".into());
        store.insert("b".into(), "2".into());
        store.insert("c".into(), "3".into());
        assert_eq!(store.get("a"), None);
        assert_eq!(store.get("b").as_deref(), Some("2"));
        assert_eq!(store.get("c").as_deref(), Some("3"));
        let disabled = TraceStore::new(0);
        disabled.insert("a".into(), "1".into());
        assert_eq!(disabled.get("a"), None);
    }

    #[test]
    fn retry_after_derives_from_backlog_and_latency() {
        let server = Server::bind(ServeConfig::default()).expect("bind");
        // No history, empty queue: the floor.
        assert_eq!(server.retry_after_secs(), 1);
        // Four jobs averaging 2.5 s each: ceil(1 × 2.5 s) = 3 s.
        server.jobs_done.store(4, Ordering::Relaxed);
        server.job_wall_ms.store(4 * 2500, Ordering::Relaxed);
        assert_eq!(server.retry_after_secs(), 3);
        // Sub-second jobs still round up to the 1 s floor.
        server.jobs_done.store(10, Ordering::Relaxed);
        server.job_wall_ms.store(10 * 40, Ordering::Relaxed);
        assert_eq!(server.retry_after_secs(), 1);
        // Pathologically slow history is capped.
        server.jobs_done.store(1, Ordering::Relaxed);
        server.job_wall_ms.store(10_000_000, Ordering::Relaxed);
        assert_eq!(server.retry_after_secs(), 600);
    }

    #[test]
    fn serve_metrics_classify_statuses() {
        let m = ServeMetrics::default();
        for status in [200, 200, 400, 429, 503, 504, 500] {
            m.record(status);
        }
        let json = m.to_json().to_string_compact();
        assert!(json.contains("\"ok\":2"), "{json}");
        assert!(json.contains("\"client_errors\":1"), "{json}");
        assert!(json.contains("\"rejected_429\":1"), "{json}");
        assert!(json.contains("\"unavailable_503\":1"), "{json}");
        assert!(json.contains("\"timeouts_504\":1"), "{json}");
        assert!(json.contains("\"server_errors\":1"), "{json}");
        assert!(json.contains("\"forwarded\":0"), "{json}");
    }

    #[test]
    fn shard_ring_routes_away_from_the_local_node_only() {
        // Two nodes: some keys are owned remotely; a "-" peer slot or a
        // forwarded hop never re-forwards.
        let config = ServeConfig {
            peers: vec!["-".to_string(), "127.0.0.1:1".to_string()],
            node_id: 0,
            ..ServeConfig::default()
        };
        let server = Server::bind(config).expect("bind");
        let ring = server.ring.as_ref().expect("ring configured");
        assert_eq!(ring.nodes(), 2);
        // Find a circuit owned by node 1 so forwarding would trigger.
        let options = RequestOptions {
            objective: Objective::Fidelity,
            times: GateTimes::D0,
            coupling: None,
            exact: false,
            budget: None,
            deadline: None,
            policy: JobPolicy {
                verify: false,
                lint: false,
                deny_warnings: false,
            },
            trace: false,
            include_circuit: true,
            hold: Duration::ZERO,
        };
        let mut remote_owned = None;
        for n in 1..32usize {
            let qasm_src = format!(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n{}",
                "cz q[0],q[1];\n".repeat(n)
            );
            let circuit = qasm::parse_qasm(&qasm_src).expect("parse");
            let job = server.make_job(circuit.clone(), &options);
            let key = AdaptCache::key(&job.circuit, &server.hw_d0, &job.options, &job.limits);
            if ring.owner(key) == 1 {
                remote_owned = Some(circuit);
                break;
            }
        }
        let circuit = remote_owned.expect("some key lands on node 1");
        let plain = Request {
            method: "POST".into(),
            target: "/v1/adapt".into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(
            server.forward_target(&circuit, &options, &plain).as_deref(),
            Some("127.0.0.1:1")
        );
        // A forwarded hop is always solved locally.
        let hopped = Request {
            headers: vec![("X-QCA-Forwarded".into(), "1".into())],
            ..plain
        };
        assert_eq!(server.forward_target(&circuit, &options, &hopped), None);
    }
}
