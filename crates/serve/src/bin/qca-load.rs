//! `qca-load` — keep-alive load generator for `qca-serve`.
//!
//! ```text
//! qca-load --addr HOST:PORT [--connections N] [--requests M] [--mixed]
//!          [--hold-ms N] [--deadline-ms N] [--objective NAME]
//!          [--timeout-s N] [--json] [--idle] [--get PATH] [--distinct]
//! ```
//!
//! Opens `N` keep-alive connections, issues `M` `POST /v1/adapt` requests
//! on each, and prints a greppable summary: per-status counts, throughput,
//! and exact p50/p95/p99 latency percentiles. `--mixed` alternates valid
//! and malformed QASM bodies (exercising the 400 path); `--hold-ms` holds
//! each job on its worker (saturating small pools deterministically, the
//! CI recipe for exercising 429s). `--json` replaces the text summary
//! with a single machine-readable JSON object (counts, throughput, and
//! latency percentiles) so the perf suite and scripts need not scrape
//! stdout. Exits non-zero only on transport errors — 4xx/5xx responses
//! are counted, not fatal.
//!
//! Event-loop exercises:
//!
//! * `--idle` parks all `N` connections open and mostly idle while a hot
//!   subset (at most 4) runs the request loop on separate connections;
//!   afterwards every parked connection proves it is still being served
//!   with one `GET /healthz`. This is the many-idle-keep-alive-sockets
//!   shape a readiness-polling server must sustain cheaply.
//! * `--get PATH` issues `GET PATH` instead of `POST /v1/adapt` (e.g.
//!   `--get /metrics`).
//! * `--distinct` gives every request a structurally distinct circuit, so
//!   each one misses the cache (and, under sharding, scatters across the
//!   ring) instead of collapsing onto one hot key.

use qca_serve::client::Connection;
use qca_trace::json::Json;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const GOOD_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n";
const BAD_QASM: &str = "this is not qasm\n";

struct Args {
    addr: SocketAddr,
    connections: usize,
    requests: usize,
    mixed: bool,
    hold_ms: Option<u64>,
    deadline_ms: Option<u64>,
    objective: Option<String>,
    timeout: Duration,
    json: bool,
    idle: bool,
    get: Option<String>,
    distinct: bool,
}

fn usage() -> &'static str {
    "usage: qca-load --addr HOST:PORT [--connections N] [--requests M] [--mixed]\n\
     \x20               [--hold-ms N] [--deadline-ms N] [--objective NAME] [--timeout-s N]\n\
     \x20               [--json] [--idle] [--get PATH] [--distinct]"
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut connections = 1usize;
    let mut requests = 1usize;
    let mut mixed = false;
    let mut hold_ms = None;
    let mut deadline_ms = None;
    let mut objective = None;
    let mut timeout = Duration::from_secs(60);
    let mut json = false;
    let mut idle = false;
    let mut get = None;
    let mut distinct = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => {
                let spec = value("--addr")?;
                addr = Some(
                    spec.to_socket_addrs()
                        .map_err(|e| format!("cannot resolve {spec:?}: {e}"))?
                        .next()
                        .ok_or_else(|| format!("no address for {spec:?}"))?,
                );
            }
            "--connections" => connections = parse(&value("--connections")?, "--connections")?,
            "--requests" => requests = parse(&value("--requests")?, "--requests")?,
            "--mixed" => mixed = true,
            "--hold-ms" => hold_ms = Some(parse(&value("--hold-ms")?, "--hold-ms")?),
            "--deadline-ms" => {
                deadline_ms = Some(parse(&value("--deadline-ms")?, "--deadline-ms")?)
            }
            "--objective" => objective = Some(value("--objective")?),
            "--timeout-s" => {
                timeout = Duration::from_secs(parse(&value("--timeout-s")?, "--timeout-s")?)
            }
            "--json" => json = true,
            "--idle" => idle = true,
            "--get" => get = Some(value("--get")?),
            "--distinct" => distinct = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        addr: addr.ok_or_else(|| format!("--addr is required\n{}", usage()))?,
        connections: connections.max(1),
        requests: requests.max(1),
        mixed,
        hold_ms,
        deadline_ms,
        objective,
        timeout,
        json,
        idle,
        get,
        distinct,
    })
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {name}: {value:?}"))
}

fn target(args: &Args) -> String {
    if let Some(path) = &args.get {
        return path.clone();
    }
    let mut params = Vec::new();
    if let Some(ms) = args.hold_ms {
        params.push(format!("hold_ms={ms}"));
    }
    if let Some(ms) = args.deadline_ms {
        params.push(format!("deadline_ms={ms}"));
    }
    if let Some(objective) = &args.objective {
        params.push(format!("objective={objective}"));
    }
    // Responses stay small: the load generator never needs the circuit.
    params.push("circuit=0".to_string());
    format!("/v1/adapt?{}", params.join("&"))
}

/// A structurally distinct circuit per `(worker, i)`: the CZ-ladder depth
/// varies, so structural hashing cannot collapse any two onto one cache
/// key (eight distinct shapes, cycled).
fn distinct_qasm(worker: usize, i: usize) -> String {
    let depth = (worker.wrapping_mul(7) + i) % 8 + 1;
    format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n{}",
        "cz q[0], q[1];\n".repeat(depth)
    )
}

#[derive(Default)]
struct Tally {
    ok200: u64,
    status400: u64,
    rejected429: u64,
    other: u64,
    transport_errors: u64,
    latencies: Vec<Duration>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok200 += other.ok200;
        self.status400 += other.status400;
        self.rejected429 += other.rejected429;
        self.other += other.other;
        self.transport_errors += other.transport_errors;
        self.latencies.extend(other.latencies);
    }

    fn count(&mut self, status: u16) {
        match status {
            200 => self.ok200 += 1,
            400 => self.status400 += 1,
            429 => self.rejected429 += 1,
            _ => self.other += 1,
        }
    }
}

fn run_connection(args: &Args, target: &str, worker: usize) -> Tally {
    let mut tally = Tally::default();
    let mut connection = match Connection::connect(args.addr, args.timeout) {
        Ok(connection) => connection,
        Err(e) => {
            eprintln!("qca-load: connection {worker}: {e}");
            tally.transport_errors += 1;
            return tally;
        }
    };
    let method = if args.get.is_some() { "GET" } else { "POST" };
    for i in 0..args.requests {
        let body = if args.get.is_some() {
            String::new()
        } else if args.mixed && i % 2 == 1 {
            BAD_QASM.to_string()
        } else if args.distinct {
            distinct_qasm(worker, i)
        } else {
            GOOD_QASM.to_string()
        };
        let t0 = Instant::now();
        match connection.request(method, target, body.as_bytes()) {
            Ok(response) => {
                tally.latencies.push(t0.elapsed());
                tally.count(response.status);
            }
            Err(e) => {
                eprintln!("qca-load: connection {worker} request {i}: {e}");
                tally.transport_errors += 1;
                // The connection state is unknown after a failure; reconnect.
                connection = match Connection::connect(args.addr, args.timeout) {
                    Ok(connection) => connection,
                    Err(_) => return tally,
                };
            }
        }
    }
    tally
}

/// `--idle` mode: park every connection open, run the request loop on a
/// small hot set of *extra* connections, then have each parked connection
/// answer one `GET /healthz` — proving the server kept all of them alive
/// while doing real work. Parked-connection counts fold into the same
/// tally (their healthz answers are 200s).
fn run_idle(args: &Args, target: &str) -> Tally {
    raise_nofile_limit(args.connections as u64 + 64);
    let mut total = Tally::default();
    let mut parked = Vec::with_capacity(args.connections);
    for worker in 0..args.connections {
        match Connection::connect(args.addr, args.timeout) {
            Ok(connection) => parked.push(connection),
            Err(e) => {
                eprintln!("qca-load: idle connection {worker}: {e}");
                total.transport_errors += 1;
            }
        }
    }
    let hot = args.connections.min(4);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..hot)
            .map(|worker| scope.spawn(move || run_connection(args, target, worker)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for tally in tallies {
        total.absorb(tally);
    }
    for (worker, mut connection) in parked.into_iter().enumerate() {
        let t0 = Instant::now();
        match connection.request("GET", "/healthz", b"") {
            Ok(response) => {
                total.latencies.push(t0.elapsed());
                total.count(response.status);
            }
            Err(e) => {
                eprintln!("qca-load: idle connection {worker} healthz: {e}");
                total.transport_errors += 1;
            }
        }
    }
    total
}

/// Best-effort `RLIMIT_NOFILE` raise so `--idle --connections 5000` can
/// actually open that many sockets. Failure is fine — the kernel will say
/// so at `connect` time.
#[cfg(target_os = "linux")]
fn raise_nofile_limit(want: u64) {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    unsafe {
        let mut limit = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
            return;
        }
        if limit.cur < want && limit.max >= want {
            limit.cur = want;
            let _ = setrlimit(RLIMIT_NOFILE, &limit);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile_limit(_want: u64) {}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("qca-load: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let target = target(&args);
    let t0 = Instant::now();
    let mut total = Tally::default();
    if args.idle {
        total.absorb(run_idle(&args, &target));
    } else {
        let (args_ref, target_ref) = (&args, &target);
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args_ref.connections)
                .map(|worker| scope.spawn(move || run_connection(args_ref, target_ref, worker)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for tally in tallies {
            total.absorb(tally);
        }
    }
    let wall = t0.elapsed();

    total.latencies.sort();
    let completed = total.latencies.len() as u64;
    let rps = completed as f64 / wall.as_secs_f64().max(1e-9);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    if args.json {
        // One self-contained object, keys stable, no stdout scraping
        // needed. `errors` keeps its own key so `jq .errors` is the whole
        // health check.
        let latency = Json::obj([
            ("p50", ms(percentile(&total.latencies, 0.50)).into()),
            ("p95", ms(percentile(&total.latencies, 0.95)).into()),
            ("p99", ms(percentile(&total.latencies, 0.99)).into()),
            (
                "max",
                ms(total.latencies.last().copied().unwrap_or_default()).into(),
            ),
        ]);
        let summary = Json::obj([
            ("requests", completed.into()),
            ("ok200", total.ok200.into()),
            ("status400", total.status400.into()),
            ("rejected429", total.rejected429.into()),
            ("other", total.other.into()),
            ("errors", total.transport_errors.into()),
            ("wall_s", wall.as_secs_f64().into()),
            ("throughput_rps", rps.into()),
            ("latency_ms", latency),
        ]);
        println!("{}", summary.to_string_compact());
    } else {
        println!(
            "requests={completed} ok200={} status400={} rejected429={} other={} errors={}",
            total.ok200, total.status400, total.rejected429, total.other, total.transport_errors
        );
        println!("wall_s={:.3} throughput_rps={rps:.1}", wall.as_secs_f64());
        println!(
            "latency_ms p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            ms(percentile(&total.latencies, 0.50)),
            ms(percentile(&total.latencies, 0.95)),
            ms(percentile(&total.latencies, 0.99)),
            ms(total.latencies.last().copied().unwrap_or_default()),
        );
    }
    if total.transport_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Exact percentile by rank over the sorted sample (nearest-rank method).
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
