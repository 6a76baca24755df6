//! `qca-serve` — the adaptation service binary.
//!
//! ```text
//! qca-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!           [--verify] [--lint] [--deny-warnings]
//!           [--deadline-ms N] [--request-timeout-s N] [--read-timeout-s N]
//!           [--trace-capacity N] [--metrics-out PATH]
//!           [--store DIR] [--peers LIST] [--node-id N]
//! ```
//!
//! `--store DIR` persists adaptations (WAL + snapshot) in `DIR` and
//! warm-restarts the cache from it at startup. `--peers` takes a
//! comma-separated shard ring (`host:port,host:port,...`; `-` marks a slot
//! that is never forwarded to — usually this node's own) and `--node-id`
//! names this node's slot; single-circuit requests whose cache key is
//! owned by a peer are proxied to it.
//!
//! Prints `listening on <addr>` once the socket is bound (scrape this for
//! the ephemeral port in scripts), serves until SIGTERM or SIGINT, then
//! drains: in-flight requests and every admitted job finish, the final
//! metrics JSON is written to `--metrics-out` (when set), and the process
//! exits 0.

use qca_serve::{ServeConfig, Server};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Raised by the signal handler; polled by the accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // An atomic store is the only thing this handler does — safe to run in
    // signal context.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM and SIGINT. `std` already links libc,
/// so `signal(2)` can be declared directly instead of pulling in a crate.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn usage() -> &'static str {
    "usage: qca-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n\
     \x20                [--verify] [--lint] [--deny-warnings]\n\
     \x20                [--deadline-ms N] [--request-timeout-s N] [--read-timeout-s N]\n\
     \x20                [--trace-capacity N] [--metrics-out PATH]\n\
     \x20                [--store DIR] [--peers LIST] [--node-id N]"
}

fn parse_args() -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = parse(&value("--workers")?, "--workers")?,
            "--queue" => config.queue_capacity = parse(&value("--queue")?, "--queue")?,
            "--cache" => config.cache_capacity = parse(&value("--cache")?, "--cache")?,
            "--verify" => config.verify = true,
            "--lint" => config.lint = true,
            "--deny-warnings" => config.deny_warnings = true,
            "--deadline-ms" => {
                let ms: u64 = parse(&value("--deadline-ms")?, "--deadline-ms")?;
                config.default_deadline = Some(Duration::from_millis(ms.max(1)));
            }
            "--request-timeout-s" => {
                let s: u64 = parse(&value("--request-timeout-s")?, "--request-timeout-s")?;
                config.request_timeout = Duration::from_secs(s.max(1));
            }
            "--read-timeout-s" => {
                let s: u64 = parse(&value("--read-timeout-s")?, "--read-timeout-s")?;
                config.read_timeout = Duration::from_secs(s.max(1));
            }
            "--trace-capacity" => {
                config.trace_capacity = parse(&value("--trace-capacity")?, "--trace-capacity")?
            }
            "--metrics-out" => config.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--store" => config.store_dir = Some(PathBuf::from(value("--store")?)),
            "--peers" => {
                config.peers = value("--peers")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--node-id" => config.node_id = parse(&value("--node-id")?, "--node-id")?,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !config.peers.is_empty() && config.node_id >= config.peers.len() {
        return Err(format!(
            "--node-id {} is out of range for {} peers",
            config.node_id,
            config.peers.len()
        ));
    }
    Ok(config)
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {name}: {value:?}"))
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("qca-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qca-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Scripts scrape this line for the ephemeral port; flush so it
            // is visible before the first request.
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("qca-serve: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run(&SHUTDOWN) {
        Ok(()) => {
            println!("drained; exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qca-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
