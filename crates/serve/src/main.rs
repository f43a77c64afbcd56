//! The `pipedepth-serve` binary: flags in, blocking server out.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pipedepth-serve -- \
//!     [--port N] [--addr HOST] [--threads N] [--workers N] \
//!     [--queue-cap N] [--batch-max N] [--deadline-ms N] \
//!     [--backend sim|model|auto] [--store DIR] [--full]
//! ```
//!
//! The process serves until `POST /v1/shutdown`, drains, prints the final
//! stats line, and exits 0.

use pipedepth_experiments::sweep::RunConfig;
use pipedepth_serve::service::ServiceConfig;
use pipedepth_serve::Server;
use pipedepth_telemetry::Telemetry;
use std::process::exit;

struct Options {
    addr: String,
    port: u16,
    config: ServiceConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: pipedepth-serve [--port N] [--addr HOST] [--threads N] [--workers N]\n\
         \u{20}                      [--queue-cap N] [--batch-max N] [--deadline-ms N]\n\
         \u{20}                      [--backend sim|model|auto] [--store DIR] [--full]\n\
         \n\
         \u{20} --port N           listen port (default 8471; 0 picks an ephemeral port)\n\
         \u{20} --addr HOST        listen address (default 127.0.0.1)\n\
         \u{20} --threads N        simulation worker threads (default 2)\n\
         \u{20} --workers N        dispatch workers draining the batch queue (default 1)\n\
         \u{20} --queue-cap N      cells admitted before shedding 429s (default 1024)\n\
         \u{20} --batch-max N      cells per backend dispatch (default 32)\n\
         \u{20} --deadline-ms N    default per-request deadline; 0 = none (default 0)\n\
         \u{20} --backend B        pin every request to one backend (default: per-request)\n\
         \u{20} --store DIR        persistent store (the one repro --store writes):\n\
         \u{20}                    warm-start the simulation cache from DIR's snapshot\n\
         \u{20}                    and snapshot back into it (periodically and at drain)\n\
         \u{20} --full             full-length run configuration for template cells\n\
         \u{20}                    (default: the quick configuration)"
    );
    exit(2)
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        addr: "127.0.0.1".to_string(),
        port: 8471,
        config: ServiceConfig::default(),
    };
    let value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            exit(2)
        })
    };
    let parse = |text: String, flag: &str| -> u64 {
        text.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs an unsigned integer, got {text:?}");
            exit(2)
        })
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                opts.port = parse(value(&args, i, "--port"), "--port") as u16;
                i += 1;
            }
            "--addr" => {
                opts.addr = value(&args, i, "--addr");
                i += 1;
            }
            "--threads" => {
                opts.config.threads = parse(value(&args, i, "--threads"), "--threads") as usize;
                i += 1;
            }
            "--workers" => {
                opts.config.workers = parse(value(&args, i, "--workers"), "--workers") as usize;
                i += 1;
            }
            "--queue-cap" => {
                opts.config.queue_cap =
                    parse(value(&args, i, "--queue-cap"), "--queue-cap") as usize;
                i += 1;
            }
            "--batch-max" => {
                opts.config.batch_max =
                    parse(value(&args, i, "--batch-max"), "--batch-max") as usize;
                i += 1;
            }
            "--deadline-ms" => {
                opts.config.deadline_ms = parse(value(&args, i, "--deadline-ms"), "--deadline-ms");
                i += 1;
            }
            "--backend" => {
                let text = value(&args, i, "--backend");
                opts.config.backend = Some(text.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2)
                }));
                i += 1;
            }
            "--store" => {
                opts.config.store = Some(std::path::PathBuf::from(value(&args, i, "--store")));
                i += 1;
            }
            "--full" => opts.config.run = RunConfig::default(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }
    opts
}

fn main() {
    let opts = parse_args();
    let addr = format!("{}:{}", opts.addr, opts.port);
    let server = Server::bind(&addr, opts.config, Telemetry::new()).unwrap_or_else(|e| {
        eprintln!("failed to bind {addr}: {e}");
        exit(1)
    });
    match server.local_addr() {
        Ok(bound) => println!("pipedepth-serve listening on http://{bound}"),
        Err(_) => println!("pipedepth-serve listening on http://{addr}"),
    }
    let stats = server.run();
    println!("{stats}");
}
