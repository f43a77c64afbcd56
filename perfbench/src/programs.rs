//! The measured binaries: one timed `repro` invocation, and a
//! `pipedepth-serve` child with an orderly shutdown.

use crate::host::{pin_current_thread, RssWatch};
use crate::load::{exchange, get, post};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Paths of the two measured binaries.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// The `repro` binary.
    pub repro: PathBuf,
    /// The `pipedepth-serve` binary.
    pub serve: PathBuf,
}

impl Binaries {
    /// The binaries built into `dir`.
    ///
    /// # Errors
    ///
    /// Names the binary that is missing.
    pub fn in_dir(dir: &Path) -> Result<Self, String> {
        let bins = Binaries {
            repro: dir.join("repro"),
            serve: dir.join("pipedepth-serve"),
        };
        for bin in [&bins.repro, &bins.serve] {
            if !bin.is_file() {
                return Err(format!("{} is missing; build it first", bin.display()));
            }
        }
        Ok(bins)
    }
}

/// One finished `repro` invocation.
#[derive(Debug)]
pub struct ReproRun {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// Peak resident set, in KiB.
    pub peak_rss_kib: u64,
    /// Whether it exited successfully with every paper verdict within
    /// tolerance.
    pub ok: bool,
}

/// Runs `repro --threads 1 --store <store> --out <out>`, pinned to CPU
/// `cpu` when one is given, timing it from spawn to exit and polling its
/// peak resident set.
///
/// # Errors
///
/// Failure to spawn or wait for the process.
pub fn run_repro(bin: &Path, store: &Path, out: &Path, cpu: Option<usize>) -> io::Result<ReproRun> {
    let mut command = Command::new(bin);
    command
        .args(["--threads", "1", "--store"])
        .arg(store)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(cpu) = cpu {
        // SAFETY: the hook runs in the forked child before exec and only
        // makes the affinity system call, which is async-signal-safe.
        unsafe {
            command.pre_exec(move || {
                if pin_current_thread(cpu) {
                    Ok(())
                } else {
                    Err(io::Error::other("cannot pin repro to its CPU"))
                }
            });
        }
    }
    let start = Instant::now();
    let child = command.spawn()?;
    let watch = RssWatch::start(child.id());
    let output = child.wait_with_output()?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(ReproRun {
        wall_s,
        peak_rss_kib: watch.finish(),
        ok: output.status.success() && verdicts_ok(&String::from_utf8_lossy(&output.stdout)),
    })
}

/// Whether a `repro` transcript reports every paper verdict within
/// tolerance (its `N/N within tolerance` line, N ≥ 1).
pub fn verdicts_ok(stdout: &str) -> bool {
    stdout
        .lines()
        .filter_map(|l| l.trim().strip_suffix(" within tolerance"))
        .filter_map(|s| s.split_once('/'))
        .any(|(ok, all)| ok == all && ok.parse::<u32>().is_ok_and(|n| n > 0))
}

/// Every `*.csv` file in `dir`, by file name.
///
/// # Errors
///
/// Failure to list or read the directory.
pub fn read_csvs(dir: &Path) -> io::Result<BTreeMap<String, Vec<u8>>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "csv") {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                out.insert(name.to_string(), std::fs::read(&path)?);
            }
        }
    }
    Ok(out)
}

/// A running `pipedepth-serve --threads 1 --workers 1` child on an
/// ephemeral loopback port. Dropping it kills and reaps the process;
/// [`Server::shutdown`] drains it the way an operator would.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits until it answers `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Spawn failures, an unreadable listen line, or a failed health check.
    pub fn start(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0", "--threads", "1", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(pipe) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".to_string());
        };
        let mut stdout = BufReader::new(pipe);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let mut server = match (read, addr) {
            (Ok(_), Some(addr)) => Server {
                child,
                stdout,
                addr,
            },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("unexpected server banner {line:?}"));
            }
        };
        match exchange(server.addr, &get("/healthz")) {
            Ok(reply) if reply.status == 200 => Ok(server),
            other => {
                server.kill();
                Err(format!("health check failed: {other:?}"))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit cleanly.
    ///
    /// # Errors
    ///
    /// A refused shutdown request or an unclean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = exchange(self.addr, &post("/v1/shutdown", ""))
            .map_err(|e| format!("shutdown request: {e}"))?;
        // Read the final stats line, so the server never writes to a
        // closed pipe on its way out.
        let _ = io::copy(&mut self.stdout, &mut io::sink());
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if reply.status != 200 || !status.success() {
            return Err(format!("server shutdown: {} / {status}", reply.status));
        }
        Ok(())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}
