//! `perfbench`: the benchmark of `repro` and `pipedepth-serve`.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds the programs and this binary, then runs it with
//! `--bin-dir` pointing at the built programs. A run prints a `record`
//! line (seed, commit, host, counts) and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Every workload uses at most two load threads, one simulation worker
//! and one dispatch worker, so on a two-core host the numbers measure the
//! program rather than the scheduler.
//!
//! Every workload reports every end-to-end metric. Times are given in
//! reference-host seconds where that is sound: on a shared host a
//! neighbour's load slows the programs by up to half for minutes at a
//! time, so a [`SpeedProbe`] times a fixed kernel on each CPU throughout an
//! untraced run, and a measured span is scaled by the host-speed factor
//! sampled during it. The `record` line keeps the raw times and the
//! factors. On the repro workloads an
//! operation is one invocation, pinned to one CPU; cold invocations are
//! scaled by that CPU's speed, warm ones by a kernel that loads like a
//! store does (see [`repro_e2e`]). On
//! the serve workloads the closed loop is scored as back-to-back
//! trials, each scaled by the speed of all CPUs: rate and median latency
//! are medians over trials, the tail is taken over every scaled request,
//! and `wall_s` is the time 100 requests take at the median rate.

use perfbench::host::{
    self, copy_hash_factors, mem_bandwidth_gb_s, on_cpu, vm_hwm_kib, CopyHashKernel, SpeedProbe,
};
use perfbench::load::{closed_loop, exchange, get, sweep_request, Sample, Script};
use perfbench::programs::{read_csvs, run_repro, Binaries, ReproRun, Server};
use perfbench::repro_layers::{repro_pass, ReproPass};
use perfbench::serve_layers::ServePass;
use perfbench::spans::{micros, Spans};
use perfbench::stats::{median, ratio, result_line, tail, windows, Metric, Tail};
use pipedepth_experiments::sweep::RunConfig;
use pipedepth_serve::json::{parse, Json};
use pipedepth_telemetry::json::escape;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["repro-cold", "repro-warm", "serve-hot"];

/// Load threads of the serve workloads' closed loop.
const CLIENTS: usize = 2;

/// Server starts (with pre-warming) per serve run; `setup_s` is their median.
const SERVE_SETUPS: usize = 15;

/// Set-up `repro` runs per untraced repro run; `setup_s` is their median.
/// Each takes seconds, so fewer than the serve workloads' server starts.
const REPRO_SETUPS: usize = 5;

/// Trials an untraced serve run's closed loop is scored as.
const TRIALS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut bin_dir = PathBuf::from("target/release");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--bin-dir" => bin_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        bin_dir,
    })
}

/// Operations attempted and failed; the first few failures go to stderr.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed: {}", what());
            }
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left in it.
        let _ = std::fs::remove_dir(Path::new(".perfbench"));
    }
}

/// The metrics of one run plus what its record line adds.
struct Outcome {
    metrics: Vec<Metric>,
    record: Vec<(&'static str, String)>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    let mem_bw = mem_bandwidth_gb_s();
    let mut tally = Tally::default();
    let outcome = run(&args, mem_bw, &mut tally).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1)
    });
    let root = Path::new(".");
    let text = |s: &str| format!("\"{}\"", escape(s));
    let mut record = vec![
        ("workload", text(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "commit",
            text(&host::git_commit(root).unwrap_or_else(|| "none".to_string())),
        ),
        (
            "source_digest",
            text(&format!("{:016x}", host::source_digest(root))),
        ),
        ("nproc", host::nproc().to_string()),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seconds", args.seconds.to_string()),
        ("host_mem_bw_gb_s", mem_bw.to_string()),
        ("load_clients", CLIENTS.to_string()),
        ("sim_workers", "1".to_string()),
        ("dispatch_workers", "1".to_string()),
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
    ];
    record.extend(outcome.record);
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("record {{{}}}", fields.join(", "));
    println!(
        "{}",
        result_line(
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            &outcome.metrics
        )
    );
}

fn run(args: &Args, mem_bw: f64, tally: &mut Tally) -> Result<Outcome, String> {
    let bins = Binaries::in_dir(&args.bin_dir)?;
    let work = WorkDir::new(&args.workload)?;
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "repro-cold" if trace => repro_traced(&bins, &work, false, seed, mem_bw, tally),
        "repro-warm" if trace => repro_traced(&bins, &work, true, seed, mem_bw, tally),
        "repro-cold" => repro_e2e(&bins, &work, false, seconds, tally),
        "repro-warm" => repro_e2e(&bins, &work, true, seconds, tally),
        _ => serve(
            &bins,
            &work,
            Script::new(seed),
            seconds,
            trace,
            mem_bw,
            tally,
        ),
    }
}

/// The end-to-end metrics of one run, over its `operations` successful
/// operations (`repro` invocations, or HTTP requests as the client saw
/// them).
fn end_to_end(
    wall_s: f64,
    rate: f64,
    p50_s: f64,
    tail: Tail,
    operations: usize,
    rss_kib: u64,
    setup_s: &[f64],
) -> Outcome {
    let metric = |name, value, unit| Metric { name, value, unit };
    Outcome {
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric("req_per_s", rate, "1/s"),
            metric("latency_p50_ms", p50_s * 1e3, "ms"),
            metric("latency_tail_ms", tail.value * 1e3, "ms"),
            metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB"),
            metric("setup_s", median(setup_s), "s"),
        ],
        record: vec![
            ("operations", operations.to_string()),
            ("tail_percentile", tail.percentile.to_string()),
            ("tail_samples_beyond", tail.beyond.to_string()),
            ("setup_runs", setup_s.len().to_string()),
        ],
    }
}

/// The set-up of both repro workloads: cold `repro --store` runs, the
/// first of which writes the figure CSVs every later run must reproduce
/// byte for byte and the store the warm workload reads.
struct Reference {
    store: PathBuf,
    csvs: BTreeMap<String, Vec<u8>>,
    /// Time of each set-up run, in reference-host seconds when probed.
    setup_s: Vec<f64>,
}

impl Reference {
    fn create(
        bins: &Binaries,
        work: &WorkDir,
        setups: usize,
        pinned: Option<&Pinned>,
    ) -> Result<Self, String> {
        let mut setup_s = Vec::new();
        let mut first: Option<(PathBuf, BTreeMap<String, Vec<u8>>)> = None;
        for i in 0..setups.max(1) {
            let store = work.path(&format!("ref-store-{i}"));
            let out = work.path(&format!("ref-out-{i}"));
            let (run, speed) = repro_once(bins, &store, &out, pinned)?;
            let csvs = read_csvs(&out).map_err(|e| format!("reference CSVs: {e}"))?;
            if !run.ok || csvs.is_empty() {
                return Err("a set-up repro run failed or missed a paper verdict".to_string());
            }
            setup_s.push(run.wall_s * speed);
            let _ = std::fs::remove_dir_all(&out);
            match &first {
                None => first = Some((store, csvs)),
                Some((_, reference)) if *reference == csvs => {
                    let _ = std::fs::remove_dir_all(&store);
                }
                Some(_) => return Err("set-up repro runs wrote different CSVs".to_string()),
            }
        }
        let (store, csvs) = first.ok_or("no set-up run")?;
        Ok(Reference {
            store,
            csvs,
            setup_s,
        })
    }

    /// Counts one `repro` run: clean exit, every verdict, identical CSVs.
    fn check_run(&self, run: &ReproRun, out: &Path, tally: &mut Tally) {
        let same = read_csvs(out).is_ok_and(|csvs| csvs == self.csvs);
        tally.check(run.ok && same, || {
            format!("repro into {} differs from the reference", out.display())
        });
    }

    /// Counts one traced pass: every verdict, identical CSVs, and the side
    /// extraction reproducing the runner's curves.
    fn check_pass(&self, pass: &ReproPass, tally: &mut Tally) {
        let verdicts = pass.verdicts.1 > 0 && pass.verdicts.0 == pass.verdicts.1;
        tally.check(
            verdicts && pass.extraction_matches && pass.csvs == self.csvs,
            || "the traced repro pass differs from the reference".to_string(),
        );
    }
}

/// `repro-cold` and `repro-warm`, untraced: real `repro --threads 1`
/// invocations against a fresh empty store (cold) or the store the
/// reference run populated (warm), until `seconds` have passed and at
/// least five have run. The timing metrics are order statistics of the
/// invocation times, scaled to the reference host. Cold times, and the
/// cold set-up runs of both, are scaled by the [`SpeedProbe`]. Loading a
/// store is far less sensitive to a busy neighbour than that probe's
/// kernel, so each warm invocation instead follows a [`CopyHashKernel`]
/// sample on its CPU and is scaled by the samples around it.
fn repro_e2e(
    bins: &Binaries,
    work: &WorkDir,
    warm: bool,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let pinned = Pinned {
        probe: SpeedProbe::start(),
        cpu: host::allowed_cpus().first().copied().unwrap_or(0),
    };
    let reference = Reference::create(bins, work, REPRO_SETUPS, Some(&pinned))?;
    let copy_hash = warm.then(CopyHashKernel::default);
    let min_runs = 5;
    let (mut raw, mut speeds, mut kernel_us, mut rss) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    while raw.len() < min_runs || start.elapsed().as_secs_f64() < seconds {
        let i = raw.len();
        let out = work.path(&format!("out-{i}"));
        let store = if warm {
            reference.store.clone()
        } else {
            work.path(&format!("store-{i}"))
        };
        if let Some(kernel) = &copy_hash {
            kernel_us.push(on_cpu(pinned.cpu, || kernel.sample()));
        }
        let (run, speed) = repro_once(bins, &store, &out, Some(&pinned))?;
        reference.check_run(&run, &out, tally);
        raw.push(run.wall_s);
        speeds.push(speed);
        rss = rss.max(run.peak_rss_kib);
        let _ = std::fs::remove_dir_all(&out);
        if !warm {
            let _ = std::fs::remove_dir_all(&store);
        }
    }
    if warm {
        speeds = copy_hash_factors(&kernel_us);
    }
    let walls: Vec<f64> = raw.iter().zip(&speeds).map(|(w, s)| w * s).collect();
    let wall = median(&walls);
    let tail = tail(&walls).ok_or("no repro run")?;
    let rate = walls.len() as f64 / walls.iter().sum::<f64>();
    let mut outcome = end_to_end(wall, rate, wall, tail, walls.len(), rss, &reference.setup_s);
    outcome.record.extend([
        ("repro_raw_walls_s", list(&raw)),
        ("host_speed", list(&speeds)),
        ("copy_hash_us", list(&kernel_us)),
    ]);
    Ok(outcome)
}

/// How untraced `repro` runs are measured: pinned to one CPU, and scaled
/// by the speed that CPU's probe thread sampled while they ran.
struct Pinned {
    probe: SpeedProbe,
    cpu: usize,
}

/// Runs `repro` once, pinned when `pinned` is given, and returns the run
/// with its host-speed factor (1 unpinned).
fn repro_once(
    bins: &Binaries,
    store: &Path,
    out: &Path,
    pinned: Option<&Pinned>,
) -> Result<(ReproRun, f64), String> {
    let start = Instant::now();
    let run = run_repro(&bins.repro, store, out, pinned.map(|p| p.cpu))
        .map_err(|e| format!("repro: {e}"))?;
    let speed = pinned.map_or(1.0, |p| p.probe.factor(start, Instant::now(), Some(p.cpu)));
    Ok((run, speed))
}

/// A JSON list of numbers, for the record line.
fn list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// The traced pass the residual and overhead refer to.
struct Primary {
    layer_us: f64,
    wall_us: f64,
    untraced_us: f64,
}

/// `repro-cold` and `repro-warm`, traced: one untraced invocation of the
/// pass, then the same pass in process with every layer timed. The layers
/// that pass does not reach are measured too — a warm pass after a cold
/// one (or a quick cold pass before a warm one) and a small serve probe —
/// so every layer metric is measured on every run.
fn repro_traced(
    bins: &Binaries,
    work: &WorkDir,
    warm: bool,
    seed: u64,
    mem_bw: f64,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let reference = Reference::create(bins, work, 1, None)?;
    let dir = if warm {
        reference.store.clone()
    } else {
        work.path("untraced-store")
    };
    let out = work.path("untraced-out");
    let (untraced, _) = repro_once(bins, &dir, &out, None)?;
    reference.check_run(&untraced, &out, tally);

    let mut spans = Spans::default();
    let full = RunConfig::default();
    let dir = if warm {
        reference.store.clone()
    } else {
        work.path("traced-store")
    };
    let primary = repro_pass(&full, &dir, &mut spans);
    reference.check_pass(&primary, tally);
    if warm {
        let quick = repro_pass(&RunConfig::quick(), &work.path("quick-store"), &mut spans);
        tally.check(quick.extraction_matches, || "quick cold pass".to_string());
    } else {
        let again = repro_pass(&full, &dir, &mut spans);
        reference.check_pass(&again, tally);
    }
    serve_probe(seed, &mut spans, tally)?;
    let primary = Primary {
        layer_us: primary.layer_us,
        wall_us: primary.wall_us,
        untraced_us: untraced.wall_s * 1e6,
    };
    Ok(Outcome {
        metrics: layer_metrics(&spans, &primary, mem_bw),
        record: vec![("untraced_s", untraced.wall_s.to_string())],
    })
}

/// The serve workloads. Set-up starts the server and pre-warms it
/// ([`SERVE_SETUPS`] times untraced, keeping the last server); two clients
/// then run the closed loop. Every response is compared byte for byte
/// with the answer an in-process service gives the same request, replayed
/// in script order — in a traced run that replay is the traced pass.
fn serve(
    bins: &Binaries,
    work: &WorkDir,
    script: Script,
    seconds: f64,
    trace: bool,
    mem_bw: f64,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let probe = (!trace).then(SpeedProbe::start);
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..if trace { 1 } else { SERVE_SETUPS } {
        if let Some(old) = server.take() {
            old.shutdown()?;
        }
        let start = Instant::now();
        let started = Server::start(&bins.serve)?;
        for raw in script.prewarm() {
            let reply = exchange(started.addr, &raw).map_err(|e| format!("prewarm: {e}"))?;
            if reply.status != 200 {
                return Err(format!("prewarm answered {}", reply.status));
            }
        }
        let speed = probe
            .as_ref()
            .map_or(1.0, |p| p.factor(start, Instant::now(), None));
        setup_s.push(start.elapsed().as_secs_f64() * speed);
        server = Some(started);
    }
    let server = server.ok_or("no server started")?;
    // A traced run's load is one client, so its requests are served one
    // at a time, like the in-process replay its overhead is set against.
    let (clients, duration) = if trace {
        (1, seconds / 2.0)
    } else {
        (CLIENTS, seconds)
    };
    let before = scrape(&server)?;
    let load_start = Instant::now();
    let (samples, load_s) = closed_loop(
        server.addr,
        &script,
        clients,
        Duration::from_secs_f64(duration),
    );
    let counters = scrape(&server)?;
    let rss_kib = vm_hwm_kib(server.pid()).unwrap_or(0);
    server.shutdown()?;

    let mut spans = Spans::default();
    let replayed = replay(&script, &samples, trace, &mut spans, tally)?;
    if !trace {
        let ok: Vec<(f64, f64)> = samples
            .iter()
            .filter_map(|s| Some((s.done_s, s.reply.as_ref().ok()?)))
            .filter(|(_, r)| r.status == 200)
            .map(|(done, r)| (done, r.latency_s))
            .collect();
        // The load is scored as TRIALS back-to-back trials, each scaled by
        // the host speed sampled during it. Rate and median latency are
        // medians over trials; the tail is taken over every scaled sample
        // of the load, so no stall drops out of it.
        let trials = windows(&ok, load_s, TRIALS);
        let trial_s = load_s / TRIALS as f64;
        let speeds: Vec<f64> = (0..TRIALS)
            .map(|i| {
                let from = load_start + Duration::from_secs_f64(trial_s * i as f64);
                let to = from + Duration::from_secs_f64(trial_s);
                probe.as_ref().map_or(1.0, |p| p.factor(from, to, None))
            })
            .collect();
        let rates: Vec<f64> = trials
            .iter()
            .zip(&speeds)
            .map(|(t, speed)| t.len() as f64 / trial_s / speed)
            .collect();
        let p50s: Vec<f64> = trials
            .iter()
            .zip(&speeds)
            .map(|(t, speed)| median(t) * speed)
            .collect();
        let scaled: Vec<f64> = trials
            .iter()
            .zip(&speeds)
            .flat_map(|(t, speed)| t.iter().map(move |latency| latency * speed))
            .collect();
        let load_tail = tail(&scaled).ok_or("no request succeeded")?;
        let trial_tails: Vec<f64> = trials
            .iter()
            .zip(&speeds)
            .filter_map(|(t, speed)| Some(tail(t)?.value * speed))
            .collect();
        let rate = median(&rates);
        // `wall_s` is the time 100 requests take at that rate.
        let mut outcome = end_to_end(
            100.0 / rate,
            rate,
            median(&p50s),
            load_tail,
            ok.len(),
            rss_kib,
            &setup_s,
        );
        let delta = |k: usize| (counters[k] - before[k]).to_string();
        let per_trial: Vec<f64> = trials.iter().map(|t| t.len() as f64).collect();
        outcome.record.extend([
            ("requests", samples.len().to_string()),
            ("load_s", load_s.to_string()),
            ("trial_requests", list(&per_trial)),
            ("host_speed", list(&speeds)),
            ("trial_tails_s", list(&trial_tails)),
            ("cells_requested", delta(0)),
            ("cell_cache_hits", delta(1)),
            ("cells_coalesced", delta(2)),
        ]);
        return Ok(outcome);
    }
    for (name, key) in [
        ("serve.cells_requested", 0),
        ("serve.cache_hits", 1),
        ("serve.coalesced", 2),
    ] {
        spans.count(name, counters[key] - before[key]);
    }
    let quick = RunConfig::quick();
    let dir = work.path("quick-store");
    for _ in 0..2 {
        let pass = repro_pass(&quick, &dir, &mut spans);
        tally.check(pass.extraction_matches, || "quick repro pass".to_string());
    }
    let untraced_us = samples
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .map(|r| r.latency_s * 1e6)
        .sum();
    let primary = Primary {
        layer_us: replayed.layer_us,
        wall_us: replayed.wall_us,
        untraced_us,
    };
    Ok(Outcome {
        metrics: layer_metrics(&spans, &primary, mem_bw),
        record: vec![("requests", samples.len().to_string())],
    })
}

/// The server's request, cache-hit and coalesced cell counters, from
/// `GET /metrics`.
fn scrape(server: &Server) -> Result<[f64; 3], String> {
    let reply = exchange(server.addr, &get("/metrics")).map_err(|e| format!("/metrics: {e}"))?;
    let doc = parse(&reply.body).map_err(|e| format!("/metrics: {e}"))?;
    let value = |name: &str| {
        doc.get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok([
        value("serve.cells_requested"),
        value("serve.cache_hits"),
        value("serve.coalesced"),
    ])
}

/// What replaying a load run in process measured.
struct Replayed {
    wall_us: f64,
    layer_us: f64,
}

/// Replays the requests of a load run, in script order, through an
/// in-process service (pre-warmed like the server) and checks each body
/// against the one the server sent. An answer is a pure function of its
/// request, so an untraced replay answers each distinct request once; a
/// traced replay times every request.
fn replay(
    script: &Script,
    samples: &[Sample],
    every: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Replayed, String> {
    let pass = ServePass::new().map_err(|e| format!("in-process service: {e}"))?;
    for raw in script.prewarm() {
        pass.handle(&raw, spans)
            .map_err(|e| format!("prewarm: {e}"))?;
    }
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.index);
    let mut answers: BTreeMap<Vec<u8>, (u16, String)> = BTreeMap::new();
    let layers_before = spans.total_us();
    let start = Instant::now();
    for sample in order {
        let raw = script.request(sample.index);
        let (status, body) = match answers.get(&raw) {
            Some(answer) if !every => answer.clone(),
            _ => {
                let answer = pass
                    .handle(&raw, spans)
                    .map_err(|e| format!("replay: {e}"))?;
                if !every {
                    answers.insert(raw, answer.clone());
                }
                answer
            }
        };
        let same =
            matches!(&sample.reply, Ok(r) if r.status == 200 && status == 200 && r.body == body);
        tally.check(same, || {
            format!("request {} differs from its reference answer", sample.index)
        });
    }
    Ok(Replayed {
        wall_us: micros(start),
        layer_us: spans.total_us() - layers_before,
    })
}

/// A small serve pass for the repro workloads' traced runs, so the serve
/// layers are measured on every run: four sweep requests, then the hot
/// script's pre-warm and 32 of its requests.
fn serve_probe(seed: u64, spans: &mut Spans, tally: &mut Tally) -> Result<(), String> {
    let pass = ServePass::new().map_err(|e| format!("in-process service: {e}"))?;
    let hot = Script::new(seed);
    let requests = (0..4)
        .map(|i| sweep_request(seed, i))
        .chain(hot.prewarm())
        .chain((0..32).map(|i| hot.request(i)));
    for raw in requests {
        let (status, _) = pass
            .handle(&raw, spans)
            .map_err(|e| format!("probe: {e}"))?;
        tally.check(status == 200, || format!("probe request answered {status}"));
    }
    for name in [
        "serve.cells_requested",
        "serve.cache_hits",
        "serve.coalesced",
    ] {
        spans.count(name, pass.counter(name) as f64);
    }
    Ok(())
}

/// The per-layer metrics of a traced run. Repro layer times are totals
/// over the run's passes; serve layer times are means per handled request.
fn layer_metrics(spans: &Spans, primary: &Primary, mem_bw_gb_s: f64) -> Vec<Metric> {
    let per_s = |n: f64, us: f64| ratio(n, us) * 1e6;
    let requests = spans.get("serve.requests");
    let per_request = |layer: &str| ratio(spans.us(layer), requests);
    let annotate_bps = per_s(spans.get("sim.annotate.bytes"), spans.us("sim.annotate"));
    let replay_bps = per_s(spans.get("sim.replay.bytes"), spans.us("sim.replay"));
    let bw = mem_bw_gb_s * 1e9;
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("trace.arena.us", spans.us("trace.arena"), "us"),
        metric(
            "trace.arena.streams",
            spans.get("trace.arena.streams"),
            "count",
        ),
        metric(
            "trace.arena.minst_per_s",
            ratio(
                spans.get("trace.arena.instructions"),
                spans.us("trace.arena"),
            ),
            "Minst/s",
        ),
        metric("sim.annotate.us", spans.us("sim.annotate"), "us"),
        metric(
            "sim.annotate.minst_per_s",
            ratio(
                spans.get("sim.annotate.instructions"),
                spans.us("sim.annotate"),
            ),
            "Minst/s",
        ),
        metric("sim.annotate.bytes_per_s", annotate_bps, "B/s"),
        metric("sim.annotate.bw_frac", ratio(annotate_bps, bw), "ratio"),
        metric("sim.replay.us", spans.us("sim.replay"), "us"),
        metric("sim.replay.lanes", spans.get("sim.replay.lanes"), "count"),
        metric(
            "sim.replay.lane_minst_per_s",
            ratio(
                spans.get("sim.replay.lane_instructions"),
                spans.us("sim.replay"),
            ),
            "Minst/s",
        ),
        metric("sim.replay.bw_frac", ratio(replay_bps, bw), "ratio"),
        metric(
            "experiments.extract.us",
            spans.us("experiments.extract"),
            "us",
        ),
        metric(
            "experiments.runner.overhead_us",
            spans.us("experiments.runner"),
            "us",
        ),
        metric(
            "experiments.runner.cache_hit_ratio",
            ratio(
                spans.get("experiments.runner.hits"),
                spans.get("experiments.runner.requested"),
            ),
            "ratio",
        ),
        metric(
            "experiments.figures.us",
            spans.us("experiments.figures"),
            "us",
        ),
        metric(
            "experiments.figures.ablation.us",
            spans.detail_us("ablation"),
            "us",
        ),
        metric(
            "experiments.figures.issue_policy.us",
            spans.detail_us("issue_policy"),
            "us",
        ),
        metric("store.load.us", spans.us("store.load"), "us"),
        metric(
            "store.load.mb_per_s",
            ratio(spans.get("store.load.bytes"), spans.us("store.load")),
            "MB/s",
        ),
        metric(
            "store.load.records",
            spans.get("store.load.records"),
            "count",
        ),
        metric("store.publish.us", spans.us("store.publish"), "us"),
        metric("store.publish.bytes", spans.get("store.publish.bytes"), "B"),
        metric("serve.http.parse_us", per_request("serve.http.parse"), "us"),
        metric(
            "serve.http.respond_us",
            per_request("serve.http.respond"),
            "us",
        ),
        metric(
            "serve.wire.decode_us",
            per_request("serve.wire.decode"),
            "us",
        ),
        metric(
            "serve.wire.encode_us",
            per_request("serve.wire.encode"),
            "us",
        ),
        metric(
            "serve.service.admission_us",
            per_request("serve.service"),
            "us",
        ),
        metric(
            "serve.service.cache_hit_ratio",
            ratio(
                spans.get("serve.cache_hits"),
                spans.get("serve.cells_requested"),
            ),
            "ratio",
        ),
        metric(
            "serve.service.coalesced_frac",
            ratio(
                spans.get("serve.coalesced"),
                spans.get("serve.cells_requested"),
            ),
            "ratio",
        ),
        metric("serve.dispatch.us", per_request("serve.dispatch"), "us"),
        metric(
            "residual_frac",
            1.0 - ratio(primary.layer_us, primary.wall_us),
            "ratio",
        ),
        metric(
            "trace_overhead_frac",
            ratio(primary.wall_us, primary.untraced_us) - 1.0,
            "ratio",
        ),
        metric("host.mem_bw_gb_s", mem_bw_gb_s, "GB/s"),
    ]
}
