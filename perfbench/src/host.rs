//! Facts about the host and the processes the benchmark measures: memory
//! bandwidth, the host's current speed, peak resident set, per-thread CPU
//! time, and what a result must record to be reproduced.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Streaming-copy bandwidth of host memory in GB/s, counting the bytes read
/// and written: the median of nine copies of a 32 MiB buffer, well beyond
/// any cache. The roofline the simulator's throughput is set against.
pub fn mem_bandwidth_gb_s() -> f64 {
    const WORDS: usize = 4 << 20;
    let src: Vec<u64> = (0..WORDS as u64).collect();
    let mut dst = vec![0u64; WORDS];
    let secs: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            start.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * (WORDS * 8) as f64 / crate::stats::median(&secs) / 1e9
}

/// The reference kernel's median time, in microseconds, on the host the
/// benchmark was tuned on (2 vCPUs of a shared Xeon server, in a quiet
/// period). Host-speed factors are relative to it.
pub const REFERENCE_KERNEL_US: f64 = 250.0;

/// Steps of one reference-kernel sample.
const KERNEL_STEPS: usize = 20_000;

/// Pause between two samples of one CPU, so the probe takes about 0.5% of
/// it.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Fewest samples a host-speed factor is taken from.
const MIN_SAMPLES: usize = 40;

/// A fixed, std-only stand-in for the simulator's inner loop: it walks a
/// table of random "instructions" and dispatches on each, training a
/// predictor table or probing a tag table, with about 6 MiB of state, so a
/// neighbour that slows the simulator's caches or core slows it alike.
/// Nothing in it depends on the measured program, so a change to the
/// program cannot move it.
struct Kernel {
    ops: Vec<u32>,
    predictor: Vec<u8>,
    tags: Vec<u32>,
}

impl Kernel {
    fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        Kernel {
            ops: (0..256 << 10).map(|_| next()).collect(),
            predictor: vec![1; 1 << 20],
            tags: vec![0; 1 << 20],
        }
    }

    /// Microseconds `KERNEL_STEPS` steps take.
    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let (mut acc, mut history) = (1u64, 0usize);
        let (o_mask, p_mask, t_mask) = (
            self.ops.len() - 1,
            self.predictor.len() - 1,
            self.tags.len() - 1,
        );
        for k in 0..KERNEL_STEPS {
            let op = self.ops[k & o_mask];
            match op & 3 {
                0 => acc = acc.wrapping_add(u64::from(op)),
                1 => {
                    let i = (history.wrapping_mul(0x9e37) ^ op as usize) & p_mask;
                    let taken = (op >> 4) & 1 == 1;
                    let counter = &mut self.predictor[i];
                    if (*counter >= 2) != taken {
                        acc += 1;
                    }
                    *counter = if taken {
                        (*counter + 1).min(3)
                    } else {
                        counter.saturating_sub(1)
                    };
                    history = (history << 1 | usize::from(taken)) & 0xf_ffff;
                }
                2 => {
                    let slot = &mut self.tags[(op as usize >> 2) & t_mask];
                    if *slot != op {
                        *slot = op;
                        acc ^= 7;
                    }
                }
                _ => acc = acc.rotate_left(5) ^ u64::from(op),
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e6
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask as the kernel's affinity calls take it (up to 1024 CPUs).
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `cpusetsize` bytes into the mask,
    // which outlives the call; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return (0..nproc()).collect();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

/// Pins the calling thread to CPU `cpu`; false when the host refuses.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask outlives the call and its size is passed with it;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The host's speed while the benchmark measures. On a shared host a
/// neighbour's load slows every CPU-bound program for seconds to minutes
/// at a time, by up to half. One thread per allowed CPU, pinned to it,
/// times the reference kernel every 50 ms; a measured span's host-speed
/// factor is [`REFERENCE_KERNEL_US`] over the median sample taken during
/// it, and a time multiplied by it reads as on the quiet reference host.
/// The kernel tracks the simulator-bound cold `repro` (on the tuning host
/// the variation of its invocations fell from 17% to 6% of their mean) and
/// the server; a warm `repro` is far less sensitive to neighbours than the
/// kernel, so its times are scaled by a [`CopyHashKernel`] instead.
#[derive(Debug)]
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    /// `(cpu, when, kernel microseconds)`.
    samples: Arc<Mutex<Vec<(usize, Instant, f64)>>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl SpeedProbe {
    /// Starts sampling every CPU this process may run on.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let handles = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
                thread::spawn(move || {
                    if !pin_current_thread(cpu) {
                        return;
                    }
                    let mut kernel = Kernel::new();
                    while !stop.load(Ordering::Relaxed) {
                        let us = kernel.sample();
                        if let Ok(mut all) = samples.lock() {
                            all.push((cpu, Instant::now(), us));
                        }
                        thread::sleep(SAMPLE_EVERY);
                    }
                })
            })
            .collect();
        SpeedProbe {
            stop,
            samples,
            handles,
        }
    }

    /// The host-speed factor of the span `from..to` on CPU `cpu` (on all
    /// CPUs for `None`): below 1 when the host ran slower than the
    /// reference. The span's samples, or the nearest [`MIN_SAMPLES`] when
    /// it holds fewer (about two seconds of one CPU's samples, so a short
    /// span's factor is not one noisy sample); 1 when there are none.
    pub fn factor(&self, from: Instant, to: Instant, cpu: Option<usize>) -> f64 {
        let Ok(all) = self.samples.lock() else {
            return 1.0;
        };
        let on_cpu = |c: &usize| cpu.is_none_or(|want| want == *c);
        let mut inside: Vec<f64> = all
            .iter()
            .filter(|(c, at, _)| on_cpu(c) && (from..=to).contains(at))
            .map(|&(_, _, us)| us)
            .collect();
        if inside.len() < MIN_SAMPLES {
            let mut nearest: Vec<(Duration, f64)> = all
                .iter()
                .filter(|(c, _, _)| on_cpu(c))
                .map(|&(_, at, us)| (distance(at, from).min(distance(at, to)), us))
                .collect();
            nearest.sort_by_key(|&(d, _)| d);
            inside = nearest
                .iter()
                .take(MIN_SAMPLES)
                .map(|&(_, us)| us)
                .collect();
        }
        match crate::stats::median(&inside) {
            us if us > 0.0 => REFERENCE_KERNEL_US / us,
            _ => 1.0,
        }
    }
}

impl Drop for SpeedProbe {
    /// Stops the sampling threads and waits for them.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn distance(a: Instant, b: Instant) -> Duration {
    a.saturating_duration_since(b)
        .max(b.saturating_duration_since(a))
}

/// The copy-and-hash kernel's median time, in microseconds, on the host
/// the benchmark was tuned on, in a quiet period.
pub const REFERENCE_COPY_HASH_US: f64 = 25_000.0;

/// Bytes one copy-and-hash sample copies and hashes.
const COPY_HASH_BYTES: usize = 8 << 20;

/// Samples on either side of an operation its copy-and-hash factor is
/// taken from.
const COPY_HASH_REACH: usize = 4;

/// A fixed miniature of what a warm `repro` spends its time on, loading
/// its store: copy an 8 MiB image into fresh memory and take two FNV-1a
/// passes over it, as a store load takes a file and a record checksum.
/// On a shared host it slows with a busy neighbour about as a warm run
/// does, where the [`SpeedProbe`]'s cache-bound kernel slows about twice
/// as much. Nothing in it depends on the measured program.
#[derive(Debug)]
pub struct CopyHashKernel {
    image: Vec<u8>,
}

impl Default for CopyHashKernel {
    fn default() -> Self {
        CopyHashKernel {
            image: (0..COPY_HASH_BYTES as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
        }
    }
}

impl CopyHashKernel {
    /// Microseconds one sample takes.
    pub fn sample(&self) -> f64 {
        let start = Instant::now();
        let copy = black_box(&self.image).clone();
        black_box(fnv1a(&copy) ^ fnv1a(&copy[1..]));
        drop(copy);
        start.elapsed().as_secs_f64() * 1e6
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Host-speed factors of a sequence of operations, each run right after a
/// copy-and-hash sample: [`REFERENCE_COPY_HASH_US`] over the median of the
/// samples up to [`COPY_HASH_REACH`] places either side of it.
pub fn copy_hash_factors(samples_us: &[f64]) -> Vec<f64> {
    (0..samples_us.len())
        .map(|i| {
            let near = &samples_us[i.saturating_sub(COPY_HASH_REACH)
                ..(i + COPY_HASH_REACH + 1).min(samples_us.len())];
            match crate::stats::median(near) {
                us if us > 0.0 => REFERENCE_COPY_HASH_US / us,
                _ => 1.0,
            }
        })
        .collect()
}

/// Runs `f` on a thread pinned to CPU `cpu` (unpinned when the host
/// refuses) and returns its result.
pub fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> T + Send) -> T {
    thread::scope(|s| {
        s.spawn(|| {
            pin_current_thread(cpu);
            f()
        })
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Polls a child's `VmHWM` every few milliseconds until finished. The
/// high-water mark only grows, so the last reading before the child exits
/// is its peak, short of growth in the final poll interval.
#[derive(Debug)]
pub struct RssWatch {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<u64>,
}

impl RssWatch {
    /// Starts polling process `pid`.
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                if let Some(kib) = vm_hwm_kib(pid) {
                    peak = kib.max(peak);
                }
                thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        RssWatch { stop, handle }
    }

    /// Stops polling and returns the peak seen, in KiB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0)
    }
}

/// The kernel thread id of the calling thread.
pub fn current_tid() -> Option<u32> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// On-CPU time so far of thread `tid` of this process, in microseconds,
/// from the scheduler's nanosecond accounting.
pub fn thread_cpu_us(tid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e3)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from the repository metadata without
/// running git; `None` outside a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let meta = root.join(".git");
    let head = std::fs::read_to_string(meta.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(meta.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(meta.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| Some(l.strip_suffix(reference)?.trim().to_string()))
}

/// FNV-1a digest of the measured program's sources (`Cargo.toml`,
/// `Cargo.lock` and every file under `crates/`), so a result names the
/// code it measured even where no git metadata exists.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(&file).unwrap_or_default());
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_probe_samples_every_allowed_cpu() {
        let probe = SpeedProbe::start();
        let start = Instant::now();
        thread::sleep(Duration::from_millis(300));
        let factor = probe.factor(start, Instant::now(), None);
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
        let samples = probe.samples.lock().map(|s| s.len()).unwrap_or(0);
        assert!(samples >= allowed_cpus().len(), "{samples} samples");
    }

    #[test]
    fn copy_hash_factors_take_the_median_of_nearby_samples() {
        let (r, s) = (REFERENCE_COPY_HASH_US, 2.0 * REFERENCE_COPY_HASH_US);
        let samples = [r, r, s, s, s, s, s, r, r, r, r];
        let got = copy_hash_factors(&samples);
        // Operation 0 sees samples 0..=4: three of five are slow.
        assert_eq!(got[0], 0.5);
        // Operation 10 sees samples 6..=10: one of five is slow.
        assert_eq!(got[10], 1.0);
        assert_eq!(copy_hash_factors(&[0.0]), vec![1.0]);
        assert!(copy_hash_factors(&[]).is_empty());
        let sample = on_cpu(allowed_cpus()[0], || CopyHashKernel::default().sample());
        assert!(sample > 0.0, "{sample}");
    }

    #[test]
    fn speed_factor_is_one_without_samples() {
        let probe = SpeedProbe {
            stop: Arc::new(AtomicBool::new(true)),
            samples: Arc::new(Mutex::new(Vec::new())),
            handles: Vec::new(),
        };
        let now = Instant::now();
        assert_eq!(probe.factor(now, now, None), 1.0);
        assert_eq!(probe.factor(now, now, Some(0)), 1.0);
    }
}
