//! The client side of the serve workloads: one-shot HTTP/1.1 exchanges
//! with the benchmark's own `pipedepth-serve` child on 127.0.0.1, the
//! seeded requests, and the two-client closed loop that drives them.

use pipedepth_serve::wire::v1::{EvaluateRequest, WireBackend, WireCell};
use pipedepth_workloads::suite;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Response status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Connect to last byte, in seconds.
    pub latency_s: f64,
}

/// Sends raw request bytes on a fresh connection and reads the whole
/// response (the server closes every connection after answering).
///
/// # Errors
///
/// Socket failures, and responses that are not HTTP.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(raw)?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    let latency_s = start.elapsed().as_secs_f64();
    let (status, body) = parse_response(&bytes)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    Ok(Reply {
        status,
        body,
        latency_s,
    })
}

/// Splits a raw HTTP/1.1 response into its status code and body.
pub fn parse_response(bytes: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

/// Raw bytes of a `POST` carrying a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Raw bytes of a bodyless `GET`.
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").into_bytes()
}

/// SplitMix64, so every scripted request is a pure function of the seed,
/// a stream tag and the request's index.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `(seed, stream, index)`.
    pub fn new(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One item of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// `k` distinct items of `items`, by a partial Fisher-Yates shuffle.
fn pick<T>(rng: &mut Rng, mut items: Vec<T>, k: usize) -> Vec<T> {
    let k = k.min(items.len());
    for i in 0..k {
        let j = i + rng.below((items.len() - i) as u64) as usize;
        items.swap(i, j);
    }
    items.truncate(k);
    items
}

/// Instructions per stream of a sweep request, fixed per workload so a
/// workload's trace and annotation are shared by its requests while the
/// drawn warmup/measured split still makes cells miss.
const SWEEP_TRACE_LEN: u64 = 60_000;

/// Depths per sweep request.
const SWEEP_DEPTHS: usize = 10;

/// Sweep request `i` of `seed`: a `sim` sweep of 10 depths of one suite
/// workload, with a drawn warmup/measured split of its stream so the
/// cells miss every cache and the request is dispatched.
pub fn sweep_request(seed: u64, i: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 1, i);
    let names: Vec<String> = suite().into_iter().map(|w| w.name).collect();
    let w = rng.choose(&names).clone();
    let mut depths = pick(&mut rng, (2..=25).collect::<Vec<u32>>(), SWEEP_DEPTHS);
    depths.sort_unstable();
    let warmup = SWEEP_TRACE_LEN / 6 + rng.below(SWEEP_TRACE_LEN / 3);
    let cells = depths
        .into_iter()
        .map(|d| WireCell {
            warmup: Some(warmup),
            instructions: Some(SWEEP_TRACE_LEN - warmup),
            ..WireCell::new(w.clone(), d)
        })
        .collect();
    post("/v1/evaluate", &sim_request(cells))
}

/// The request sequence of the serve-hot workload: 1-4-cell `sim`
/// requests over a fixed set of 8 workloads × 8 depths, mixed with
/// `GET /v1/optimum`. [`Script::prewarm`] answers every cell first, so
/// nothing is simulated under load. Request `i` is a pure function of the
/// seed and `i`, so any pass can regenerate exactly what a client sent.
#[derive(Debug, Clone)]
pub struct Script {
    seed: u64,
    /// The workloads cells are drawn from.
    pub workloads: Vec<String>,
    /// The depths cells are drawn from.
    pub depths: Vec<u32>,
}

impl Script {
    /// The script for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2, 0);
        let names = suite().into_iter().map(|w| w.name).collect();
        let workloads = pick(&mut rng, names, 8);
        let mut depths = pick(&mut rng, (2..=25).collect(), 8);
        depths.sort_unstable();
        Script {
            seed,
            workloads,
            depths,
        }
    }

    /// The raw HTTP bytes of request `i`.
    pub fn request(&self, i: u64) -> Vec<u8> {
        let mut rng = Rng::new(self.seed, 3, i);
        if rng.unit() < 0.25 {
            let w = rng.choose(&self.workloads);
            let m = 1 + rng.below(3);
            return get(&format!("/v1/optimum?workload={w}&m={m}"));
        }
        let n = 1 + rng.below(4);
        let cells = (0..n)
            .map(|_| {
                let w = rng.choose(&self.workloads).clone();
                WireCell::new(w, *rng.choose(&self.depths))
            })
            .collect();
        post("/v1/evaluate", &sim_request(cells))
    }

    /// The set-up requests a server answers before the load starts: every
    /// cell the script can ask for.
    pub fn prewarm(&self) -> Vec<Vec<u8>> {
        self.workloads
            .iter()
            .map(|w| {
                let cells = self
                    .depths
                    .iter()
                    .map(|&d| WireCell::new(w.clone(), d))
                    .collect();
                post("/v1/evaluate", &sim_request(cells))
            })
            .collect()
    }
}

fn sim_request(cells: Vec<WireCell>) -> String {
    EvaluateRequest {
        backend: WireBackend::Sim,
        deadline_ms: None,
        cells,
    }
    .encode()
}

/// One scripted request and what came back.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request's index in the script.
    pub index: u64,
    /// The reply, or why the exchange failed.
    pub reply: Result<Reply, String>,
    /// When the exchange ended, in seconds since the load started.
    pub done_s: f64,
}

/// Closed loop against the benchmark's own server: `clients` threads each
/// send the next unsent script request as soon as their previous one has
/// been answered, until `duration` has passed. Returns every sample and
/// the wall time of the whole load.
pub fn closed_loop(
    addr: SocketAddr,
    script: &Script,
    clients: usize,
    duration: Duration,
) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let samples = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while start.elapsed() < duration {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let raw = script.request(index);
                        let reply = exchange(addr, &raw).map_err(|e| e.to_string());
                        mine.push(Sample {
                            index,
                            reply,
                            done_s: start.elapsed().as_secs_f64(),
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_pure_functions_of_seed_and_index() {
        let script = Script::new(7);
        for i in [0, 1, 17, 400] {
            assert_eq!(script.request(i), Script::new(7).request(i));
            assert_eq!(sweep_request(7, i), sweep_request(7, i));
        }
        assert_ne!(sweep_request(7, 3), sweep_request(8, 3));
    }

    #[test]
    fn prewarm_covers_the_cell_set() {
        let script = Script::new(5);
        assert_eq!((script.workloads.len(), script.depths.len()), (8, 8));
        assert_eq!(script.prewarm().len(), 8);
    }
}
