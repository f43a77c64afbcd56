//! A minimal, bounded HTTP/1.1 layer over `std::net`.
//!
//! The workspace is dependency-free beyond `std`, so the service speaks
//! just enough HTTP/1.1 for its JSON API: one request per connection
//! (`Connection: close` on every response), request line + headers +
//! `Content-Length` body, all size-bounded so a misbehaving client cannot
//! balloon memory. No chunked encoding, no keep-alive, no TLS — this is
//! an experiment-control endpoint, not an internet-facing server.

use pipedepth_telemetry::Stopwatch;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request line, in bytes.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most accepted header lines.
const MAX_HEADERS: usize = 64;
/// Longest accepted header line, in bytes.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Largest accepted request body, in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The path component, percent-decoded (`/v1/evaluate`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a connection could not be served; carries the status the client
/// should see.
#[derive(Debug)]
pub struct HttpError {
    /// The HTTP status to answer with.
    pub status: u16,
    /// A short human-readable reason.
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError {
            status: 400,
            message: format!("read failed: {e}"),
        }
    }
}

/// Reads one bounded CRLF- (or LF-) terminated line.
fn read_line(reader: &mut impl BufRead, cap: usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= cap {
                    return Err(HttpError {
                        status: 431,
                        message: "line too long".to_string(),
                    });
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::bad_request("non-UTF-8 header data"))
}

/// How long the server waits for a client's whole request — request line,
/// headers and body — counted from the call to [`read_request`]. Bounds
/// how long an idle or trickling client holds a connection handler, and
/// how long shutdown can wait on one.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Reads and parses one request from the stream, within `READ_TIMEOUT`
/// (5 s).
///
/// # Errors
///
/// [`HttpError`] with a client-appropriate status: 400 for malformed
/// syntax or a request not complete in time, 413 for oversized bodies,
/// 431 for oversized header lines.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    parse_request(BufReader::new(Deadline {
        stream,
        started: Stopwatch::start(),
        budget: READ_TIMEOUT,
    }))
}

/// A socket whose reads, or writes, share one deadline, `budget` after
/// `started`: before each read from the socket the read timeout, and
/// before each write the write timeout, is set to the time left, and once
/// none is left the call fails as timed out. A client that trickles its
/// bytes fails as one that stalls does, and so does one that reads its
/// answer slowly or never.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    started: Stopwatch,
    budget: Duration,
}

impl Deadline<'_> {
    /// The time left before the deadline; `TimedOut` once none is.
    fn left(&self) -> io::Result<Duration> {
        let elapsed = Duration::from_secs_f64(self.started.elapsed_us() / 1e6);
        let left = self.budget.saturating_sub(elapsed);
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.left()?;
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.left()?;
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn parse_request(mut reader: impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_line(&mut reader, MAX_REQUEST_LINE)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::bad_request("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError {
            status: 505,
            message: format!("unsupported version {version:?}"),
        });
    }
    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let line = read_line(&mut reader, MAX_HEADER_LINE)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad_request(format!("malformed header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::bad_request("invalid Content-Length"))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError {
            status: 413,
            message: format!("body of {content_length} bytes exceeds the {MAX_BODY} limit"),
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::bad_request("non-UTF-8 request body"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method,
        path: percent_decode(path),
        query: parse_query(query),
        body,
    })
}

/// Decodes `%XX` escapes and `+` (as space); malformed escapes pass
/// through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3])
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a query string into decoded key/value pairs.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// The reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// How long the server spends writing one response, counted from the call
/// to [`respond`]. Bounds how long a client that reads slowly, or never,
/// holds a connection handler, and how long shutdown can wait on one.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Writes one complete response, head and body in a single write, within
/// `WRITE_TIMEOUT` (5 s), and flags the connection for closing. Write
/// failures, a missed deadline included, are swallowed: the client hung
/// up or stopped reading, and the server has nothing better to do with
/// the error than to close the connection.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) {
    let mut response = String::with_capacity(128 + body.len());
    let _ = write!(
        response,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(response, "{name}: {value}\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    let mut writer = Deadline {
        stream,
        started: Stopwatch::start(),
        budget: WRITE_TIMEOUT,
    };
    let _ = writer.write_all(response.as_bytes());
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Round-trips raw request bytes through a real socket pair.
    fn parse_over_socket(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound");
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut client = TcpStream::connect(addr).expect("connect");
            client.write_all(&raw).expect("send");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let parsed = read_request(&mut conn);
        writer.join().expect("writer");
        parsed
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse_over_socket(
            b"POST /v1/evaluate?mode=a+b&x=%2F HTTP/1.1\r\n\
              Host: localhost\r\n\
              Content-Length: 4\r\n\
              \r\n\
              {\"a\"",
        )
        .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/evaluate");
        assert_eq!(req.param("mode"), Some("a b"));
        assert_eq!(req.param("x"), Some("/"));
        assert_eq!(req.param("missing"), None);
        assert_eq!(req.body, "{\"a\"");
    }

    #[test]
    fn parses_a_bodyless_get_with_lf_only_lines() {
        let req = parse_over_socket(b"GET /healthz HTTP/1.1\nHost: x\n\n").expect("lenient CRLF");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
        assert!(req.query.is_empty());
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let err = parse_over_socket(b"GET /x HTTP/2\r\n\r\n").expect_err("wrong version");
        assert_eq!(err.status, 505);
        let err = parse_over_socket(b"GET\r\n\r\n").expect_err("no target");
        assert_eq!(err.status, 400);
        let huge = format!(
            "POST /v1/evaluate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse_over_socket(huge.as_bytes()).expect_err("body too large");
        assert_eq!(err.status, 413);
        let err = parse_over_socket(b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n")
            .expect_err("bad header");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn a_trickled_request_fails_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound");
        let raw = b"GET /healthz HTTP/1.1\r\nHost: loopback\r\n\r\n";
        let gap = Duration::from_millis(50);
        let writer = thread::spawn(move || {
            let mut client = TcpStream::connect(addr).expect("connect");
            for byte in raw {
                if client.write_all(&[*byte]).is_err() {
                    break;
                }
                thread::sleep(gap);
            }
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let started = Stopwatch::start();
        let parsed = parse_request(BufReader::new(Deadline {
            stream: &mut conn,
            started,
            budget: Duration::from_millis(200),
        }));
        let took_ms = started.elapsed_us() / 1e3;
        drop(conn);
        writer.join().expect("writer");
        // Every byte arrives within 50 ms of the last, so a timeout per
        // read would wait out the whole trickle and parse it.
        let trickle_ms = raw.len() as f64 * 50.0;
        let err = parsed.expect_err("the deadline passes mid-request");
        assert_eq!(err.status, 400, "{err}");
        assert!(
            took_ms < trickle_ms / 2.0,
            "read took {took_ms} ms of a {trickle_ms} ms trickle"
        );
    }

    #[test]
    fn a_write_to_a_peer_that_never_reads_fails_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound");
        // The peer keeps its socket open and never reads, so loopback's
        // buffers fill long before 16 MB are through.
        let peer = TcpStream::connect(addr).expect("connect");
        let (mut conn, _) = listener.accept().expect("accept");
        let body = vec![b'x'; 16 << 20];
        let started = Stopwatch::start();
        let written = Deadline {
            stream: &mut conn,
            started,
            budget: Duration::from_millis(200),
        }
        .write_all(&body);
        let took_ms = started.elapsed_us() / 1e3;
        drop(peer);
        let err = written.expect_err("the deadline passes mid-write");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "{err}"
        );
        assert!(
            took_ms < 1_000.0,
            "write took {took_ms} ms of a 200 ms budget"
        );
    }

    #[test]
    fn responses_are_well_formed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound");
        let reader = thread::spawn(move || {
            let mut client = TcpStream::connect(addr).expect("connect");
            let mut out = String::new();
            client.read_to_string(&mut out).expect("read");
            out
        });
        let (mut conn, _) = listener.accept().expect("accept");
        respond(
            &mut conn,
            429,
            "application/json",
            &[("Retry-After", "1".to_string())],
            "{\"ok\": false}",
        );
        drop(conn);
        let raw = reader.join().expect("reader");
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        assert!(raw.contains("Content-Length: 13\r\n"), "{raw}");
        assert!(raw.ends_with("{\"ok\": false}"), "{raw}");
    }
}
