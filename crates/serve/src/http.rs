//! Thin HTTP/1.1 front end over pure-std TCP — no external deps, no
//! async runtime. One connection is handled at a time (`Connection:
//! close`); concurrency lives in the server's worker pool behind
//! [`Server::submit`], not in the socket layer.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness, `200 ok`.
//! * `GET /metrics` — the telemetry registry in Prometheus text
//!   format, including the `serve_*` counters and latency quantiles.
//! * `POST /run` — body is `key=value` pairs (`&`- or
//!   newline-separated): `mode=default|mps|hetero|cpuonly`,
//!   `grid=X,Y,Z`, `cycles=N`, `balanced=0|1` (default 1),
//!   `problem=sedov|sod|perturbed`,
//!   `scenario=sedov|sod|noh|taylor-green` (first-class setups; folds
//!   into the content hash through the selected problem),
//!   `particles=COUNT` (enable the tracer-particle phase),
//!   `deadline_ms=N`. Replies with the rendered run report;
//!   `X-Cache: hit|miss` and `X-Content-Key` carry the cache
//!   disposition and key.
//! * `GET /figure/<id>` — the figure sweep CSV (e.g. `/figure/fig14`).
//!
//! Typed failures map to statuses: queue full → 429, deadline → 504,
//! run failure → 422, bad request → 400, shutdown → 503. Input is
//! bounded before routing: a request line plus headers over 16 KiB →
//! 431, a declared body over 1 MiB → 413, a malformed request line or
//! `Content-Length` → 400.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use hsim_core::runner::{Problem, RunConfig};
use hsim_core::{ExecMode, Scenario};
use hsim_particles::ParticlesConfig;

use crate::server::{Request, ServeError, Server};

/// Socket read timeout: a stalled client must not wedge the accept
/// loop forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Most bytes a request line plus headers may take (431 beyond).
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Largest accepted request body (413 beyond).
const MAX_BODY_BYTES: usize = 1 << 20;

/// Most unread request bytes discarded after a refusal before the
/// connection closes.
const DRAIN_BYTES: u64 = MAX_BODY_BYTES as u64 + MAX_HEAD_BYTES;

/// Serve HTTP requests from `listener` until `max_requests` have been
/// answered (`None` = forever). Bind the listener yourself (port 0
/// works for tests) so the address is known before serving starts.
pub fn serve(
    server: &Server,
    listener: TcpListener,
    max_requests: Option<usize>,
) -> std::io::Result<()> {
    for (served, stream) in listener.incoming().enumerate() {
        let stream = stream?;
        // A single misbehaving client should cost one connection, not
        // the server: IO errors are per-connection and non-fatal.
        let _ = handle_connection(server, stream);
        if max_requests.is_some_and(|m| served + 1 >= m) {
            break;
        }
    }
    Ok(())
}

fn handle_connection(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(&stream);
    let Incoming { method, path, body } = match read_request(&mut reader)? {
        Ok(incoming) => incoming,
        Err(reject) => {
            respond(&stream, reject.status(), reject.to_string().as_bytes(), &[])?;
            // Lingering close: closing with unread request bytes would
            // reset the connection and could drop the reply before the
            // client reads it, so half-close and drain a bounded amount.
            stream.shutdown(Shutdown::Write)?;
            std::io::copy(&mut reader.take(DRAIN_BYTES), &mut std::io::sink())?;
            return Ok(());
        }
    };

    match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => respond(&stream, 200, b"ok\n", &[]),
        ("GET", "/metrics") => respond(&stream, 200, server.metrics_text().as_bytes(), &[]),
        ("POST", "/run") => match parse_run_body(&body) {
            Ok(req) => match server.submit(req) {
                Ok(resp) => {
                    let headers = [
                        format!("X-Cache: {}", if resp.cached { "hit" } else { "miss" }),
                        format!("X-Content-Key: {:016x}", resp.key),
                    ];
                    respond(&stream, 200, &resp.outcome.bytes, &headers)
                }
                Err(e) => respond_error(&stream, &e),
            },
            Err(e) => respond_error(&stream, &e),
        },
        ("GET", p) if p.starts_with("/figure/") => {
            let id = &p["/figure/".len()..];
            let modes = [ExecMode::Default, ExecMode::mps4(), ExecMode::hetero()];
            match server.figure_csv(id, &modes) {
                Ok(csv) => respond(&stream, 200, csv.as_bytes(), &[]),
                Err(e) => respond_error(&stream, &e),
            }
        }
        _ => respond(&stream, 404, b"not found\n", &[]),
    }
}

/// A request that passed the input bounds.
struct Incoming {
    method: String,
    path: String,
    body: String,
}

/// Why a request was refused before routing.
#[derive(Debug, PartialEq)]
enum Reject {
    /// No method and path on the request line → 400.
    MalformedRequestLine,
    /// A `Content-Length` that is not a decimal byte count → 400.
    MalformedContentLength,
    /// Request line plus headers over [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// Declared body over [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge(usize),
}

impl Reject {
    fn status(&self) -> u16 {
        match self {
            Reject::MalformedRequestLine | Reject::MalformedContentLength => 400,
            Reject::HeadTooLarge => 431,
            Reject::BodyTooLarge(_) => 413,
        }
    }
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::MalformedRequestLine => writeln!(f, "malformed request line"),
            Reject::MalformedContentLength => writeln!(f, "malformed Content-Length"),
            Reject::HeadTooLarge => {
                writeln!(f, "request line and headers exceed {MAX_HEAD_BYTES} bytes")
            }
            Reject::BodyTooLarge(n) => {
                writeln!(f, "body of {n} bytes exceeds {MAX_BODY_BYTES} bytes")
            }
        }
    }
}

/// Read the request line, headers and body, refusing input over the
/// bounds. IO errors (timeouts, resets, non-UTF-8 heads) end the
/// connection without a reply.
fn read_request<R: BufRead>(reader: &mut R) -> std::io::Result<Result<Incoming, Reject>> {
    let mut head = Read::take(reader, MAX_HEAD_BYTES);
    let mut line = String::new();
    if !read_head_line(&mut head, &mut line)? {
        return Ok(Err(Reject::HeadTooLarge));
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(Err(Reject::MalformedRequestLine));
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0usize;
    loop {
        line.clear();
        if !read_head_line(&mut head, &mut line)? {
            return Ok(Err(Reject::HeadTooLarge));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse() {
                    Ok(n) => content_length = n,
                    Err(_) => return Ok(Err(Reject::MalformedContentLength)),
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(Reject::BodyTooLarge(content_length)));
    }
    let mut body = vec![0u8; content_length];
    head.into_inner().read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body).into_owned();
    Ok(Ok(Incoming { method, path, body }))
}

/// Append one head line to `buf`; `false` when the head budget ran out
/// before its line feed.
fn read_head_line<R: BufRead>(head: &mut Take<R>, buf: &mut String) -> std::io::Result<bool> {
    head.read_line(buf)?;
    Ok(buf.ends_with('\n') || head.limit() > 0)
}

/// Parse the `POST /run` body into a [`Request`].
fn parse_run_body(body: &str) -> Result<Request, ServeError> {
    let mut cfg = RunConfig::sweep((64, 48, 32), ExecMode::hetero());
    let mut balanced = true;
    let mut deadline = None;
    for pair in body.split(['&', '\n']) {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| ServeError::BadRequest(format!("expected key=value, got `{pair}`")))?;
        let bad = |what: &str| ServeError::BadRequest(format!("bad {what} `{v}`"));
        match k {
            "mode" => {
                cfg.mode = match v {
                    "default" => ExecMode::Default,
                    "mps" => ExecMode::mps4(),
                    "hetero" => ExecMode::hetero(),
                    "cpuonly" => ExecMode::CpuOnly,
                    _ => return Err(bad("mode")),
                }
            }
            "grid" => {
                let dims: Vec<usize> = v
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|_| bad("grid")))
                    .collect::<Result<_, _>>()?;
                cfg.grid = match dims.as_slice() {
                    [x, y, z] => (*x, *y, *z),
                    _ => return Err(bad("grid")),
                };
            }
            "cycles" => cfg.cycles = v.parse().map_err(|_| bad("cycles"))?,
            "problem" => {
                cfg.problem = match v {
                    "sedov" => Problem::default(),
                    "sod" => Problem::Sod(Default::default()),
                    "perturbed" => Problem::Perturbed(Default::default()),
                    _ => return Err(bad("problem")),
                }
            }
            "scenario" => cfg.problem = Scenario::parse(v).map_err(|_| bad("scenario"))?.problem(),
            "particles" => {
                cfg.particles = Some(ParticlesConfig {
                    count: v.parse().map_err(|_| bad("particles"))?,
                    ..ParticlesConfig::default()
                })
            }
            "balanced" => {
                balanced = match v {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    _ => return Err(bad("balanced")),
                }
            }
            "deadline_ms" => {
                deadline = Some(Duration::from_millis(
                    v.parse().map_err(|_| bad("deadline_ms"))?,
                ))
            }
            _ => return Err(ServeError::BadRequest(format!("unknown key `{k}`"))),
        }
    }
    Ok(Request {
        cfg,
        balanced,
        deadline,
    })
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Content Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

fn respond_error(stream: &TcpStream, e: &ServeError) -> std::io::Result<()> {
    respond(stream, e.http_status(), format!("{e}\n").as_bytes(), &[])
}

/// Write the status line, headers and body with one `write_all`.
fn respond(
    mut stream: &TcpStream,
    status: u16,
    body: &[u8],
    extra_headers: &[String],
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_reason(status),
        body.len()
    )
    .into_bytes();
    for h in extra_headers {
        out.extend_from_slice(h.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_body_parses_and_defaults() {
        let req = parse_run_body("mode=default&grid=24,16,8&cycles=3").expect("parses");
        assert_eq!(req.cfg.mode, ExecMode::Default);
        assert_eq!(req.cfg.grid, (24, 16, 8));
        assert_eq!(req.cfg.cycles, 3);
        assert!(req.balanced);
        assert!(req.deadline.is_none());

        let req = parse_run_body("balanced=0\ndeadline_ms=250").expect("parses");
        assert!(!req.balanced);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn scenario_and_particles_keys_select_distinct_cache_keys() {
        let base = parse_run_body("grid=24,16,8&cycles=2").expect("parses");
        let mut seen = vec![base.cfg.content_hash()];
        for body in [
            "grid=24,16,8&cycles=2&scenario=sod",
            "grid=24,16,8&cycles=2&scenario=noh",
            "grid=24,16,8&cycles=2&scenario=taylor-green",
            "grid=24,16,8&cycles=2&particles=256",
        ] {
            let req = parse_run_body(body).expect("parses");
            let h = req.cfg.content_hash();
            assert!(!seen.contains(&h), "body `{body}` aliased a cache key");
            seen.push(h);
        }
        // `scenario=sedov` is the default problem: same content key.
        let sedov = parse_run_body("grid=24,16,8&cycles=2&scenario=sedov").expect("parses");
        assert_eq!(sedov.cfg.content_hash(), base.cfg.content_hash());
        let parts = parse_run_body("particles=512").expect("parses");
        assert_eq!(parts.cfg.particles.map(|p| p.count), Some(512));
    }

    #[test]
    fn run_body_rejections_are_typed() {
        for body in [
            "mode=warp",
            "grid=1,2",
            "cycles=ten",
            "balanced=maybe",
            "nonsense",
            "frobnicate=1",
            "scenario=vortex",
            "particles=lots",
        ] {
            let err = parse_run_body(body).unwrap_err();
            assert_eq!(err.http_status(), 400, "body `{body}` → {err:?}");
        }
    }

    #[test]
    fn status_reasons_cover_every_serve_error() {
        for e in [
            ServeError::QueueFull { capacity: 1 },
            ServeError::DeadlineExpired { waited_ms: 1 },
            ServeError::Run(String::new()),
            ServeError::BadRequest(String::new()),
            ServeError::ShuttingDown,
        ] {
            assert_ne!(status_reason(e.http_status()), "Error");
        }
        for r in [
            Reject::MalformedRequestLine,
            Reject::MalformedContentLength,
            Reject::HeadTooLarge,
            Reject::BodyTooLarge(0),
        ] {
            assert_ne!(status_reason(r.status()), "Error", "{r:?}");
        }
    }

    fn read(raw: &[u8]) -> Result<Incoming, Reject> {
        let mut reader = raw;
        read_request(&mut reader).expect("in-memory reads do not fail")
    }

    #[test]
    fn requests_within_bounds_parse() {
        let req = read(b"POST /run HTTP/1.1\r\ncontent-LENGTH: 5\r\n\r\nmode=x").expect("parses");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/run"));
        assert_eq!(req.body, "mode=");
        // A head of exactly the budget still parses.
        let pad = MAX_HEAD_BYTES as usize - "GET / HTTP/1.1\r\nX: \r\n\r\n".len();
        let raw = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(raw.len() as u64, MAX_HEAD_BYTES);
        assert!(read(raw.as_bytes()).is_ok());
        // A body of exactly the cap is read whole.
        let body = "k".repeat(MAX_BODY_BYTES);
        let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n{body}");
        assert_eq!(
            read(raw.as_bytes()).map(|r| r.body.len()).ok(),
            Some(MAX_BODY_BYTES)
        );
    }

    #[test]
    fn requests_over_bounds_are_refused_typed() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES as usize)
        );
        assert_eq!(read(long_line.as_bytes()).err(), Some(Reject::HeadTooLarge));
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-Pad: 0123456789\r\n".repeat(2000)
        );
        assert_eq!(
            read(many_headers.as_bytes()).err(),
            Some(Reject::HeadTooLarge)
        );
        for bad in ["abc", "-1", "1e3", "", "99999999999999999999999"] {
            let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert_eq!(
                read(raw.as_bytes()).err(),
                Some(Reject::MalformedContentLength),
                "{bad:?}"
            );
        }
        let over = MAX_BODY_BYTES + 1;
        let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {over}\r\n\r\n");
        assert_eq!(read(raw.as_bytes()).err(), Some(Reject::BodyTooLarge(over)));
        assert_eq!(read(b"\r\n").err(), Some(Reject::MalformedRequestLine));
    }
}
