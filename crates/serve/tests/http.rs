//! End-to-end HTTP smoke over a real loopback socket: health, run
//! (miss then byte-identical hit), live metrics, typed error
//! statuses, and the input bounds.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use hsim_serve::{http, Server, ServerConfig};

/// Minimal HTTP/1.1 client: returns (status, headers, body).
fn request(
    addr: &std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, Vec<u8>) {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, req.as_bytes())
}

/// Send `req` verbatim and parse the reply: (status, headers, body).
fn send_raw(addr: &std::net::SocketAddr, req: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(req).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("recv");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body split");
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head, raw[split + 4..].to_vec())
}

#[test]
fn http_endpoints_end_to_end() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| http::serve(&server, listener, Some(6)).expect("serve"));

        let (status, _, body) = request(&addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

        let run_body = "mode=default&grid=24,16,8&cycles=2&balanced=0";
        let (status, head, cold) = request(&addr, "POST", "/run", run_body);
        assert_eq!(status, 200, "cold run head: {head}");
        assert!(head.contains("X-Cache: miss"), "head: {head}");
        assert!(head.contains("X-Content-Key: "), "head: {head}");
        assert!(cold.starts_with(b"schema,"), "body starts with CSV header");

        let (status, head, warm) = request(&addr, "POST", "/run", run_body);
        assert_eq!(status, 200);
        assert!(head.contains("X-Cache: hit"), "head: {head}");
        assert_eq!(cold, warm, "hit must be byte-identical to the miss");

        let (status, _, metrics) = request(&addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).expect("utf8 metrics");
        assert!(text.contains("hsim_serve_hits 1"), "metrics:\n{text}");
        assert!(text.contains("hsim_serve_misses 1"), "metrics:\n{text}");
        assert!(text.contains("hsim_serve_latency_us{quantile=\"0.99\"}"));

        let (status, _, _) = request(&addr, "GET", "/no-such-endpoint", "");
        assert_eq!(status, 404);

        let (status, _, _) = request(&addr, "POST", "/run", "mode=warp");
        assert_eq!(status, 400);
    });
}

#[test]
fn oversized_and_malformed_input_is_refused_typed() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| http::serve(&server, listener, Some(5)).expect("serve"));

        // Request line past the 16 KiB head budget.
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(20 * 1024));
        let (status, head, body) = send_raw(&addr, long_path.as_bytes());
        assert_eq!(status, 431, "head: {head}");
        assert!(
            head.contains("Request Header Fields Too Large"),
            "head: {head}"
        );
        assert!(String::from_utf8_lossy(&body).contains("exceed"));

        // Headers that together pass the budget.
        let many = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: 0123456789abcdef\r\n".repeat(1024)
        );
        assert_eq!(send_raw(&addr, many.as_bytes()).0, 431);

        // A Content-Length that is not a byte count.
        let bad_len = "POST /run HTTP/1.1\r\nContent-Length: lots\r\n\r\nmode=default";
        let (status, _, body) = send_raw(&addr, bad_len.as_bytes());
        assert_eq!(status, 400);
        assert_eq!(body, b"malformed Content-Length\n");

        // A body over 1 MiB is refused, not truncated; the bytes the
        // client did send are drained so the reply arrives intact.
        let mut big =
            format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20).into_bytes();
        big.extend(std::iter::repeat_n(b'k', 64 * 1024));
        let (status, head, body) = send_raw(&addr, &big);
        assert_eq!(status, 413, "head: {head}");
        assert!(head.contains("Content Too Large"), "head: {head}");
        assert!(String::from_utf8_lossy(&body).contains("2097152"));

        // The server is still healthy afterwards.
        let (status, _, body) = request(&addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    });
}
