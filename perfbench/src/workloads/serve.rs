//! `serve`: a closed loop of `nproc` HTTP clients against an in-process
//! `hsim-serve` over loopback. Each client sends its next request when
//! the previous reply has arrived. The seeded mix is 80% repeated
//! cost-only configs (cache hits), 15% Default-mode configs never sent
//! before (misses that execute and fill the cache) and 5% `/metrics`
//! reads. Hits and `/metrics` reads are the fast 85%, so `op_ms_p50`
//! falls among hits and `op_ms_p90` among misses, clear of the edge
//! between the two.
//! Every `/run` body must equal the bytes of an in-process run of the
//! same config.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hsim_core::runner::RunConfig;
use hsim_core::{run_balanced, ExecMode, Scenario};
use hsim_serve::{render_response, Request, Server, ServerConfig};
use hsim_time::SplitMix64;

use super::{state_bytes, Counts, Workload};
use crate::clock::Stamp;
use crate::host::Speed;
use crate::stats::digest;
use crate::trace::Tracer;
use crate::{Op, Options};

/// Repeated configs in the mix.
const HOT_KEYS: usize = 8;
/// Share of requests that repeat a hot config, and that are fresh.
const HOT_SHARE: f64 = 0.80;
const FRESH_SHARE: f64 = 0.15;
/// Requests per block of the rate medians.
const BLOCK_REQUESTS: usize = 500;
/// Requests each client makes at least, whatever the time budget.
const MIN_REQUESTS: usize = 50;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests after which the peak RSS is read. The cache keeps every
/// miss and the server logs every request's latency, so memory grows
/// with requests served; reading it at a fixed count compares runs at
/// equal work whatever their speed.
const RSS_AT_REQUESTS: u64 = 20_000;

/// One `/run` request the clients can send.
#[derive(Clone)]
struct RunReq {
    pub body: String,
    pub cfg: RunConfig,
}

impl RunReq {
    fn new(
        mode: (&str, ExecMode),
        scenario: Scenario,
        grid: (usize, usize, usize),
        cycles: u64,
    ) -> RunReq {
        let mut cfg = RunConfig::sweep(grid, mode.1);
        cfg.problem = scenario.problem();
        cfg.cycles = cycles;
        RunReq {
            body: format!(
                "mode={}&scenario={}&grid={},{},{}&cycles={cycles}&balanced=1",
                mode.0,
                scenario.name(),
                grid.0,
                grid.1,
                grid.2
            ),
            cfg,
        }
    }

    fn zone_cycles(&self) -> u64 {
        (self.cfg.grid.0 * self.cfg.grid.1 * self.cfg.grid.2) as u64 * self.cfg.cycles
    }

    /// The served bytes an in-process run of this config produces.
    fn expected_body(&self) -> Result<Vec<u8>, String> {
        Ok(render_response(&run_balanced(&self.cfg)?.0))
    }
}

const MODES: [(&str, ExecMode); 4] = [
    ("default", ExecMode::Default),
    ("mps", ExecMode::Mps { per_gpu: 4 }),
    ("hetero", ExecMode::Heterogeneous { cpu_fraction: None }),
    ("cpuonly", ExecMode::CpuOnly),
];

/// The `idx`-th never-repeated config: a two-cycle Default-mode Sedov
/// run on a grid no other request uses (hot configs have 48 y zones,
/// fresh ones an odd number from 41, so they never collide). One mode
/// and cycle count keep every miss about equally expensive.
fn fresh(idx: u64) -> RunReq {
    let nx = 24 + (idx % 64) as usize;
    let nz = 8 + ((idx / 64) % 64) as usize;
    let ny = 41 + 2 * (idx / 4096) as usize;
    RunReq::new(MODES[0], Scenario::Sedov, (nx, ny, nz), 2)
}

/// A parsed HTTP reply.
struct Reply {
    status: u16,
    cache_hit: bool,
    body: Vec<u8>,
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    s.set_nodelay(true)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("reply has no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("reply has no status"))?;
    Ok(Reply {
        status,
        cache_hit: head.contains("X-Cache: hit"),
        body: raw[split + 4..].to_vec(),
    })
}

pub struct Serve {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<std::io::Result<()>>>,
    hot: Vec<(RunReq, u64)>,
    fresh_next: AtomicU64,
    seed: u64,
    clients: usize,
    /// Requests answered so far, and the peak RSS (MB, as `f64` bits;
    /// 0 until read) after [`RSS_AT_REQUESTS`] of them.
    served: AtomicU64,
    rss_mark: AtomicU64,
}

/// The kinds of request in the mix.
enum Kind {
    Hot(usize),
    Fresh(Box<RunReq>),
    Metrics,
}

impl Serve {
    pub fn new(opts: &Options) -> Result<Serve, String> {
        let clients = crate::stats::nproc();
        let server = Arc::new(Server::new(ServerConfig {
            workers: clients,
            queue_capacity: 4 * clients,
            default_deadline: None,
            tile: None,
        }));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        // `http::serve` answers one connection per call here so the
        // loop can notice the stop flag between connections.
        let accept = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            // tidy-allow: stray-thread -- the accept loop lives from set-up to shutdown, like `heterosim serve`'s
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    hsim_serve::http::serve(&server, listener.try_clone()?, Some(1))?;
                }
                Ok(())
            })
        };
        // The seed deals a fixed set of x extents to the hot configs, so
        // the mix's total work does not depend on it.
        let mut rng = SplitMix64::new(opts.seed ^ 0x5E7E);
        let mut xs: Vec<usize> = (0..HOT_KEYS).map(|i| 32 + 8 * i).collect();
        super::shuffle(&mut xs, &mut rng);
        let mut hot = Vec::with_capacity(HOT_KEYS);
        for (i, nx) in xs.into_iter().enumerate() {
            let req = RunReq::new(
                MODES[i % MODES.len()],
                Scenario::ALL[(i / MODES.len() + rng.next_below(2) as usize) % Scenario::ALL.len()],
                (nx, 48, 24),
                6,
            );
            let want = digest(&req.expected_body()?);
            // Warm the cache so every later request for it is a hit.
            server
                .submit(Request::balanced(req.cfg.clone()))
                .map_err(|e| format!("warm {}: {e}", req.body))?;
            hot.push((req, want));
        }
        Ok(Serve {
            server,
            addr,
            stop,
            accept: Some(accept),
            hot,
            fresh_next: AtomicU64::new(0),
            seed: opts.seed,
            clients,
            served: AtomicU64::new(0),
            rss_mark: AtomicU64::new(0),
        })
    }

    fn pick(&self, rng: &mut SplitMix64) -> Kind {
        let u = rng.next_f64();
        if u < HOT_SHARE {
            Kind::Hot(rng.next_below(HOT_KEYS as u64) as usize)
        } else if u < HOT_SHARE + FRESH_SHARE {
            let idx = self.fresh_next.fetch_add(1, Ordering::Relaxed);
            Kind::Fresh(Box::new(fresh(idx)))
        } else {
            Kind::Metrics
        }
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    ops: Vec<Op>,
    /// (op index, fresh request, body digest) to verify after the loop.
    fresh: Vec<(usize, RunReq, u64)>,
    counts: Counts,
}

impl Workload for Serve {
    fn run_pass(
        &mut self,
        pass: u64,
        remaining_s: f64,
        tracer: &Tracer,
        speed: &Speed,
        corrupt: bool,
        ops: &mut Vec<Op>,
        counts: &mut Counts,
    ) {
        let t0 = Stamp::now();
        let this = &*self;
        let client = |c: usize| {
            let mut rng =
                SplitMix64::new(this.seed ^ ((pass << 32) | c as u64).wrapping_mul(0x9E37));
            let mut log = ClientLog::default();
            while log.ops.len() < MIN_REQUESTS || t0.elapsed_s() < remaining_s {
                speed.between_ops();
                let kind = this.pick(&mut rng);
                let op_id = ((c as u64) << 40) | log.ops.len() as u64;
                let start = Stamp::now();
                let reply = tracer.span("serve.request", None, op_id, |_| match &kind {
                    Kind::Hot(i) => http(this.addr, "POST", "/run", &this.hot[*i].0.body),
                    Kind::Fresh(r) => http(this.addr, "POST", "/run", &r.body),
                    Kind::Metrics => http(this.addr, "GET", "/metrics", ""),
                });
                let ms = start.elapsed_ms();
                log.counts.requests += 1;
                if this.served.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
                    let rss = crate::stats::peak_rss_mb();
                    this.rss_mark.store(rss.to_bits(), Ordering::Relaxed);
                }
                let (ok, zone_cycles) = match (reply, &kind) {
                    (Err(e), _) => {
                        eprintln!("serve: request failed: {e}");
                        (false, 0)
                    }
                    (Ok(r), _) if r.status != 200 => {
                        if matches!(r.status, 429 | 503 | 504) {
                            log.counts.rejected += 1;
                        }
                        eprintln!(
                            "serve: status {}: {}",
                            r.status,
                            String::from_utf8_lossy(&r.body)
                        );
                        (false, 0)
                    }
                    (Ok(r), Kind::Hot(i)) => {
                        let (req, want) = &this.hot[*i];
                        let mut got = digest(&r.body);
                        if corrupt && log.ops.is_empty() && c == 0 {
                            got ^= 1;
                        }
                        if got != *want {
                            eprintln!(
                                "serve: {} served bytes differ from an in-process run",
                                req.body
                            );
                        }
                        log.counts.hits += u64::from(r.cache_hit);
                        (got == *want, req.zone_cycles())
                    }
                    (Ok(r), Kind::Fresh(req)) => {
                        if r.cache_hit {
                            eprintln!("serve: never-sent {} answered from the cache", req.body);
                        }
                        log.fresh
                            .push((log.ops.len(), (**req).clone(), digest(&r.body)));
                        (!r.cache_hit, req.zone_cycles())
                    }
                    (Ok(r), Kind::Metrics) => {
                        let ok = String::from_utf8_lossy(&r.body).contains("hsim_serve_latency_us");
                        if !ok {
                            eprintln!("serve: /metrics reply lacks the latency summary");
                        }
                        (ok, 0)
                    }
                };
                log.ops.push(Op {
                    worker: c,
                    at: start,
                    ms,
                    zone_cycles,
                    ok,
                });
            }
            log
        };
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| s.spawn(move || client(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        // Check every fresh reply against an in-process run, outside
        // the timed loop.
        for mut log in logs {
            for (i, req, got) in &log.fresh {
                let want = req.expected_body().map(|b| digest(&b));
                if want.as_ref() != Ok(got) {
                    eprintln!(
                        "serve: {} served bytes differ from an in-process run",
                        req.body
                    );
                    log.ops[*i].ok = false;
                }
            }
            ops.extend(log.ops);
            counts.requests += log.counts.requests;
            counts.hits += log.counts.hits;
            counts.rejected += log.counts.rejected;
        }
    }

    fn block_ops(&self) -> usize {
        BLOCK_REQUESTS
    }

    fn probe_configs(&self) -> Vec<RunConfig> {
        let mut cfgs: Vec<RunConfig> = self.hot.iter().map(|(r, _)| r.cfg.clone()).collect();
        // Heterogeneous first: it holds every rank kind.
        cfgs.sort_by_key(|c| !matches!(c.mode, ExecMode::Heterogeneous { .. }));
        cfgs
    }

    fn working_set_bytes(&self) -> u64 {
        self.hot
            .iter()
            .map(|(r, _)| state_bytes(&r.cfg))
            .max()
            .unwrap_or(0)
    }

    fn describe(&self) -> Vec<String> {
        let mut out = vec![format!(
            "inputs: closed loop, {} clients over loopback {}; mix {:.0}% hot /run, {:.0}% fresh /run, \
             {:.0}% GET /metrics; one connection per request",
            self.clients,
            self.addr,
            HOT_SHARE * 100.0,
            FRESH_SHARE * 100.0,
            (1.0 - HOT_SHARE - FRESH_SHARE) * 100.0
        )];
        out.extend(self.hot.iter().map(|(r, _)| format!("  hot {}", r.body)));
        out
    }

    fn peak_rss_mb(&self) -> f64 {
        match self.rss_mark.load(Ordering::Relaxed) {
            0 => crate::stats::peak_rss_mb(),
            bits => f64::from_bits(bits),
        }
    }

    fn server(&self) -> Option<(Arc<Server>, SocketAddr)> {
        Some((Arc::clone(&self.server), self.addr))
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // One last connection wakes the accept loop so it sees the
            // flag (a loop that already ended would never answer it).
            if !h.is_finished() {
                let _ = http(self.addr, "GET", "/healthz", "");
            }
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("serve: accept loop ended with {e}"),
                Err(_) => eprintln!("serve: accept loop panicked"),
            }
        }
        self.server.shutdown();
    }
}
