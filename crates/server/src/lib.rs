//! The U-relations session server: newline-delimited JSON over TCP.
//!
//! One process serves one [`UDatabase`]. The database is encoded into
//! a [`Catalog`] **once**; every session clones it (cheap — base
//! relations are `Arc`-shared) into its own
//! [`PreparedDb`], so sessions share
//! base data but keep private prepared-statement plan caches.
//!
//! Execution is bounded by an [`AdmissionGate`] shared by all
//! sessions: at most `max_concurrent` statements execute at once, at
//! most `max_queue` wait, and everything else — including requests
//! whose deadline expires while queued — is shed with a `"shed"`
//! response *before* touching any execution resource (buffer-pool
//! leases, spill directories).
//!
//! Configuration comes from `RELALG_SERVER_*` (and the engine's
//! `RELALG_*`) environment knobs; see [`ServerConfig::from_env`].

#![warn(missing_docs)]

pub mod json;
pub mod proto;

pub use json::Json;
pub use proto::{
    err_response, err_response_for, ok_response, render_answers, render_explain, Request,
};

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urel_core::translate::PreparedDb;
use urel_core::udb::UDatabase;
use urel_relalg::admission::{self, AdmissionGate};
use urel_relalg::{Catalog, EngineConfig};

/// Server configuration. [`ServerConfig::from_env`] reads the
/// `RELALG_SERVER_*` knobs; tests construct values directly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`RELALG_SERVER_ADDR`, default `127.0.0.1:0` —
    /// port 0 lets the OS pick; the bound port is in
    /// [`Server::local_addr`] and on the binary's stdout).
    pub addr: String,
    /// Statements executing concurrently across all sessions
    /// (`RELALG_SERVER_MAX_CONCURRENT`, default: available cores).
    pub max_concurrent: usize,
    /// Statements allowed to wait for an execution slot
    /// (`RELALG_SERVER_QUEUE`, default 16; 0 = shed the moment every
    /// slot is busy).
    pub max_queue: usize,
    /// Per-request deadline, measured from request receipt and covering
    /// both the admission wait and execution (`RELALG_DEADLINE_MS`
    /// through the engine config; `None` = no limit).
    pub deadline: Option<Duration>,
}

impl ServerConfig {
    /// Read configuration from the environment.
    pub fn from_env() -> ServerConfig {
        let addr = std::env::var("RELALG_SERVER_ADDR")
            .ok()
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "127.0.0.1:0".to_string());
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let max_concurrent = env_usize("RELALG_SERVER_MAX_CONCURRENT").unwrap_or(cores);
        let max_queue = env_usize("RELALG_SERVER_QUEUE").unwrap_or(16);
        ServerConfig {
            addr,
            max_concurrent,
            max_queue,
            deadline: EngineConfig::default().deadline,
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// A running server. Dropping it does **not** stop the accept loop —
/// call [`Server::shutdown`].
pub struct Server {
    local_addr: SocketAddr,
    gate: Arc<AdmissionGate>,
    stop: Arc<AtomicBool>,
    sessions: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared admission gate (stats are visible here and via the
    /// protocol's `stats` op).
    pub fn gate(&self) -> &Arc<AdmissionGate> {
        &self.gate
    }

    /// Sessions accepted over the server's lifetime.
    pub fn session_count(&self) -> usize {
        self.sessions.load(Ordering::Relaxed)
    }

    /// Stop accepting connections and join the accept loop. Sessions
    /// already connected finish their current request and then shut
    /// down on their next read.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Bind and serve `udb` in background threads (one accept loop, one
/// thread per session). The database is encoded once here; sessions
/// alias it.
pub fn serve(udb: Arc<UDatabase>, config: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shared_catalog = udb.to_catalog();
    let gate = AdmissionGate::new(config.max_concurrent, config.max_queue);
    let stop = Arc::new(AtomicBool::new(false));
    let sessions = Arc::new(AtomicUsize::new(0));

    let accept_thread = {
        let gate = Arc::clone(&gate);
        let stop = Arc::clone(&stop);
        let sessions = Arc::clone(&sessions);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                sessions.fetch_add(1, Ordering::Relaxed);
                let udb = Arc::clone(&udb);
                let catalog = shared_catalog.clone();
                let gate = Arc::clone(&gate);
                let config = config.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A session dying (protocol error, broken pipe)
                    // must not take the server with it.
                    let _ = session(&udb, catalog, &gate, &config, &stop, stream);
                });
            }
        })
    };

    Ok(Server {
        local_addr,
        gate,
        stop,
        sessions,
        accept_thread: Some(accept_thread),
    })
}

/// One session: read request lines, answer each with one response
/// line. Protocol errors answer with `"kind":"proto"` and keep the
/// session; I/O errors end it.
fn session(
    udb: &UDatabase,
    catalog: Catalog,
    gate: &Arc<AdmissionGate>,
    config: &ServerConfig,
    stop: &AtomicBool,
    stream: TcpStream,
) -> std::io::Result<()> {
    let mut prepared = PreparedDb::with_catalog(udb, catalog);
    // Per-session memory: an equal share of the global budget per
    // execution slot, so `max_concurrent` admitted statements together
    // stay inside `RELALG_MEM_BUDGET`.
    let global_budget = prepared.catalog().config().mem_budget;
    if global_budget != usize::MAX {
        prepared.set_mem_budget((global_budget / gate.max_concurrent()).max(1));
    }
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = line?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::decode(&line) {
            Err(msg) => err_response(None, "proto", &msg, None),
            Ok(Request::Ping { id }) => {
                ok_response(id, vec![("pong".to_string(), Json::Bool(true))])
            }
            Ok(Request::Stats { id }) => stats_response(id, gate, &prepared),
            Ok(Request::Query { id, text }) => handle_query(&mut prepared, gate, config, id, &text),
        };
        writer.write_all(response.render().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

fn stats_response(id: Option<i64>, gate: &Arc<AdmissionGate>, prepared: &PreparedDb<'_>) -> Json {
    let s = gate.stats();
    let admission = Json::Obj(vec![
        ("admitted".to_string(), Json::Int(s.admitted as i64)),
        ("queued".to_string(), Json::Int(s.queued as i64)),
        (
            "shed_queue_full".to_string(),
            Json::Int(s.shed_queue_full as i64),
        ),
        (
            "shed_deadline".to_string(),
            Json::Int(s.shed_deadline as i64),
        ),
        ("shed".to_string(), Json::Int(s.shed() as i64)),
        ("in_flight".to_string(), Json::Int(s.in_flight as i64)),
        (
            "peak_in_flight".to_string(),
            Json::Int(s.peak_in_flight as i64),
        ),
        (
            "max_concurrent".to_string(),
            Json::Int(gate.max_concurrent() as i64),
        ),
        ("max_queue".to_string(), Json::Int(gate.max_queue() as i64)),
    ]);
    ok_response(
        id,
        vec![
            ("admission".to_string(), admission),
            (
                "cached_plans".to_string(),
                Json::Int(prepared.cached_plan_count() as i64),
            ),
            (
                "total_shed".to_string(),
                Json::Int(admission_total_shed() as i64),
            ),
        ],
    )
}

fn admission_total_shed() -> usize {
    admission::total_shed()
}

/// Compile, admit, execute. The admission acquire happens strictly
/// before any execution resource is touched; a shed (queue full, or
/// deadline expired while queued) therefore leaks nothing — pinned by
/// `tests/server.rs` with `fault::assert_no_leaks`.
fn handle_query(
    prepared: &mut PreparedDb<'_>,
    gate: &Arc<AdmissionGate>,
    config: &ServerConfig,
    id: Option<i64>,
    text: &str,
) -> Json {
    let lowered = match urel_ql::compile(text) {
        Ok(l) => l,
        Err(e) => return err_response_for(id, &e),
    };
    let deadline = config.deadline.map(|d| Instant::now() + d);
    let permit = match gate.acquire(deadline) {
        Ok(p) => p,
        Err(e) => {
            admission::note_shed(1);
            return err_response(id, "shed", &e.to_string(), None);
        }
    };
    // Whatever deadline budget the queue wait left over bounds the
    // execution; zero remaining cancels at the first batch boundary.
    prepared.set_deadline(deadline.map(|d| d.saturating_duration_since(Instant::now())));
    let out = if lowered.explain {
        prepared
            .explain(&lowered.query)
            .map(|plan| render_explain(id, &plan))
            .map_err(urel_ql::Error::from)
    } else {
        urel_ql::execute(prepared, &lowered).map(|a| render_answers(id, &a))
    };
    drop(permit);
    match out {
        Ok(json) => json,
        Err(e) => err_response_for(id, &e),
    }
}

/// A blocking protocol client: one request line out, one response line
/// back. Used by the load harness and the differential tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: i64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 0,
        })
    }

    /// Send one raw request line, return the raw response line
    /// (newline stripped) — the byte-exact form the differential tests
    /// compare against [`render_answers`] output.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Send a `query` op with a fresh id; returns `(id, raw response)`.
    pub fn query_raw(&mut self, text: &str) -> std::io::Result<(i64, String)> {
        self.next_id += 1;
        let id = self.next_id;
        let req = Json::Obj(vec![
            ("op".to_string(), Json::Str("query".to_string())),
            ("id".to_string(), Json::Int(id)),
            ("query".to_string(), Json::Str(text.to_string())),
        ]);
        Ok((id, self.round_trip(&req.render())?))
    }

    /// Send a `query` op and parse the response.
    pub fn query(&mut self, text: &str) -> std::io::Result<Json> {
        let (_, raw) = self.query_raw(text)?;
        json::parse(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Send a `stats` op and parse the response.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.next_id += 1;
        let req = Json::Obj(vec![
            ("op".to_string(), Json::Str("stats".to_string())),
            ("id".to_string(), Json::Int(self.next_id)),
        ]);
        let raw = self.round_trip(&req.render())?;
        json::parse(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}
