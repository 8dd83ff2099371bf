//! The `urel-server` binary: build a database, bind, serve until
//! killed.
//!
//! Knobs (all environment variables):
//!
//! - `RELALG_SERVER_DB` — which database to serve: `figure1` (the
//!   paper's running example, the default) or `tpch:<scale>[:<x>]`
//!   (uncertain TPC-H at scale factor `<scale>` with uncertainty ratio
//!   `<x>`, default 0.1).
//! - `RELALG_SERVER_ADDR`, `RELALG_SERVER_MAX_CONCURRENT`,
//!   `RELALG_SERVER_QUEUE` — see [`urel_server::ServerConfig`].
//! - Engine knobs (`RELALG_MEM_BUDGET`,
//!   `RELALG_STORAGE`, `RELALG_DEADLINE_MS`, …) apply to every
//!   session.
//!
//! Prints `listening on <addr>` to stdout once bound — with port 0 the
//! line is how harnesses learn the real port.

use std::sync::Arc;
use urel_core::udb::{figure1_database, UDatabase};

fn build_db(spec: &str) -> Result<UDatabase, String> {
    if spec == "figure1" || spec.is_empty() {
        return Ok(figure1_database());
    }
    if let Some(rest) = spec.strip_prefix("tpch:") {
        let mut parts = rest.split(':');
        let scale: f64 = parts
            .next()
            .unwrap_or("0.1")
            .parse()
            .map_err(|_| format!("bad tpch scale in `{spec}`"))?;
        let x: f64 = match parts.next() {
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad tpch uncertainty in `{spec}`"))?,
            None => 0.1,
        };
        let params = urel_tpch::GenParams::paper(scale, x, 0.5);
        let gen = urel_tpch::generate(&params).map_err(|e| e.to_string())?;
        return Ok(gen.db);
    }
    Err(format!(
        "unknown RELALG_SERVER_DB `{spec}` (expected `figure1` or `tpch:<scale>[:<x>]`)"
    ))
}

fn main() {
    let spec = std::env::var("RELALG_SERVER_DB").unwrap_or_default();
    let udb = match build_db(&spec) {
        Ok(db) => Arc::new(db),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let config = urel_server::ServerConfig::from_env();
    let server = match urel_server::serve(udb, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            std::process::exit(2);
        }
    };
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
