//! The session server's protocol, concurrency, and shedding contracts.
//!
//! - The end-to-end acceptance: a TCP client receives **byte-identical**
//!   answers to the in-process `PreparedDb` path, confidence clause
//!   included.
//! - `ci_server_leg_actually_sheds` is the admission-backed no-op guard
//!   for the CI server leg: under a deliberately tiny admission limit,
//!   queries must demonstrably queue AND shed — the leg cannot silently
//!   become a plain re-run of the suite.
//! - The deadline regression: a request whose deadline expires while
//!   queued for admission sheds with `Error::Cancelled` *without* ever
//!   acquiring buffer-pool leases
//!   (`fault::assert_no_leaks`).

use std::sync::Arc;
use std::time::Duration;
use u_relations::core::{figure1_database, translate::PreparedDb};
use u_relations::relalg::store::pool_for;
use u_relations::relalg::{fault, EngineConfig};
use u_relations::server::{render_answers, serve, Client, Json, ServerConfig};
use u_relations::{ql, server::render_explain};

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent: 4,
        max_queue: 16,
        deadline: None,
    }
}

/// The fixed statements of the acceptance test; the last one carries
/// the confidence clause the issue's acceptance criterion names.
const STATEMENTS: &[&str] = &[
    "from r | where id = 1 | select type | possible",
    "from r as a | join r as b on a.id = b.id | select a.type, b.faction | possible",
    "from r | select type | certain",
    "from r | where type = 'Tank' | select id",
    "from r | select id, type | possible confidence 0.1",
    "from r | select type | certain confidence 0.2",
];

#[test]
fn tcp_answers_are_byte_identical_to_library() {
    let udb = Arc::new(figure1_database());
    let server = serve(Arc::clone(&udb), test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The library path a session is specified to equal: a PreparedDb
    // over the same shared catalog.
    let prepared = PreparedDb::with_catalog(&udb, udb.to_catalog());

    for src in STATEMENTS {
        let (id, raw) = client.query_raw(src).unwrap();
        let lowered = ql::compile(src).unwrap();
        let answers = ql::execute(&prepared, &lowered).unwrap();
        let expected = render_answers(Some(id), &answers).render();
        assert_eq!(raw, expected, "byte mismatch for `{src}`");
    }
    server.shutdown();
}

#[test]
fn explain_over_tcp_matches_library() {
    let udb = Arc::new(figure1_database());
    let server = serve(Arc::clone(&udb), test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut prepared = PreparedDb::with_catalog(&udb, udb.to_catalog());
    // A session runs on its equal share of a global memory budget, and
    // EXPLAIN prints the budget: the library side takes the same share.
    let budget = prepared.catalog().config().mem_budget;
    if budget != usize::MAX {
        prepared.set_mem_budget((budget / test_config().max_concurrent).max(1));
    }
    let src = "explain from r as a | join r as b on a.id = b.id | select a.type";
    let (id, raw) = client.query_raw(src).unwrap();
    let lowered = ql::compile(src).unwrap();
    assert!(lowered.explain);
    let expected = render_explain(Some(id), &prepared.explain(&lowered.query).unwrap()).render();
    assert_eq!(raw, expected);
    server.shutdown();
}

#[test]
fn protocol_session_basics() {
    let udb = Arc::new(figure1_database());
    let server = serve(udb, test_config()).unwrap();
    let mut a = Client::connect(server.local_addr()).unwrap();

    // Ping.
    let resp = a.round_trip(r#"{"op":"ping","id":9}"#).unwrap();
    assert_eq!(resp, r#"{"id":9,"ok":true,"pong":true}"#);

    // A protocol error answers kind "proto" and keeps the session.
    let resp = a.round_trip("this is not json").unwrap();
    assert!(resp.contains(r#""kind":"proto""#), "{resp}");
    let resp = a.round_trip(r#"{"op":"frobnicate"}"#).unwrap();
    assert!(resp.contains(r#""kind":"proto""#), "{resp}");

    // A parse error carries its span — still the same session.
    let parsed = a.query("from r | wear id = 1").unwrap();
    assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("parse"));
    assert!(parsed.get("span").is_some());

    // Per-session plan caches: session A warms its cache...
    for src in ["from r | select id", "from r | select type"] {
        let resp = a.query(src).unwrap();
        assert!(resp.get("ok").unwrap().is_true(), "{src}");
    }
    let stats_a = a.stats().unwrap();
    let plans_a = stats_a.get("cached_plans").and_then(Json::as_i64).unwrap();
    assert!(plans_a >= 2, "expected >= 2 cached plans, got {plans_a}");

    // ...while a fresh session B starts cold (caches are private).
    let mut b = Client::connect(server.local_addr()).unwrap();
    let stats_b = b.stats().unwrap();
    assert_eq!(stats_b.get("cached_plans").and_then(Json::as_i64), Some(0));
    // But admission stats are shared server-wide.
    assert!(
        stats_b
            .get("admission")
            .and_then(|a| a.get("admitted"))
            .and_then(Json::as_i64)
            .unwrap()
            >= 2
    );
    server.shutdown();
}

#[test]
fn concurrent_sessions_all_answer_correctly() {
    let udb = Arc::new(figure1_database());
    let server = serve(Arc::clone(&udb), test_config()).unwrap();
    let addr = server.local_addr();

    let prepared = PreparedDb::with_catalog(&udb, udb.to_catalog());
    let src = "from r | where id = 2 | select type, faction | possible";
    let lowered = ql::compile(src).unwrap();
    let answers = ql::execute(&prepared, &lowered).unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..25 {
                    let (id, raw) = client.query_raw(src).unwrap();
                    let expected = render_answers(Some(id), &answers).render();
                    assert_eq!(raw, expected);
                }
            });
        }
    });
    let stats = server.gate().stats();
    assert_eq!(stats.admitted, 100);
    assert_eq!(stats.in_flight, 0);
    server.shutdown();
}

/// The CI server leg's no-op guard: under a one-slot, one-waiter
/// admission limit with a slot deliberately held, concurrent requests
/// must observably queue AND shed. If the admission gate stopped being
/// wired between the protocol and execution, `queued`/`shed` would stay
/// zero and this test — run explicitly by the leg — would fail.
#[test]
fn ci_server_leg_actually_sheds() {
    let udb = Arc::new(figure1_database());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent: 1,
        max_queue: 1,
        deadline: None,
    };
    let server = serve(udb, config).unwrap();
    let addr = server.local_addr();

    // Occupy the single execution slot so the storm below cannot race
    // past the gate before contention builds.
    let holder = server.gate().acquire(None).unwrap();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let resp = client.query("from r | select id").unwrap();
                let ok = resp.get("ok").unwrap().is_true();
                let kind = resp
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                (ok, kind)
            })
        })
        .collect();

    // Give every request time to hit the gate: 1 queues, the rest shed.
    std::thread::sleep(Duration::from_millis(300));
    drop(holder);

    let outcomes: Vec<(bool, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let completed = outcomes.iter().filter(|(ok, _)| *ok).count();
    let shed = outcomes.iter().filter(|(_, k)| k == "shed").count();
    assert!(completed >= 1, "at least the queued request must complete");
    assert!(
        shed >= 1,
        "requests beyond the queue must shed: {outcomes:?}"
    );
    assert!(
        outcomes.iter().all(|(ok, k)| *ok || k == "shed"),
        "only ok/shed outcomes expected: {outcomes:?}"
    );

    let stats = server.gate().stats();
    assert!(stats.queued >= 1, "admission queue never used: {stats:?}");
    assert!(
        stats.shed_queue_full >= 1,
        "queue-full shedding never happened: {stats:?}"
    );
    assert!(
        stats.peak_in_flight <= 1,
        "admission bound violated: {stats:?}"
    );
    server.shutdown();
}

/// Regression (issue satellite): a request whose deadline expires while
/// it waits for admission must shed with `Error::Cancelled` WITHOUT
/// having acquired buffer-pool leases. The gate
/// sits strictly before execution resources; `assert_no_leaks` checks
/// the shared buffer pool holds no in-flight leases the moment the
/// shed response arrives (the execution slot is still occupied by the
/// holder, so any lease would have to belong to the shed request).
#[test]
fn queued_deadline_expiry_sheds_without_touching_resources() {
    let udb = Arc::new(figure1_database());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent: 1,
        max_queue: 4,
        deadline: Some(Duration::from_millis(120)),
    };
    let server = serve(udb, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Occupy the only execution slot for longer than the deadline.
    let holder = server.gate().acquire(None).unwrap();
    let resp = client.query("from r | select id | possible").unwrap();

    assert_eq!(resp.get("ok").map(Json::is_true), Some(false), "{resp:?}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("shed"));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("deadline expired while queued"), "{msg}");

    let stats = server.gate().stats();
    assert_eq!(stats.shed_deadline, 1, "{stats:?}");
    // No execution resources were ever touched: no spill directory was
    // created (queries here run unbounded) and the process-wide buffer
    // pool holds zero in-flight leases.
    fault::assert_no_leaks(
        None,
        pool_for(EngineConfig::default().buffer_pool).in_flight_len(),
    );

    // The session survives the shed and completes once the slot frees.
    drop(holder);
    let resp = client.query("from r | select id | possible").unwrap();
    assert_eq!(resp.get("ok").map(Json::is_true), Some(true), "{resp:?}");
    server.shutdown();
}

/// ExecStats flow through the protocol: a successful possible-answer
/// response reports the execution's buffer traffic.
#[test]
fn responses_carry_exec_stats() {
    let udb = Arc::new(figure1_database());
    let server = serve(udb, test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .query("from r as a | join r as b on a.id = b.id | select a.type | possible")
        .unwrap();
    assert!(resp.get("ok").unwrap().is_true());
    let stats = resp.get("stats").expect("stats field");
    assert!(stats.get("buffers").and_then(Json::as_i64).is_some());
    server.shutdown();
}
