//! One run of one workload: repeated set-up, the answer checks, the
//! measured cycles, and the metrics that come out of them.

use crate::measure::{
    answer_of, body_of, fnv1a, median, peak_rss_mb, percentile, SplitMix64, FNV_SEED,
};
use crate::trace::{self, count, Breakdown, Layer, Replay, Tracer};
use crate::workloads::{
    statements, Kind, Spec, Statements, CLIENTS, CORRELATION, POOL_SEGMENTS, SEGMENT_ROWS,
    UNCERTAINTY,
};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use urel_core::translate::PreparedDb;
use urel_core::UDatabase;
use urel_ql::Answers;
use urel_relalg::{Catalog, ExecStats, StorageMode};
use urel_server::{render_answers, render_explain, Client, Json, Server, ServerConfig};
use urel_tpch::{generate, GenParams};

/// How long a run measures.
#[derive(Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    /// The smoke test's fixed count; nothing it times is recorded.
    Cycles(usize),
}

pub struct RunOpts {
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Overrides the workload's scale (the smoke test runs at 0.01).
    pub scale: Option<f64>,
    /// Trace files go here.
    pub out_dir: PathBuf,
}

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub attempted: u64,
    /// Errors, refusals and answer mismatches; the run is correct at 0.
    pub failed: u64,
    /// Untraced cycles behind `cycle_p50_ms`/`cycle_p90_ms`.
    pub cycles: usize,
    /// Digest of the warm-up cycle's answers: equal across storage
    /// modes and commits for one seed.
    pub answers_digest: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run traced.
    pub per_layer: Vec<Metric>,
    /// What went wrong, one line each.
    pub notes: Vec<String>,
}

/// Full set-ups per recorded run. The small scales set up in tens of
/// milliseconds, so three would leave `setup_s` to the noisiest one.
pub const SETUP_REPS: usize = 5;

/// The ad-hoc workload checks every `VERIFY_EVERY`th cycle against the
/// builder-API oracle; its fresh texts have no earlier digest to match.
const VERIFY_EVERY: usize = 8;

/// Run `text` the way a session does, without the socket.
pub fn run_statement(prepared: &PreparedDb<'_>, text: &str) -> Result<String, String> {
    let lowered = urel_ql::compile(text).map_err(|e| e.to_string())?;
    let json = if lowered.explain {
        let plan = prepared
            .explain(&lowered.query)
            .map_err(|e| e.to_string())?;
        render_explain(None, &plan)
    } else {
        let answers = urel_ql::execute(prepared, &lowered).map_err(|e| e.to_string())?;
        render_answers(None, &answers)
    };
    Ok(json.render())
}

fn run_cycle(prepared: &PreparedDb<'_>, texts: &[String]) -> (u64, Vec<Result<String, String>>) {
    let t = Instant::now();
    let out: Vec<_> = texts.iter().map(|s| run_statement(prepared, s)).collect();
    (t.elapsed().as_nanos() as u64, out)
}

fn tcp_cycle(client: &mut Client, texts: &[String]) -> Vec<Result<String, String>> {
    texts
        .iter()
        .map(|s| match client.query_raw(s) {
            Ok((_, raw)) => Ok(raw),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    generate_s: f64,
    to_catalog_s: f64,
    first_cycle_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.to_catalog_s + self.first_cycle_s
    }
}

struct Tcp {
    server: Server,
    clients: Vec<Client>,
}

/// A set-up workload. `prepared` is the engine under test, or for the
/// server workload its in-process twin.
struct Env<'a> {
    db: &'a UDatabase,
    catalog: Catalog,
    prepared: PreparedDb<'a>,
    tcp: Option<Tcp>,
    /// The warm-up cycle: statements and responses.
    warm: Statements,
    first: Vec<Result<String, String>>,
    rng: SplitMix64,
}

fn engine_catalog(db: &UDatabase, disk: bool) -> Catalog {
    let mut cat = db.to_catalog();
    cat.set_threads(1);
    if disk {
        cat.set_storage(StorageMode::Disk);
        cat.set_segment_layout(SEGMENT_ROWS, POOL_SEGMENTS);
        cat.set_buffer_pool(POOL_SEGMENTS);
    }
    cat
}

/// Generate, encode (or serve), and run the first cycle, timing each;
/// then hand the live environment to `f` and tear it down.
fn with_env<R>(
    spec: &Spec,
    opts: &RunOpts,
    f: impl FnOnce(&mut Env<'_>, SetupTimes) -> R,
) -> Result<R, String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    // The data is the generator's default instance at this scale; the
    // seed varies the statements' literals. At these micro scales (five
    // to a hundred suppliers, 25 nations) the data seed decides Q3's
    // join sizes, and whether `n_name` is uncertain changes its plan: a
    // cycle moved by a tenth (s = 1) to a fifth (s = 0.05) from one data
    // seed to the next, which no bound on a regression could sit above.
    let params = GenParams::paper(opts.scale.unwrap_or(spec.scale), UNCERTAINTY, CORRELATION);
    let db = Arc::new(generate(&params).map_err(|e| e.to_string())?.db);
    times.generate_s = t.elapsed().as_secs_f64();

    let mut rng = SplitMix64(opts.seed);
    let warm = statements(spec.kind, &mut rng);
    let t = Instant::now();
    let mut env = if spec.kind == Kind::ServerMix {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_concurrent: CLIENTS,
            max_queue: 16,
            deadline: None,
        };
        let server = urel_server::serve(Arc::clone(&db), config).map_err(|e| e.to_string())?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut tcp = Tcp { server, clients };
        times.to_catalog_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut first = Vec::new();
        for c in &mut tcp.clients {
            first = tcp_cycle(c, &warm.texts);
        }
        times.first_cycle_s = t.elapsed().as_secs_f64();
        // The twin is the harness's, not the server's: built untimed.
        let catalog = engine_catalog(&db, false);
        Env {
            db: &db,
            prepared: PreparedDb::with_catalog(&db, catalog.clone()),
            catalog,
            tcp: Some(tcp),
            warm,
            first,
            rng,
        }
    } else {
        let catalog = engine_catalog(&db, spec.disk);
        let prepared = PreparedDb::with_catalog(&db, catalog.clone());
        times.to_catalog_s = t.elapsed().as_secs_f64();
        let (ns, first) = run_cycle(&prepared, &warm.texts);
        times.first_cycle_s = ns as f64 / 1e9;
        Env {
            db: &db,
            catalog,
            prepared,
            tcp: None,
            warm,
            first,
            rng,
        }
    };
    let out = f(&mut env, times);
    if let Some(tcp) = env.tcp.take() {
        // Sessions end when their sockets close.
        drop(tcp.clients);
        tcp.server.shutdown();
    }
    Ok(out)
}

/// Tallies of statements attempted and failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        // Keep the output readable when every cycle fails the same way.
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Count one cycle's responses; `expected` holds the body digest
    /// each must have, if known.
    fn cycle(
        &mut self,
        texts: &[String],
        out: &[Result<String, String>],
        expected: Option<&[u64]>,
    ) {
        for (i, r) in out.iter().enumerate() {
            self.attempted += 1;
            match r {
                Err(e) => self.fail(format!("`{}`: {e}", texts[i])),
                Ok(resp) if !body_of(resp).starts_with("\"ok\":true") => {
                    self.fail(format!("`{}`: {resp}", texts[i]))
                }
                Ok(resp) => {
                    let d = fnv1a(FNV_SEED, body_of(resp).as_bytes());
                    if expected.is_some_and(|e| e[i] != d) {
                        self.fail(format!("`{}`: answer digest changed to {d:016x}", texts[i]));
                    }
                }
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// Compare `possible` answers with the builder-API oracle on plain
/// storage.
fn check_oracle(
    oracle: &PreparedDb<'_>,
    s: &Statements,
    out: &[Result<String, String>],
    tally: &mut Tally,
) {
    for (i, q) in s.oracles.iter().enumerate() {
        let (Some(q), Ok(resp)) = (q, &out[i]) else {
            continue;
        };
        match oracle.possible(q) {
            Err(e) => tally.fail(format!("oracle for `{}`: {e}", s.texts[i])),
            Ok(rel) => {
                let want = render_answers(
                    None,
                    &Answers::Plain {
                        rel,
                        stats: ExecStats::default(),
                    },
                )
                .render();
                if answer_of(body_of(resp)) != answer_of(body_of(&want)) {
                    tally.fail(format!(
                        "`{}` differs from the builder-API answer",
                        s.texts[i]
                    ));
                }
            }
        }
    }
}

fn digests(out: &[Result<String, String>]) -> Vec<u64> {
    out.iter()
        .map(|r| match r {
            Ok(resp) => fnv1a(FNV_SEED, body_of(resp).as_bytes()),
            Err(_) => 0,
        })
        .collect()
}

struct Stopper {
    limit: Limit,
    start: Instant,
}

impl Stopper {
    fn start(limit: Limit) -> Stopper {
        Stopper {
            limit,
            start: Instant::now(),
        }
    }

    fn done(&self, cycles: usize) -> bool {
        match self.limit {
            Limit::Seconds(s) => self.start.elapsed().as_secs_f64() >= s,
            Limit::Cycles(n) => cycles >= n,
        }
    }
}

fn scaled(limit: Limit, share: f64) -> Limit {
    match limit {
        Limit::Seconds(s) => Limit::Seconds(s * share),
        cycles => cycles,
    }
}

/// What the measured phase produced.
#[derive(Default)]
struct Measured {
    /// Untraced and traced cycle durations, nanoseconds.
    plain_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    /// Statements completed in untraced cycles, and the seconds those took.
    statements: u64,
    busy_s: f64,
    /// `stats` op after the TCP phase: queued, shed, cached plans.
    server_stats: [f64; 3],
}

/// One client's closed loop: the next request leaves only after the
/// previous response arrived. Odd cycles carry spans when tracing.
fn client_loop(
    client: &mut Client,
    texts: &[String],
    expected: &[u64],
    stop: &Stopper,
    mut tracer: Option<Tracer>,
) -> (Measured, Tally, Option<Tracer>) {
    let mut m = Measured::default();
    let mut tally = Tally::default();
    let mut i = 0;
    while !stop.done(i) {
        let out = match tracer.as_mut().filter(|_| i % 2 == 1) {
            Some(t) => {
                let out = t.span(Layer::TcpCycle, |t| {
                    texts
                        .iter()
                        .map(|s| {
                            t.span(Layer::Roundtrip, |_| client.query_raw(s))
                                .map(|(_, raw)| raw)
                                .map_err(|e| e.to_string())
                        })
                        .collect::<Vec<_>>()
                });
                m.traced_ns.push(t.last_root_ns());
                // The bare round trip, outside the cycle so that traced
                // and untraced cycles send the same requests.
                let _ = t.span(Layer::Wire, |_| client.round_trip("{\"op\":\"ping\"}"));
                out
            }
            None => {
                let t = Instant::now();
                let out = tcp_cycle(client, texts);
                m.plain_ns.push(t.elapsed().as_nanos() as u64);
                m.statements += texts.len() as u64;
                out
            }
        };
        tally.cycle(texts, &out, Some(expected));
        i += 1;
    }
    (m, tally, tracer)
}

/// Answer checks on the warm-up cycle, before anything is timed: the
/// response is well-formed, the builder API agrees on plain storage, the
/// in-process path repeats it (for TCP: equals it), and the
/// layer-by-layer replay produces the same bytes.
fn check_warm_up(
    env: &Env<'_>,
    expected: &[u64],
    oracle: &PreparedDb<'_>,
    replay: &mut Replay<'_>,
    tally: &mut Tally,
) {
    let texts = &env.warm.texts;
    tally.cycle(texts, &env.first, None);
    check_oracle(oracle, &env.warm, &env.first, tally);
    let (_, again) = run_cycle(&env.prepared, texts);
    tally.cycle(texts, &again, Some(expected));
    let replayed = replay.cycle(&mut Tracer::new(Instant::now(), 0), texts);
    tally.cycle(texts, &replayed, Some(expected));
}

/// The server workload: every session runs its closed loop on a thread
/// of its own. A traced run gives two thirds of its time to the
/// sessions and the rest to the in-process replay that splits a request
/// into layers.
fn measure_tcp(
    opts: &RunOpts,
    tcp: &mut Tcp,
    texts: &[String],
    expected: &[u64],
    replay: &mut Replay<'_>,
    tally: &mut Tally,
) -> (Measured, Tracer) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let mut m = Measured::default();
    let share = if opts.trace { 2.0 / 3.0 } else { 1.0 };
    let barrier = Barrier::new(tcp.clients.len());
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = tcp
            .clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let barrier = &barrier;
                // Request ids stay distinct across the sessions' logs.
                let t = opts.trace.then(|| Tracer::new(epoch, (k as u32 + 1) << 24));
                s.spawn(move || {
                    barrier.wait();
                    let stop = Stopper::start(scaled(opts.limit, share));
                    client_loop(client, texts, expected, &stop, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    m.busy_s = epoch.elapsed().as_secs_f64();
    for (cm, ct, ctr) in results {
        m.plain_ns.extend(cm.plain_ns);
        m.traced_ns.extend(cm.traced_ns);
        m.statements += cm.statements;
        tally.absorb(ct);
        if let Some(t) = ctr {
            tracer.absorb(t);
        }
    }
    if let Ok(stats) = tcp.clients[0].stats() {
        let int = |v: Option<&Json>| v.and_then(Json::as_i64).unwrap_or(0) as f64;
        let adm = stats.get("admission");
        m.server_stats = [
            int(adm.and_then(|a| a.get("queued"))),
            int(adm.and_then(|a| a.get("shed"))),
            int(stats.get("cached_plans")),
        ];
    }
    if opts.trace {
        let stop = Stopper::start(scaled(opts.limit, 1.0 - share));
        let mut i = 0;
        while !stop.done(i) {
            let out = replay.cycle(&mut tracer, texts);
            tally.cycle(texts, &out, Some(expected));
            i += 1;
        }
    }
    (m, tracer)
}

fn measure(
    spec: &Spec,
    opts: &RunOpts,
    env: &mut Env<'_>,
    tally: &mut Tally,
) -> (Measured, Tracer) {
    let mut replay = Replay::new(env.db, env.catalog.clone(), env.tcp.is_some());
    let mut plain = env.catalog.clone();
    plain.set_storage(StorageMode::Plain);
    let oracle = PreparedDb::with_catalog(env.db, plain);
    let expected = digests(&env.first);
    check_warm_up(env, &expected, &oracle, &mut replay, tally);
    if let Some(tcp) = env.tcp.as_mut() {
        return measure_tcp(opts, tcp, &env.warm.texts, &expected, &mut replay, tally);
    }

    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut m = Measured::default();
    let stop = Stopper::start(opts.limit);
    let adhoc = spec.kind == Kind::TpchAdhoc;
    let mut i = 0;
    while !stop.done(i) {
        let fresh;
        let stmts = if adhoc {
            fresh = statements(spec.kind, &mut env.rng);
            &fresh
        } else {
            &env.warm
        };
        // Odd cycles of a traced run are the replay's.
        let out = if opts.trace && i % 2 == 1 {
            let out = replay.cycle(&mut tracer, &stmts.texts);
            m.traced_ns.push(tracer.last_root_ns());
            out
        } else {
            let (ns, out) = run_cycle(&env.prepared, &stmts.texts);
            m.plain_ns.push(ns);
            m.statements += stmts.texts.len() as u64;
            m.busy_s += ns as f64 / 1e9;
            out
        };
        tally.cycle(&stmts.texts, &out, (!adhoc).then_some(&expected[..]));
        if adhoc && i % VERIFY_EVERY == 0 {
            check_oracle(&oracle, stmts, &out, tally);
        }
        i += 1;
    }
    (m, tracer)
}

fn ms_percentile(ns: &[u64], p: f64) -> f64 {
    let mut ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    percentile(&ms, p)
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn layer_metrics(log: &Tracer) -> Vec<Metric> {
    let (spans, counts) = (&log.spans, &log.counts);
    let b = Breakdown::of(spans, Layer::Cycle);
    let wire = Breakdown::of(spans, Layer::Wire);
    let cycles = b.root_ns.len().max(1) as f64;
    let c = trace::sum_counts(counts);
    let per_cycle = |i: usize| c[i] as f64 / cycles;
    let us = |l: Layer| b.median_us(l);
    let fetches = (c[count::POOL_HITS] + c[count::POOL_MISSES]) as f64;
    vec![
        ("ql.parse_us", us(Layer::QlParse), "us"),
        ("ql.lower_us", us(Layer::QlLower), "us"),
        ("core.plan_cache_us", us(Layer::PlanCache), "us"),
        ("core.translate_us", us(Layer::Translate), "us"),
        ("relalg.optimizer_us", us(Layer::Optimizer), "us"),
        ("relalg.exec_us", us(Layer::Exec), "us"),
        ("exec.batches", per_cycle(count::BATCHES), "count"),
        ("exec.batch_rows", per_cycle(count::BATCH_ROWS), "count"),
        (
            "exec.rows_examined_per_answer",
            c[count::BATCH_ROWS] as f64 / c[count::ANSWER_ROWS].max(1) as f64,
            "ratio",
        ),
        (
            "storage.segments_scanned",
            per_cycle(count::SEGMENTS_SCANNED),
            "count",
        ),
        (
            "storage.segments_skipped",
            per_cycle(count::SEGMENTS_SKIPPED),
            "count",
        ),
        (
            "storage.decoded_bytes",
            per_cycle(count::DECODED_BYTES),
            "bytes",
        ),
        ("storage.pages_read", per_cycle(count::PAGES_READ), "count"),
        (
            "storage.pool_hit_ratio",
            if fetches > 0.0 {
                c[count::POOL_HITS] as f64 / fetches
            } else {
                0.0
            },
            "ratio",
        ),
        ("core.decode_us", us(Layer::Decode), "us"),
        ("server.render_us", us(Layer::Render), "us"),
        ("server.bytes_out", per_cycle(count::BYTES_OUT), "bytes"),
        (
            "core.has_partial_fields_us",
            us(Layer::HasPartialFields),
            "us",
        ),
        ("core.normalize_us", us(Layer::Normalize), "us"),
        ("core.lemma43_us", us(Layer::Lemma43), "us"),
        ("core.confidence_us", us(Layer::Confidence), "us"),
        ("server.wire_us", wire.root_median_us(), "us"),
        ("server.decode_req_us", us(Layer::DecodeReq), "us"),
    ]
}

/// Run one workload once.
pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut result = None;
    for rep in 0..opts.setup_reps.max(1) {
        let last = rep + 1 == opts.setup_reps.max(1);
        with_env(spec, opts, |env, times| {
            setups.push(times);
            if last {
                let mut tally = Tally::default();
                let digest = env.first.iter().fold(FNV_SEED, |h, r| match r {
                    Ok(resp) => fnv1a(h, answer_of(body_of(resp)).as_bytes()),
                    Err(_) => h,
                });
                let (m, tracer) = measure(spec, opts, env, &mut tally);
                result = Some((m, tracer, tally, digest));
            }
        })?;
    }
    let (m, tracer, tally, answers_digest) = result.expect("the last set-up measures");
    if m.plain_ns.is_empty() {
        return Err("no cycle completed in the measuring window".into());
    }
    let setup_of = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let p50 = ms_percentile(&m.plain_ns, 0.5);
    let end_to_end = vec![
        ("cycle_p50_ms", p50, "ms"),
        ("cycle_p90_ms", ms_percentile(&m.plain_ns, 0.9), "ms"),
        ("throughput_qps", m.statements as f64 / m.busy_s, "1/s"),
        ("setup_s", setup_of(SetupTimes::total), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];

    let mut per_layer = Vec::new();
    if opts.trace {
        std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
        let path = opts.out_dir.join(format!("{}.trace.jsonl", spec.name));
        trace::write_jsonl(&path, spec.name, opts.seed, &tracer).map_err(|e| e.to_string())?;
        per_layer = layer_metrics(&tracer);
        let [queued, shed, cached] = m.server_stats;
        per_layer.extend([
            ("admission.queued", queued, "count"),
            ("admission.shed", shed, "count"),
            ("server.cached_plans", cached, "count"),
            ("setup.generate_s", setup_of(|s| s.generate_s), "s"),
            ("setup.to_catalog_s", setup_of(|s| s.to_catalog_s), "s"),
            ("setup.first_cycle_s", setup_of(|s| s.first_cycle_s), "s"),
            (
                "trace_overhead_frac",
                if m.traced_ns.is_empty() {
                    0.0
                } else {
                    ms_percentile(&m.traced_ns, 0.5) / p50 - 1.0
                },
                "ratio",
            ),
        ]);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        cycles: m.plain_ns.len(),
        answers_digest,
        end_to_end,
        per_layer,
        notes: tally.notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_refusals_and_changed_answers() {
        let texts = vec![
            "a".to_string(),
            "b".to_string(),
            "c".to_string(),
            "d".to_string(),
        ];
        let ok = |rows: &str| Ok(format!("{{\"id\":7,\"ok\":true,\"rows\":{rows}}}"));
        let out = vec![
            ok("[[1]]"),
            ok("[[2]]"),
            Err("connection reset".to_string()),
            Ok("{\"id\":8,\"ok\":false,\"kind\":\"shed\",\"error\":\"queue full\"}".to_string()),
        ];
        let mut expected = digests(&out);
        let mut tally = Tally::default();
        tally.cycle(&texts, &out, Some(&expected));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        // The same bytes under another request id still match; other rows do not.
        let again = vec![
            Ok("{\"id\":9,\"ok\":true,\"rows\":[[1]]}".to_string()),
            ok("[[3]]"),
        ];
        expected.truncate(2);
        let mut tally = Tally::default();
        tally.cycle(&texts[..2], &again, Some(&expected));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.notes[0].contains("`b`"), "{:?}", tally.notes);
    }
}
