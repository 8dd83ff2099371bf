//! Outside-in tracing. Nothing inside the program is instrumented:
//! [`Replay`] runs a statement by calling each layer's public function
//! in the order `urel_ql::execute` does, and the [`Tracer`] records a
//! span around each call. Spans stay in memory until the run ends.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use urel_core::prob::ConfidenceMethod;
use urel_core::translate::{translate_with, TranslateOptions};
use urel_core::{UDatabase, UQuery, URelation};
use urel_ql::{Answers, QueryMode};
use urel_relalg::{exec, optimizer, Catalog, ExecStats, Plan};
use urel_server::{json, render_answers, render_explain, Json, Request};

/// Where a span's time is charged. `Cycle`, `Request` and `TcpCycle`
/// are the harness's own frames; every other layer is one public call
/// into the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Cycle,
    Request,
    QlParse,
    QlLower,
    PlanCache,
    Translate,
    Optimizer,
    Exec,
    Explain,
    Decode,
    HasPartialFields,
    Normalize,
    Lemma43,
    Confidence,
    Render,
    DecodeReq,
    TcpCycle,
    Roundtrip,
    Wire,
}

/// Every layer with the name its spans carry in the trace file.
pub const LAYERS: [(Layer, &str); 19] = [
    (Layer::Cycle, "cycle"),
    (Layer::Request, "request"),
    (Layer::QlParse, "ql.parse"),
    (Layer::QlLower, "ql.lower"),
    (Layer::PlanCache, "core.plan_cache"),
    (Layer::Translate, "core.translate"),
    (Layer::Optimizer, "relalg.optimizer"),
    (Layer::Exec, "relalg.exec"),
    (Layer::Explain, "relalg.explain"),
    (Layer::Decode, "core.decode"),
    (Layer::HasPartialFields, "core.has_partial_fields"),
    (Layer::Normalize, "core.normalize"),
    (Layer::Lemma43, "core.lemma43"),
    (Layer::Confidence, "core.confidence"),
    (Layer::Render, "server.render"),
    (Layer::DecodeReq, "server.decode_req"),
    (Layer::TcpCycle, "tcp.cycle"),
    (Layer::Roundtrip, "server.roundtrip"),
    (Layer::Wire, "server.wire"),
];

impl Layer {
    pub fn name(self) -> &'static str {
        LAYERS[self as usize].1
    }

    fn from_name(name: &str) -> Option<Layer> {
        LAYERS.iter().find(|(_, n)| *n == name).map(|(l, _)| *l)
    }
}

/// Counts taken at the same boundaries as the spans, from the
/// `ExecStats` and answers the calls already return.
pub const COUNT_NAMES: [&str; 10] = [
    "exec.batches",
    "exec.batch_rows",
    "storage.segments_scanned",
    "storage.segments_skipped",
    "storage.decoded_bytes",
    "storage.pages_read",
    "storage.pool_hits",
    "storage.pool_misses",
    "answer_rows",
    "server.bytes_out",
];
pub type Counts = [u64; COUNT_NAMES.len()];

/// Positions in [`Counts`], in [`COUNT_NAMES`] order.
pub mod count {
    pub const BATCHES: usize = 0;
    pub const BATCH_ROWS: usize = 1;
    pub const SEGMENTS_SCANNED: usize = 2;
    pub const SEGMENTS_SKIPPED: usize = 3;
    pub const DECODED_BYTES: usize = 4;
    pub const PAGES_READ: usize = 5;
    pub const POOL_HITS: usize = 6;
    pub const POOL_MISSES: usize = 7;
    pub const ANSWER_ROWS: usize = 8;
    pub const BYTES_OUT: usize = 9;
}

fn exec_counts(s: &ExecStats) -> Counts {
    let mut c = Counts::default();
    c[count::BATCHES] = s.batches as u64;
    c[count::BATCH_ROWS] = s.batch_rows as u64;
    c[count::SEGMENTS_SCANNED] = s.segments_scanned as u64;
    c[count::SEGMENTS_SKIPPED] = s.segments_skipped as u64;
    c[count::DECODED_BYTES] = s.decoded_bytes as u64;
    c[count::PAGES_READ] = s.pages_read as u64;
    c[count::POOL_HITS] = s.pool_hits as u64;
    c[count::POOL_MISSES] = s.pool_misses as u64;
    c
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the span that caused this one (`NO_PARENT` for a root).
    pub parent: u32,
    /// Spans of one request share this identifier (0 outside a request).
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log. One per thread that traces.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(request, counts)` per request that reported any.
    pub counts: Vec<(u32, Counts)>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    /// `first_req` keeps request identifiers distinct across tracers
    /// whose spans end up in one file.
    pub fn new(epoch: Instant, first_req: u32) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
            req: first_req,
        }
    }

    /// Run `f` inside a span of `layer`, child of the innermost open span.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if layer == Layer::Request || layer == Layer::Roundtrip {
            self.req += 1;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req: if self.open.is_empty() { 0 } else { self.req },
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    fn count(&mut self, add: Counts) {
        match self.counts.last_mut() {
            Some((req, c)) if *req == self.req => add_counts(c, &add),
            _ => self.counts.push((self.req, add)),
        }
    }

    /// Duration of the most recently closed root span, in nanoseconds.
    pub fn last_root_ns(&self) -> u64 {
        let s = self
            .spans
            .iter()
            .rev()
            .find(|s| s.parent == NO_PARENT)
            .expect("a root span was recorded");
        s.end_ns - s.start_ns
    }

    /// Append another tracer's log (a client thread's), re-basing its
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
        self.counts.extend(other.counts);
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let d = s.end_ns - s.start_ns;
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(d);
        }
    }
    own
}

/// Per-root breakdown: for every root span of one layer, its duration
/// and the self time each layer spent beneath it.
pub struct Breakdown {
    pub root_ns: Vec<u64>,
    /// `[layer][root]` self time in nanoseconds.
    pub self_ns: Vec<Vec<u64>>,
}

impl Breakdown {
    pub fn of(spans: &[Span], root_layer: Layer) -> Breakdown {
        let own = self_times(spans);
        // A parent is always recorded before its children.
        let mut root_of: Vec<u32> = Vec::with_capacity(spans.len());
        let mut slot_of_root: Vec<Option<usize>> = vec![None; spans.len()];
        let mut root_ns = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                root_of.push(i as u32);
                if s.layer == root_layer {
                    slot_of_root[i] = Some(root_ns.len());
                    root_ns.push(s.end_ns - s.start_ns);
                }
            } else {
                root_of.push(root_of[s.parent as usize]);
            }
        }
        let mut self_ns = vec![vec![0u64; root_ns.len()]; LAYERS.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(slot) = slot_of_root[root_of[i] as usize] {
                self_ns[s.layer as usize][slot] += own[i];
            }
        }
        Breakdown { root_ns, self_ns }
    }

    pub fn median_us(&self, layer: Layer) -> f64 {
        median_ns_as_us(&self.self_ns[layer as usize])
    }

    pub fn root_median_us(&self) -> f64 {
        median_ns_as_us(&self.root_ns)
    }

    /// Share of all root time spent as `layer`'s self time.
    pub fn share(&self, layer: Layer) -> f64 {
        let total: u64 = self.root_ns.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.self_ns[layer as usize].iter().sum::<u64>() as f64 / total as f64
    }

    /// Share of root time inside calls into the program, i.e. not in the
    /// harness's own `cycle`/`request` frames. A call the replay makes
    /// without a span lands in those frames and lowers this.
    pub fn coverage(&self) -> f64 {
        1.0 - self.share(Layer::Cycle) - self.share(Layer::Request)
    }
}

fn median_ns_as_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    crate::measure::median(&v)
}

fn add_counts(total: &mut Counts, add: &Counts) {
    for (a, b) in total.iter_mut().zip(add) {
        *a += b;
    }
}

pub fn sum_counts(counts: &[(u32, Counts)]) -> Counts {
    let mut total = Counts::default();
    for (_, c) in counts {
        add_counts(&mut total, c);
    }
    total
}

/// Write the trace as JSON lines: a header, one line per span, one line
/// per request that reported counts.
pub fn write_jsonl(path: &Path, workload: &str, seed: u64, t: &Tracer) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"workload\":\"{workload}\",\"seed\":{seed}}}")?;
    for (i, s) in t.spans.iter().enumerate() {
        let parent = match s.parent {
            NO_PARENT => "null".to_string(),
            p => p.to_string(),
        };
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    for (req, c) in &t.counts {
        let fields: Vec<String> = COUNT_NAMES
            .iter()
            .zip(c)
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        writeln!(w, "{{\"req\":{req},\"counts\":{{{}}}}}", fields.join(","))?;
    }
    w.flush()
}

/// Read a file written by [`write_jsonl`] back into a span log.
pub fn read_jsonl(path: &Path) -> Result<Tracer, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut log = Tracer::new(Instant::now(), 0);
    let (spans, counts) = (&mut log.spans, &mut log.counts);
    for (n, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let v = json::parse(&line).map_err(|e| bad(&e))?;
        let int = |key: &str| v.get(key).and_then(Json::as_i64);
        if let Some(name) = v.get("name").and_then(Json::as_str) {
            let layer = Layer::from_name(name).ok_or_else(|| bad("unknown span name"))?;
            let (Some(req), Some(start), Some(end)) = (int("req"), int("start_ns"), int("end_ns"))
            else {
                return Err(bad("span lacks req/start_ns/end_ns"));
            };
            let parent = int("parent").map_or(NO_PARENT, |p| p as u32);
            if parent != NO_PARENT && parent as usize >= spans.len() {
                return Err(bad("span names a parent not yet seen"));
            }
            spans.push(Span {
                layer,
                parent,
                req: req as u32,
                start_ns: start as u64,
                end_ns: end as u64,
            });
        } else if let Some(c) = v.get("counts") {
            let mut row = Counts::default();
            for (slot, name) in row.iter_mut().zip(COUNT_NAMES) {
                *slot = c.get(name).and_then(Json::as_i64).unwrap_or(0) as u64;
            }
            counts.push((int("req").unwrap_or(0) as u32, row));
        }
    }
    Ok(log)
}

/// A translated and optimized statement, as `PreparedDb` caches it.
struct Planned {
    plan: Plan,
    desc_arity: usize,
    tid_count: usize,
}

/// `PreparedDb`'s plan-cache size: the replay misses when it does.
const PLAN_CACHE_CAP: usize = 64;

/// Runs statements layer by layer. It must return the bytes the
/// untraced path returns; the harness compares them on every cycle.
pub struct Replay<'a> {
    udb: &'a UDatabase,
    catalog: Catalog,
    plans: Vec<(UQuery, Arc<Planned>)>,
    /// Also encode and decode the request line, as a session does.
    wire: bool,
}

impl<'a> Replay<'a> {
    pub fn new(udb: &'a UDatabase, catalog: Catalog, wire: bool) -> Replay<'a> {
        Replay {
            udb,
            catalog,
            plans: Vec::new(),
            wire,
        }
    }

    /// One in-order pass over `statements` under a `cycle` span.
    pub fn cycle(&mut self, t: &mut Tracer, statements: &[String]) -> Vec<Result<String, String>> {
        t.span(Layer::Cycle, |t| {
            statements
                .iter()
                .map(|s| {
                    t.span(Layer::Request, |t| self.statement(t, s))
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
    }

    fn statement(&mut self, t: &mut Tracer, text: &str) -> urel_ql::Result<String> {
        let owned;
        let text = if self.wire {
            let line = Json::Obj(vec![
                ("op".to_string(), Json::Str("query".to_string())),
                ("id".to_string(), Json::Null),
                ("query".to_string(), Json::Str(text.to_string())),
            ])
            .render();
            match t.span(Layer::DecodeReq, |_| Request::decode(&line)) {
                Ok(Request::Query { text, .. }) => owned = text,
                other => panic!("a query line decodes to a query, not {other:?}"),
            }
            owned.as_str()
        } else {
            text
        };
        let stmt = t.span(Layer::QlParse, |_| urel_ql::parse(text))?;
        let lowered = t.span(Layer::QlLower, |_| urel_ql::lower(&stmt))?;
        let q = &lowered.query;
        if lowered.explain {
            let planned = self.planned(t, &with_poss(q))?;
            let plan = t.span(Layer::Explain, |_| {
                urel_relalg::explain::explain(&planned.plan, &self.catalog)
            });
            return Ok(self.render(t, |_| render_explain(None, &plan)));
        }
        let answers = match lowered.mode {
            QueryMode::Possible { confidence: None } => {
                let planned = self.planned(t, &with_poss(q))?;
                let (rel, stats) = t.span(Layer::Exec, |_| {
                    exec::execute_with_stats(&planned.plan, &self.catalog)
                })?;
                t.count(exec_counts(&stats));
                let rel = t.span(Layer::Decode, |_| {
                    URelation::decode("result", &rel, planned.desc_arity, planned.tid_count)
                        .map(|u| u.possible_tuples())
                })?;
                Answers::Plain { rel, stats }
            }
            QueryMode::Certain { confidence: None } => {
                if t.span(Layer::HasPartialFields, |_| self.udb.has_partial_fields())? {
                    // The generated databases define every field in every
                    // world; the exact-expansion fallback is not replayed.
                    return Err(urel_core::Error::InvalidDatabase(
                        "replay: database has partial or-set fields".into(),
                    )
                    .into());
                }
                let u = self.evaluate(t, q)?;
                let n = t.span(Layer::Normalize, |_| {
                    urel_core::normalize::normalize_urelations(&[&u], &self.udb.world)
                })?;
                let rel = t.span(Layer::Lemma43, |_| {
                    urel_core::certain::certain_lemma43(&n.relations[0], &n.world)
                })?;
                Answers::Plain {
                    rel,
                    stats: ExecStats::default(),
                }
            }
            QueryMode::Possible {
                confidence: Some(eps),
            } => {
                let u = self.evaluate(t, without_poss(q))?;
                let rows = t.span(Layer::Confidence, |_| {
                    urel_core::prob::tuple_confidences_with(&u, &self.udb.world, monte_carlo(eps))
                })?;
                Answers::WithConfidence { rows }
            }
            QueryMode::Certain {
                confidence: Some(eps),
            } => {
                let u = self.evaluate(t, without_poss(q))?;
                let rows = t.span(Layer::Confidence, |_| {
                    urel_core::certain::certain_with_coverage(
                        &u,
                        &self.udb.world,
                        monte_carlo(eps),
                        MC_DELTA,
                    )
                })?;
                Answers::WithConfidence { rows }
            }
        };
        let mut rows = Counts::default();
        rows[count::ANSWER_ROWS] = match &answers {
            Answers::Plain { rel, .. } => rel.len() as u64,
            Answers::WithConfidence { rows } => rows.len() as u64,
        };
        t.count(rows);
        Ok(self.render(t, |_| render_answers(None, &answers)))
    }

    fn render(&self, t: &mut Tracer, build: impl FnOnce(&mut Tracer) -> Json) -> String {
        let out = t.span(Layer::Render, |t| build(t).render());
        let mut bytes = Counts::default();
        bytes[count::BYTES_OUT] = out.len() as u64;
        t.count(bytes);
        out
    }

    /// `PreparedDb::evaluate`: plan, execute, decode the U-relation.
    fn evaluate(&mut self, t: &mut Tracer, q: &UQuery) -> urel_ql::Result<URelation> {
        let planned = self.planned(t, q)?;
        let rel = t.span(Layer::Exec, |_| {
            exec::execute_with_stats(&planned.plan, &self.catalog)
        })?;
        t.count(exec_counts(&rel.1));
        Ok(t.span(Layer::Decode, |_| {
            URelation::decode("result", &rel.0, planned.desc_arity, planned.tid_count)
        })?)
    }

    /// `PreparedDb::plan_for`: translate and optimize on a cache miss.
    fn planned(&mut self, t: &mut Tracer, q: &UQuery) -> urel_ql::Result<Arc<Planned>> {
        let hit = t.span(Layer::PlanCache, |_| {
            let found = self.plans.iter().find(|(cq, _)| cq == q);
            found.map(|(_, p)| Arc::clone(p))
        });
        if let Some(planned) = hit {
            return Ok(planned);
        }
        let tp = t.span(Layer::Translate, |_| {
            translate_with(self.udb, q, TranslateOptions::default())
        })?;
        let plan = t.span(Layer::Optimizer, |_| {
            optimizer::optimize(&tp.plan, &self.catalog)
        })?;
        let planned = Arc::new(Planned {
            plan,
            desc_arity: tp.desc_arity(),
            tid_count: tp.tid_cols.len(),
        });
        t.span(Layer::PlanCache, |_| {
            if self.plans.len() >= PLAN_CACHE_CAP {
                self.plans.clear();
            }
            self.plans.push((q.clone(), Arc::clone(&planned)));
        });
        Ok(planned)
    }
}

fn with_poss(q: &UQuery) -> UQuery {
    match q {
        UQuery::Poss { .. } => q.clone(),
        _ => q.clone().poss(),
    }
}

fn without_poss(q: &UQuery) -> &UQuery {
    match q {
        UQuery::Poss { input } => input,
        _ => q,
    }
}

/// `urel_ql::execute`'s estimator: δ and the seed are its constants.
const MC_DELTA: f64 = 1e-6;

fn monte_carlo(eps: f64) -> ConfidenceMethod {
    ConfidenceMethod::MonteCarlo {
        samples: ((2.0f64 / MC_DELTA).ln() / (2.0 * eps * eps)).ceil() as usize,
        seed: 0xC0FF_1DE5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(Layer::Cycle, NO_PARENT, 0, 100),
            span(Layer::Request, 0, 10, 90),
            span(Layer::QlParse, 1, 10, 30),
            span(Layer::Exec, 1, 30, 85),
            span(Layer::Cycle, NO_PARENT, 100, 150),
            span(Layer::Exec, 4, 100, 150),
        ];
        assert_eq!(self_times(&spans), vec![20, 5, 20, 55, 0, 50]);
        let b = Breakdown::of(&spans, Layer::Cycle);
        assert_eq!(b.root_ns, vec![100, 50]);
        assert_eq!(b.self_ns[Layer::Exec as usize], vec![55, 50]);
        assert_eq!(b.self_ns[Layer::QlParse as usize], vec![20, 0]);
        assert!((b.share(Layer::Exec) - 105.0 / 150.0).abs() < 1e-12);
        // 25 of 150 ns sit in the harness frames.
        assert!((b.coverage() - 125.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_round_trips_through_the_file() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span(Layer::Cycle, |t| {
            t.span(Layer::Request, |t| {
                t.span(Layer::QlParse, |_| ());
                t.count(exec_counts(&ExecStats {
                    batches: 3,
                    pages_read: 7,
                    ..ExecStats::default()
                }));
            });
        });
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.spans[2].req, t.spans[1].req);
        assert_eq!(t.last_root_ns(), t.spans[0].end_ns - t.spans[0].start_ns);
        let dir = std::env::temp_dir().join(format!("urbench-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace.jsonl");
        write_jsonl(&path, "w", 1, &t).unwrap();
        let read = read_jsonl(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(read.spans, t.spans);
        assert_eq!(read.counts, t.counts);
        assert_eq!(sum_counts(&read.counts)[count::BATCHES], 3);
        assert_eq!(sum_counts(&read.counts)[count::PAGES_READ], 7);
    }
}
