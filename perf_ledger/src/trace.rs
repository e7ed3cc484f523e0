//! Spans around the benchmark's own calls into the product, kept in
//! memory during the traced run, and the ledger computed from them: per
//! span name the time per operation, the self time (duration minus what
//! child spans cover) and its share of end to end.

use crate::clock::{Clock, WallClock};
use crate::json::Json;

/// Index of a span in the tracer's buffer.
pub type SpanId = u32;

/// The root span every operation opens; its self time is the ledger's
/// residual (generator bookkeeping and anything no span covers).
pub const ROOT: &str = "op";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The operation this span belongs to; spans of one operation share
    /// it.
    pub op: u64,
    pub parent: Option<SpanId>,
}

/// Records spans when `on`; targets skip the calls entirely when off, so
/// the untraced phases pay one branch.
pub struct Tracer {
    pub on: bool,
    clock: WallClock,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            clock: WallClock::start(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            op,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.clock.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a span when `parent` is one; just runs it when the
    /// operation is not being traced.
    pub fn under<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        match parent {
            Some(parent) => self.within(name, op, parent, f),
            None => f(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Switches recording and drops what was recorded so far.
    pub fn restart(&mut self, on: bool) {
        self.on = on;
        self.spans.clear();
    }
}

/// One ledger row: a span name's cost per operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    /// Spans of this name per operation.
    pub calls_per_op: f64,
    /// Mean time inside spans of this name, per operation.
    pub ns_per_op: f64,
    /// `ns_per_op` minus the part child spans cover.
    pub self_ns_per_op: f64,
    /// `self_ns_per_op` as a share of end to end.
    pub share: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub ops: u64,
    /// Mean root-span duration.
    pub e2e_ns: f64,
    /// Non-root rows, in order of first appearance.
    pub rows: Vec<Row>,
    /// The root's self time: `e2e − Σ self` over the rows.
    pub residual_ns: f64,
}

impl Ledger {
    pub fn residual_share(&self) -> f64 {
        if self.e2e_ns == 0.0 {
            0.0
        } else {
            self.residual_ns / self.e2e_ns
        }
    }

    /// Self time per operation of the row called `name` (0 if absent).
    pub fn self_ns(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_ns_per_op)
    }

    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Builds the ledger. A span's self time is its duration minus the
/// durations of the spans that name it as parent; children are recorded
/// sequentially on one thread, so they never overlap each other.
pub fn ledger(spans: &[Span]) -> Ledger {
    struct Acc {
        name: &'static str,
        total: f64,
        calls: u64,
        child_time: f64,
    }
    let mut accs: Vec<Acc> = Vec::new();
    let mut acc_of_span = Vec::with_capacity(spans.len());
    for span in spans {
        let i = accs
            .iter()
            .position(|a| a.name == span.name)
            .unwrap_or_else(|| {
                accs.push(Acc {
                    name: span.name,
                    total: 0.0,
                    calls: 0,
                    child_time: 0.0,
                });
                accs.len() - 1
            });
        acc_of_span.push(i);
        let duration = span.end_ns.saturating_sub(span.start_ns) as f64;
        accs[i].total += duration;
        accs[i].calls += 1;
        if let Some(parent) = span.parent {
            accs[acc_of_span[parent as usize]].child_time += duration;
        }
    }
    let root = accs.iter().find(|a| a.name == ROOT);
    let ops = root.map_or(0, |r| r.calls);
    let per_op = |v: f64| if ops == 0 { 0.0 } else { v / ops as f64 };
    let e2e_ns = root.map_or(0.0, |r| per_op(r.total));
    let rows = accs
        .iter()
        .filter(|a| a.name != ROOT)
        .map(|a| {
            let self_ns = per_op(a.total - a.child_time);
            Row {
                name: a.name,
                calls_per_op: per_op(a.calls as f64),
                ns_per_op: per_op(a.total),
                self_ns_per_op: self_ns,
                share: if e2e_ns == 0.0 { 0.0 } else { self_ns / e2e_ns },
            }
        })
        .collect();
    Ledger {
        ops,
        e2e_ns,
        rows,
        residual_ns: root.map_or(0.0, |r| per_op(r.total - r.child_time)),
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the operation id
/// and parent in `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("op", Json::Num(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, op: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            op,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_residual_is_the_roots() {
        // Two ops of 100 ns. Each: `a` 60 ns containing `b` 25 ns, then
        // `c` 30 ns; 10 ns of the root is covered by nothing.
        let mut spans = Vec::new();
        for op in 0..2u64 {
            let base = op * 1000;
            let root = spans.len() as SpanId;
            spans.push(span(ROOT, base, base + 100, op, None));
            let a = spans.len() as SpanId;
            spans.push(span("a", base + 5, base + 65, op, Some(root)));
            spans.push(span("b", base + 10, base + 35, op, Some(a)));
            spans.push(span("c", base + 65, base + 95, op, Some(root)));
        }
        let l = ledger(&spans);
        assert_eq!(l.ops, 2);
        assert_eq!(l.e2e_ns, 100.0);
        assert_eq!(l.row("a").unwrap().ns_per_op, 60.0);
        assert_eq!(l.self_ns("a"), 35.0);
        assert_eq!(l.self_ns("b"), 25.0);
        assert_eq!(l.self_ns("c"), 30.0);
        assert_eq!(l.residual_ns, 10.0);
        assert!((l.residual_share() - 0.10).abs() < 1e-12);
        let covered: f64 = l.rows.iter().map(|r| r.self_ns_per_op).sum();
        assert_eq!(covered + l.residual_ns, l.e2e_ns);
        assert_eq!(l.row("b").unwrap().calls_per_op, 1.0);
        assert!((l.row("c").unwrap().share - 0.30).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_gives_an_empty_ledger() {
        let l = ledger(&[]);
        assert_eq!((l.ops, l.e2e_ns, l.residual_ns), (0, 0.0, 0.0));
        assert_eq!(l.residual_share(), 0.0);
        assert_eq!(l.self_ns("anything"), 0.0);
    }

    #[test]
    fn tracer_records_nested_spans_and_chrome_json_parses() {
        let mut t = Tracer::new(true);
        let root = t.open(ROOT, 7, None);
        let got = t.within("inner", 7, root, || 41 + 1);
        t.close(root);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = chrome_trace(spans).render();
        let parsed = crate::json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        t.restart(false);
        assert!(t.spans().is_empty() && !t.on);
    }
}
