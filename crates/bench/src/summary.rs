//! The one summary schema of the bench harnesses: a small JSON writer, a
//! [`Summary`] of named rows and pass/fail [`Gate`]s that renders
//! `BENCH_<name>.json` *and* the human-readable lines from the same
//! rows, the replay gate, the scale-knob reader [`env_or`], and the
//! crate's only process exit — so the perf trajectory stays comparable
//! across harnesses and PRs by a script instead of by eye.

use std::fmt::Write as _;
use xsearch_workload::RunReport;

/// A JSON value; numbers are `f64` (every figure a harness reports is far
/// below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number; NaN and ±inf render as `null`, never as invalid JSON.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Obj),
    /// Pre-rendered JSON embedded verbatim (a telemetry snapshot).
    Raw(String),
}

/// A JSON object, built field by field; keeps insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends a field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Obj {
        self.0.push((key.to_owned(), value.into()));
        self
    }
}

/// `x` rounded to `decimals` places, so files stay diffable.
#[must_use]
pub fn fixed(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

impl Json {
    /// Appends the value. The top-level object breaks one row per line and
    /// a row's array one element per line; anything deeper stays on its
    /// parent's line.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Raw(raw) => out.push_str(raw.trim()),
            Json::Arr(items) => write_items(out, depth, depth < 2, "[]", items, |out, item| {
                item.write(out, depth + 1);
            }),
            Json::Obj(Obj(fields)) => {
                write_items(out, depth, depth == 0, "{}", fields, |out, (key, value)| {
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                });
            }
        }
    }

    /// Appends `prefix=value` for a scalar and recurses into objects with
    /// dotted keys; arrays and raw embeddings have no one-line form.
    fn flatten(&self, prefix: &str, out: &mut Vec<String>) {
        match self {
            Json::Obj(Obj(fields)) => {
                for (key, value) in fields {
                    if prefix.is_empty() {
                        value.flatten(key, out);
                    } else {
                        value.flatten(&format!("{prefix}.{key}"), out);
                    }
                }
            }
            Json::Arr(_) | Json::Raw(_) => {}
            Json::Str(s) => out.push(format!("{prefix}={s}")),
            scalar => {
                let mut text = format!("{prefix}=");
                scalar.write(&mut text, 0);
                out.push(text);
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_items<T>(
    out: &mut String,
    depth: usize,
    broken: bool,
    brackets: &str,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    let broken = broken && !items.is_empty();
    out.push_str(&brackets[..1]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if broken {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        write_item(out, item);
    }
    if broken {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(&brackets[1..]);
}

macro_rules! json_from {
    ($($t:ty: $x:ident => $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $json
            }
        }
    )*};
}

json_from! {
    bool: b => Json::Bool(b);
    f64: n => Json::Num(n);
    u64: n => Json::Num(n as f64);
    usize: n => Json::Num(n as f64);
    &str: s => Json::Str(s.to_owned());
    Obj: o => Json::Obj(o);
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// One pass/fail condition: a measured `value` against a `bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is gated.
    pub name: String,
    /// The measured figure.
    pub value: f64,
    /// The bound it is held to.
    pub bound: f64,
    /// Whether the condition held (a NaN value never does).
    pub pass: bool,
}

impl Gate {
    /// Passes when `value >= bound`.
    #[must_use]
    pub fn at_least(name: &str, value: f64, bound: f64) -> Gate {
        Gate {
            name: name.to_owned(),
            value,
            bound,
            pass: value >= bound,
        }
    }

    /// Passes when `value <= bound`.
    #[must_use]
    pub fn at_most(name: &str, value: f64, bound: f64) -> Gate {
        Gate {
            pass: value <= bound,
            ..Gate::at_least(name, value, bound)
        }
    }

    /// Passes when `value` is `pin` to the four decimals a summary
    /// prints: a seeded figure that drifts at all fails.
    #[must_use]
    pub fn pinned(name: &str, value: f64, pin: f64) -> Gate {
        Gate {
            pass: (value - pin).abs() <= 0.00005,
            ..Gate::at_least(name, value, pin)
        }
    }
}

/// The deterministic-replay gate: runs `transcript` twice and passes
/// when the two runs are identical. `bound` is the transcript length and
/// `value` the length of the matching prefix — on failure, the index of
/// the first differing entry.
pub fn replay_gate<T: PartialEq>(name: &str, mut transcript: impl FnMut() -> Vec<T>) -> Gate {
    let (first, second) = (transcript(), transcript());
    let len = first.len().max(second.len());
    let matching = first
        .iter()
        .zip(&second)
        .position(|(a, b)| a != b)
        .unwrap_or(first.len().min(second.len()));
    Gate::at_least(name, matching as f64, len as f64)
}

/// One harness run's results: named rows (`bench` first) plus gates.
#[derive(Debug)]
pub struct Summary {
    bench: &'static str,
    rows: Obj,
    gates: Vec<Gate>,
}

impl Summary {
    /// An empty summary; `finish` writes it to `BENCH_<bench>.json`.
    #[must_use]
    pub fn new(bench: &'static str) -> Summary {
        Summary {
            bench,
            rows: Obj::new().field("bench", bench),
            gates: Vec::new(),
        }
    }

    /// Adds a top-level row.
    pub fn row(&mut self, key: &str, value: impl Into<Json>) {
        self.rows.0.push((key.to_owned(), value.into()));
    }

    /// Adds a gate and returns whether it passed.
    pub fn gate(&mut self, gate: Gate) -> bool {
        let pass = gate.pass;
        self.gates.push(gate);
        pass
    }

    /// Whether every gate passed — the exit decision `finish` acts on.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// The rows, then `gates` — what both renderings show.
    fn fields(&self) -> Obj {
        let gates = self.gates.iter().map(|g| {
            Obj::new()
                .field("name", g.name.as_str())
                .field("value", fixed(g.value, 4))
                .field("bound", fixed(g.bound, 4))
                .field("pass", g.pass)
        });
        self.rows.clone().field("gates", gates.collect::<Json>())
    }

    /// The machine-readable form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        Json::Obj(self.fields()).write(&mut out, 0);
        out.push('\n');
        out
    }

    /// The human-readable form of the same fields: `key=value` for a
    /// scalar, `key: field=value ...` for an object and for each element
    /// of an array.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (key, value) in &self.fields().0 {
            let elements = match value {
                Json::Arr(items) => items.as_slice(),
                other => std::slice::from_ref(other),
            };
            for element in elements {
                if matches!(element, Json::Obj(_)) {
                    let mut fields = Vec::new();
                    element.flatten("", &mut fields);
                    lines.push(format!("{key}: {}", fields.join(" ")));
                } else {
                    element.flatten(key, &mut lines);
                }
            }
        }
        lines
    }

    /// The shared tail of every harness binary: writes the summary file,
    /// prints the human-readable lines, and — when a gate failed — runs
    /// `diagnose` (the flight-recorder dump) and exits 1.
    pub fn finish(self, diagnose: impl FnOnce()) {
        let path = format!("BENCH_{}.json", self.bench);
        match std::fs::write(&path, self.render()) {
            Ok(()) => eprintln!("wrote summary to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        println!();
        for line in self.lines() {
            println!("{line}");
        }
        if !self.passed() {
            eprintln!("FAIL: {} gate(s) violated", self.bench);
            diagnose();
            std::process::exit(1);
        }
    }
}

/// A scale knob: the environment variable `name` as an integer, `default`
/// when unset or unparsable, never below `floor` — so a zero or garbage
/// value cannot produce a zero-length point or an empty run.
#[must_use]
pub fn env_or(name: &str, default: u64, floor: u64) -> u64 {
    knob(std::env::var(name).ok().as_deref(), default, floor)
}

fn knob(raw: Option<&str>, default: u64, floor: u64) -> u64 {
    raw.and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
        .max(floor)
}

/// The kept-up point with the best achieved rate.
fn best(reports: &[RunReport]) -> Option<&RunReport> {
    let kept_up = reports.iter().filter(|r| r.kept_up());
    kept_up.max_by(|a, b| a.achieved_rate().total_cmp(&b.achieved_rate()))
}

/// Max sustained rate: the best achieved rate among kept-up points.
#[must_use]
pub fn capacity(reports: &[RunReport]) -> f64 {
    best(reports).map_or(0.0, RunReport::achieved_rate)
}

/// p99 latency (ms) at that point; NaN when no point kept up.
#[must_use]
pub fn p99_at_capacity(reports: &[RunReport]) -> f64 {
    best(reports).map_or(f64::NAN, RunReport::p99_latency_ms)
}

/// The sweep's points as an array of
/// `{offered_rps, achieved_rps, median_ms, p99_ms, kept_up}` objects.
#[must_use]
pub fn json_points(reports: &[RunReport]) -> Json {
    let point = |r: &RunReport| {
        Obj::new()
            .field("offered_rps", fixed(r.offered_rate, 1))
            .field("achieved_rps", fixed(r.achieved_rate(), 1))
            .field("median_ms", fixed(r.median_latency_ms(), 3))
            .field("p99_ms", fixed(r.p99_latency_ms(), 3))
            .field("kept_up", r.kept_up())
    };
    reports.iter().map(point).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsearch_metrics::histogram::LatencyHistogram;

    fn report(offered: f64, completed: u64, secs: f64) -> RunReport {
        let mut h = LatencyHistogram::new();
        h.record(500);
        RunReport {
            offered_rate: offered,
            completed,
            failed: 0,
            elapsed_secs: secs,
            latency_us: h,
        }
    }

    fn compact(value: &Json) -> String {
        let mut out = String::new();
        value.write(&mut out, 2);
        out
    }

    #[test]
    fn capacity_takes_best_kept_up_point() {
        let reports = vec![
            report(100.0, 100, 1.0), // kept up at 100
            report(200.0, 200, 1.0), // kept up at 200
            report(400.0, 250, 1.0), // collapsed
        ];
        assert!((capacity(&reports) - 200.0).abs() < 1e-9);
        assert_eq!(capacity(&[]), 0.0);
    }

    #[test]
    fn json_points_is_valid_shape() {
        let out = compact(&json_points(&[report(100.0, 100, 1.0)]));
        assert!(out.starts_with('[') && out.ends_with(']'));
        assert!(out.contains("\"offered_rps\": 100"));
        assert!(out.contains("\"kept_up\": true"));
    }

    #[test]
    fn writer_escapes_strings_and_nulls_non_finite_numbers() {
        assert_eq!(
            compact(&"a\"b\\c\n\u{1}".into()),
            r#""a\"b\\c\u000a\u0001""#
        );
        let bad = Json::Arr(vec![
            f64::NAN.into(),
            f64::INFINITY.into(),
            fixed(1.0 / 0.0, 1),
            fixed(2.125, 2),
        ]);
        assert_eq!(compact(&bad), "[null, null, null, 2.13]");
        assert_eq!(compact(&Obj::new().into()), "{}");
    }

    #[test]
    fn knob_floors_zero_and_defaults_garbage() {
        assert_eq!(knob(None, 800, 10), 800);
        assert_eq!(knob(Some("120"), 800, 10), 120);
        assert_eq!(knob(Some("0"), 800, 10), 10, "zero-length point");
        assert_eq!(knob(Some("fast"), 800, 10), 800);
        assert_eq!(knob(Some("-5"), 800, 10), 800);
        assert_eq!(env_or("XSEARCH_BENCH_NO_SUCH_KNOB", 7, 1), 7);
    }

    #[test]
    fn replay_gate_passes_deterministic_and_reports_first_diff() {
        let same = replay_gate("replay", || vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(same.pass);
        assert_eq!((same.value, same.bound), (2.0, 2.0));

        let mut calls = 0;
        let flipped = replay_gate("replay", || {
            calls += 1;
            let mut frames = vec![vec![1u8, 2], vec![3, 4], vec![5, 6]];
            if calls == 2 {
                frames[1][0] ^= 1;
            }
            frames
        });
        assert!(!flipped.pass);
        assert_eq!((flipped.value, flipped.bound), (1.0, 3.0));

        let mut calls = 0;
        let truncated = replay_gate("replay", || {
            calls += 1;
            vec![0u8; 4 - calls]
        });
        assert!(!truncated.pass, "a shorter second run is a divergence");
        assert_eq!((truncated.value, truncated.bound), (2.0, 3.0));
    }

    #[test]
    fn summary_renders_rows_and_gates_and_decides_the_exit() {
        let mut s = Summary::new("demo");
        s.row("requests", 400u64);
        let phase = Obj::new()
            .field("name", "warm \"up\"")
            .field("rate", fixed(12.345, 1))
            .field("points", [1u64, 2].into_iter().collect::<Json>());
        s.row("phases", Json::Arr(vec![phase.into()]));
        assert!(s.gate(Gate::at_least("goodput_ratio", 0.86, 0.7)));
        assert!(s.passed());
        assert!(!s.gate(Gate::at_most("lost_acked", f64::NAN, 0.0)));
        assert!(!s.passed(), "one failed gate fails the run");
        assert_eq!(
            s.render(),
            r#"{
  "bench": "demo",
  "requests": 400,
  "phases": [
    {"name": "warm \"up\"", "rate": 12.3, "points": [1, 2]}
  ],
  "gates": [
    {"name": "goodput_ratio", "value": 0.86, "bound": 0.7, "pass": true},
    {"name": "lost_acked", "value": null, "bound": 0, "pass": false}
  ]
}
"#
        );
        assert_eq!(
            s.lines(),
            [
                "bench=demo",
                "requests=400",
                "phases: name=warm \"up\" rate=12.3",
                "gates: name=goodput_ratio value=0.86 bound=0.7 pass=true",
                "gates: name=lost_acked value=null bound=0 pass=false",
            ]
        );
    }
}
