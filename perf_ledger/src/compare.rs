//! Result sets — the values of every end-to-end metric over several
//! runs of every workload — and the two things done with them: the A/A
//! summary (`--repeat`) and the parent-vs-change comparison (`compare`).

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric of the benchmark: its unit, which direction is
/// better, and the share of the parent's median by which it may worsen
/// before a change counts as a regression. `BENCHMARK.json` states the
/// same table; a unit test keeps the two equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "paced_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_ok_share",
        unit: "share",
        higher_is_better: true,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Diagnostics of the traced run that `compare` gates like an end-to-end
/// metric. The delay charged, never slept, per operation is exact over
/// the traced run's fixed operation count — on `proxy_echo` it reads the
/// same on every run, which the benchmark contract does not allow of an
/// end-to-end metric — and no CPU metric can see it move.
pub const GATED_DIAGNOSTICS: [EndToEnd; 1] = [EndToEnd {
    name: "loadgen.modeled_ms_per_op",
    unit: "ms",
    higher_is_better: false,
    bound: 0.02,
}];

/// Every metric `compare` and the A/A summary judge.
fn gated() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().chain(&GATED_DIAGNOSTICS)
}

/// workload → metric → one value per run, plus failed operations per
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: BTreeMap<String, Vec<f64>>,
}

impl ResultSet {
    /// Adds one run's result line (the JSON a run prints last), keeping
    /// the metrics that are judged: an untraced run contributes the
    /// end-to-end metrics, a traced one the gated diagnostics.
    pub fn add_run(&mut self, workload: &str, line: &Json) -> Result<(), String> {
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line has no metrics object")?;
        let per_metric = self.values.entry(workload.to_owned()).or_default();
        for (name, entry) in metrics {
            if !gated().any(|m| m.name == name) {
                continue;
            }
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
        let failed = line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        self.failed
            .entry(workload.to_owned())
            .or_default()
            .push(failed);
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        let numbers = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj([
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(w, metrics)| {
                            (
                                w.clone(),
                                Json::Obj(
                                    metrics
                                        .iter()
                                        .map(|(m, v)| (m.clone(), numbers(v)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "failed",
                Json::Obj(
                    self.failed
                        .iter()
                        .map(|(w, v)| (w.clone(), numbers(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a set back. A bare result line (one run) is not a set; use
    /// [`ResultSet::add_run`] for those.
    pub fn from_json(doc: &Json) -> Result<ResultSet, String> {
        let numbers = |j: &Json| -> Result<Vec<f64>, String> {
            j.as_arr()
                .ok_or("expected an array of numbers")?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| "expected a number".to_owned()))
                .collect()
        };
        let mut set = ResultSet::default();
        for (workload, metrics) in doc
            .get("values")
            .and_then(Json::as_obj)
            .ok_or("result set has no values object")?
        {
            let per_metric = set.values.entry(workload.clone()).or_default();
            for (metric, values) in metrics.as_obj().ok_or("expected an object per workload")? {
                per_metric.insert(metric.clone(), numbers(values)?);
            }
        }
        if let Some(failed) = doc.get("failed").and_then(Json::as_obj) {
            for (workload, values) in failed {
                set.failed.insert(workload.clone(), numbers(values)?);
            }
        }
        Ok(set)
    }
}

/// The A/A table: per workload × metric the median, the quartiles and
/// the relative spread, flagged where the spread exceeds a third of the
/// metric's bound (`setup_s` excepted: its acceptance rule compares
/// medians only).
pub fn summarise(set: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut steady = true;
    let _ = writeln!(
        out,
        "{:<14} {:<26} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (workload, metrics) in &set.values {
        for metric in gated() {
            let Some(values) = metrics.get(metric.name) else {
                continue;
            };
            let (q1, q3) = quartiles(values);
            let s = spread(values);
            let wide = metric.name != "setup_s" && s > metric.bound / 3.0;
            steady &= !wide;
            let _ = writeln!(
                out,
                "{:<14} {:<26} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%{}",
                workload,
                metric.name,
                median(values),
                q1,
                q3,
                s * 100.0,
                metric.bound * 100.0,
                if wide { "  WIDE" } else { "" }
            );
        }
    }
    (out, steady)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread exceeds the bound and the runs overlap: the data cannot
    /// say.
    Unresolved,
}

/// Compares one metric's runs: `base` is the parent, `change` the
/// candidate.
pub fn judge(metric: &EndToEnd, base: &[f64], change: &[f64]) -> Verdict {
    let (mb, mc) = (median(base), median(change));
    // Positive = the change is worse, as a share of the base.
    let worse_by = if mb == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (mb - mc) / mb.abs()
    } else {
        (mc - mb) / mb.abs()
    };
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((blo, bhi), (clo, chi)) = (range(base), range(change));
    let overlap = blo <= chi && clo <= bhi;
    if spread(base).max(spread(change)) > metric.bound && overlap {
        return Verdict::Unresolved;
    }
    if worse_by > metric.bound {
        return Verdict::Worse;
    }
    let (q1, q3) = quartiles(base);
    if -worse_by * mb.abs() > (q3 - q1) && !overlap {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per workload × end-to-end metric: both medians, the ratio
/// with its base, the bound and the verdict. The flag is true when any
/// metric is worse or any workload failed more operations.
pub fn compare(base: &ResultSet, change: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<26} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "base median", "change median", "ratio (change/base)", "bound"
    );
    for (workload, base_metrics) in &base.values {
        let Some(change_metrics) = change.values.get(workload) else {
            let _ = writeln!(out, "{workload:<14} missing from the change's results");
            regressed = true;
            continue;
        };
        for metric in gated() {
            let (Some(b), Some(c)) = (
                base_metrics.get(metric.name),
                change_metrics.get(metric.name),
            ) else {
                continue;
            };
            let verdict = judge(metric, b, c);
            regressed |= verdict == Verdict::Worse;
            let (mb, mc) = (median(b), median(c));
            let _ = writeln!(
                out,
                "{:<14} {:<26} {:>14.4} {:>14.4} {:>10.4} of {:>8.4} {:>5.0}%  {}",
                workload,
                metric.name,
                mb,
                mc,
                if mb == 0.0 { 0.0 } else { mc / mb },
                mb,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |set: &ResultSet| {
            set.failed
                .get(workload)
                .map_or(0.0, |v| v.iter().sum::<f64>())
        };
        if failed(change) > failed(base) {
            let _ = writeln!(
                out,
                "{workload:<14} failed operations rose from {} to {}",
                failed(base),
                failed(change)
            );
            regressed = true;
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: &EndToEnd = &END_TO_END[0];
    const CPU: &EndToEnd = &END_TO_END[1];

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 30 % lower throughput, tight runs: worse.
        assert_eq!(
            judge(THROUGHPUT, &base, &[70.0, 71.0, 69.0, 70.5, 69.5]),
            Verdict::Worse
        );
        // 20 % higher, no overlap: better.
        assert_eq!(
            judge(THROUGHPUT, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Better
        );
        // 1 % off: same.
        assert_eq!(
            judge(THROUGHPUT, &base, &[99.0, 100.0, 98.0, 99.5, 98.5]),
            Verdict::Same
        );
        // Noisy and overlapping: the data cannot say.
        assert_eq!(
            judge(
                THROUGHPUT,
                &[100.0, 60.0, 140.0, 80.0, 120.0],
                &[90.0, 50.0, 130.0, 70.0, 110.0]
            ),
            Verdict::Unresolved
        );
        // Lower-is-better metrics flip direction.
        assert_eq!(
            judge(CPU, &base, &[130.0, 131.0, 129.0, 130.5, 129.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge(CPU, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Better
        );
    }

    fn line(throughput: f64, failed: f64) -> Json {
        crate::json::parse(&format!(
            "{{\"correct\":true,\"attempted\":10,\"failed\":{failed},\"metrics\":\
             {{\"throughput_ops_s\":{{\"value\":{throughput},\"unit\":\"ops/s\"}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn sets_round_trip_and_compare_flags_regressions() {
        let mut base = ResultSet::default();
        let mut slow = ResultSet::default();
        let mut failing = ResultSet::default();
        for i in 0..5 {
            base.add_run("w", &line(1000.0 + f64::from(i), 0.0))
                .unwrap();
            slow.add_run("w", &line(700.0 + f64::from(i), 0.0)).unwrap();
            failing
                .add_run("w", &line(1000.0 + f64::from(i), 1.0))
                .unwrap();
        }
        let text = base.to_json().render();
        assert_eq!(
            ResultSet::from_json(&crate::json::parse(&text).unwrap()).unwrap(),
            base
        );

        let (table, regressed) = compare(&base, &base);
        assert!(!regressed, "{table}");
        assert!(table.contains("same"));
        let (table, regressed) = compare(&base, &slow);
        assert!(regressed && table.contains("worse"), "{table}");
        assert!(
            table.contains("of 1002.0000"),
            "ratio names its base: {table}"
        );
        let (table, regressed) = compare(&base, &failing);
        assert!(
            regressed && table.contains("failed operations rose"),
            "{table}"
        );

        let (summary, steady) = summarise(&base);
        assert!(steady && summary.contains("throughput_ops_s"), "{summary}");
        let mut noisy = ResultSet::default();
        for t in [100.0, 60.0, 140.0, 80.0, 120.0] {
            noisy.add_run("w", &line(t, 0.0)).unwrap();
        }
        assert!(!summarise(&noisy).1);
    }

    #[test]
    fn benchmark_json_states_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(metric.bound)
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let specs: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }
}
