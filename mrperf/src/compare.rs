//! `--compare`: a parent's runs against a change's, per (metric,
//! workload), by the bounds `BENCHMARK.json` fixes.
//!
//! The rule: a change *improved* a metric when it wins at least nine in
//! ten paired runs and the medians differ by more than the parent's
//! inter-quartile spread; it *regressed* when its median is worse than
//! the parent's by more than the bound. When either side's spread is
//! wider than the bound the pair is *unresolved*, unless every run of the
//! change reads better than every run of the parent. A workload whose
//! runs failed a check, or whose outputs differ between the two sides on
//! the same seed, is a correctness failure and gets no speed verdict.

use simcore::json::Json;

use crate::stats::{median, quartiles};

/// One end-to-end metric's regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.field_arr("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.field_str("name")?.to_string(),
                lower_is_better: match m.field_str("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("unknown direction '{other}'")),
                },
                bound: m.field_f64("bound")?,
            })
        })
        .collect()
}

/// How a metric moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the parent's noise, in nine of ten pairs.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// The runs are noisier than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Inter-quartile spread as a share of the median; unknown (infinite)
/// with fewer than two runs.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The verdict on one metric from the parent's runs `base` and the
/// change's runs `new`, paired by position. A side with fewer than two
/// runs has no measured spread, so nothing can be resolved.
pub fn verdict(base: &[f64], new: &[f64], b: &Bound) -> Verdict {
    if base.len() < 2 || new.len() < 2 {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let (mb, mn) = (median(base), median(new));
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|(&p, &c)| better(c, p)).count();
    let (q1, q3) = quartiles(base);
    let parent_iqr = q3 - q1;
    let improved =
        pairs > 0 && wins * 10 >= pairs * 9 && better(mn, mb) && (mn - mb).abs() > parent_iqr;
    if spread(base).max(spread(new)) > b.bound {
        let every_run_better = new.iter().all(|&c| base.iter().all(|&p| better(c, p)));
        return match (every_run_better, improved) {
            (true, true) => Verdict::Improved,
            (true, false) => Verdict::Unchanged,
            (false, _) => Verdict::Unresolved,
        };
    }
    let worse = if b.lower_is_better { mn - mb } else { mb - mn } / mb.abs();
    if improved {
        Verdict::Improved
    } else if worse > b.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One line of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `correctness`.
    pub metric: String,
    /// Parent median, change median, relative change, spread of each side.
    pub numbers: Option<(f64, f64, f64, f64, f64)>,
    /// The verdict; `None` for a correctness failure.
    pub verdict: Option<Verdict>,
    /// What failed, for a correctness row.
    pub note: String,
}

fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
    match doc.req("workloads")? {
        Json::Obj(entries) => Ok(entries),
        _ => Err("'workloads' is not an object".into()),
    }
}

fn metric(entry: &Json, name: &str) -> Result<f64, String> {
    entry.req("metrics")?.req(name)?.field_f64("value")
}

/// `(seed, quick, entry)` of every document that measured `workload`.
fn runs<'a>(docs: &'a [Json], workload: &str) -> Result<Vec<(u64, bool, &'a Json)>, String> {
    let mut out = Vec::new();
    for d in docs {
        if let Some((_, e)) = workloads(d)?.iter().find(|(n, _)| n == workload) {
            out.push((d.field_u64("seed")?, d.field_bool("quick")?, e));
        }
    }
    Ok(out)
}

/// Compare the `--json` documents of the parent (`base`) with the
/// change's (`new`), for every workload both sides measured.
pub fn compare(base: &[Json], new: &[Json], bounds: &[Bound]) -> Result<Vec<Row>, String> {
    // Every workload any parent document measured, in first-seen order.
    let mut names: Vec<&str> = Vec::new();
    for doc in base {
        for (name, _) in workloads(doc)? {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let mut rows = Vec::new();
    for name in names {
        let (b, n) = (runs(base, name)?, runs(new, name)?);
        if n.is_empty() {
            continue;
        }
        let mut problems = Vec::new();
        for (seed, quick, e) in b.iter().chain(&n) {
            if !e.field_bool("correct")? || e.field_u64("failed")? > 0 {
                problems.push(format!(
                    "a run with seed {seed} (quick={quick}) failed its checks"
                ));
            }
        }
        for (seed, quick, eb) in &b {
            for (s2, q2, en) in &n {
                if (seed, quick) == (s2, q2)
                    && eb.field_str("output_digest")? != en.field_str("output_digest")?
                {
                    problems.push(format!("output_digest differs on seed {seed}"));
                }
            }
        }
        problems.dedup();
        if !problems.is_empty() {
            rows.push(Row {
                workload: name.to_string(),
                metric: "correctness".into(),
                numbers: None,
                verdict: None,
                note: problems.join("; "),
            });
            continue;
        }
        for bound in bounds {
            let values = |runs: &[(u64, bool, &Json)]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|(_, _, e)| metric(e, &bound.name))
                    .collect()
            };
            let (bv, nv) = (values(&b)?, values(&n)?);
            let (mb, mn) = (median(&bv), median(&nv));
            rows.push(Row {
                workload: name.to_string(),
                metric: bound.name.clone(),
                numbers: Some((mb, mn, (mn - mb) / mb, spread(&bv), spread(&nv))),
                verdict: Some(verdict(&bv, &nv, bound)),
                note: String::new(),
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict\n",
        "workload", "metric", "parent", "change", "change%", "spreadP", "spreadC"
    );
    for r in rows {
        match (r.numbers, r.verdict) {
            (Some((mb, mn, rel, sb, sn)), Some(v)) => {
                let _ = writeln!(
                    s,
                    "{:<14} {:<14} {mb:>12.4} {mn:>12.4} {:>7.1}% {:>7.1}% {:>7.1}%  {}",
                    r.workload,
                    r.metric,
                    rel * 100.0,
                    sb * 100.0,
                    sn * 100.0,
                    v.label()
                );
            }
            _ => {
                let _ = writeln!(s, "{:<14} CORRECTNESS FAILURE: {}", r.workload, r.note);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "cell_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        // Same distribution: unchanged.
        assert_eq!(verdict(&base, &base, &lower(0.1)), Verdict::Unchanged);
        // 20 % faster in every pair: improved.
        let fast: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&base, &fast, &lower(0.1)), Verdict::Improved);
        // 20 % slower: regressed; 5 % slower: within a 10 % bound.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slow, &lower(0.1)), Verdict::Regressed);
        let bit: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&base, &bit, &lower(0.1)), Verdict::Unchanged);
        // Higher-is-better flips the direction.
        let hb = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&base, &fast, &hb), Verdict::Regressed);
        assert_eq!(verdict(&base, &slow, &hb), Verdict::Improved);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let slow: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&noisy, &slow, &lower(0.1)), Verdict::Unresolved);
        // Unless every run of the change beats every run of the parent.
        let far: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(verdict(&noisy, &far, &lower(0.1)), Verdict::Improved);
        // A single run has no measured spread, however far apart.
        assert_eq!(verdict(&[10.0], &[10.0], &lower(0.1)), Verdict::Unresolved);
        assert_eq!(verdict(&[10.0], &[5.0], &lower(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn bounds_parse_from_the_benchmark_file() {
        let b = bounds(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(b.iter().any(|b| b.name == "setup_s" && b.lower_is_better));
        assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    fn digest_mismatch_is_a_correctness_failure() {
        let doc = |workload: &str, digest: &str, p50: f64| {
            Json::parse(&format!(
                r#"{{"seed": 1, "quick": true, "workloads": {{"{workload}": {{
                    "correct": true, "failed": 0, "output_digest": "{digest}",
                    "metrics": {{"cell_p50_ms": {{"value": {p50}, "unit": "ms"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let b = [lower(0.1)];
        // One document per run and workload, as `--workload` writes them.
        let side = || {
            [
                "figure_sweep",
                "figure_sweep",
                "rack_shuffle",
                "rack_shuffle",
            ]
            .map(|w| doc(w, "a", 1.0))
        };
        let rows = compare(&side(), &side(), &b).unwrap();
        let workloads: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(workloads, ["figure_sweep", "rack_shuffle"]);
        assert!(rows.iter().all(|r| r.verdict == Some(Verdict::Unchanged)));
        let rows = compare(
            &[doc("figure_sweep", "a", 1.0)],
            &[doc("figure_sweep", "b", 0.1)],
            &b,
        )
        .unwrap();
        assert_eq!(rows[0].verdict, None);
        assert!(rows[0].note.contains("output_digest"));
    }
}
