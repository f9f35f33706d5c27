//! `txbench compare A.json B.json`: one row per workload × end-to-end
//! metric, with both medians, the ratio *and its base*, the bound, and a
//! verdict. A regression exits 1; a row whose own repetitions spread wider
//! than the bound is `unresolved`, never `ok`.

use crate::json::Json;
use crate::metrics::Better;
use crate::quantile::iqr_over_median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the median and the repetitions behind it.
#[derive(Debug, Clone)]
pub struct Side {
    pub median: f64,
    pub values: Vec<f64>,
}

impl Side {
    /// Quartile distance of the repetitions over their median.
    fn spread(&self) -> f64 {
        iqr_over_median(&self.values).unwrap_or(0.0)
    }
}

/// B against base A. A worsening beyond the bound is a regression whatever
/// the spread; otherwise a spread wider than the bound on either side means
/// the row cannot tell "unchanged" from "changed".
pub fn verdict(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    if !(a.median.is_finite() && b.median.is_finite()) {
        return Verdict::Unresolved;
    }
    if better.worsening(a.median, b.median) > bound {
        Verdict::Regressed
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        median: metric.get("median")?.as_f64().unwrap_or(f64::NAN),
        values: metric
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("txbench-report-1") => Ok(doc),
        other => Err(format!("{path}: not a txbench report (schema {other:?})")),
    }
}

fn workloads(report: &Json) -> Option<&[Json]> {
    report.get("workloads").and_then(Json::as_arr)
}

pub fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [path_a, path_b] = args else {
        return Err("usage: txbench compare A.json B.json".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let list_a = workloads(&a).ok_or("A has no workloads")?;
    let list_b = workloads(&b).ok_or("B has no workloads")?;
    println!("base A = {path_a}\n     B = {path_b}");
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9}  {:>6}  {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "spread A", "spread B"
    );
    let mut tally = [0usize; 3];
    for wa in list_a {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = list_b
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("B has no workload '{name}'"));
        };
        let hash = |w: &Json| {
            w.get("input_hash")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        let same_inputs = hash(wa) == hash(wb);
        let metrics = wa.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, entry_a) in metrics {
            let entry_b = wb
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("B has no {name}/{metric}"))?;
            let (Some(sa), Some(sb)) = (side(entry_a), side(entry_b)) else {
                return Err(format!("{name}/{metric}: malformed entry"));
            };
            let better = entry_a
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}/{metric}: no direction"))?;
            let bound = entry_a
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}/{metric}: no bound"))?;
            let v = verdict(better, bound, &sa, &sb);
            tally[v as usize] += 1;
            println!(
                "{name:<16} {metric:<12} {:>14.4} {:>14.4} {:>8.4}x  {:>5.0}%  {:>7.1}% {:>7.1}%  {}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                v.label()
            );
        }
        if !same_inputs {
            println!(
                "{name:<16} (input_hash differs: the two runs did not replay the same stream)"
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved (ratios are B over base A)",
        tally[Verdict::Ok as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize]
    );
    Ok(i32::from(tally[Verdict::Regressed as usize] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side {
            median: crate::quantile::median(values),
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = side(&[90.0, 91.0, 89.0, 90.5, 89.5]);
        let noisy = side(&[100.0, 140.0, 70.0, 120.0, 80.0]);
        // Throughput (higher is better), 7 % bound.
        assert_eq!(verdict(Better::Higher, 0.07, &steady, &steady), Verdict::Ok);
        assert_eq!(
            verdict(Better::Higher, 0.07, &steady, &slower),
            Verdict::Regressed
        );
        assert_eq!(verdict(Better::Higher, 0.07, &slower, &steady), Verdict::Ok);
        // Latency (lower is better): the same numbers read the other way.
        assert_eq!(
            verdict(Better::Lower, 0.07, &slower, &steady),
            Verdict::Regressed
        );
        assert_eq!(verdict(Better::Lower, 0.07, &steady, &slower), Verdict::Ok);
        // A wide spread can hide a change: unresolved, not ok.
        assert_eq!(
            verdict(Better::Higher, 0.07, &steady, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Higher, 0.07, &noisy, &steady),
            Verdict::Unresolved
        );
        // A refused percentile cannot be judged.
        let refused = Side {
            median: f64::NAN,
            values: vec![],
        };
        assert_eq!(
            verdict(Better::Lower, 0.1, &steady, &refused),
            Verdict::Unresolved
        );
    }
}
