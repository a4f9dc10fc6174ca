//! `pgmp-benchmark compare A B`: medians, quartiles and a verdict per
//! workload × end-to-end metric, judged against the bounds in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::report::Spec;
use crate::stats::{median, quartiles};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Within,
    Better,
    Worse,
    /// Either side's interquartile range exceeds the bound, so a move of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` of one metric against the runs `a`.
fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let delta = (median(b) - median(a)) / median(a).abs();
    let worsened = if lower_is_better { delta } else { -delta };
    if worsened > bound {
        Verdict::Worse
    } else if worsened < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Every metric value in the result lines of `path` (lines that are not
/// JSON objects, such as the human-readable ones, are skipped), by key in
/// first-seen order.
fn load(path: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{path}: no metrics"))?;
        for (key, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: {key} has no value"))?;
            match out.iter_mut().find(|(k, _)| k == key) {
                Some((_, values)) => values.push(value),
                None => out.push((key.clone(), vec![value])),
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no result lines"));
    }
    Ok(out)
}

pub fn main(args: &[String], spec: &Spec) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: pgmp-benchmark compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (runs_a, runs_b) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pgmp-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<30} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload/metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound"
    );
    let mut failing = false;
    for (key, values_a) in &runs_a {
        let name = key.rsplit('/').next().unwrap_or(key);
        let Some(metric) = spec.end_to_end.iter().find(|m| m.name == name) else {
            continue;
        };
        let Some((_, values_b)) = runs_b.iter().find(|(k, _)| k == key) else {
            println!("{key:<30} missing in {b}");
            failing = true;
            continue;
        };
        let bound = metric.bound.unwrap_or(0.0);
        let v = verdict(values_a, values_b, bound, metric.lower_is_better);
        failing |= v == Verdict::Worse;
        let side = |values: &[f64]| {
            let (q1, q3) = quartiles(values);
            format!("{:.4} [{q1:.4} {q3:.4}]", median(values))
        };
        let delta = (median(values_b) - median(values_a)) / median(values_a).abs() * 100.0;
        println!(
            "{key:<30} {:>28} {:>28} {delta:>+7.2}% {:>5.1}%  {}",
            side(values_a),
            side(values_b),
            bound * 100.0,
            v.label()
        );
    }
    if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, 0.1, true), Verdict::Within);
        assert_eq!(verdict(&a, &a.map(|x| x * 1.2), 0.1, true), Verdict::Worse);
        assert_eq!(
            verdict(&a, &a.map(|x| x * 1.2), 0.1, false),
            Verdict::Better
        );
        assert_eq!(verdict(&a, &a.map(|x| x * 0.8), 0.1, true), Verdict::Better);
        let noisy = [5.0, 10.0, 15.0, 10.0, 10.0];
        assert_eq!(verdict(&a, &noisy, 0.1, true), Verdict::Unresolved);
    }
}
