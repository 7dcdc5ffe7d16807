//! `compare a.json b.json`: applies each end-to-end metric's bound to two
//! results files of `all`, one row per (workload, metric). `a` is the
//! baseline; `b` may be worse by at most the bound's share of `a`.

use crate::report::END_TO_END;
use crate::stats;
use crate::workloads::Workload;
use menshen_json::Json;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regression,
    /// One side's own samples spread wider than the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

/// A metric's value and the samples behind it on one side.
struct Side {
    value: f64,
    samples: Vec<f64>,
}

impl Side {
    fn read(results: &Json, workload: &str, metric: &str) -> Option<Side> {
        let entry = results.get("workloads")?.get(workload)?;
        let Json::Num(value) = entry
            .get("untraced")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
        else {
            return None;
        };
        let samples = match entry.get("untraced_detail")?.get("samples")?.get(metric) {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|item| match item {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Some(Side {
            value: *value,
            samples,
        })
    }

    /// Distance between the quartiles of the samples as a share of their
    /// median; 0 without samples.
    fn spread(&self) -> f64 {
        match (
            stats::quartiles(&self.samples),
            stats::median(&self.samples),
        ) {
            (Some((q1, q3)), Some(median)) if median > 0.0 => (q3 - q1) / median,
            _ => 0.0,
        }
    }
}

fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse = if higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    let verdict = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn load(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| eprintln!("{path}: {error}"))
        .ok()?;
    Json::parse(&text)
        .map_err(|error| eprintln!("{path}: {error}"))
        .ok()
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (Some(a), Some(b)) = (load(a_path), load(b_path)) else {
        return ExitCode::from(2);
    };
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse %", "bound %"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for workload in Workload::ALL {
        for (metric, bound) in &END_TO_END {
            let sides = (
                Side::read(&a, workload.name(), metric.name),
                Side::read(&b, workload.name(), metric.name),
            );
            let (Some(a), Some(b)) = sides else {
                println!(
                    "{:<16} {:<20} missing on one side",
                    workload.name(),
                    metric.name
                );
                regressions += 1;
                continue;
            };
            let (worse, verdict) = judge(&a, &b, metric.higher_is_better, *bound);
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<16} {:<20} {:>12.4} {:>12.4} {:>+9.2} {:>7.0}  {}",
                workload.name(),
                metric.name,
                a.value,
                b.value,
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    println!("{regressions} regressions, {unresolved} unresolved");
    match (regressions, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn bound_applies_in_the_metrics_direction() {
        let steady = [1.0, 1.01, 0.99, 1.0];
        // Throughput (higher is better) down 12 % against a 10 % bound.
        let (worse, verdict) = judge(&side(2.0, &steady), &side(1.76, &steady), true, 0.10);
        assert!((worse - 0.12).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regression);
        // Up 12 % is fine.
        assert_eq!(
            judge(&side(2.0, &steady), &side(2.24, &steady), true, 0.10).1,
            Verdict::Ok
        );
        // Latency (lower is better) up 8 % is within the bound, up 11 % is not.
        assert_eq!(
            judge(&side(100.0, &[]), &side(108.0, &[]), false, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&side(100.0, &[]), &side(111.0, &[]), false, 0.10).1,
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [1.0, 1.3, 0.7, 1.0, 1.2, 0.8];
        assert_eq!(
            judge(&side(1.0, &noisy), &side(1.0, &[1.0, 1.0]), true, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&side(1.0, &[1.0, 1.0]), &side(0.5, &noisy), true, 0.10).1,
            Verdict::Unresolved
        );
    }
}
