//! `perfbench compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both readings, both min–max spreads and the ratio with its
//! base, judged against the metric's bound. A pair whose own spread, or whose
//! host probes' drift, exceeds the bound is *unresolved*, not *unchanged* —
//! unless every run of one side reads better than every run of the other.

use crate::json::Json;
use crate::schema::{Better, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.value.abs().max(f64::MIN_POSITIVE)
    }
}

/// Judge `b` against baseline `a`. `host_drift` is the largest relative
/// difference between the two runs' host probes.
pub fn judge(a: Side, b: Side, better: Better, bound: f64, host_drift: f64) -> Verdict {
    // Signed so that positive = worse.
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let (b_all_better, b_all_worse) = match better {
        Better::Lower => (b.max < a.min, b.min > a.max),
        Better::Higher => (b.min > a.max, b.max < a.min),
    };
    let noisy = a.spread() > bound || b.spread() > bound || host_drift > bound;
    if worse_by > bound {
        if noisy && !b_all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if worse_by < -bound {
        if noisy && !b_all_better {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn side(metrics: &Json, name: &str) -> Option<Side> {
    let m = metrics.get(name)?;
    Some(Side {
        value: m.get("value")?.num()?,
        min: m.get("min")?.num()?,
        max: m.get("max")?.num()?,
    })
}

fn host(workload: &Json, name: &str) -> f64 {
    workload
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::num)
        .unwrap_or(0.0)
}

/// Print the comparison; returns the number of regressed and unresolved pairs.
pub fn compare(a: &Json, b: &Json) -> (usize, usize) {
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<17} {:<14} {:>13} {:>22} {:>13} {:>22} {:>9} {:>6}  verdict",
        "workload", "metric", "A value", "A min..max", "B value", "B min..max", "B/A", "bound"
    );
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|x| x.get(w.name)),
            b.get("workloads").and_then(|x| x.get(w.name)),
        ) else {
            println!("{:<17} missing from one of the files", w.name);
            unresolved += 1;
            continue;
        };
        let drift = ["host.spin_ns", "host.chase_ns"]
            .iter()
            .map(|p| {
                let (x, y) = (host(wa, p), host(wb, p));
                if x > 0.0 {
                    (y - x).abs() / x
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max);
        let mut flagged = false;
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                wa.get("metrics").and_then(|x| side(x, m.name)),
                wb.get("metrics").and_then(|x| side(x, m.name)),
            ) else {
                continue;
            };
            let verdict = judge(sa, sb, m.better, m.bound, drift);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => {
                    unresolved += 1;
                    flagged = true;
                }
                _ => {}
            }
            println!(
                "{:<17} {:<14} {:>13.4} {:>22} {:>13.4} {:>22} {:>9.4} {:>5.0}%  {:?}",
                w.name,
                m.name,
                sa.value,
                format!("{:.4}..{:.4}", sa.min, sa.max),
                sb.value,
                format!("{:.4}..{:.4}", sb.min, sb.max),
                sb.value / sa.value,
                m.bound * 100.0,
                verdict
            );
        }
        if flagged {
            println!(
                "{:<17} host probes  A spin {:.0} ns chase {:.0} ns | B spin {:.0} ns chase {:.0} ns | drift {:.1}%",
                w.name,
                host(wa, "host.spin_ns"),
                host(wa, "host.chase_ns"),
                host(wb, "host.spin_ns"),
                host(wb, "host.chase_ns"),
                drift * 100.0
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved (ratios are B/A, base A)");
    (regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64) -> Side {
        Side { value, min, max }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(
            judge(a, s(104.0, 103.0, 105.0), Better::Lower, 0.10, 0.0),
            Verdict::Within
        );
        assert_eq!(
            judge(a, s(120.0, 119.0, 121.0), Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(a, s(80.0, 79.0, 81.0), Better::Lower, 0.10, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            judge(a, s(80.0, 79.0, 81.0), Better::Higher, 0.10, 0.0),
            Verdict::Regressed
        );
        // Wide spread: unchanged readings are unresolved, not unchanged …
        assert_eq!(
            judge(a, s(104.0, 80.0, 130.0), Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        // … and so is host drift beyond the bound …
        assert_eq!(
            judge(a, s(104.0, 103.0, 105.0), Better::Lower, 0.10, 0.3),
            Verdict::Unresolved
        );
        // … unless every run of one side beats every run of the other.
        assert_eq!(
            judge(a, s(150.0, 120.0, 190.0), Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
    }
}
