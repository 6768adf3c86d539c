//! Metric definitions, order statistics, the result document, and the
//! `--compare` verdicts.
//!
//! The two tables below are the single source of the metric vocabulary:
//! the run loop emits exactly these names, and the self-test pins
//! `BENCHMARK.json` at the repository root to them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gecko_fleet::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a client of the daemon sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric of the traced run, with the end-to-end metric (and
/// workload) it is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.1,
    },
];

const SERVE: &str = "job_p50_ms on check_incremental (warm re-checks); about 0 on the sweeps";
const SWEEP_RATE: &str = "items_per_s on sweep_clean and sweep_attack";
const SIM_RATE: &str = "items_per_s on sweep_clean (and sweep_attack)";
const CHECK_RATE: &str = "items_per_s on check_incremental";
const CHECK_WARM: &str = "job_p50_ms on check_incremental (warm re-checks)";
const PER_JOB: &str =
    "no end-to-end metric measurably: a fraction of a millisecond per job, against jobs of 0.2-0.9 s";

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer {
        name: "serve.submit_ms",
        unit: "ms",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.status_ms",
        unit: "ms",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.result_ms",
        unit: "ms",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.healthz_ms",
        unit: "ms",
        better: Lower,
        moves: "setup_s on every workload",
    },
    PerLayer {
        name: "serve.result_kb",
        unit: "KiB",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.job_dir_kb",
        unit: "KiB",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.events_per_job",
        unit: "count",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.wire_decode_us",
        unit: "us",
        better: Lower,
        moves: SERVE,
    },
    PerLayer {
        name: "serve.wire_encode_us",
        unit: "us",
        better: Lower,
        moves: CHECK_WARM,
    },
    PerLayer {
        name: "fleet.json_parse_us",
        unit: "us",
        better: Lower,
        moves: CHECK_WARM,
    },
    PerLayer {
        name: "fleet.campaign_s",
        unit: "s",
        better: Lower,
        moves: SWEEP_RATE,
    },
    PerLayer {
        name: "fleet.item_ms.p50",
        unit: "ms",
        better: Lower,
        moves: SWEEP_RATE,
    },
    PerLayer {
        name: "fleet.item_ms.p99",
        unit: "ms",
        better: Lower,
        moves: SWEEP_RATE,
    },
    PerLayer {
        name: "fleet.parallel_eff",
        unit: "fraction",
        better: Higher,
        moves: SWEEP_RATE,
    },
    PerLayer {
        name: "fleet.journal_lines",
        unit: "count",
        better: Lower,
        moves: SWEEP_RATE,
    },
    PerLayer {
        name: "compiler.build_ms",
        unit: "ms",
        better: Lower,
        moves: PER_JOB,
    },
    PerLayer {
        name: "compiler.builds",
        unit: "count",
        better: Lower,
        moves: PER_JOB,
    },
    PerLayer {
        name: "sim.run_s",
        unit: "s",
        better: Lower,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.ns_per_step",
        unit: "ns",
        better: Lower,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.steps",
        unit: "count",
        better: Lower,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.dispatches",
        unit: "count",
        better: Lower,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.ff_ticks",
        unit: "count",
        better: Higher,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.ff_spans",
        unit: "count",
        better: Lower,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.eh_insts",
        unit: "count",
        better: Higher,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.eh_spans",
        unit: "count",
        better: Lower,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.coalesce_ratio",
        unit: "ratio",
        better: Higher,
        moves: SIM_RATE,
    },
    PerLayer {
        name: "sim.build_us",
        unit: "us",
        better: Lower,
        moves: PER_JOB,
    },
    PerLayer {
        name: "sim.batch_run_s",
        unit: "s",
        better: Lower,
        moves: "items_per_s on sweep_clean only; no change predicted on sweep_attack",
    },
    PerLayer {
        name: "sim.batch_over_scalar",
        unit: "ratio",
        better: Lower,
        moves: "items_per_s on sweep_clean only; no change predicted on sweep_attack",
    },
    PerLayer {
        name: "sim.batch_occupancy_permille",
        unit: "permille",
        better: Higher,
        moves: "items_per_s on sweep_clean only",
    },
    PerLayer {
        name: "sim.batch_fallbacks",
        unit: "count",
        better: Lower,
        moves: "items_per_s on sweep_clean only",
    },
    PerLayer {
        name: "sim.snapshot_us",
        unit: "us",
        better: Lower,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "sim.restore_us",
        unit: "us",
        better: Lower,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.windows",
        unit: "count",
        better: Higher,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.forks",
        unit: "count",
        better: Lower,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.explored",
        unit: "count",
        better: Lower,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.memo_hits",
        unit: "count",
        better: Higher,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.violations",
        unit: "count",
        better: Lower,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.memo_hit_rate",
        unit: "fraction",
        better: Higher,
        moves: CHECK_RATE,
    },
    PerLayer {
        name: "checker.memo_lines",
        unit: "count",
        better: Lower,
        moves: CHECK_WARM,
    },
    PerLayer {
        name: "checker.memo_kb",
        unit: "KiB",
        better: Lower,
        moves: CHECK_WARM,
    },
    PerLayer {
        name: "checker.warm_memo_frac",
        unit: "fraction",
        better: Higher,
        moves: CHECK_WARM,
    },
    PerLayer {
        name: "store.append_ns_per_line",
        unit: "ns",
        better: Lower,
        moves: "items_per_s on check_incremental (memo writes)",
    },
    PerLayer {
        name: "store.sync_us",
        unit: "us",
        better: Lower,
        moves: "items_per_s on check_incremental (memo writes)",
    },
];

/// Named values, in emission order.
pub type Named = Vec<(String, f64)>;

/// Unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

fn better_of(name: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.better)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.better))
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for no samples, so absent work reads as none).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

// ---------------------------------------------------------------------------
// Result documents
// ---------------------------------------------------------------------------

/// One workload run: the result line's `correct`/`attempted`/`failed` and the
/// metrics, plus a few extra (ungated) numbers for the text report.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Named,
    pub extra: Named,
}

impl RunResult {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Only produced after every correctness gate has passed.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), metrics_value(&self.metrics)),
        ])
        .encode()
    }

    /// The `--out` line: the result-line fields plus identity and extras.
    pub fn out_json(&self) -> String {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::U64(self.seed)),
            ("trace".into(), Json::Bool(self.trace)),
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), metrics_value(&self.metrics)),
            ("extra".into(), metrics_value(&self.extra)),
        ])
        .encode()
    }

    pub fn from_out_json(line: &str) -> Result<RunResult, String> {
        let doc = Json::parse(line).map_err(|e| format!("{e}"))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing `{k}`"));
        let values = |k: &str| -> Result<Named, String> {
            let obj = field(k)?
                .as_obj()
                .ok_or_else(|| format!("`{k}` is not an object"))?;
            obj.iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("`{k}.{name}` has no numeric value"))
                })
                .collect()
        };
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .into(),
            seed: field("seed")?.as_u64().ok_or("`seed` is not an integer")?,
            trace: field("trace")?
                .as_bool()
                .ok_or("`trace` is not a boolean")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("`attempted` is not an integer")?,
            failed: field("failed")?
                .as_u64()
                .ok_or("`failed` is not an integer")?,
            metrics: values("metrics")?,
            extra: values("extra")?,
        })
    }
}

fn metrics_value(metrics: &[(String, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).unwrap_or("count");
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::F64(*value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

/// Verdict for one (workload, metric) pairing of two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    /// End-to-end metrics: worse than the baseline by more than the bound.
    Regressed,
    /// Per-layer metrics (no bound): clearly worse by the gain rule.
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed beyond bound",
            Verdict::Worse => "worse (no bound)",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the acceptance rule to the samples of one metric: `a` is the
/// baseline, `b` the change; samples pair by seed. A gain needs the
/// change to win at least nine tenths of the pairs and the medians to
/// differ by more than the baseline's interquartile distance (or every
/// change run to beat every baseline run). Returns the verdict and the
/// fraction of pairs the change won.
pub fn verdict(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    better: Better,
    bound: Option<f64>,
) -> (Verdict, f64) {
    let av: Vec<f64> = a.iter().map(|(_, v)| *v).collect();
    let bv: Vec<f64> = b.iter().map(|(_, v)| *v).collect();
    let (aq1, amed, aq3) = quartiles(&av);
    let (bq1, bmed, bq3) = quartiles(&bv);
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, x)| b.iter().find(|(s, _)| s == seed).map(|(_, y)| (*x, *y)))
        .collect();
    let share = |f: &dyn Fn(f64) -> bool| {
        let n = pairs.iter().filter(|(x, y)| f(gain(*x, *y))).count();
        if pairs.is_empty() {
            0.0
        } else {
            n as f64 / pairs.len() as f64
        }
    };
    let won = share(&|g| g > 0.0);
    let lost = share(&|g| g < 0.0);
    let iqr = aq3 - aq1;
    let every = |f: &dyn Fn(f64) -> bool| av.iter().all(|&x| bv.iter().all(|&y| f(gain(x, y))));
    if (won >= 0.9 && gain(amed, bmed) > iqr) || every(&|g| g > 0.0) {
        return (Verdict::Improved, won);
    }
    let v = match bound {
        None if (lost >= 0.9 && -gain(amed, bmed) > iqr) || every(&|g| g < 0.0) => Verdict::Worse,
        None => Verdict::Unchanged,
        Some(bound) => {
            let rel = |spread: f64, med: f64| spread / med.abs().max(f64::MIN_POSITIVE);
            let spread = rel(iqr, amed).max(rel(bq3 - bq1, bmed));
            if spread > bound && amed != bmed {
                Verdict::Unresolved
            } else if rel(-gain(amed, bmed), amed) > bound {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
    };
    (v, won)
}

/// Renders the comparison of two `--out` files: one row per workload and
/// metric, with each side's median and quartiles, the fraction of
/// seed-paired runs the change won, and the verdict.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, Vec<(String, String, Verdict)>) {
    type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;
    let collect = |runs: &[RunResult]| {
        let mut map: Samples = BTreeMap::new();
        for r in runs {
            for (name, value) in &r.metrics {
                map.entry((r.workload.clone(), name.clone()))
                    .or_default()
                    .push((r.seed, *value));
            }
        }
        map
    };
    let (sa, sb) = (collect(a), collect(b));
    let mut out = String::new();
    let mut verdicts = Vec::new();
    let _ = writeln!(
        out,
        "{:<18} {:<36} {:>30} {:>30} {:>5} verdict",
        "workload", "metric (better)", "A median [q1, q3]", "B median [q1, q3]", "won"
    );
    for ((workload, metric), av) in &sa {
        let Some(bv) = sb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(better) = better_of(metric) else {
            continue;
        };
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.bound);
        let (v, won) = verdict(av, bv, better, bound);
        let fmt = |s: &[(u64, f64)]| {
            let vals: Vec<f64> = s.iter().map(|(_, v)| *v).collect();
            let (q1, med, q3) = quartiles(&vals);
            format!("{med:.4} [{q1:.4}, {q3:.4}]")
        };
        let _ = writeln!(
            out,
            "{workload:<18} {:<36} {:>30} {:>30} {:>5.2} {}",
            format!("{metric} ({})", better.name()),
            fmt(av),
            fmt(bv),
            won,
            v.name()
        );
        verdicts.push((workload.clone(), metric.clone(), v));
    }
    (out, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn clear_gain_and_clear_loss_are_called() {
        let a: Vec<(u64, f64)> = (0..10).map(|s| (s, 100.0 + s as f64 * 0.1)).collect();
        let faster: Vec<(u64, f64)> = a.iter().map(|(s, v)| (*s, v * 0.8)).collect();
        let slower: Vec<(u64, f64)> = a.iter().map(|(s, v)| (*s, v * 1.5)).collect();
        assert_eq!(
            verdict(&a, &faster, Better::Lower, Some(0.1)).0,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &slower, Better::Lower, Some(0.1)).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &a, Better::Lower, Some(0.1)).0,
            Verdict::Unchanged
        );
        assert_eq!(verdict(&a, &slower, Better::Lower, None).0, Verdict::Worse);
        assert_eq!(verdict(&a, &a, Better::Lower, None).0, Verdict::Unchanged);
    }
}
