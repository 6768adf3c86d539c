//! # gecko-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation. Each `benches/` target (plain `harness = false`
//! binaries, so `cargo bench` runs them) computes the corresponding rows —
//! the heavyweight sweeps (fig4, fig5, fig8, fig11, fig13) through the
//! `gecko-fleet` campaign engine, the rest through the sequential
//! `gecko_sim::experiments` entry points — prints a paper-style table, and
//! persists the raw rows as JSON-lines under `target/gecko-results/`
//! through the fleet telemetry pipeline.
//!
//! Two micro-benchmark binaries (`compiler_passes`, `sim_throughput`)
//! measure the harness itself with a dependency-free best-of-N timer.
//!
//! Environment knobs: `GECKO_QUICK=1` runs the reduced sweeps used by the
//! test suite; `GECKO_WORKERS=N` overrides the campaign worker-pool size
//! (default: all available cores).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gecko_sim::experiments::Fidelity;
use gecko_sim::report::Json;
use gecko_sim::Record;

/// The fidelity selected by the environment (`GECKO_QUICK=1` → `Quick`).
pub fn fidelity_from_env() -> Fidelity {
    if std::env::var_os("GECKO_QUICK").is_some() {
        Fidelity::Quick
    } else {
        Fidelity::Full
    }
}

/// Campaign worker-pool size: `GECKO_WORKERS` if set, else all cores.
pub fn workers_from_env() -> usize {
    std::env::var("GECKO_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Directory where bench targets persist their JSON rows — anchored at the
/// workspace root's `target/gecko-results` regardless of the working
/// directory cargo launches the bench binary in (package root, not
/// workspace root, so a relative path would scatter results).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
        .join("target/gecko-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Persists rows as `target/gecko-results/<name>.jsonl` through the fleet
/// telemetry pipeline (one JSON object per line).
pub fn save_rows<R: Record>(name: &str, rows: &[R]) {
    match gecko_fleet::persist_records(&results_dir(), name, rows) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {name}.jsonl: {e}"),
    }
}

/// One machine-readable row of a bench summary (`BENCH_sim.json`): the
/// compact artifact the CI bench-smoke step publishes. The JSONL telemetry
/// written by [`save_rows`] remains the full per-section log.
pub struct SummaryRow {
    /// Row name, `section/scheme/workload`.
    pub name: String,
    /// Best-of-N wall time per simulated step (nanoseconds).
    pub ns_per_op: f64,
    /// The ratio the section reports: coalescing factor for the fast-path
    /// sections, speedup or overhead factor elsewhere.
    pub ratio: f64,
}

/// The current `git` commit (short hash), or `"unknown"` outside a
/// repository — stamped into bench summaries so a JSON artifact is
/// attributable without its CI context.
pub fn git_commit_short() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes `target/gecko-results/<name>.json`: one JSON object holding the
/// current commit hash and an array of [`SummaryRow`]s.
pub fn save_json_summary(name: &str, rows: &[SummaryRow]) {
    let rows = rows
        .iter()
        .map(|row| {
            Json::Obj(vec![
                ("name".into(), Json::Str(row.name.clone())),
                ("ns_per_op".into(), Json::F64(row.ns_per_op)),
                ("ratio".into(), Json::F64(row.ratio)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("commit".into(), Json::Str(git_commit_short())),
        ("rows".into(), Json::Arr(rows)),
    ]);
    let path = results_dir().join(format!("{name}.json"));
    match fs::write(&path, doc.encode() + "\n") {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {name}.json: {e}"),
    }
}

/// Times `f` with `iters` measured iterations after one warm-up call and
/// reports the best per-iteration time — the dependency-free stand-in for
/// a statistical micro-benchmark harness (min-of-N is robust to scheduler
/// noise for CPU-bound closures).
pub fn time_best_of<T>(iters: u32, mut f: impl FnMut() -> T) -> std::time::Duration {
    assert!(iters > 0);
    std::hint::black_box(f());
    let mut best = std::time::Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

/// Renders a fixed-width table: a header row and data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a rate as a percentage with adaptive precision (tiny comparator
/// rates keep their significant digits, like Table I's `10⁻²%`).
pub fn pct(rate: f64) -> String {
    let p = rate * 100.0;
    if p != 0.0 && p.abs() < 0.1 {
        format!("{p:.0e}%")
    } else {
        format!("{p:.1}%")
    }
}

/// Formats a frequency in MHz.
pub fn mhz(freq_hz: f64) -> String {
    format!("{:.0}MHz", freq_hz / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_adapts_precision() {
        assert_eq!(pct(0.41), "41.0%");
        assert_eq!(pct(0.0001), "1e-2%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn mhz_formats() {
        assert_eq!(mhz(27e6), "27MHz");
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("gecko-results"));
    }

    #[test]
    fn workers_default_is_positive() {
        assert!(workers_from_env() >= 1);
    }

    #[test]
    fn json_summary_is_well_formed() {
        assert!(!git_commit_short().is_empty());
        save_json_summary(
            "BENCH_selftest",
            &[
                SummaryRow {
                    name: "section/scheme \"q\"\n".to_string(),
                    ns_per_op: 12.5,
                    ratio: 3.0,
                },
                SummaryRow {
                    name: "section/idle".to_string(),
                    ns_per_op: 0.1 + 0.2,
                    ratio: f64::NAN,
                },
            ],
        );
        let text = fs::read_to_string(results_dir().join("BENCH_selftest.json")).unwrap();
        assert!(
            text.contains(r#""name":"section/scheme \"q\"\n""#),
            "{text}"
        );
        assert!(text.contains(r#""ratio":3.0"#), "{text}");
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["commit", "rows"]);
        assert_eq!(
            doc.get("commit").and_then(Json::as_str),
            Some(git_commit_short().as_str())
        );
        let row = |name: &str, ns_per_op: f64, ratio: Json| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("ns_per_op".into(), Json::F64(ns_per_op)),
                ("ratio".into(), ratio),
            ])
        };
        assert_eq!(
            doc.get("rows").and_then(Json::as_arr).unwrap(),
            [
                row("section/scheme \"q\"\n", 12.5, Json::F64(3.0)),
                row("section/idle", 0.1 + 0.2, Json::Null),
            ]
        );
    }

    #[test]
    fn timer_returns_nonzero() {
        let d = time_best_of(3, || (0..1000u64).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }
}
