//! `gecko-e2e` — the served end-to-end benchmark.
//!
//! Boots `gecko_serve::Server` in-process, drives one workload through the
//! public HTTP API from a single closed-loop client, checks every served
//! result against an untimed in-process reference run, and prints each
//! end-to-end metric by name with its unit. `--trace 1` instead runs one
//! untraced and one traced round and replays the traced round's work with
//! a span around every call into the crates' public functions, printing
//! the per-layer metrics and writing the spans to
//! `target/gecko-results/e2e/<workload>-seed<N>.trace.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": N, "failed": N, "metrics": {...}}`.
//! A digest or document mismatch exits with code 1 and prints no metrics.
//!
//! ```text
//! gecko-e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--out FILE] [--smoke]
//! gecko-e2e --compare A.jsonl B.jsonl
//! ```

mod layers;
mod metrics;
mod served;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::{median, Named, RunResult, END_TO_END, PER_LAYER};
use served::{GateError, Round};
use trace::Tracer;
use workloads::{items_of, model_metrics, plan, reference, warmup_job, Plan, Workload};

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 30.0;

/// Every metric is a median over at least this many rounds (each on a
/// freshly booted daemon).
const MIN_ROUNDS: usize = 3;

/// Held-out seed for later claims; 1 is the default.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: gecko-e2e [--workload sweep_clean|sweep_attack|check_incremental|all] \
[--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]\n       gecko-e2e --compare A.jsonl B.jsonl";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
        compare: None,
        smoke: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number".to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                args.compare = Some((a.into(), b.into()));
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && Workload::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Where runs keep daemon data, results and traces: `target/` under the
/// current directory, so a run reads and writes only inside its checkout.
fn results_root() -> PathBuf {
    PathBuf::from("target").join("gecko-results").join("e2e")
}

/// Peak resident set size of this process (MiB), from `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (two `i64` each),
    // then 14 `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on this target, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// The end-to-end numbers of one round.
struct RoundStats {
    setup_s: f64,
    items_per_s: f64,
    p50_ms: f64,
    /// Ungated numbers for the text report (Mcycles/s, cold/warm check).
    extra: Named,
    /// Simulated numbers; identical in every round.
    model: Named,
}

fn round_stats(plan: &Plan, round: &Round) -> RoundStats {
    let check = plan.workload == Workload::CheckIncremental;
    // Checks: the cold submission feeds the rate (windows/s), the warm
    // re-checks feed the latencies. Everything else: every job feeds both.
    let rate_runs: Vec<&served::JobRun> =
        round.runs.iter().filter(|r| !check || r.seq == 0).collect();
    let lat_ms: Vec<f64> = round
        .runs
        .iter()
        .filter(|r| !check || r.seq > 0)
        .map(|r| r.latency_s * 1e3)
        .collect();
    let wall: f64 = rate_runs.iter().map(|r| r.latency_s).sum();
    let items: u64 = rate_runs.iter().map(|r| items_of(&r.doc)).sum();
    let mut extra = Vec::new();
    if check {
        extra.push(("check_windows_per_s".into(), items as f64 / wall));
        extra.push(("check_cold_s".into(), wall));
        extra.push(("check_warm_s".into(), median(&lat_ms) / 1e3));
    } else {
        let cycles: u64 = rate_runs.iter().map(|r| workloads::cycles_of(&r.doc)).sum();
        extra.push(("sim_mcycles_per_s".into(), cycles as f64 / 1e6 / wall));
    }
    let docs: Vec<gecko_fleet::json::Json> = round.runs.iter().map(|r| r.doc.clone()).collect();
    RoundStats {
        setup_s: round.setup_s,
        items_per_s: items as f64 / wall,
        p50_ms: median(&lat_ms),
        extra,
        model: model_metrics(plan.workload, &docs),
    }
}

fn data_dir(workload: Workload, seed: u64, tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    results_root().join("data").join(format!(
        "{}-seed{seed}-{}-{nanos}-{tag}",
        workload.name(),
        std::process::id()
    ))
}

fn median_of(rounds: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Medians over rounds of the ungated extras (same keys in every round).
fn extras_median(rounds: &[RoundStats]) -> Named {
    let mut out = Vec::new();
    for (k, _) in rounds[0].extra.iter().chain(&rounds[0].model) {
        let values: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.extra.iter().chain(&r.model))
            .filter(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .collect();
        out.push((k.clone(), median(&values)));
    }
    out
}

fn e2e_metrics(rounds: &[RoundStats]) -> Named {
    vec![
        ("setup_s".into(), median_of(rounds, |r| r.setup_s)),
        ("items_per_s".into(), median_of(rounds, |r| r.items_per_s)),
        ("job_p50_ms".into(), median_of(rounds, |r| r.p50_ms)),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ]
}

fn run_one(
    plan: &Plan,
    refs: &[workloads::Reference],
    warm: (&workloads::Job, &workloads::Reference),
    dir: &Path,
    tr: &mut Tracer,
    healthz_probes: usize,
) -> Result<(Round, RoundStats), GateError> {
    let round = served::run_round(plan, refs, warm, dir, tr, healthz_probes)?;
    let stats = round_stats(plan, &round);
    Ok((round, stats))
}

fn run_workload(
    w: Workload,
    args: &Args,
    log: &mut dyn std::io::Write,
) -> Result<RunResult, GateError> {
    let plan = plan(w, args.seed, args.smoke);
    let _ = writeln!(
        log,
        "# gecko-e2e {} seed {}: {}",
        w.name(),
        args.seed,
        w.why()
    );
    let _ = writeln!(log, "# sizes: {}", plan.sizes);

    // The in-process reference: before any daemon boots, untimed, and
    // excluded from every metric.
    let t = Instant::now();
    let refs = plan
        .jobs
        .iter()
        .map(reference)
        .collect::<Result<Vec<_>, _>>()
        .map_err(GateError)?;
    let warm_job = warmup_job();
    let warm_ref = reference(&warm_job).map_err(GateError)?;
    let _ = writeln!(
        log,
        "reference: {} in-process jobs in {:.2} s (untimed, excluded from every metric)",
        refs.len(),
        t.elapsed().as_secs_f64()
    );
    let warm = (&warm_job, &warm_ref);

    let mut result = RunResult {
        workload: w.name().into(),
        seed: args.seed,
        trace: args.trace,
        ..RunResult::default()
    };

    if args.trace {
        let (untraced, stats_u) = run_one(
            &plan,
            &refs,
            warm,
            &data_dir(w, args.seed, "untraced"),
            &mut Tracer::new(false),
            0,
        )?;
        let mut tr = Tracer::new(true);
        let (round, stats_t) = run_one(
            &plan,
            &refs,
            warm,
            &data_dir(w, args.seed, "traced"),
            &mut tr,
            20,
        )?;
        result.attempted = untraced.attempted + round.attempted;
        result.failed = untraced.failed + round.failed;
        let (layers, checker_times) = layers::per_layer(&plan, &refs, &round, &mut tr)?;
        let path = results_root().join(format!("{}-seed{}.trace.json", w.name(), args.seed));
        tr.write(&path, w.name(), args.seed)
            .map_err(|e| GateError(format!("writing {}: {e}", path.display())))?;
        let _ = writeln!(
            log,
            "spans: {} written to {}",
            tr.spans().len(),
            path.display()
        );
        let (u, t) = (e2e_metrics(&[stats_u]), e2e_metrics(&[stats_t]));
        let _ = writeln!(log, "tracing overhead (one untraced vs one traced round):");
        for ((name, uv), (_, tv)) in u.iter().zip(&t).filter(|((n, _), _)| n != "peak_rss_mb") {
            let _ = writeln!(
                log,
                "  {name:<14} untraced {uv:>12.4}  traced {tv:>12.4}  ({:+.1}%)",
                (tv / uv - 1.0) * 100.0
            );
        }
        result.metrics = layers;
        result.extra = checker_times;
        result
            .extra
            .extend(t.into_iter().map(|(k, v)| (format!("traced.{k}"), v)));
        result
            .extra
            .extend(u.into_iter().map(|(k, v)| (format!("untraced.{k}"), v)));
    } else {
        let seconds = args
            .seconds
            .unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS });
        let min_rounds = if args.smoke { 1 } else { MIN_ROUNDS };
        let started = Instant::now();
        let mut rounds: Vec<RoundStats> = Vec::new();
        loop {
            let k = rounds.len();
            let dir = data_dir(w, args.seed, &format!("r{k}"));
            let (round, stats) = run_one(&plan, &refs, warm, &dir, &mut Tracer::new(false), 0)?;
            result.attempted += round.attempted;
            result.failed += round.failed;
            if let Some(first) = rounds.first() {
                if stats.model != first.model {
                    return Err(GateError(format!(
                        "round {k}: simulated numbers {:?} differ from round 0 {:?}",
                        stats.model, first.model
                    )));
                }
            }
            let _ = writeln!(
                log,
                "round {k}: setup {:.4} s, {} jobs, items/s {:.2}, p50 {:.3} ms",
                stats.setup_s,
                round.runs.len(),
                stats.items_per_s,
                stats.p50_ms
            );
            rounds.push(stats);
            let elapsed = started.elapsed().as_secs_f64();
            let per_round = elapsed / rounds.len() as f64;
            if rounds.len() >= min_rounds && elapsed + per_round > seconds {
                break;
            }
        }
        result.metrics = e2e_metrics(&rounds);
        result.extra = extras_median(&rounds);
        result.extra.push(("rounds".into(), rounds.len() as f64));
    }

    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in names {
        match result.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => {}
            Some((_, v)) => return Err(GateError(format!("metric {name} is not finite ({v})"))),
            None => return Err(GateError(format!("metric {name} was not measured"))),
        }
    }
    Ok(result)
}

fn print_result(result: &RunResult, rounds_note: &str, log: &mut dyn std::io::Write) {
    for (name, value) in &result.metrics {
        let unit = metrics::unit_of(name).unwrap_or("");
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or(String::new(), |m| format!(" -> {}", m.moves));
        let _ = writeln!(
            log,
            "{name:<30} = {value:>16.6} {unit:<8} {rounds_note}{moves}"
        );
    }
    for (name, value) in &result.extra {
        let _ = writeln!(log, "  extra (not gated) {name:<28} = {value:.6}");
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("gecko-e2e: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some((a, b)) = &args.compare {
        let load = |p: &Path| -> Result<Vec<RunResult>, String> {
            std::fs::read_to_string(p)
                .map_err(|e| format!("reading {}: {e}", p.display()))?
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(RunResult::from_out_json)
                .collect()
        };
        return match (load(a), load(b)) {
            (Ok(ra), Ok(rb)) => {
                print!("{}", metrics::compare(&ra, &rb).0);
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("gecko-e2e: {e}");
                ExitCode::from(2)
            }
        };
    }

    if args.workload == "all" {
        // One process per workload, so `peak_rss_mb` is each workload's own.
        let Ok(exe) = std::env::current_exe() else {
            eprintln!("gecko-e2e: cannot locate the running executable");
            return ExitCode::from(2);
        };
        // Every flag but `--workload NAME` passes through unchanged.
        let mut passed: Vec<&String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                passed.push(a);
            }
        }
        for w in Workload::ALL {
            let child_args = passed
                .iter()
                .map(|a| a.as_str())
                .chain(["--workload", w.name()]);
            match std::process::Command::new(&exe).args(child_args).status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("gecko-e2e: workload {} failed ({s})", w.name());
                    return ExitCode::from(1);
                }
                Err(e) => {
                    eprintln!("gecko-e2e: spawning workload {}: {e}", w.name());
                    return ExitCode::from(1);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let w = Workload::from_name(&args.workload).expect("validated in parse_args");
    let stdout = std::io::stdout();
    let mut log = stdout.lock();
    match run_workload(w, &args, &mut log) {
        Ok(result) => {
            let note = if args.trace {
                "(traced round + replay)".to_string()
            } else {
                let rounds = result
                    .extra
                    .iter()
                    .find(|(k, _)| k == "rounds")
                    .map_or(0.0, |x| x.1);
                format!("(median of {rounds} rounds)")
            };
            print_result(&result, &note, &mut log);
            if let Some(out) = &args.out {
                if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
                    let _ = std::fs::create_dir_all(dir);
                }
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(out)
                    .and_then(|mut f| writeln!(f, "{}", result.out_json()));
                if let Err(e) = appended {
                    eprintln!("gecko-e2e: appending to {}: {e}", out.display());
                    return ExitCode::from(1);
                }
            }
            let _ = writeln!(log, "{}", result.result_line());
            ExitCode::SUCCESS
        }
        Err(GateError(msg)) => {
            let _ = log.flush();
            eprintln!("gecko-e2e: {} failed a correctness gate: {msg}", w.name());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_fleet::json::Json;
    use metrics::Verdict;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` list"))
    }

    fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` in {entry:?}"))
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = benchmark_json();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(entry, "better"), m.better.name(), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(entry, "better"), m.better.name(), "{}", m.name);
        }
        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(str_of(entry, "name"), w.name());
            assert_eq!(str_of(entry, "why"), w.why());
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// Runs every workload at `--smoke` size, untraced and traced: every
    /// metric BENCHMARK.json names must come out finite, and `--compare`
    /// of the result file with itself must report no change anywhere.
    #[test]
    fn every_workload_emits_every_metric_and_compares_unchanged_with_itself() {
        let doc = benchmark_json();
        let mut lines = Vec::new();
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w.name().into(),
                    seed: DEFAULT_SEED,
                    seconds: None,
                    trace,
                    out: None,
                    compare: None,
                    smoke: true,
                };
                let result = run_workload(w, &args, &mut std::io::sink())
                    .unwrap_or_else(|GateError(e)| panic!("{} (trace {trace}): {e}", w.name()));
                assert!(result.attempted > 0);
                assert_eq!(result.failed, 0, "{}", w.name());
                let list = if trace { "per_layer" } else { "end_to_end" };
                for entry in entries(&doc, list) {
                    let name = str_of(entry, "name");
                    let value = result
                        .metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{} (trace {trace}): {name} = {value:?}",
                        w.name()
                    );
                }
                let line = Json::parse(&result.result_line()).expect("result line parses");
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
                lines.push(result.out_json());
            }
        }
        let runs: Vec<RunResult> = lines
            .iter()
            .map(|l| RunResult::from_out_json(l).expect("out line round-trips"))
            .collect();
        let (table, verdicts) = metrics::compare(&runs, &runs);
        assert_eq!(
            verdicts.len(),
            Workload::ALL.len() * (END_TO_END.len() + PER_LAYER.len()),
            "{table}"
        );
        for (workload, metric, v) in verdicts {
            assert_eq!(v, Verdict::Unchanged, "{workload} {metric}\n{table}");
        }

        // This test's daemon data directories (named after this process).
        let tag = format!("-{}-", std::process::id());
        if let Ok(entries) = std::fs::read_dir(results_root().join("data")) {
            for e in entries.flatten() {
                if e.file_name().to_string_lossy().contains(&tag) {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
    }

    #[test]
    fn arguments_parse_like_the_benchmark_command_passes_them() {
        let raw: Vec<String> = [
            "--workload",
            "check_incremental",
            "--seed",
            "3",
            "--seconds",
            "30",
            "--trace",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&raw).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("check_incremental", 3, Some(30.0), false)
        );
        assert!(parse_args(&["--trace".to_string()]).unwrap().trace);
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
