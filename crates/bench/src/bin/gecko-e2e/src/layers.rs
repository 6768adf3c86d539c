//! Per-layer metrics of the traced run.
//!
//! The serve and fleet numbers come from the traced served round itself
//! (client spans around every HTTP call, plus the documents it fetched).
//! Everything below the daemon is measured by replaying a deterministic
//! subset of that round's work single-threaded, with a span around each
//! call into a crate's public functions: wire decode/encode, JSON parse,
//! `CompiledApp::build`, `Simulator::from_compiled`, the simulator run
//! loops, `snapshot`/`restore`, a `DeviceBatch` over the same items, the
//! checker entry points, and `SegmentedLog::append`/`sync` of the round's
//! own journal and memo lines.
//!
//! `gecko-energy`, `gecko-emi`, `gecko-mcu` and `gecko-ctpl` have no
//! spans of their own: they run inside the simulator and show up through
//! the `sim.*` counts.

use std::collections::BTreeMap;
use std::path::Path;

use gecko_check::{check_compiled, golden_steps, replay, shrink_schedule, MemoStore};
use gecko_fleet::json::Json;
use gecko_fleet::spec_io::{report_to_json, spec_from_value};
use gecko_fleet::{CampaignSpec, WorkItem};
use gecko_serve::wire::{check_report_to_json, check_spec_from_value, parse_submission};
use gecko_sim::device::CompiledApp;
use gecko_sim::{
    BatchStats, DeviceBatch, FastPathStats, Metrics, SchemeKind, SimConfig, Simulator,
};
use gecko_store::{LogConfig, SegmentedLog};

use crate::metrics::{mean, median, quantile, Named};
use crate::served::{GateError, Round};
use crate::trace::Tracer;
use crate::workloads::{JobSpec, Plan, Reference, Report, Workload, JOB_WORKERS};

/// Devices per `DeviceBatch` in the batch-vs-scalar replay (the batch
/// size `sweep_clean` submits with).
const AB_GROUP: usize = 4;

/// Device-time cap of a checker golden run in the replay (s).
const GOLDEN_MAX_S: f64 = 10.0;

#[derive(Default)]
struct SimTally {
    fast: FastPathStats,
    batch: BatchStats,
}

impl SimTally {
    fn absorb(&mut self, s: FastPathStats) {
        self.fast.steps += s.steps;
        self.fast.dispatches += s.dispatches;
        self.fast.ff_ticks += s.ff_ticks;
        self.fast.ff_spans += s.ff_spans;
        self.fast.eh_insts += s.eh_insts;
        self.fast.eh_spans += s.eh_spans;
    }
}

/// How to configure one replayed device. `SimConfig` is not `Clone` (it
/// owns a boxed harvester), so the scalar and batched sides each rebuild
/// it from this recipe.
enum Recipe<'a> {
    Item(&'a CampaignSpec, WorkItem),
    Checker(SchemeKind, u64),
}

impl Recipe<'_> {
    fn config(&self) -> SimConfig {
        match self {
            Recipe::Item(spec, item) => spec.config_for(item),
            Recipe::Checker(scheme, seed) => {
                let mut c = SimConfig::bench_supply(*scheme);
                c.seed = *seed;
                c
            }
        }
    }
}

/// One device to replay: how to build it and how long to run it.
struct Device<'a> {
    job: u64,
    compiled: usize,
    recipe: Recipe<'a>,
    run: Run,
    /// The metrics the served (and reference) run produced, when known.
    expect: Option<Metrics>,
}

#[derive(Clone, Copy)]
enum Run {
    For(f64),
    UntilFirstCompletion,
}

fn run_device(sim: &mut Simulator, run: Run) {
    match run {
        Run::For(s) => {
            sim.run_for(s);
        }
        Run::UntilFirstCompletion => {
            sim.run_until_completions(1, GOLDEN_MAX_S);
        }
    }
}

fn run_batch(batch: &mut DeviceBatch, run: Run) -> Vec<Metrics> {
    match run {
        Run::For(s) => batch.run_for(s),
        Run::UntilFirstCompletion => batch.run_until_completions(1, GOLDEN_MAX_S),
    }
}

/// Counts from the served check documents (zero on the other workloads).
fn checker_counts(plan: &Plan, round: &Round, out: &mut Named) {
    let cold = round
        .runs
        .iter()
        .find(|r| r.seq == 0)
        .filter(|_| plan.workload == Workload::CheckIncremental);
    let warm = round
        .runs
        .iter()
        .find(|r| r.seq == 1)
        .filter(|_| plan.workload == Workload::CheckIncremental);
    let total = |k: &str| {
        cold.and_then(|r| r.doc.get("totals")?.get(k)?.as_f64())
            .unwrap_or(0.0)
    };
    for k in ["windows", "forks", "explored", "memo_hits", "violations"] {
        out.push((format!("checker.{k}"), total(k)));
    }
    let forks = total("forks");
    out.push((
        "checker.memo_hit_rate".into(),
        if forks > 0.0 {
            total("memo_hits") / forks
        } else {
            0.0
        },
    ));
    let memo_windows = warm
        .and_then(|r| r.doc.get("counters")?.get("memo_windows")?.as_f64())
        .unwrap_or(0.0);
    let windows = total("windows");
    out.push((
        "checker.warm_memo_frac".into(),
        if windows > 0.0 {
            memo_windows / windows
        } else {
            0.0
        },
    ));
}

fn doc_f64(doc: &Json, path: &[&str]) -> f64 {
    let mut node = doc;
    for k in path {
        match node.get(k) {
            Some(n) => node = n,
            None => return 0.0,
        }
    }
    node.as_f64().unwrap_or(0.0)
}

/// The memo store directory a served incremental check wrote, if any.
fn memo_dir(data_dir: &Path) -> Option<std::path::PathBuf> {
    std::fs::read_dir(data_dir.join("memo"))
        .ok()?
        .flatten()
        .map(|e| e.path())
        .find(|p| p.is_dir())
}

/// Replays the traced round and returns `(per-layer metrics, extras)`.
/// The extras are the checker timings, which exist on one workload only
/// and therefore stay out of the benchmark's metric list.
pub fn per_layer(
    plan: &Plan,
    refs: &[Reference],
    round: &Round,
    tr: &mut Tracer,
) -> Result<(Named, Named), GateError> {
    let mut out: Named = Vec::new();
    let mut extra: Named = Vec::new();
    let ms = |v: f64| v * 1e3;
    let us = |v: f64| v * 1e6;

    // ---- serve: client spans and fetched documents of the traced round.
    for (metric, span) in [
        ("serve.submit_ms", "http.submit"),
        ("serve.status_ms", "http.status"),
        ("serve.result_ms", "http.result"),
        ("serve.healthz_ms", "http.healthz"),
    ] {
        out.push((metric.into(), ms(median(&tr.durations(span)))));
    }
    let runs = &round.runs;
    out.push((
        "serve.result_kb".into(),
        mean(runs.iter().map(|r| r.result.len() as f64 / 1024.0)),
    ));
    out.push((
        "serve.job_dir_kb".into(),
        mean(runs.iter().map(|r| {
            (doc_f64(&r.status, &["store", "journal_bytes"])
                + doc_f64(&r.status, &["store", "telemetry_bytes"]))
                / 1024.0
        })),
    ));
    out.push((
        "serve.events_per_job".into(),
        mean(runs.iter().map(|r| doc_f64(&r.status, &["events_total"]))),
    ));

    // ---- wire: decode the exact bodies sent, encode the reference reports.
    for (j, job) in plan.jobs.iter().enumerate() {
        let decoded = tr.span("serve.wire_decode", Some(j as u64), |_| {
            let sub = parse_submission(&job.body).ok()?;
            match job.spec {
                JobSpec::Sweep { .. } => spec_from_value(&sub.spec, "").ok().map(|_| ()),
                JobSpec::Check(_) => check_spec_from_value(&sub.spec, "").ok().map(|_| ()),
            }
        });
        if decoded.is_none() {
            return Err(GateError(format!(
                "submission body of job {j} does not decode"
            )));
        }
        tr.span("serve.wire_encode", Some(j as u64), |_| {
            match &refs[j].report {
                Report::Sweep(r) => report_to_json(r).len(),
                Report::Check(r) => check_report_to_json(r).len(),
            }
        });
    }
    out.push((
        "serve.wire_decode_us".into(),
        us(mean(tr.durations("serve.wire_decode"))),
    ));
    out.push((
        "serve.wire_encode_us".into(),
        us(mean(tr.durations("serve.wire_encode"))),
    ));

    // ---- fleet: the fetched documents and the daemon's journals.
    for r in runs {
        tr.span("fleet.json_parse", Some(r.seq as u64), |_| {
            Json::parse(&r.result).is_ok()
        });
    }
    out.push((
        "fleet.json_parse_us".into(),
        us(mean(tr.durations("fleet.json_parse"))),
    ));
    out.push((
        "fleet.campaign_s".into(),
        median(
            &runs
                .iter()
                .map(|r| doc_f64(&r.doc, &["wall_s"]))
                .collect::<Vec<_>>(),
        ),
    ));
    let mut journal_lines = Vec::new();
    let mut store_lines: Vec<String> = Vec::new();
    for r in runs {
        let dir = round.data_dir.join(format!("job-{}", r.id)).join("journal");
        let lines = SegmentedLog::open(&dir, LogConfig::default())
            .map(|log| log.lines())
            .unwrap_or_default();
        journal_lines.push(lines.len() as f64);
        store_lines.extend(lines);
    }
    out.push((
        "fleet.journal_lines".into(),
        mean(journal_lines.iter().copied()),
    ));
    out.push((
        "compiler.builds".into(),
        runs.iter()
            .map(|r| doc_f64(&r.doc, &["counters", "compile_misses"]))
            .sum(),
    ));

    // ---- the replayed subset: compiler, sim, checker.
    let mut compiled: Vec<CompiledApp> = Vec::new();
    let mut devices: Vec<Device> = Vec::new();
    let mut replayed_pairs = 0usize;
    let mut replay_windows = 0u64;
    let mut total_pairs = 0usize;
    for (j, job) in plan.jobs.iter().enumerate() {
        match (&job.spec, &refs[j].report) {
            (JobSpec::Sweep { spec, .. }, Report::Sweep(reference)) => {
                if !j.is_multiple_of(plan.replay_stride) {
                    continue;
                }
                let mut programs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
                let seconds = match spec.workload {
                    gecko_fleet::Workload::RunFor { seconds } => seconds,
                    _ => return Err(GateError("replay expects RunFor workloads".into())),
                };
                for item in spec.expand() {
                    let key = (item.app_idx, item.scheme_idx);
                    let slot = match programs.get(&key) {
                        Some(&slot) => slot,
                        None => {
                            let app = gecko_apps::app_by_name(&spec.apps[item.app_idx])
                                .ok_or_else(|| GateError("unknown app in a plan".into()))?;
                            let scheme = spec.schemes[item.scheme_idx];
                            let c = tr
                                .span("compiler.build", Some(j as u64), |_| {
                                    CompiledApp::build(&app, scheme, &spec.compile)
                                })
                                .map_err(|e| GateError(format!("compiling {}: {e:?}", app.name)))?;
                            compiled.push(c);
                            programs.insert(key, compiled.len() - 1);
                            compiled.len() - 1
                        }
                    };
                    let expect = reference
                        .results
                        .iter()
                        .find(|r| r.item.index == item.index)
                        .map(|r| r.metrics);
                    devices.push(Device {
                        job: j as u64,
                        compiled: slot,
                        recipe: Recipe::Item(spec, item),
                        run: Run::For(seconds),
                        expect,
                    });
                }
            }
            (JobSpec::Check(spec), Report::Check(_)) => {
                let explore = spec.explore;
                let mut k = 0usize;
                for app in &spec.apps {
                    for &scheme in &spec.schemes {
                        total_pairs += 1;
                        k += 1;
                        if !(k - 1).is_multiple_of(plan.replay_stride) {
                            continue;
                        }
                        replayed_pairs += 1;
                        let pair = Some(k as u64 - 1);
                        let c = tr
                            .span("compiler.build", pair, |_| {
                                CompiledApp::build(app, scheme, &spec.compile)
                            })
                            .map_err(|e| GateError(format!("compiling {}: {e:?}", app.name)))?;
                        let golden = tr
                            .span("checker.golden", pair, |_| golden_steps(&c, explore.seed))
                            .map_err(|e| GateError(format!("golden run of {}: {e}", app.name)))?;
                        let report = tr
                            .span("checker.explore", pair, |_| check_compiled(&c, &explore))
                            .map_err(|e| GateError(format!("checking {}: {e}", app.name)))?;
                        replay_windows += report.stats.windows;
                        if let Some(first) = report.violations.first() {
                            let shrunk = tr.span("checker.shrink", pair, |_| {
                                shrink_schedule(
                                    &c,
                                    &explore,
                                    &first.schedule,
                                    golden,
                                    spec.shrink_budget,
                                )
                            });
                            tr.span("checker.replay", pair, |_| {
                                replay(&c, &explore, &shrunk.schedule, golden)
                            });
                        }
                        compiled.push(c);
                        devices.push(Device {
                            job: k as u64 - 1,
                            compiled: compiled.len() - 1,
                            recipe: Recipe::Checker(scheme, explore.seed),
                            run: Run::UntilFirstCompletion,
                            expect: None,
                        });
                    }
                }
            }
            _ => return Err(GateError("reference kind does not match its job".into())),
        }
    }
    out.push((
        "compiler.build_ms".into(),
        ms(median(&tr.durations("compiler.build"))),
    ));

    // Scalar side: one simulator per device, on the simulator's default
    // fast paths (the ones the checker's golden run uses too).
    let is_check = plan.workload == Workload::CheckIncremental;
    let mut tally = SimTally::default();
    let mut scalar_metrics = Vec::with_capacity(devices.len());
    for d in &devices {
        let c = &compiled[d.compiled];
        let mut sim = tr.span("sim.build", Some(d.job), |_| {
            Simulator::from_compiled(c, d.recipe.config())
        });
        tr.span("sim.run", Some(d.job), |_| run_device(&mut sim, d.run));
        if let Some(expect) = d.expect {
            if sim.metrics != expect {
                return Err(GateError(format!(
                    "replayed item of job {} differs from the served result",
                    d.job
                )));
            }
        }
        let snap = tr.span("sim.snapshot", Some(d.job), |_| sim.snapshot());
        tr.span("sim.restore", Some(d.job), |_| sim.restore(&snap));
        tally.absorb(sim.fast_path_stats());
        scalar_metrics.push(sim.metrics);
    }
    // Batched side: the same devices, `AB_GROUP` at a time.
    for (g, group) in devices.chunks(AB_GROUP).enumerate() {
        let sims: Vec<Simulator> = group
            .iter()
            .map(|d| Simulator::from_compiled(&compiled[d.compiled], d.recipe.config()))
            .collect();
        let mut batch = DeviceBatch::new(sims);
        let metrics = tr.span("sim.batch_run", Some(g as u64), |_| {
            run_batch(&mut batch, group[0].run)
        });
        if metrics[..] != scalar_metrics[g * AB_GROUP..g * AB_GROUP + group.len()] {
            return Err(GateError(format!(
                "DeviceBatch group {g} differs from the scalar runs"
            )));
        }
        tally.batch.absorb(&batch.stats());
    }
    let run_s = tr.total("sim.run");
    let f = tally.fast;
    out.push(("sim.run_s".into(), run_s));
    out.push((
        "sim.ns_per_step".into(),
        run_s * 1e9 / f.steps.max(1) as f64,
    ));
    for (name, v) in [
        ("sim.steps", f.steps),
        ("sim.dispatches", f.dispatches),
        ("sim.ff_ticks", f.ff_ticks),
        ("sim.ff_spans", f.ff_spans),
        ("sim.eh_insts", f.eh_insts),
        ("sim.eh_spans", f.eh_spans),
    ] {
        out.push((name.into(), v as f64));
    }
    out.push((
        "sim.coalesce_ratio".into(),
        f.steps as f64 / f.dispatches.max(1) as f64,
    ));
    out.push(("sim.build_us".into(), us(mean(tr.durations("sim.build")))));
    let batch_s = tr.total("sim.batch_run");
    out.push(("sim.batch_run_s".into(), batch_s));
    out.push((
        "sim.batch_over_scalar".into(),
        batch_s / run_s.max(f64::MIN_POSITIVE),
    ));
    out.push((
        "sim.batch_occupancy_permille".into(),
        tally.batch.occupancy_permille() as f64,
    ));
    out.push((
        "sim.batch_fallbacks".into(),
        tally.batch.fallback_rounds as f64,
    ));
    out.push((
        "sim.snapshot_us".into(),
        us(mean(tr.durations("sim.snapshot"))),
    ));
    out.push((
        "sim.restore_us".into(),
        us(mean(tr.durations("sim.restore"))),
    ));

    // Item walls: served per-item walls for sweeps; replayed pair walls for
    // checks, whose documents carry no per-item wall time.
    let (item_walls, eff) = if is_check {
        let cold_wall = runs
            .iter()
            .find(|r| r.seq == 0)
            .map_or(0.0, |r| doc_f64(&r.doc, &["wall_s"]));
        let pair_walls = tr.durations("checker.explore");
        let est_work =
            pair_walls.iter().sum::<f64>() * total_pairs as f64 / replayed_pairs.max(1) as f64;
        (
            pair_walls,
            est_work / (cold_wall * JOB_WORKERS as f64).max(f64::MIN_POSITIVE),
        )
    } else {
        let mut walls = Vec::new();
        let (mut work, mut capacity) = (0.0, 0.0);
        for r in runs {
            for item in r.doc.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
                let w = doc_f64(item, &["wall_ns"]) * 1e-9;
                walls.push(w);
                work += w;
            }
            capacity += doc_f64(&r.doc, &["wall_s"]) * doc_f64(&r.doc, &["workers"]);
        }
        (walls, work / capacity.max(f64::MIN_POSITIVE))
    };
    out.push(("fleet.item_ms.p50".into(), ms(quantile(&item_walls, 0.5))));
    out.push(("fleet.item_ms.p99".into(), ms(quantile(&item_walls, 0.99))));
    out.push(("fleet.parallel_eff".into(), eff));

    // ---- checker: served counts, the cold memo store, replay timings.
    checker_counts(plan, round, &mut out);
    let (mut memo_lines, mut memo_kb) = (0.0, 0.0);
    if let Some(dir) = memo_dir(&round.data_dir) {
        let store = tr
            .span("checker.memo_open", None, |_| MemoStore::open(&dir))
            .map_err(|e| GateError(format!("opening the served memo store: {e}")))?;
        let log = store.log();
        let lines = log.lines();
        memo_lines = lines.len() as f64;
        memo_kb = log.total_bytes() as f64 / 1024.0;
        store_lines.extend(lines);
    }
    out.push(("checker.memo_lines".into(), memo_lines));
    out.push(("checker.memo_kb".into(), memo_kb));
    if is_check {
        extra.push((
            "checker.golden_ms".into(),
            ms(median(&tr.durations("checker.golden"))),
        ));
        extra.push((
            "checker.us_per_window".into(),
            us(tr.total("checker.explore")) / replay_windows.max(1) as f64,
        ));
        extra.push(("checker.shrink_ms".into(), ms(tr.total("checker.shrink"))));
        extra.push(("checker.replay_ms".into(), ms(tr.total("checker.replay"))));
        extra.push((
            "checker.memo_open_ms".into(),
            ms(tr.total("checker.memo_open")),
        ));
    }

    // ---- store: the round's journal (and memo) lines through a fresh log
    // on the same filesystem.
    let dir = round.data_dir.join("store-replay");
    let log = SegmentedLog::open(&dir, LogConfig::default())
        .map_err(|e| GateError(format!("opening {}: {e}", dir.display())))?;
    tr.span("store.append", None, |_| {
        for line in &store_lines {
            log.append(line);
        }
    });
    tr.span("store.sync", None, |_| log.sync())
        .map_err(|e| GateError(format!("syncing {}: {e}", dir.display())))?;
    out.push((
        "store.append_ns_per_line".into(),
        tr.total("store.append") * 1e9 / store_lines.len().max(1) as f64,
    ));
    out.push(("store.sync_us".into(), us(tr.total("store.sync"))));

    Ok((out, extra))
}
