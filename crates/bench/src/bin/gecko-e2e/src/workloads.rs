//! The three workloads: what each round submits, the in-process reference
//! every served result is checked against, and the simulated (model)
//! numbers read back from the served documents.
//!
//! Every input is a pure function of the workload name, `--seed` and the
//! `--smoke` switch, so the same seed submits byte-identical bodies.

use gecko_check::{CheckCampaign, CheckReport, CheckSpec, ExploreConfig};
use gecko_emi::attack::DpiPoint;
use gecko_emi::fault::FaultModel;
use gecko_emi::{AttackSchedule, EmiSignal, FaultSchedule, Injection, MonitorKind};
use gecko_fleet::json::Json;
use gecko_fleet::spec_io::{report_deterministic_json, spec_value};
use gecko_fleet::{
    AttackCase, Campaign, CampaignReport, CampaignSpec, CapacitorSpec, DeviceCase, FaultCase,
    SchemeKind, Supply, Workload as SimWorkload,
};
use gecko_serve::wire::{check_report_deterministic_json, check_spec_value};

/// Harvested power of the paper's energy-harvesting environment (W).
const HARVEST_W: f64 = 1.2e-3;

/// The 100 µF buffer of the repository's Figure 13 sweep: small enough
/// that the harvesting duty cycle (drain, checkpoint, hibernate, recharge)
/// repeats within a fraction of a second of device time.
const SMALL_BUFFER: CapacitorSpec = CapacitorSpec {
    capacitance_f: 100e-6,
    initial_voltage_v: 3.3,
    rescale_thresholds: false,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepClean,
    SweepAttack,
    CheckIncremental,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepClean,
        Workload::SweepAttack,
        Workload::CheckIncremental,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepClean => "sweep_clean",
            Workload::SweepAttack => "sweep_attack",
            Workload::CheckIncremental => "check_incremental",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which mechanism it exercises and which
    /// workload bypasses it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepClean => {
                "Figs. 11/14 harvesting sweep: event-horizon spans and hibernation fast-forward do the work; the only DeviceBatch workload"
            }
            Workload::SweepAttack => {
                "Figs. 4/5/13 attack grid: attack and fault windows pin the simulator on the per-instruction fallback"
            }
            Workload::CheckIncremental => {
                "CI re-check loop: a cold check writes the memo store, warm re-checks answer from it"
            }
        }
    }
}

/// What a job asks the daemon to run, in typed form (for the reference
/// run and the traced replay).
pub enum JobSpec {
    Sweep { spec: CampaignSpec, batch: usize },
    Check(CheckSpec),
}

/// One submission: its route, the exact body sent, and the typed spec.
pub struct Job {
    pub path: &'static str,
    pub body: String,
    pub spec: JobSpec,
}

/// The fixed work of one round.
pub struct Plan {
    pub workload: Workload,
    /// Distinct submissions (each gets one in-process reference).
    pub jobs: Vec<Job>,
    /// One round's submissions, in order, as indices into `jobs`.
    pub round: Vec<usize>,
    /// The traced replay re-runs every `replay_stride`-th job (check:
    /// every `replay_stride`-th (app, scheme) pair) — a deterministic
    /// subset that keeps the traced run inside its time budget.
    pub replay_stride: usize,
    /// Human-readable sizes, printed at the top of every run.
    pub sizes: String,
}

/// Simulation workers each job asks for (`nproc` = 2 on the reference
/// box; the daemon runs one job at a time).
pub const JOB_WORKERS: usize = 2;

fn envelope(spec: Json, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![("spec".to_string(), spec)];
    fields.extend(extra);
    Json::Obj(fields).encode()
}

fn sweep_job(spec: CampaignSpec, batch: usize) -> Job {
    let body = envelope(
        spec_value(&spec),
        vec![
            ("workers".into(), Json::U64(JOB_WORKERS as u64)),
            ("batch".into(), Json::U64(batch as u64)),
        ],
    );
    Job {
        path: "/v1/campaigns",
        body,
        spec: JobSpec::Sweep { spec, batch },
    }
}

/// Log-spaced attack frequencies from 5 to 100 MHz.
fn attack_freqs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| 5e6 * 20f64.powf(k as f64 / (n.max(2) - 1) as f64))
        .collect()
}

fn attack_cases(n_freqs: usize) -> Vec<AttackCase> {
    let mut attacks = vec![AttackCase::none()];
    for f in attack_freqs(n_freqs) {
        let mhz = f / 1e6;
        attacks.push(AttackCase::new(
            format!("p2-{mhz:.1}MHz"),
            AttackSchedule::continuous(EmiSignal::new(f, 20.0), Injection::Dpi(DpiPoint::P2)),
        ));
        attacks.push(AttackCase::new(
            format!("remote-{mhz:.1}MHz"),
            AttackSchedule::bursts(
                EmiSignal::new(f, 35.0),
                Injection::Remote { distance_m: 2.0 },
                &[0.04, 0.12],
                0.04,
            ),
        ));
    }
    attacks
}

fn fault_cases() -> Vec<FaultCase> {
    vec![
        FaultCase::none(),
        FaultCase::new(
            "skip-0.10s",
            FaultSchedule::bursts(
                EmiSignal::new(27e6, 35.0),
                Injection::Dpi(DpiPoint::P2),
                FaultModel::Skip,
                &[0.10],
                0.02,
            ),
        ),
    ]
}

/// The tiny job every round's set-up ends with: GECKO running blink on
/// the bench supply for 2 ms of device time.
pub fn warmup_job() -> Job {
    let spec = CampaignSpec::new("tiny-blink-1")
        .apps(["blink"])
        .schemes([SchemeKind::Gecko])
        .seeds([1])
        .workload(SimWorkload::RunFor { seconds: 0.002 });
    Job {
        path: "/v1/campaigns",
        body: gecko_fleet::spec_to_json(&spec),
        spec: JobSpec::Sweep { spec, batch: 1 },
    }
}

pub fn plan(workload: Workload, seed: u64, smoke: bool) -> Plan {
    match workload {
        Workload::SweepClean => {
            let apps: Vec<String> = if smoke {
                vec!["blink".into(), "crc16".into()]
            } else {
                gecko_apps::all_apps()
                    .iter()
                    .map(|a| a.name.to_string())
                    .collect()
            };
            let run_s = if smoke { 0.01 } else { 0.4 };
            let jobs: Vec<Job> = apps
                .iter()
                .map(|app| {
                    let spec = CampaignSpec::new(format!("clean-{app}"))
                        .apps([app.clone()])
                        .schemes(SchemeKind::all())
                        .seeds(seed..seed + 4)
                        .supply(Supply::Harvesting { power_w: HARVEST_W })
                        .capacitor(SMALL_BUFFER)
                        .workload(SimWorkload::RunFor { seconds: run_s });
                    sweep_job(spec, 4)
                })
                .collect();
            Plan {
                workload,
                round: (0..jobs.len()).collect(),
                sizes: format!(
                    "{} apps x 4 schemes x 4 seeds = {} items per round as {} one-app jobs, harvesting {} mW on a 100 uF buffer, RunFor {run_s} s, workers {JOB_WORKERS}, batch 4",
                    apps.len(),
                    apps.len() * 16,
                    jobs.len(),
                    HARVEST_W * 1e3
                ),
                jobs,
                replay_stride: if smoke { 1 } else { 4 },
            }
        }
        Workload::SweepAttack => {
            let boards = if smoke { 1 } else { 3 };
            let n_freqs = if smoke { 1 } else { 6 };
            let run_s = if smoke { 0.02 } else { 0.2 };
            let devices: Vec<DeviceCase> = gecko_emi::devices::all_devices()
                .into_iter()
                .take(boards)
                .map(|d| DeviceCase::new(d, MonitorKind::Adc))
                .collect();
            let attacks = attack_cases(n_freqs);
            let mut jobs = Vec::new();
            for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
                for device in &devices {
                    let spec = CampaignSpec::new(format!(
                        "attack-{}-{}",
                        scheme.slug(),
                        device.device.name()
                    ))
                    .apps(["bitcnt"])
                    .schemes([scheme])
                    .devices([device.clone()])
                    .attacks(attacks.clone())
                    .faults(fault_cases())
                    .seeds([seed])
                    .supply(Supply::Harvesting { power_w: HARVEST_W })
                    .workload(SimWorkload::RunFor { seconds: run_s });
                    jobs.push(sweep_job(spec, 1));
                }
            }
            let per_job = attacks.len() * 2;
            Plan {
                workload,
                round: (0..jobs.len()).collect(),
                sizes: format!(
                    "bitcnt x {{nvp, gecko}} x {boards} boards x {} attacks x 2 faults = {} items per round as {} jobs, harvesting, RunFor {run_s} s, workers {JOB_WORKERS}, batch 1",
                    attacks.len(),
                    per_job * jobs.len(),
                    jobs.len()
                ),
                jobs,
                replay_stride: if smoke { 1 } else { 3 },
            }
        }
        Workload::CheckIncremental => {
            let (apps, schemes): (&[&str], Vec<SchemeKind>) = if smoke {
                (&["blink"], vec![SchemeKind::Nvp, SchemeKind::Gecko])
            } else {
                (&["crc16", "blink", "bitcnt"], SchemeKind::all().to_vec())
            };
            let max_windows = if smoke { 6 } else { 30 };
            let warm = if smoke { 1 } else { 6 };
            let spec = CheckSpec::new("e2e-check")
                .app_names(apps)
                .expect("bundled apps")
                .schemes(schemes.clone())
                .explore(
                    ExploreConfig {
                        seed,
                        ..ExploreConfig::default()
                    }
                    .with_depth(2)
                    .with_fault_windows(true)
                    .with_max_windows(max_windows),
                );
            let body = envelope(
                check_spec_value(&spec),
                vec![
                    ("workers".into(), Json::U64(JOB_WORKERS as u64)),
                    ("incremental".into(), Json::Bool(true)),
                ],
            );
            Plan {
                workload,
                jobs: vec![Job {
                    path: "/v1/checks",
                    body,
                    spec: JobSpec::Check(spec),
                }],
                round: vec![0; 1 + warm],
                sizes: format!(
                    "{{{}}} x {} schemes, depth 2, fault windows, max_windows {max_windows}, explore seed = seed; 1 cold + {warm} warm submissions per round, workers {JOB_WORKERS}",
                    apps.join(", "),
                    schemes.len()
                ),
                replay_stride: if smoke { 1 } else { 3 },
            }
        }
    }
}

/// The in-process run of one job, before any daemon boots.
pub enum Report {
    Sweep(Box<CampaignReport>),
    Check(Box<CheckReport>),
}

pub struct Reference {
    pub digest: u64,
    /// The deterministic document the daemon must serve byte-for-byte.
    pub det: String,
    pub report: Report,
}

pub fn reference(job: &Job) -> Result<Reference, String> {
    match &job.spec {
        JobSpec::Sweep { spec, batch } => {
            let report = Campaign::new(spec.clone())
                .workers(JOB_WORKERS)
                .batch_size(*batch)
                .run()
                .map_err(|e| format!("reference run of {}: {e}", spec.name))?;
            Ok(Reference {
                digest: report.deterministic_digest(),
                det: report_deterministic_json(&report),
                report: Report::Sweep(Box::new(report)),
            })
        }
        JobSpec::Check(spec) => {
            let report = CheckCampaign::new(spec.clone())
                .workers(JOB_WORKERS)
                .run()
                .map_err(|e| format!("reference check {}: {e}", spec.name))?;
            Ok(Reference {
                digest: report.deterministic_digest(),
                det: check_report_deterministic_json(&report),
                report: Report::Check(Box::new(report)),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Reading served documents
// ---------------------------------------------------------------------------

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    node.as_f64().unwrap_or(0.0)
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

fn results(doc: &Json) -> &[Json] {
    doc.get("results").and_then(Json::as_arr).unwrap_or(&[])
}

/// Work items a served result accounts: grid cells for sweeps, explored
/// windows for checks.
pub fn items_of(doc: &Json) -> u64 {
    if doc.get("check").is_some() {
        num(doc, &["totals", "windows"]) as u64
    } else {
        results(doc).len() as u64
    }
}

/// Simulated cycles (forward + overhead) of a served sweep result.
pub fn cycles_of(doc: &Json) -> u64 {
    (num(doc, &["totals", "forward_cycles"]) + num(doc, &["totals", "overhead_cycles"])) as u64
}

/// The simulated (model) numbers of one round, from its served full
/// documents. They are deterministic, so every round must reproduce the
/// first one exactly.
pub fn model_metrics(workload: Workload, docs: &[Json]) -> Vec<(String, f64)> {
    let rows = || docs.iter().flat_map(|d| results(d).iter());
    match workload {
        Workload::SweepClean => {
            let mut per_app: Vec<(String, f64, f64)> = Vec::new();
            let (mut gecko_ck, mut no_prune_ck) = (0.0, 0.0);
            for r in rows() {
                let app = text(r, "app").to_string();
                let completions = num(r, &["metrics", "completions"]);
                let ck = num(r, &["compile_stats", "checkpoints_after"]);
                let slot = match per_app.iter().position(|(a, _, _)| *a == app) {
                    Some(i) => i,
                    None => {
                        per_app.push((app, 0.0, 0.0));
                        per_app.len() - 1
                    }
                };
                match text(r, "scheme") {
                    "nvp" => per_app[slot].1 += completions,
                    "gecko" => {
                        per_app[slot].2 += completions;
                        gecko_ck += ck;
                    }
                    "gecko-no-prune" => no_prune_ck += ck,
                    _ => {}
                }
            }
            let logs: Vec<f64> = per_app
                .iter()
                .filter(|(_, nvp, gecko)| *nvp > 0.0 && *gecko > 0.0)
                .map(|(_, nvp, gecko)| (nvp / gecko).ln())
                .collect();
            let geomean = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
            vec![
                ("gecko_overhead_vs_nvp".into(), geomean),
                (
                    "ckpt_store_reduction".into(),
                    1.0 - gecko_ck / no_prune_ck.max(1.0),
                ),
                (
                    "sim_mcycles".into(),
                    docs.iter().map(cycles_of).sum::<u64>() as f64 / 1e6,
                ),
            ]
        }
        Workload::SweepAttack => {
            let key = |r: &Json| format!("{}/{}", text(r, "device"), num(r, &["seed"]));
            let clean: Vec<(String, f64)> = rows()
                .filter(|r| {
                    text(r, "scheme") == "gecko"
                        && text(r, "attack") == "none"
                        && text(r, "fault") == "none"
                })
                .map(|r| (key(r), num(r, &["metrics", "forward_cycles"])))
                .collect();
            let ratios: Vec<f64> = rows()
                .filter(|r| {
                    text(r, "scheme") == "gecko"
                        && text(r, "attack") != "none"
                        && text(r, "fault") == "none"
                })
                .filter_map(|r| {
                    let base = clean.iter().find(|(k, _)| *k == key(r))?.1;
                    (base > 0.0).then(|| num(r, &["metrics", "forward_cycles"]) / base)
                })
                .collect();
            vec![
                (
                    "gecko_attack_progress".into(),
                    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
                ),
                (
                    "sim_mcycles".into(),
                    docs.iter().map(cycles_of).sum::<u64>() as f64 / 1e6,
                ),
            ]
        }
        Workload::CheckIncremental => {
            let doc = docs.first();
            let total = |k: &str| doc.map_or(0.0, |d| num(d, &["totals", k]));
            ["windows", "forks", "explored", "memo_hits", "violations"]
                .iter()
                .map(|k| (format!("check_{k}"), total(k)))
                .collect()
        }
    }
}
