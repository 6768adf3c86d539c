//! One served round: boot a fresh daemon on a fresh data directory, time
//! its set-up, drive the round's submissions through the public HTTP API
//! from a single client (closed loop, at most one connection open), and
//! check every served result against the in-process reference.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gecko_fleet::json::Json;
use gecko_serve::http::{http_call, ClientResponse};
use gecko_serve::{ServeConfig, Server};

use crate::trace::Tracer;
use crate::workloads::{Job, Plan, Reference, Workload};

/// A correctness gate failed: the run must exit non-zero and print no
/// metrics.
#[derive(Debug)]
pub struct GateError(pub String);

/// One submission as the client saw it.
pub struct JobRun {
    /// Index into `Plan::jobs`.
    pub job: usize,
    /// Position in the round.
    pub seq: usize,
    /// Submit → result fetched.
    pub latency_s: f64,
    /// The daemon's job id (its directory is `job-<id>`).
    pub id: u64,
    /// The final status document (from the long-poll that saw it stop).
    pub status: Json,
    /// The full result document, as fetched and parsed.
    pub result: String,
    pub doc: Json,
}

pub struct Round {
    pub setup_s: f64,
    pub runs: Vec<JobRun>,
    pub attempted: u64,
    pub failed: u64,
    pub data_dir: PathBuf,
}

/// `http_call` inside a client span.
fn call(
    tr: &mut Tracer,
    name: &'static str,
    seq: Option<u64>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Option<ClientResponse> {
    tr.span(name, seq, |_| http_call(addr, method, path, body).ok())
}

fn parse(body: &str) -> Option<Json> {
    Json::parse(body).ok()
}

/// Submits one job and waits for its result. `None` when the daemon
/// refused it or the job did not finish as `done`.
fn submit_and_fetch(
    tr: &mut Tracer,
    seq: u64,
    addr: &str,
    job: &Job,
) -> Option<(u64, Json, String)> {
    let resp = call(
        tr,
        "http.submit",
        Some(seq),
        addr,
        "POST",
        job.path,
        &job.body,
    )?;
    if resp.status != 201 {
        return None;
    }
    let id = parse(&resp.body)?.get("id")?.as_u64()?;
    let status = loop {
        let resp = call(
            tr,
            "http.status",
            Some(seq),
            addr,
            "GET",
            &format!("/v1/jobs/{id}?wait_ms=30000"),
            "",
        )?;
        if resp.status != 200 {
            return None;
        }
        let status = parse(&resp.body)?;
        match status.get("state").and_then(Json::as_str) {
            Some("queued" | "running") => continue,
            Some("done") => break status,
            _ => return None,
        }
    };
    let resp = call(
        tr,
        "http.result",
        Some(seq),
        addr,
        "GET",
        &format!("/v1/jobs/{id}/result"),
        "",
    )?;
    (resp.status == 200).then_some((id, status, resp.body))
}

fn digest_of(doc: &Json) -> Option<u64> {
    doc.get("digest").and_then(Json::as_u64)
}

/// Quarantined items a served document reports (item-level failures).
fn quarantined(doc: &Json) -> u64 {
    doc.get("failures").and_then(Json::as_arr).map_or(0, |f| {
        f.iter()
            .filter(|x| x.get("item").and_then(Json::as_u64).is_some())
            .count() as u64
    })
}

/// Runs one round. `healthz_probes` extra liveness calls after set-up feed
/// the traced run's `serve.healthz_ms`.
pub fn run_round(
    plan: &Plan,
    refs: &[Reference],
    warmup: (&Job, &Reference),
    data_dir: &Path,
    tr: &mut Tracer,
    healthz_probes: usize,
) -> Result<Round, GateError> {
    let io = |what: &str, e: &dyn std::fmt::Display| GateError(format!("{what}: {e}"));
    let cfg = ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        journal_root: data_dir.to_path_buf(),
        queue_workers: 1,
        job_workers: 2,
        prune_interval_secs: 0,
        max_jobs: plan.round.len() + 8,
        ..ServeConfig::default()
    };

    let started = Instant::now();
    let server = tr
        .span("serve.boot", None, |_| Server::start(cfg))
        .map_err(|e| io("starting the daemon", &e))?;
    let addr = server.addr().to_string();
    let outcome = drive(plan, refs, warmup, &addr, tr, healthz_probes, started);
    server.shutdown();
    let (setup_s, runs, failed) = outcome?;
    Ok(Round {
        setup_s,
        attempted: plan.round.len() as u64,
        failed,
        runs,
        data_dir: data_dir.to_path_buf(),
    })
}

fn drive(
    plan: &Plan,
    refs: &[Reference],
    (warm_job, warm_ref): (&Job, &Reference),
    addr: &str,
    tr: &mut Tracer,
    healthz_probes: usize,
    started: Instant,
) -> Result<(f64, Vec<JobRun>, u64), GateError> {
    let mut healthy = false;
    for _ in 0..200 {
        if call(tr, "http.healthz", None, addr, "GET", "/v1/healthz", "")
            .is_some_and(|r| r.status == 200)
        {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    if !healthy {
        return Err(GateError("daemon never answered /v1/healthz".into()));
    }
    let setup_s = started.elapsed().as_secs_f64();
    // The warm-up job fills caches before the timed jobs; it is not part of
    // set-up, since a tiny job's fsyncs follow the disk more than the code.
    let (_, _, text) = tr
        .span("setup.warmup", None, |tr| {
            submit_and_fetch(tr, u64::MAX, addr, warm_job)
        })
        .ok_or_else(|| GateError("the set-up warm-up job did not complete".into()))?;
    if parse(&text).as_ref().and_then(digest_of) != Some(warm_ref.digest) {
        return Err(GateError(
            "warm-up job digest differs from the in-process run".into(),
        ));
    }
    for _ in 0..healthz_probes {
        call(tr, "http.healthz", None, addr, "GET", "/v1/healthz", "");
    }

    let mut runs = Vec::with_capacity(plan.round.len());
    let mut failed = 0u64;
    for (seq, &j) in plan.round.iter().enumerate() {
        let t = Instant::now();
        let fetched = tr.span("job", Some(seq as u64), |tr| {
            submit_and_fetch(tr, seq as u64, addr, &plan.jobs[j])
        });
        let latency_s = t.elapsed().as_secs_f64();
        let Some((id, status, result)) = fetched else {
            failed += 1;
            continue;
        };
        let doc =
            parse(&result).ok_or_else(|| GateError(format!("job {id}: result is not JSON")))?;
        if digest_of(&doc) != Some(refs[j].digest) {
            return Err(GateError(format!(
                "job {id} ({} #{j}): served digest {:?} differs from the in-process digest {:#x}",
                plan.workload.name(),
                digest_of(&doc),
                refs[j].digest
            )));
        }
        failed += quarantined(&doc);
        runs.push(JobRun {
            job: j,
            seq,
            latency_s,
            id,
            status,
            result,
            doc,
        });
    }

    // Document gate, outside the timed loop: the deterministic view must be
    // byte-identical to the library encoding. Checks compare the cold run
    // and the first warm run (warm ≡ cold ≡ reference); the other
    // workloads compare one sampled job.
    let sampled: Vec<&JobRun> = match plan.workload {
        Workload::CheckIncremental => runs.iter().take(2).collect(),
        _ => runs.get(runs.len() / 2).into_iter().collect(),
    };
    for run in sampled {
        let resp = http_call(
            addr,
            "GET",
            &format!("/v1/jobs/{}/result?view=deterministic", run.id),
            "",
        )
        .map_err(|e| GateError(format!("fetching the deterministic view: {e}")))?;
        if resp.status != 200 || resp.body != refs[run.job].det {
            return Err(GateError(format!(
                "job {}: served deterministic document differs from the in-process encoding",
                run.id
            )));
        }
    }

    Ok((setup_s, runs, failed))
}
