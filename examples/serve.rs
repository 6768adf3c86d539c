//! `gecko-serve` quickstart: boot the campaign-service daemon in-process
//! and drive a sweep over HTTP — the curl transcript from the README,
//! self-contained.
//!
//! Default mode boots on an ephemeral port, submits a small Figure-4
//! DPI-attack sweep, streams telemetry events while polling status, then
//! fetches the merged result and proves it is *byte-identical* to the
//! same spec run in-process through the library — the daemon adds
//! transport, not semantics.
//!
//! `--smoke` runs the same flow quietly and exits non-zero on any
//! mismatch; `scripts/check.sh` uses it as the serve smoke gate. Both
//! modes also check the finished job's on-disk layout: its directory
//! holds only `journal/`, one segmented log ending on the `result` line.
//!
//! ```sh
//! cargo run --release --example serve
//! cargo run --release --example serve -- --smoke
//! ```

use gecko_suite::fleet::{report_deterministic_json, spec_to_json, Campaign, Json};
use gecko_suite::serve::{http_call, ServeConfig, Server};
use gecko_suite::store::{LogConfig, SegmentedLog};

fn spec() -> gecko_suite::fleet::CampaignSpec {
    use gecko_suite::emi::attack::DpiPoint;
    use gecko_suite::emi::{AttackSchedule, EmiSignal, Injection, MonitorKind};
    use gecko_suite::fleet::{AttackCase, CampaignSpec, DeviceCase, SchemeKind, Workload};

    let mut attacks = vec![AttackCase::none()];
    for (label, point) in [("P1", DpiPoint::P1), ("P2", DpiPoint::P2)] {
        attacks.push(AttackCase::new(
            format!("{label}@27MHz"),
            AttackSchedule::continuous(EmiSignal::new(27e6, 20.0), Injection::Dpi(point)),
        ));
    }
    CampaignSpec::new("fig4-smoke")
        .apps([gecko_suite::sim::experiments::VICTIM_APP])
        .schemes([SchemeKind::Nvp])
        .devices(
            gecko_suite::emi::devices::all_devices()
                .into_iter()
                .take(2)
                .map(|d| DeviceCase::new(d, MonitorKind::Adc)),
        )
        .attacks(attacks)
        .workload(Workload::RunFor { seconds: 0.004 })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chat = |line: &str| {
        if !smoke {
            println!("{line}");
        }
    };

    // Reference: the library path, no daemon involved.
    let spec = spec();
    let reference = Campaign::new(spec.clone())
        .workers(2)
        .run()
        .expect("in-process campaign");
    let reference_doc = report_deterministic_json(&reference);

    // Boot the daemon on an ephemeral port with a throwaway data dir.
    let data = std::env::temp_dir().join(format!("gecko-serve-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    let cfg = ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        journal_root: data.clone(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon boots");
    let addr = server.addr().to_string();
    chat(&format!("gecko-serve listening on {addr}\n"));

    // POST /v1/campaigns — submit the sweep.
    let body = spec_to_json(&spec);
    chat(&format!(
        "$ curl -X POST http://{addr}/v1/campaigns -d @fig4.json"
    ));
    let resp = http_call(&addr, "POST", "/v1/campaigns", &body).expect("submit");
    assert_eq!(resp.status, 201, "submit failed: {}", resp.body);
    chat(&format!("{}\n", resp.body));
    let id = field_u64(&resp.body, "\"id\":").expect("job id in status doc");

    // GET /v1/jobs/<id>/events — stream telemetry while the job runs.
    let mut from = 0u64;
    let mut events_seen = 0u64;
    loop {
        let resp = http_call(
            &addr,
            "GET",
            &format!("/v1/jobs/{id}/events?from={from}&wait_ms=2000"),
            "",
        )
        .expect("events");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let closed = resp.body.contains("\"closed\":true");
        let next = field_u64(&resp.body, "\"next\":").unwrap_or(from);
        events_seen += next - from;
        from = next;
        if closed {
            break;
        }
    }
    chat(&format!(
        "$ curl http://{addr}/v1/jobs/{id}/events?from=0   # long-poll\n\
         ... streamed {events_seen} telemetry events to end-of-job\n"
    ));

    // GET /v1/jobs/<id> — the job must now be done.
    let resp = http_call(&addr, "GET", &format!("/v1/jobs/{id}?wait_ms=2000"), "").expect("status");
    chat(&format!("$ curl http://{addr}/v1/jobs/{id}"));
    chat(&format!("{}\n", resp.body));
    assert!(
        resp.body.contains("\"state\":\"done\""),
        "job did not finish: {}",
        resp.body
    );

    // GET /v1/jobs/<id>/result?view=deterministic — byte-compare against
    // the library run.
    let resp = http_call(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    )
    .expect("result");
    assert_eq!(resp.status, 200);
    chat(&format!(
        "$ curl http://{addr}/v1/jobs/{id}/result?view=deterministic\n\
         ... {} bytes\n",
        resp.body.len()
    ));
    assert_eq!(
        resp.body, reference_doc,
        "served result differs from the in-process run"
    );

    server.shutdown();

    // One log per job: the finished job's directory holds only its
    // segmented `journal/`, and the log ends on the `result` line.
    let job_dir = data.join(format!("job-{id}"));
    let names = |dir: &std::path::Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("job directory")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names(&job_dir), ["journal"], "job directory layout");
    let journal = job_dir.join("journal");
    assert!(
        names(&journal)
            .iter()
            .all(|n| n.starts_with("seg-") && n.ends_with(".jsonl")),
        "job log holds only segments"
    );
    let log = SegmentedLog::open(&journal, LogConfig::default()).expect("job log opens");
    let last = log.last_line().and_then(|line| Json::parse_flat(&line));
    assert_eq!(
        last.as_ref()
            .and_then(|rec| rec.get("job"))
            .and_then(Json::as_str),
        Some("result"),
        "the job log ends on its result line"
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&data);
    println!(
        "serve {}: served result is byte-identical to the in-process run \
         ({} bytes, digest {:016x})",
        if smoke { "smoke" } else { "quickstart" },
        reference_doc.len(),
        reference.deterministic_digest()
    );
}

/// Pulls the first `"key":123` integer out of a JSON document — enough
/// for a transcript-style client (real clients use `fleet::Json`).
fn field_u64(doc: &str, marker: &str) -> Option<u64> {
    let at = doc.find(marker)? + marker.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
