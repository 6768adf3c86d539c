//! Wire formats owned by the daemon: the checker-spec JSON codec, check
//! report documents, the submit envelope, and telemetry event framing.
//!
//! Campaign sweeps already have their codec in [`gecko_fleet::spec_io`];
//! this module adds the pieces the fleet crate cannot host (anything
//! touching `gecko_check` types) plus the HTTP-only envelopes. The same
//! rules apply: strict unknown-field rejection, path-carrying errors, and
//! encoding through [`Json::encode`], the workspace's one JSON writer, so
//! encode → decode → encode is byte-identical.

use gecko_check::{CheckReport, CheckSpec, ExploreConfig};
use gecko_fleet::json::Json;
use gecko_fleet::spec_io::{
    as_arr, as_bool, as_obj, as_str, as_u64, check_keys, failure_value, get, opt, type_err,
    DecodeError, SpecError,
};
use gecko_fleet::telemetry::Event;
use gecko_fleet::SchemeKind;
use gecko_sim::report::Record;

// ---------------------------------------------------------------------------
// Path-carrying accessors: spec_io's, plus the one width it lacks
// ---------------------------------------------------------------------------

fn as_u32(v: &Json, path: &str) -> Result<u32, DecodeError> {
    u32::try_from(as_u64(v, path)?)
        .map_err(|_| type_err(v, path, "an integer that fits in 32 bits"))
}

// ---------------------------------------------------------------------------
// CheckSpec codec
// ---------------------------------------------------------------------------

/// Encodes a checker spec as a JSON tree. Every field is written,
/// including defaulted ones, so the document is self-describing. Apps
/// encode by *name*: the wire format only reaches the bundled benchmark
/// registry, not arbitrary in-memory programs.
pub fn check_spec_value(spec: &CheckSpec) -> Json {
    let e = &spec.explore;
    Json::Obj(vec![
        ("name".into(), Json::Str(spec.name.clone())),
        (
            "apps".into(),
            Json::Arr(
                spec.apps
                    .iter()
                    .map(|a| Json::Str(a.name.to_string()))
                    .collect(),
            ),
        ),
        (
            "schemes".into(),
            Json::Arr(
                spec.schemes
                    .iter()
                    .map(|s| Json::Str(s.slug().to_string()))
                    .collect(),
            ),
        ),
        (
            "explore".into(),
            Json::Obj(vec![
                ("depth".into(), Json::U64(e.depth as u64)),
                (
                    "power_failure_windows".into(),
                    Json::Bool(e.power_failure_windows),
                ),
                ("emi_windows".into(), Json::Bool(e.emi_windows)),
                ("fault_windows".into(), Json::Bool(e.fault_windows)),
                ("refail_horizon".into(), Json::U64(e.refail_horizon)),
                ("memoize".into(), Json::Bool(e.memoize)),
                (
                    "max_windows".into(),
                    e.max_windows.map_or(Json::Null, Json::U64),
                ),
                ("seed".into(), Json::U64(e.seed)),
                ("fast_forward".into(), Json::Bool(e.fast_forward)),
            ]),
        ),
        (
            "compile".into(),
            Json::Obj(vec![
                (
                    "wcet_budget_cycles".into(),
                    spec.compile
                        .wcet_budget_cycles
                        .map_or(Json::Null, Json::U64),
                ),
                ("prune".into(), Json::Bool(spec.compile.prune)),
                (
                    "max_slice_insts".into(),
                    Json::U64(spec.compile.max_slice_insts as u64),
                ),
            ]),
        ),
        ("chunk_windows".into(), Json::U64(spec.chunk_windows)),
        ("shrink".into(), Json::Bool(spec.shrink)),
        ("shrink_budget".into(), Json::U64(spec.shrink_budget)),
    ])
}

/// [`check_spec_value`] rendered as a JSON string.
pub fn check_spec_to_json(spec: &CheckSpec) -> String {
    check_spec_value(spec).encode()
}

/// Decodes a checker spec from a JSON tree. Only `name` is required;
/// everything else defaults as in [`CheckSpec::new`]. App names resolve
/// through the bundled benchmark registry; schemes through
/// [`SchemeKind::from_name`].
pub fn check_spec_from_value(v: &Json, path: &str) -> Result<CheckSpec, DecodeError> {
    let sub = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    check_keys(
        v,
        path,
        &[
            "name",
            "apps",
            "schemes",
            "explore",
            "compile",
            "chunk_windows",
            "shrink",
            "shrink_budget",
        ],
    )?;
    let name = as_str(get(v, path, "name")?, &sub("name"))?;
    let mut spec = CheckSpec::new(name);

    if let Some(apps) = opt(v, "apps") {
        let apath = sub("apps");
        for (i, entry) in as_arr(apps, &apath)?.iter().enumerate() {
            let epath = format!("{apath}[{i}]");
            let app_name = as_str(entry, &epath)?;
            let app = gecko_apps::app_by_name(app_name).ok_or_else(|| {
                let known: Vec<&str> = gecko_apps::all_apps().iter().map(|a| a.name).collect();
                DecodeError::new(
                    &epath,
                    format!(
                        "unknown app `{app_name}` (known apps: {})",
                        known.join(", ")
                    ),
                )
            })?;
            spec.apps.push(app);
        }
    }
    if let Some(schemes) = opt(v, "schemes") {
        let spath = sub("schemes");
        for (i, entry) in as_arr(schemes, &spath)?.iter().enumerate() {
            let epath = format!("{spath}[{i}]");
            let slug = as_str(entry, &epath)?;
            let scheme = SchemeKind::from_name(slug).ok_or_else(|| {
                DecodeError::new(
                    &epath,
                    format!(
                        "unknown scheme `{slug}` (expected nvp, ratchet, gecko, gecko-no-prune)"
                    ),
                )
            })?;
            spec.schemes.push(scheme);
        }
    }
    if let Some(explore) = opt(v, "explore") {
        let epath = sub("explore");
        check_keys(
            explore,
            &epath,
            &[
                "depth",
                "power_failure_windows",
                "emi_windows",
                "fault_windows",
                "refail_horizon",
                "memoize",
                "max_windows",
                "seed",
                "fast_forward",
            ],
        )?;
        let mut e = ExploreConfig::default();
        if let Some(d) = opt(explore, "depth") {
            e.depth = as_u32(d, &format!("{epath}.depth"))?;
        }
        if let Some(p) = opt(explore, "power_failure_windows") {
            e.power_failure_windows = as_bool(p, &format!("{epath}.power_failure_windows"))?;
        }
        if let Some(w) = opt(explore, "emi_windows") {
            e.emi_windows = as_bool(w, &format!("{epath}.emi_windows"))?;
        }
        if let Some(w) = opt(explore, "fault_windows") {
            e.fault_windows = as_bool(w, &format!("{epath}.fault_windows"))?;
        }
        if let Some(h) = opt(explore, "refail_horizon") {
            e.refail_horizon = as_u64(h, &format!("{epath}.refail_horizon"))?;
        }
        if let Some(m) = opt(explore, "memoize") {
            e.memoize = as_bool(m, &format!("{epath}.memoize"))?;
        }
        // `max_windows: null` and an absent key both mean "every window";
        // opt() folds them together, matching the encoder's Null.
        if let Some(m) = opt(explore, "max_windows") {
            e.max_windows = Some(as_u64(m, &format!("{epath}.max_windows"))?);
        }
        if let Some(s) = opt(explore, "seed") {
            e.seed = as_u64(s, &format!("{epath}.seed"))?;
        }
        if let Some(f) = opt(explore, "fast_forward") {
            e.fast_forward = as_bool(f, &format!("{epath}.fast_forward"))?;
        }
        spec.explore = e;
    }
    if let Some(compile) = opt(v, "compile") {
        let cpath = sub("compile");
        check_keys(
            compile,
            &cpath,
            &["wcet_budget_cycles", "prune", "max_slice_insts"],
        )?;
        // An explicit `"wcet_budget_cycles": null` disables slicing, which
        // is different from omitting the key (keep the default budget) —
        // so this one field cannot go through opt().
        if let Some((_, budget)) = as_obj(compile, &cpath)?
            .iter()
            .find(|(k, _)| k == "wcet_budget_cycles")
        {
            spec.compile.wcet_budget_cycles = match budget {
                Json::Null => None,
                other => Some(as_u64(other, &format!("{cpath}.wcet_budget_cycles"))?),
            };
        }
        if let Some(p) = opt(compile, "prune") {
            spec.compile.prune = as_bool(p, &format!("{cpath}.prune"))?;
        }
        if let Some(m) = opt(compile, "max_slice_insts") {
            spec.compile.max_slice_insts = as_u64(m, &format!("{cpath}.max_slice_insts"))? as usize;
        }
    }
    if let Some(c) = opt(v, "chunk_windows") {
        let n = as_u64(c, &sub("chunk_windows"))?;
        if n == 0 {
            return Err(DecodeError::new(
                &sub("chunk_windows"),
                "must be at least 1",
            ));
        }
        spec.chunk_windows = n;
    }
    if let Some(s) = opt(v, "shrink") {
        spec.shrink = as_bool(s, &sub("shrink"))?;
    }
    if let Some(b) = opt(v, "shrink_budget") {
        spec.shrink_budget = as_u64(b, &sub("shrink_budget"))?;
    }
    Ok(spec)
}

/// Parses and decodes a checker spec from JSON text.
pub fn check_spec_from_json(text: &str) -> Result<CheckSpec, SpecError> {
    let doc = Json::parse(text)?;
    Ok(check_spec_from_value(&doc, "")?)
}

// ---------------------------------------------------------------------------
// CheckReport documents
// ---------------------------------------------------------------------------

fn check_report_value(report: &CheckReport, deterministic: bool) -> Json {
    let t = &report.totals;
    let mut fields = vec![
        ("check".into(), Json::Str(report.name.clone())),
        ("digest".into(), Json::U64(report.deterministic_digest())),
        ("clean".into(), Json::Bool(report.is_clean())),
    ];
    if !deterministic {
        let c = &report.counters;
        fields.push(("workers".into(), Json::U64(report.workers as u64)));
        fields.push(("halted".into(), Json::Bool(report.halted)));
        // Which persisted memo generation backs this verdict — a
        // proof-of-clean can cite it. Full doc only: the deterministic
        // document must be byte-identical cold and warm.
        fields.push((
            "memo_generation".into(),
            report.memo_generation.map_or(Json::Null, Json::U64),
        ));
        fields.push(("wall_s".into(), Json::F64(report.wall_s)));
        fields.push((
            "counters".into(),
            Json::Obj(vec![
                ("items".into(), Json::U64(c.items)),
                ("compile_misses".into(), Json::U64(c.compile_misses)),
                ("compile_hits".into(), Json::U64(c.compile_hits)),
                ("failures".into(), Json::U64(c.failures)),
                ("resumed".into(), Json::U64(c.resumed)),
                ("dropped_records".into(), Json::U64(c.dropped_records)),
                (
                    "journal_diagnostics".into(),
                    Json::U64(c.journal_diagnostics),
                ),
                ("memo_windows".into(), Json::U64(c.memo_windows)),
                ("reproved".into(), Json::U64(c.reproved)),
                ("reprove_drains".into(), Json::U64(c.reprove_drains)),
                ("reprove_joins".into(), Json::U64(c.reprove_joins)),
                ("drain_joins".into(), Json::U64(c.drain_joins)),
                ("sweep_joins".into(), Json::U64(c.sweep_joins)),
            ]),
        ));
    }
    fields.push((
        "totals".into(),
        Json::Obj(vec![
            ("windows".into(), Json::U64(t.windows)),
            ("forks".into(), Json::U64(t.forks)),
            ("explored".into(), Json::U64(t.explored)),
            ("memo_hits".into(), Json::U64(t.memo_hits)),
            ("steps".into(), Json::U64(t.steps)),
            ("violations".into(), Json::U64(t.violations)),
        ]),
    ));
    fields.push((
        "results".into(),
        Json::Arr(
            report
                .results
                .iter()
                .map(|pair| pair.to_row().to_object())
                .collect(),
        ),
    ));
    fields.push((
        "failures".into(),
        Json::Arr(report.failures.iter().map(failure_value).collect()),
    ));
    Json::Obj(fields)
}

/// Encodes a merged check report as JSON, wall-clock fields included.
pub fn check_report_to_json(report: &CheckReport) -> String {
    check_report_value(report, false).encode()
}

/// Encodes only the *deterministic* payload of a check report: name,
/// digest, verdict rows, totals, failures — no worker count, wall clock,
/// or cache/resume counters. Byte-identical across worker counts and
/// kill/resume sessions.
pub fn check_report_deterministic_json(report: &CheckReport) -> String {
    check_report_value(report, true).encode()
}

// ---------------------------------------------------------------------------
// Submit envelope
// ---------------------------------------------------------------------------

/// A parsed job submission: the raw spec document plus queue-level
/// options that are not part of the spec itself.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The spec document (campaign or check, decoded later by kind).
    pub spec: Json,
    /// Simulation workers for this job (`None` = daemon default).
    pub workers: Option<usize>,
    /// Stop the pool after journaling this many runs — the deterministic
    /// interruption hook the kill/restart/resume tests drive over HTTP.
    pub halt_after: Option<u64>,
    /// Check jobs only: attach the daemon's durable memo store for this
    /// spec, so a re-submission answers already-explored windows from
    /// disk (DESIGN.md §18). Results and digests are identical either
    /// way; this is purely a wall-clock knob.
    pub incremental: bool,
}

/// Parses a submission body. Two shapes are accepted:
///
/// * an envelope `{"spec": {...}, "workers": N, "halt_after": N,
///   "incremental": B}`, or
/// * a bare spec document (everything else) — the common curl case.
///
/// An envelope may still carry the retired `"batch": N` knob (N ≥ 1).
/// It is validated and ignored: every sweep runs per item (DESIGN.md §16).
pub fn parse_submission(text: &str) -> Result<Submission, SpecError> {
    let doc = Json::parse(text)?;
    if opt(&doc, "spec").is_none() {
        return Ok(Submission {
            spec: doc,
            workers: None,
            halt_after: None,
            incremental: false,
        });
    }
    check_keys(
        &doc,
        "",
        &["spec", "workers", "halt_after", "batch", "incremental"],
    )?;
    let spec = get(&doc, "", "spec")?.clone();
    let workers = opt(&doc, "workers")
        .map(|w| as_u64(w, "workers").map(|n| n as usize))
        .transpose()?;
    if workers == Some(0) {
        return Err(DecodeError::new("workers", "must be at least 1").into());
    }
    let halt_after = opt(&doc, "halt_after")
        .map(|h| as_u64(h, "halt_after"))
        .transpose()?;
    if let Some(batch) = opt(&doc, "batch") {
        if as_u64(batch, "batch")? == 0 {
            return Err(DecodeError::new("batch", "must be at least 1").into());
        }
    }
    let incremental = opt(&doc, "incremental")
        .map(|b| as_bool(b, "incremental"))
        .transpose()?
        .unwrap_or(false);
    Ok(Submission {
        spec,
        workers,
        halt_after,
        incremental,
    })
}

// ---------------------------------------------------------------------------
// Telemetry event framing
// ---------------------------------------------------------------------------

/// Renders one telemetry event as the streaming wire object: a `seq`
/// number first (so clients can resume `?from=` after a dropped poll),
/// then the event's own fields via its [`Record`] projection.
pub fn event_value(seq: u64, event: &Event) -> Json {
    let mut fields = vec![("seq".to_string(), Json::U64(seq))];
    fields.extend(
        event
            .fields()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value)),
    );
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_sim::report::Value;

    fn fancy_check_spec() -> CheckSpec {
        CheckSpec::new("serve-check")
            .app_names(&["blink", "crc16"])
            .unwrap()
            .schemes([SchemeKind::Gecko, SchemeKind::Nvp])
            .explore(
                ExploreConfig::default()
                    .with_depth(2)
                    .with_max_windows(64)
                    .with_fault_windows(true),
            )
            .chunk_windows(32)
    }

    #[test]
    fn check_spec_round_trips_typed_and_textually() {
        let spec = fancy_check_spec();
        let text = check_spec_to_json(&spec);
        let back = check_spec_from_json(&text).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(
            back.apps.iter().map(|a| a.name).collect::<Vec<_>>(),
            spec.apps.iter().map(|a| a.name).collect::<Vec<_>>()
        );
        assert_eq!(back.schemes, spec.schemes);
        assert_eq!(back.explore, spec.explore);
        assert_eq!(back.chunk_windows, spec.chunk_windows);
        assert_eq!(back.shrink, spec.shrink);
        assert_eq!(back.shrink_budget, spec.shrink_budget);
        // Textual fixpoint: re-encoding the decoded spec is byte-identical.
        assert_eq!(check_spec_to_json(&back), text);
    }

    #[test]
    fn minimal_check_spec_uses_defaults() {
        let spec = check_spec_from_json(r#"{"name":"tiny"}"#).unwrap();
        let fresh = CheckSpec::new("tiny");
        assert_eq!(spec.explore, fresh.explore);
        assert_eq!(spec.chunk_windows, fresh.chunk_windows);
        assert_eq!(spec.shrink, fresh.shrink);
        assert!(spec.apps.is_empty());
    }

    #[test]
    fn check_decode_errors_carry_paths() {
        let e = check_spec_from_json(r#"{"name":"x","apps":["blnk"]}"#).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("apps[0]"), "{msg}");
        assert!(msg.contains("blnk"), "{msg}");
        assert!(msg.contains("blink"), "known-app listing missing: {msg}");

        let e = check_spec_from_json(r#"{"name":"x","schemes":["geko"]}"#).unwrap_err();
        assert!(e.to_string().contains("schemes[0]"), "{e}");

        let e = check_spec_from_json(r#"{"name":"x","explore":{"depht":2}}"#).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("depht"), "{msg}");
        assert!(
            msg.contains("refail_horizon"),
            "accepted-keys listing: {msg}"
        );

        let e = check_spec_from_json(r#"{"name":"x","chunk_windows":0}"#).unwrap_err();
        assert!(e.to_string().contains("at least 1"), "{e}");
    }

    #[test]
    fn submission_envelope_and_bare_spec_both_parse() {
        let bare = parse_submission(r#"{"name":"sweep"}"#).unwrap();
        assert_eq!(bare.spec.get("name").and_then(Json::as_str), Some("sweep"));
        assert_eq!(bare.workers, None);
        assert_eq!(bare.halt_after, None);
        assert!(!bare.incremental);

        let env = parse_submission(
            r#"{"spec":{"name":"sweep"},"workers":4,"halt_after":2,"batch":64,"incremental":true}"#,
        )
        .unwrap();
        assert_eq!(env.spec.get("name").and_then(Json::as_str), Some("sweep"));
        assert_eq!(env.workers, Some(4));
        assert_eq!(env.halt_after, Some(2));
        assert!(env.incremental);
        // The retired `batch` knob is accepted and ignored: the envelope
        // parses to the same submission as one without it.
        let plain = parse_submission(
            r#"{"spec":{"name":"sweep"},"workers":4,"halt_after":2,"incremental":true}"#,
        )
        .unwrap();
        assert_eq!(format!("{env:?}"), format!("{plain:?}"));

        let e = parse_submission(r#"{"spec":{"name":"s"},"wrokers":4}"#).unwrap_err();
        assert!(e.to_string().contains("wrokers"), "{e}");
        let e = parse_submission(r#"{"spec":{"name":"s"},"workers":0}"#).unwrap_err();
        assert!(e.to_string().contains("at least 1"), "{e}");
        let e = parse_submission(r#"{"spec":{"name":"s"},"batch":0}"#).unwrap_err();
        assert!(e.to_string().contains("at least 1"), "{e}");
        let e = parse_submission(r#"{"spec":{"name":"s"},"batch":"4"}"#).unwrap_err();
        assert!(e.to_string().contains("batch"), "{e}");
    }

    #[test]
    fn event_framing_prepends_seq() {
        let event = Event {
            kind: "item_finished",
            fields: vec![("item", Value::U64(3)), ("wall_ns", Value::U64(125))],
        };
        let doc = event_value(7, &event);
        assert_eq!(
            doc.encode(),
            r#"{"seq":7,"event":"item_finished","item":3,"wall_ns":125}"#
        );
    }
}
