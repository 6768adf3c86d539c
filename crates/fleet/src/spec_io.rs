//! Wire formats for campaigns: typed JSON (de)serialization of
//! [`CampaignSpec`] and JSON rendering of merged [`CampaignReport`]s.
//!
//! This is the fleet's public submit/observe seam. A network client (or a
//! config file) describes a campaign as a nested JSON document; the
//! decoder here turns it into the same typed [`CampaignSpec`] the library
//! path uses — so a served sweep and an in-process sweep run literally
//! the same code and merge to the same
//! [`deterministic_digest`](CampaignReport::deterministic_digest).
//!
//! Decoding is strict and *actionable*: every error carries the JSON path
//! of the offending node (`attacks[2].windows[0].freq_hz: expected a
//! positive frequency, got -1.0`), unknown fields are rejected with the
//! accepted spelling list, and enums (schemes, devices, monitors,
//! injections) resolve through the same registries the rest of the
//! workspace uses ([`SchemeKind::from_name`],
//! [`gecko_emi::devices::device_by_name`]).
//!
//! Encoding goes through [`Json::encode`], the workspace's one JSON
//! writer, so `spec_from_json(spec_to_json(s)) == s` and re-encoding a parsed
//! document reproduces it byte-for-byte (the round-trip property suite
//! pins this down).

use std::fmt;

use gecko_emi::devices::device_by_name;
use gecko_emi::fault::{FaultModel, FaultSchedule, TimedFault};
use gecko_emi::{AttackSchedule, EmiSignal, Injection, MonitorKind, TimedAttack};
use gecko_sim::report::Record;

use crate::campaign::{
    AttackCase, CampaignReport, CampaignSpec, CapacitorSpec, DeviceCase, FaultCase, RunResult,
    Supply, Workload,
};
use crate::json::{Json, ParseError};
use crate::supervisor::RunFailure;
use crate::SchemeKind;

/// A typed decoding failure: the JSON path of the offending node and what
/// was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted/indexed path of the node (`attacks[0].windows[1].end_s`).
    pub path: String,
    /// What was expected there.
    pub message: String,
}

impl DecodeError {
    fn new(path: &str, message: impl Into<String>) -> DecodeError {
        DecodeError {
            path: path.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a JSON campaign spec was rejected: it was not JSON at all, or it
/// was JSON of the wrong shape.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Lexical/syntactic failure, with byte offset.
    Parse(ParseError),
    /// Shape/typing failure, with JSON path.
    Decode(DecodeError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Decode(e) => write!(f, "invalid campaign spec: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> SpecError {
        SpecError::Parse(e)
    }
}

impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> SpecError {
        SpecError::Decode(e)
    }
}

// ---------------------------------------------------------------------------
// Typed accessors (path-carrying)
// ---------------------------------------------------------------------------

fn type_err(v: &Json, path: &str, wanted: &str) -> DecodeError {
    DecodeError::new(path, format!("expected {wanted}, got {}", v.kind_name()))
}

fn as_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, DecodeError> {
    v.as_str().ok_or_else(|| type_err(v, path, "a string"))
}

fn as_f64(v: &Json, path: &str) -> Result<f64, DecodeError> {
    v.as_f64().ok_or_else(|| type_err(v, path, "a number"))
}

fn as_u64(v: &Json, path: &str) -> Result<u64, DecodeError> {
    v.as_u64()
        .ok_or_else(|| type_err(v, path, "a non-negative integer"))
}

fn as_usize(v: &Json, path: &str) -> Result<usize, DecodeError> {
    Ok(as_u64(v, path)? as usize)
}

fn as_bool(v: &Json, path: &str) -> Result<bool, DecodeError> {
    v.as_bool().ok_or_else(|| type_err(v, path, "a boolean"))
}

fn as_arr<'a>(v: &'a Json, path: &str) -> Result<&'a [Json], DecodeError> {
    v.as_arr().ok_or_else(|| type_err(v, path, "an array"))
}

fn as_obj<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], DecodeError> {
    v.as_obj().ok_or_else(|| type_err(v, path, "an object"))
}

/// Required-field lookup.
fn get<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a Json, DecodeError> {
    as_obj(v, path)?;
    v.get(key)
        .ok_or_else(|| DecodeError::new(path, format!("missing required field `{key}`")))
}

/// Optional-field lookup; an explicit `null` reads as absent.
fn opt<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v.get(key) {
        Some(Json::Null) | None => None,
        Some(found) => Some(found),
    }
}

/// Rejects fields outside `allowed` — typos come back as errors naming
/// the accepted spellings, not as silently ignored keys.
fn check_keys(v: &Json, path: &str, allowed: &[&str]) -> Result<(), DecodeError> {
    for (key, _) in as_obj(v, path)? {
        if !allowed.contains(&key.as_str()) {
            return Err(DecodeError::new(
                path,
                format!(
                    "unknown field `{key}` (expected one of: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CampaignSpec encode
// ---------------------------------------------------------------------------

fn monitor_name(kind: MonitorKind) -> &'static str {
    match kind {
        MonitorKind::Adc => "adc",
        MonitorKind::Comparator => "comparator",
    }
}

fn injection_value(injection: Injection) -> Json {
    use gecko_emi::attack::DpiPoint;
    match injection {
        Injection::Dpi(DpiPoint::P1) => {
            Json::Obj(vec![("kind".into(), Json::Str("dpi_p1".into()))])
        }
        Injection::Dpi(DpiPoint::P2) => {
            Json::Obj(vec![("kind".into(), Json::Str("dpi_p2".into()))])
        }
        Injection::Remote { distance_m } => Json::Obj(vec![
            ("kind".into(), Json::Str("remote".into())),
            ("distance_m".into(), Json::F64(distance_m)),
        ]),
    }
}

fn fault_model_value(model: FaultModel) -> Json {
    let mut fields = vec![("kind".into(), Json::Str(model.name().into()))];
    if let FaultModel::OperandBitflip { bit } = model {
        fields.push(("bit".into(), Json::U64(bit as u64)));
    }
    Json::Obj(fields)
}

fn fault_window_value(w: &TimedFault) -> Json {
    Json::Obj(vec![
        ("start_s".into(), Json::F64(w.start_s)),
        (
            "end_s".into(),
            if w.end_s.is_finite() {
                Json::F64(w.end_s)
            } else {
                Json::Null
            },
        ),
        ("freq_hz".into(), Json::F64(w.signal.freq_hz)),
        ("power_dbm".into(), Json::F64(w.signal.power_dbm)),
        ("injection".into(), injection_value(w.injection)),
        ("model".into(), fault_model_value(w.model)),
    ])
}

fn window_value(w: &TimedAttack) -> Json {
    Json::Obj(vec![
        ("start_s".into(), Json::F64(w.start_s)),
        // A window open forever (`continuous`) encodes as null, since
        // JSON has no infinity literal.
        (
            "end_s".into(),
            if w.end_s.is_finite() {
                Json::F64(w.end_s)
            } else {
                Json::Null
            },
        ),
        ("freq_hz".into(), Json::F64(w.signal.freq_hz)),
        ("power_dbm".into(), Json::F64(w.signal.power_dbm)),
        ("injection".into(), injection_value(w.injection)),
    ])
}

/// Encodes a spec as a JSON tree. Every field is written, including the
/// defaulted ones, so the document is self-describing.
pub fn spec_value(spec: &CampaignSpec) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(spec.name.clone())),
        (
            "apps".into(),
            Json::Arr(spec.apps.iter().map(|a| Json::Str(a.clone())).collect()),
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
            "devices".into(),
            Json::Arr(
                spec.devices
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("device".into(), Json::Str(d.device.name().to_string())),
                            ("monitor".into(), Json::Str(monitor_name(d.monitor).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "attacks".into(),
            Json::Arr(
                spec.attacks
                    .iter()
                    .map(|a| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(a.label.clone())),
                            (
                                "windows".into(),
                                Json::Arr(a.schedule.windows().iter().map(window_value).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "faults".into(),
            Json::Arr(
                spec.faults
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(f.label.clone())),
                            (
                                "windows".into(),
                                Json::Arr(
                                    f.schedule
                                        .windows()
                                        .iter()
                                        .map(fault_window_value)
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "seeds".into(),
            Json::Arr(spec.seeds.iter().map(|&s| Json::U64(s)).collect()),
        ),
        (
            "supply".into(),
            match spec.supply {
                Supply::Bench => Json::Obj(vec![("kind".into(), Json::Str("bench".into()))]),
                Supply::Harvesting { power_w } => Json::Obj(vec![
                    ("kind".into(), Json::Str("harvesting".into())),
                    ("power_w".into(), Json::F64(power_w)),
                ]),
                Supply::Starved {
                    power_w,
                    period_s,
                    starve_s,
                    attenuation,
                } => Json::Obj(vec![
                    ("kind".into(), Json::Str("starved".into())),
                    ("power_w".into(), Json::F64(power_w)),
                    ("period_s".into(), Json::F64(period_s)),
                    ("starve_s".into(), Json::F64(starve_s)),
                    ("attenuation".into(), Json::F64(attenuation)),
                ]),
            },
        ),
        (
            "capacitor".into(),
            match spec.capacitor {
                None => Json::Null,
                Some(cap) => Json::Obj(vec![
                    ("capacitance_f".into(), Json::F64(cap.capacitance_f)),
                    ("initial_voltage_v".into(), Json::F64(cap.initial_voltage_v)),
                    (
                        "rescale_thresholds".into(),
                        Json::Bool(cap.rescale_thresholds),
                    ),
                ]),
            },
        ),
        (
            "adc_filter_taps".into(),
            spec.adc_filter_taps
                .map_or(Json::Null, |t| Json::U64(t as u64)),
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
        (
            "workload".into(),
            match spec.workload {
                Workload::RunFor { seconds } => Json::Obj(vec![
                    ("kind".into(), Json::Str("run_for".into())),
                    ("seconds".into(), Json::F64(seconds)),
                ]),
                Workload::UntilCompletions { n, max_seconds } => Json::Obj(vec![
                    ("kind".into(), Json::Str("until_completions".into())),
                    ("n".into(), Json::U64(n)),
                    ("max_seconds".into(), Json::F64(max_seconds)),
                ]),
                Workload::Buckets {
                    horizon_s,
                    bucket_s,
                } => Json::Obj(vec![
                    ("kind".into(), Json::Str("buckets".into())),
                    ("horizon_s".into(), Json::F64(horizon_s)),
                    ("bucket_s".into(), Json::F64(bucket_s)),
                ]),
            },
        ),
    ])
}

/// Encodes a spec as a compact JSON string.
pub fn spec_to_json(spec: &CampaignSpec) -> String {
    spec_value(spec).encode()
}

// ---------------------------------------------------------------------------
// CampaignSpec decode
// ---------------------------------------------------------------------------

fn decode_injection(v: &Json, path: &str) -> Result<Injection, DecodeError> {
    use gecko_emi::attack::DpiPoint;
    check_keys(v, path, &["kind", "distance_m"])?;
    let kind = as_str(get(v, path, "kind")?, &format!("{path}.kind"))?;
    match kind {
        "dpi_p1" => Ok(Injection::Dpi(DpiPoint::P1)),
        "dpi_p2" => Ok(Injection::Dpi(DpiPoint::P2)),
        "remote" => {
            let dpath = format!("{path}.distance_m");
            let distance_m = as_f64(get(v, path, "distance_m")?, &dpath)?;
            if !(distance_m.is_finite() && distance_m >= 0.0) {
                return Err(DecodeError::new(&dpath, "expected a non-negative distance"));
            }
            Ok(Injection::Remote { distance_m })
        }
        other => Err(DecodeError::new(
            &format!("{path}.kind"),
            format!("unknown injection kind {other:?} (expected dpi_p1, dpi_p2, or remote)"),
        )),
    }
}

fn decode_window(v: &Json, path: &str) -> Result<TimedAttack, DecodeError> {
    check_keys(
        v,
        path,
        &["start_s", "end_s", "freq_hz", "power_dbm", "injection"],
    )?;
    let start_s = as_f64(get(v, path, "start_s")?, &format!("{path}.start_s"))?;
    let end_s = match opt(v, "end_s") {
        None => f64::INFINITY,
        Some(e) => as_f64(e, &format!("{path}.end_s"))?,
    };
    let fpath = format!("{path}.freq_hz");
    let freq_hz = as_f64(get(v, path, "freq_hz")?, &fpath)?;
    if !(freq_hz.is_finite() && freq_hz > 0.0) {
        return Err(DecodeError::new(
            &fpath,
            format!("expected a positive frequency, got {freq_hz}"),
        ));
    }
    let power_dbm = as_f64(get(v, path, "power_dbm")?, &format!("{path}.power_dbm"))?;
    let injection = decode_injection(get(v, path, "injection")?, &format!("{path}.injection"))?;
    Ok(TimedAttack {
        start_s,
        end_s,
        signal: EmiSignal::new(freq_hz, power_dbm),
        injection,
    })
}

fn decode_attack(v: &Json, path: &str) -> Result<AttackCase, DecodeError> {
    check_keys(v, path, &["label", "windows"])?;
    let label = as_str(get(v, path, "label")?, &format!("{path}.label"))?.to_string();
    let mut windows = Vec::new();
    if let Some(list) = opt(v, "windows") {
        for (i, w) in as_arr(list, &format!("{path}.windows"))?.iter().enumerate() {
            windows.push(decode_window(w, &format!("{path}.windows[{i}]"))?);
        }
    }
    Ok(AttackCase {
        label,
        schedule: AttackSchedule::from_windows(windows),
    })
}

fn decode_fault_model(v: &Json, path: &str) -> Result<FaultModel, DecodeError> {
    check_keys(v, path, &["kind", "bit"])?;
    match as_str(get(v, path, "kind")?, &format!("{path}.kind"))? {
        "skip" => Ok(FaultModel::Skip),
        "opcode-corrupt" => Ok(FaultModel::OpcodeCorrupt),
        "operand-bitflip" => {
            let bpath = format!("{path}.bit");
            let bit = as_u64(get(v, path, "bit")?, &bpath)?;
            if bit >= 32 {
                return Err(DecodeError::new(&bpath, "expected a bit index in 0..32"));
            }
            Ok(FaultModel::OperandBitflip { bit: bit as u8 })
        }
        other => Err(DecodeError::new(
            &format!("{path}.kind"),
            format!(
                "unknown fault model {other:?} (expected skip, opcode-corrupt, or operand-bitflip)"
            ),
        )),
    }
}

fn decode_fault_window(v: &Json, path: &str) -> Result<TimedFault, DecodeError> {
    check_keys(
        v,
        path,
        &[
            "start_s",
            "end_s",
            "freq_hz",
            "power_dbm",
            "injection",
            "model",
        ],
    )?;
    let start_s = as_f64(get(v, path, "start_s")?, &format!("{path}.start_s"))?;
    let end_s = match opt(v, "end_s") {
        None => f64::INFINITY,
        Some(e) => as_f64(e, &format!("{path}.end_s"))?,
    };
    let fpath = format!("{path}.freq_hz");
    let freq_hz = as_f64(get(v, path, "freq_hz")?, &fpath)?;
    if !(freq_hz.is_finite() && freq_hz > 0.0) {
        return Err(DecodeError::new(
            &fpath,
            format!("expected a positive frequency, got {freq_hz}"),
        ));
    }
    let power_dbm = as_f64(get(v, path, "power_dbm")?, &format!("{path}.power_dbm"))?;
    let injection = decode_injection(get(v, path, "injection")?, &format!("{path}.injection"))?;
    let model = decode_fault_model(get(v, path, "model")?, &format!("{path}.model"))?;
    Ok(TimedFault {
        start_s,
        end_s,
        signal: EmiSignal::new(freq_hz, power_dbm),
        injection,
        model,
    })
}

fn decode_fault(v: &Json, path: &str) -> Result<FaultCase, DecodeError> {
    check_keys(v, path, &["label", "windows"])?;
    let label = as_str(get(v, path, "label")?, &format!("{path}.label"))?.to_string();
    let mut windows = Vec::new();
    if let Some(list) = opt(v, "windows") {
        for (i, w) in as_arr(list, &format!("{path}.windows"))?.iter().enumerate() {
            windows.push(decode_fault_window(w, &format!("{path}.windows[{i}]"))?);
        }
    }
    Ok(FaultCase {
        label,
        schedule: FaultSchedule::from_windows(windows),
    })
}

fn decode_device(v: &Json, path: &str) -> Result<DeviceCase, DecodeError> {
    check_keys(v, path, &["device", "monitor"])?;
    let dpath = format!("{path}.device");
    let name = as_str(get(v, path, "device")?, &dpath)?;
    let device = device_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = gecko_emi::devices::all_devices()
            .iter()
            .map(|d| d.name())
            .collect();
        DecodeError::new(
            &dpath,
            format!(
                "unknown device {name:?} (known boards: {})",
                known.join(", ")
            ),
        )
    })?;
    let monitor = match opt(v, "monitor") {
        None => MonitorKind::Adc,
        Some(m) => {
            let mpath = format!("{path}.monitor");
            match as_str(m, &mpath)? {
                "adc" => MonitorKind::Adc,
                "comparator" => MonitorKind::Comparator,
                other => {
                    return Err(DecodeError::new(
                        &mpath,
                        format!("unknown monitor {other:?} (expected adc or comparator)"),
                    ))
                }
            }
        }
    };
    Ok(DeviceCase { device, monitor })
}

fn decode_supply(v: &Json, path: &str) -> Result<Supply, DecodeError> {
    check_keys(
        v,
        path,
        &["kind", "power_w", "period_s", "starve_s", "attenuation"],
    )?;
    let positive_power = |key: &str| -> Result<f64, DecodeError> {
        let ppath = format!("{path}.{key}");
        let power_w = as_f64(get(v, path, key)?, &ppath)?;
        if !(power_w.is_finite() && power_w > 0.0) {
            return Err(DecodeError::new(
                &ppath,
                "expected positive harvested power",
            ));
        }
        Ok(power_w)
    };
    match as_str(get(v, path, "kind")?, &format!("{path}.kind"))? {
        "bench" => Ok(Supply::Bench),
        "harvesting" => Ok(Supply::Harvesting {
            power_w: positive_power("power_w")?,
        }),
        "starved" => {
            let power_w = positive_power("power_w")?;
            let ppath = format!("{path}.period_s");
            let period_s = as_f64(get(v, path, "period_s")?, &ppath)?;
            if !(period_s.is_finite() && period_s > 0.0) {
                return Err(DecodeError::new(
                    &ppath,
                    "expected a positive attack period",
                ));
            }
            let spath = format!("{path}.starve_s");
            let starve_s = as_f64(get(v, path, "starve_s")?, &spath)?;
            if !(starve_s.is_finite() && (0.0..=period_s).contains(&starve_s)) {
                return Err(DecodeError::new(
                    &spath,
                    "expected a starvation window within [0, period_s]",
                ));
            }
            let apath = format!("{path}.attenuation");
            let attenuation = as_f64(get(v, path, "attenuation")?, &apath)?;
            if !(attenuation.is_finite() && (0.0..=1.0).contains(&attenuation)) {
                return Err(DecodeError::new(
                    &apath,
                    "expected an attenuation fraction in [0, 1]",
                ));
            }
            Ok(Supply::Starved {
                power_w,
                period_s,
                starve_s,
                attenuation,
            })
        }
        other => Err(DecodeError::new(
            &format!("{path}.kind"),
            format!("unknown supply kind {other:?} (expected bench, harvesting, or starved)"),
        )),
    }
}

fn decode_workload(v: &Json, path: &str) -> Result<Workload, DecodeError> {
    check_keys(
        v,
        path,
        &[
            "kind",
            "seconds",
            "n",
            "max_seconds",
            "horizon_s",
            "bucket_s",
        ],
    )?;
    let positive = |key: &str| -> Result<f64, DecodeError> {
        let fpath = format!("{path}.{key}");
        let x = as_f64(get(v, path, key)?, &fpath)?;
        if !(x.is_finite() && x > 0.0) {
            return Err(DecodeError::new(&fpath, "expected a positive duration"));
        }
        Ok(x)
    };
    match as_str(get(v, path, "kind")?, &format!("{path}.kind"))? {
        "run_for" => Ok(Workload::RunFor {
            seconds: positive("seconds")?,
        }),
        "until_completions" => Ok(Workload::UntilCompletions {
            n: as_u64(get(v, path, "n")?, &format!("{path}.n"))?,
            max_seconds: positive("max_seconds")?,
        }),
        "buckets" => Ok(Workload::Buckets {
            horizon_s: positive("horizon_s")?,
            bucket_s: positive("bucket_s")?,
        }),
        other => Err(DecodeError::new(
            &format!("{path}.kind"),
            format!(
                "unknown workload kind {other:?} (expected run_for, until_completions, or buckets)"
            ),
        )),
    }
}

/// Decodes a campaign spec from a parsed JSON tree. Only `name` is
/// required; absent axes keep the [`CampaignSpec::new`] defaults.
pub fn spec_from_value(v: &Json, path: &str) -> Result<CampaignSpec, DecodeError> {
    check_keys(
        v,
        path,
        &[
            "name",
            "apps",
            "schemes",
            "devices",
            "attacks",
            "faults",
            "seeds",
            "supply",
            "capacitor",
            "adc_filter_taps",
            "compile",
            "workload",
        ],
    )?;
    let sub = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    let name = as_str(get(v, path, "name")?, &sub("name"))?;
    if name.is_empty() {
        return Err(DecodeError::new(&sub("name"), "campaign name is empty"));
    }
    let mut spec = CampaignSpec::new(name);

    if let Some(list) = opt(v, "apps") {
        spec.apps = as_arr(list, &sub("apps"))?
            .iter()
            .enumerate()
            .map(|(i, a)| Ok(as_str(a, &format!("{}[{i}]", sub("apps")))?.to_string()))
            .collect::<Result<_, DecodeError>>()?;
    }
    if let Some(list) = opt(v, "schemes") {
        spec.schemes = as_arr(list, &sub("schemes"))?
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let spath = format!("{}[{i}]", sub("schemes"));
                let name = as_str(s, &spath)?;
                SchemeKind::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = SchemeKind::all().iter().map(|s| s.slug()).collect();
                    DecodeError::new(
                        &spath,
                        format!(
                            "unknown scheme {name:?} (expected one of: {})",
                            known.join(", ")
                        ),
                    )
                })
            })
            .collect::<Result<_, DecodeError>>()?;
    }
    if let Some(list) = opt(v, "devices") {
        spec.devices = as_arr(list, &sub("devices"))?
            .iter()
            .enumerate()
            .map(|(i, d)| decode_device(d, &format!("{}[{i}]", sub("devices"))))
            .collect::<Result<_, DecodeError>>()?;
    }
    if let Some(list) = opt(v, "attacks") {
        spec.attacks = as_arr(list, &sub("attacks"))?
            .iter()
            .enumerate()
            .map(|(i, a)| decode_attack(a, &format!("{}[{i}]", sub("attacks"))))
            .collect::<Result<_, DecodeError>>()?;
    }
    if let Some(list) = opt(v, "faults") {
        spec.faults = as_arr(list, &sub("faults"))?
            .iter()
            .enumerate()
            .map(|(i, f)| decode_fault(f, &format!("{}[{i}]", sub("faults"))))
            .collect::<Result<_, DecodeError>>()?;
    }
    if let Some(list) = opt(v, "seeds") {
        spec.seeds = as_arr(list, &sub("seeds"))?
            .iter()
            .enumerate()
            .map(|(i, s)| as_u64(s, &format!("{}[{i}]", sub("seeds"))))
            .collect::<Result<_, DecodeError>>()?;
    }
    if let Some(supply) = opt(v, "supply") {
        spec.supply = decode_supply(supply, &sub("supply"))?;
    }
    if let Some(cap) = opt(v, "capacitor") {
        let cpath = sub("capacitor");
        check_keys(
            cap,
            &cpath,
            &["capacitance_f", "initial_voltage_v", "rescale_thresholds"],
        )?;
        spec.capacitor = Some(CapacitorSpec {
            capacitance_f: as_f64(
                get(cap, &cpath, "capacitance_f")?,
                &format!("{cpath}.capacitance_f"),
            )?,
            initial_voltage_v: as_f64(
                get(cap, &cpath, "initial_voltage_v")?,
                &format!("{cpath}.initial_voltage_v"),
            )?,
            rescale_thresholds: match opt(cap, "rescale_thresholds") {
                None => false,
                Some(b) => as_bool(b, &format!("{cpath}.rescale_thresholds"))?,
            },
        });
    }
    if let Some(taps) = opt(v, "adc_filter_taps") {
        spec.adc_filter_taps = Some(as_usize(taps, &sub("adc_filter_taps"))?);
    }
    if let Some(compile) = opt(v, "compile") {
        let cpath = sub("compile");
        check_keys(
            compile,
            &cpath,
            &["wcet_budget_cycles", "prune", "max_slice_insts"],
        )?;
        // Start from defaults; `"wcet_budget_cycles": null` disables
        // splitting, absence keeps the default budget.
        if let Some((_, budget)) = as_obj(compile, &cpath)?
            .iter()
            .find(|(k, _)| k == "wcet_budget_cycles")
        {
            spec.compile.wcet_budget_cycles = match budget {
                Json::Null => None,
                b => Some(as_u64(b, &format!("{cpath}.wcet_budget_cycles"))?),
            };
        }
        if let Some(prune) = opt(compile, "prune") {
            spec.compile.prune = as_bool(prune, &format!("{cpath}.prune"))?;
        }
        if let Some(max) = opt(compile, "max_slice_insts") {
            spec.compile.max_slice_insts = as_usize(max, &format!("{cpath}.max_slice_insts"))?;
        }
    }
    if let Some(workload) = opt(v, "workload") {
        spec.workload = decode_workload(workload, &sub("workload"))?;
    }
    Ok(spec)
}

/// Parses and decodes a campaign spec from JSON text.
///
/// # Errors
///
/// [`SpecError::Parse`] with a byte offset when the text is not JSON;
/// [`SpecError::Decode`] with a JSON path when the document has the wrong
/// shape.
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, SpecError> {
    Ok(spec_from_value(&Json::parse(text)?, "")?)
}

// ---------------------------------------------------------------------------
// CampaignReport encode
// ---------------------------------------------------------------------------

fn failure_value(f: &RunFailure) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(f.kind().name().to_string())),
        (
            "item".into(),
            f.item().map_or(Json::Null, |i| Json::U64(i as u64)),
        ),
        ("run_key".into(), f.run_key().map_or(Json::Null, Json::U64)),
        ("detail".into(), Json::Str(f.describe())),
    ])
}

fn result_value(spec: &CampaignSpec, r: &RunResult, deterministic: bool) -> Json {
    let cs = &r.compile_stats;
    let mut fields = vec![
        ("item".into(), Json::U64(r.item.index as u64)),
        ("app".into(), Json::Str(spec.apps[r.item.app_idx].clone())),
        (
            "scheme".into(),
            Json::Str(spec.schemes[r.item.scheme_idx].slug().to_string()),
        ),
        (
            "device".into(),
            Json::Str(spec.devices[r.item.device_idx].device.name().to_string()),
        ),
        (
            "attack".into(),
            Json::Str(spec.attacks[r.item.attack_idx].label.clone()),
        ),
        (
            "fault".into(),
            Json::Str(spec.faults[r.item.fault_idx].label.clone()),
        ),
        ("seed".into(), Json::U64(spec.seeds[r.item.seed_idx])),
        (
            "compile_stats".into(),
            Json::Obj(vec![
                ("regions".into(), Json::U64(cs.regions as u64)),
                ("regions_split".into(), Json::U64(cs.regions_split as u64)),
                (
                    "checkpoints_before".into(),
                    Json::U64(cs.checkpoints_before as u64),
                ),
                (
                    "checkpoints_after".into(),
                    Json::U64(cs.checkpoints_after as u64),
                ),
                (
                    "checkpoints_pruned".into(),
                    Json::U64(cs.checkpoints_pruned as u64),
                ),
                (
                    "recovery_blocks".into(),
                    Json::U64(cs.recovery_blocks as u64),
                ),
                ("recovery_insts".into(), Json::U64(cs.recovery_insts as u64)),
                (
                    "coloring_fixups".into(),
                    Json::U64(cs.coloring_fixups as u64),
                ),
                (
                    "boundaries_hoisted".into(),
                    Json::U64(cs.boundaries_hoisted as u64),
                ),
            ]),
        ),
        ("metrics".into(), r.metrics.to_object()),
        (
            "buckets".into(),
            Json::Arr(r.buckets.iter().map(Record::to_object).collect()),
        ),
    ];
    if !deterministic {
        fields.push(("cache_hit".into(), Json::Bool(r.cache_hit)));
        fields.push(("wall_ns".into(), Json::U64(r.wall_ns)));
    }
    Json::Obj(fields)
}

fn report_value(report: &CampaignReport, deterministic: bool) -> Json {
    let spec = &report.spec;
    let mut fields = vec![
        ("campaign".into(), Json::Str(spec.name.clone())),
        ("fingerprint".into(), Json::U64(spec.fingerprint())),
        ("digest".into(), Json::U64(report.deterministic_digest())),
    ];
    if !deterministic {
        let c = &report.counters;
        fields.push(("workers".into(), Json::U64(report.workers as u64)));
        fields.push(("halted".into(), Json::Bool(report.halted)));
        fields.push(("wall_s".into(), Json::F64(report.wall_s)));
        fields.push((
            "counters".into(),
            Json::Obj(vec![
                ("items".into(), Json::U64(c.items)),
                ("compile_misses".into(), Json::U64(c.compile_misses)),
                ("compile_hits".into(), Json::U64(c.compile_hits)),
                ("failures".into(), Json::U64(c.failures)),
                ("retries".into(), Json::U64(c.retries)),
                ("resumed".into(), Json::U64(c.resumed)),
                ("dropped_records".into(), Json::U64(c.dropped_records)),
            ]),
        ));
    }
    fields.push(("totals".into(), report.totals.to_object()));
    fields.push((
        "results".into(),
        Json::Arr(
            report
                .results
                .iter()
                .map(|r| result_value(spec, r, deterministic))
                .collect(),
        ),
    ));
    fields.push((
        "failures".into(),
        Json::Arr(report.failures.iter().map(failure_value).collect()),
    ));
    Json::Obj(fields)
}

/// Encodes a merged campaign report as JSON: identity, digest, counters,
/// per-item results (with compile stats, metrics, buckets), and the
/// quarantined failures. Includes wall-clock fields, which differ from
/// run to run.
pub fn report_to_json(report: &CampaignReport) -> String {
    report_value(report, false).encode()
}

/// Encodes only the *deterministic* payload of a report: name,
/// fingerprint, digest, totals, results without wall-clock/cache fields,
/// and failures. Two runs of the same spec — at any worker count, killed
/// and resumed or not, served over HTTP or run in-process — produce
/// byte-identical output, so this is the document end-to-end tests (and
/// the serve smoke gate) diff bit-exactly.
pub fn report_deterministic_json(report: &CampaignReport) -> String {
    report_value(report, true).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fancy_spec() -> CampaignSpec {
        use gecko_emi::attack::DpiPoint;
        let sig = EmiSignal::new(27e6, 35.0);
        CampaignSpec::new("fancy")
            .apps(["blink", "crc16"])
            .schemes([SchemeKind::Gecko, SchemeKind::Nvp])
            .devices([
                DeviceCase::default_board(),
                DeviceCase::new(gecko_emi::devices::msp430fr6989(), MonitorKind::Comparator),
            ])
            .attacks([
                AttackCase::none(),
                AttackCase::new(
                    "cont",
                    AttackSchedule::continuous(sig, Injection::Remote { distance_m: 2.0 }),
                ),
                AttackCase::new(
                    "bursts",
                    AttackSchedule::bursts(sig, Injection::Dpi(DpiPoint::P2), &[0.1, 0.5], 0.05),
                ),
            ])
            .faults([
                FaultCase::none(),
                FaultCase::new(
                    "skip-bursts",
                    FaultSchedule::bursts(
                        sig,
                        Injection::Dpi(DpiPoint::P2),
                        FaultModel::Skip,
                        &[0.2, 0.7],
                        0.05,
                    ),
                ),
                FaultCase::new(
                    "bitflip",
                    FaultSchedule::continuous(
                        sig,
                        Injection::Remote { distance_m: 1.0 },
                        FaultModel::OperandBitflip { bit: 17 },
                    ),
                ),
            ])
            .seeds([7, u64::MAX])
            .supply(Supply::Starved {
                power_w: 0.0012,
                period_s: 0.5,
                starve_s: 0.1,
                attenuation: 0.25,
            })
            .capacitor(CapacitorSpec {
                capacitance_f: 1e-3,
                initial_voltage_v: 3.2,
                rescale_thresholds: true,
            })
            .workload(Workload::UntilCompletions {
                n: 3,
                max_seconds: 30.0,
            })
    }

    #[test]
    fn spec_round_trips_typed_and_textual() {
        let spec = fancy_spec();
        let text = spec_to_json(&spec);
        let back = spec_from_json(&text).unwrap();
        assert_eq!(back, spec, "decode(encode(spec)) == spec");
        assert_eq!(spec_to_json(&back), text, "re-encode is byte-identical");
    }

    #[test]
    fn minimal_spec_defaults_match_new() {
        let spec = spec_from_json(r#"{"name":"tiny"}"#).unwrap();
        assert_eq!(spec, CampaignSpec::new("tiny"));
    }

    #[test]
    fn errors_carry_json_paths() {
        let e = spec_from_json(r#"{"name":"x","schemes":["warp"]}"#).unwrap_err();
        assert!(
            e.to_string().contains("schemes[0]") && e.to_string().contains("warp"),
            "{e}"
        );
        let e = spec_from_json(
            r#"{"name":"x","attacks":[{"label":"a","windows":[{"start_s":0.0,"freq_hz":-1.0,
                "power_dbm":30.0,"injection":{"kind":"dpi_p1"}}]}]}"#,
        )
        .unwrap_err();
        assert!(
            e.to_string().contains("attacks[0].windows[0].freq_hz"),
            "{e}"
        );
        let e = spec_from_json(r#"{"name":"x","devices":[{"device":"ZX81"}]}"#).unwrap_err();
        assert!(e.to_string().contains("known boards"), "{e}");
        let e = spec_from_json(r#"{"name":"x","seedz":[1]}"#).unwrap_err();
        assert!(e.to_string().contains("unknown field `seedz`"), "{e}");
        let e = spec_from_json(
            r#"{"name":"x","faults":[{"label":"f","windows":[{"start_s":0.0,"freq_hz":27e6,
                "power_dbm":35.0,"injection":{"kind":"dpi_p2"},"model":{"kind":"glitch"}}]}]}"#,
        )
        .unwrap_err();
        assert!(
            e.to_string().contains("faults[0].windows[0].model.kind")
                && e.to_string().contains("glitch"),
            "{e}"
        );
        let e = spec_from_json(
            r#"{"name":"x","supply":{"kind":"starved","power_w":1e-3,"period_s":1.0,
                "starve_s":2.0,"attenuation":0.5}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("supply.starve_s"), "{e}");
        let e = spec_from_json("{").unwrap_err();
        assert!(matches!(e, SpecError::Parse(_)), "{e}");
    }

    #[test]
    fn served_grid_equals_library_grid() {
        // The decoded spec must expand to the same run keys — this is what
        // makes a served campaign bit-identical to the library path.
        let spec = fancy_spec();
        let back = spec_from_json(&spec_to_json(&spec)).unwrap();
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn report_json_round_trips_through_the_tree() {
        let spec = CampaignSpec::new("tiny-report")
            .apps(["blink"])
            .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
            .workload(Workload::RunFor { seconds: 0.002 });
        let report = crate::Campaign::new(spec).run().unwrap();
        for text in [report_to_json(&report), report_deterministic_json(&report)] {
            let tree = Json::parse(&text).unwrap();
            assert_eq!(tree.encode(), text, "encode→decode→encode is identity");
            assert_eq!(
                tree.get("digest").unwrap().as_u64(),
                Some(report.deterministic_digest())
            );
        }
        let det1 = report_deterministic_json(&report);
        let report8 = crate::Campaign::new(report.spec.clone())
            .workers(8)
            .run()
            .unwrap();
        assert_eq!(
            report_deterministic_json(&report8),
            det1,
            "deterministic document is worker-count invariant"
        );
    }
}
