//! Daemon configuration: defaults, a JSON config file, and CLI flags —
//! later layers override earlier ones (defaults < file < flags), and one
//! set of lower bounds applies after both.

use std::path::PathBuf;

use gecko_fleet::json::Json;

/// Everything the daemon needs to boot. See [`ServeConfig::default`] for
/// the defaults and [`ServeConfig::from_args`] for the layering.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub bind: String,
    /// Queue worker threads — how many jobs execute concurrently.
    pub queue_workers: usize,
    /// Default simulation workers per job (a submission may override,
    /// capped at [`ServeConfig::max_job_workers`]).
    pub job_workers: usize,
    /// Cap on per-job simulation workers.
    pub max_job_workers: usize,
    /// Root directory for job state: one `job-<id>/` directory per job
    /// holding its segmented `journal/` log (envelope, run records or
    /// memo slabs, events, terminal line), plus the shared `memo/<key>/`
    /// stores of incremental checks. Scanned at boot to reload the queue.
    pub journal_root: PathBuf,
    /// Maximum jobs tracked at once (queued + running + finished).
    pub max_jobs: usize,
    /// Maximum expanded grid items a single submission may request.
    pub max_items_per_job: usize,
    /// Maximum request body size (bytes); larger submissions get 413.
    pub max_body_bytes: usize,
    /// Per-job telemetry event ring-buffer capacity. Older events are
    /// evicted (and counted) once a client falls this far behind.
    pub event_buffer: usize,
    /// Retention: maximum finished (done/failed/cancelled) job
    /// directories kept on disk; the oldest are GCed first. 0 = keep
    /// everything.
    pub retain_jobs: usize,
    /// Retention: maximum total bytes of finished job directories. 0 =
    /// unlimited.
    pub retain_bytes: u64,
    /// Retention: maximum age in seconds of a finished job directory. 0 =
    /// unlimited.
    pub retain_age_secs: u64,
    /// Background job-directory GC tick period in seconds. 0 disables
    /// the background thread (retention then only runs when a tick is
    /// driven explicitly, as tests do).
    pub prune_interval_secs: u64,
    /// Work budget per GC tick and per memo-log compaction — at most this
    /// many entries (job directories, log lines) are deleted per call, so
    /// a call never stalls the daemon. 0 = unlimited.
    pub prune_delete_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            bind: "127.0.0.1:4810".to_string(),
            queue_workers: 2,
            job_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_job_workers: 64,
            journal_root: PathBuf::from("gecko-serve-data"),
            max_jobs: 256,
            max_items_per_job: 65_536,
            max_body_bytes: 1 << 20,
            event_buffer: 4096,
            retain_jobs: 0,
            retain_bytes: 0,
            retain_age_secs: 0,
            prune_interval_secs: 30,
            prune_delete_limit: 64,
        }
    }
}

impl ServeConfig {
    /// Renders the effective config as JSON (the `/v1/config` document).
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("bind".into(), Json::Str(self.bind.clone())),
            ("queue_workers".into(), Json::U64(self.queue_workers as u64)),
            ("job_workers".into(), Json::U64(self.job_workers as u64)),
            (
                "max_job_workers".into(),
                Json::U64(self.max_job_workers as u64),
            ),
            (
                "journal_root".into(),
                Json::Str(self.journal_root.display().to_string()),
            ),
            ("max_jobs".into(), Json::U64(self.max_jobs as u64)),
            (
                "max_items_per_job".into(),
                Json::U64(self.max_items_per_job as u64),
            ),
            (
                "max_body_bytes".into(),
                Json::U64(self.max_body_bytes as u64),
            ),
            ("event_buffer".into(), Json::U64(self.event_buffer as u64)),
            ("retain_jobs".into(), Json::U64(self.retain_jobs as u64)),
            ("retain_bytes".into(), Json::U64(self.retain_bytes)),
            ("retain_age_secs".into(), Json::U64(self.retain_age_secs)),
            (
                "prune_interval_secs".into(),
                Json::U64(self.prune_interval_secs),
            ),
            (
                "prune_delete_limit".into(),
                Json::U64(self.prune_delete_limit as u64),
            ),
        ])
    }

    /// Applies a parsed JSON config document as given; [`ServeConfig::from_args`]
    /// applies the lower bounds afterwards. Unknown keys are rejected (a
    /// typo'd limit silently ignored is a limit not applied).
    pub fn apply_json(&mut self, doc: &Json) -> Result<(), String> {
        let fields = doc
            .as_obj()
            .ok_or_else(|| format!("config must be a JSON object, got {}", doc.kind_name()))?;
        for (key, value) in fields {
            match key.as_str() {
                "bind" => {
                    self.bind = value
                        .as_str()
                        .ok_or_else(|| "bind: expected a string".to_string())?
                        .to_string();
                }
                "journal_root" => {
                    self.journal_root = PathBuf::from(
                        value
                            .as_str()
                            .ok_or_else(|| "journal_root: expected a string".to_string())?,
                    );
                }
                "queue_workers" => self.queue_workers = usize_field(key, value)?,
                "job_workers" => self.job_workers = usize_field(key, value)?,
                "max_job_workers" => self.max_job_workers = usize_field(key, value)?,
                "max_jobs" => self.max_jobs = usize_field(key, value)?,
                "max_items_per_job" => self.max_items_per_job = usize_field(key, value)?,
                "max_body_bytes" => self.max_body_bytes = usize_field(key, value)?,
                "event_buffer" => self.event_buffer = usize_field(key, value)?,
                "retain_jobs" => self.retain_jobs = usize_field(key, value)?,
                "retain_bytes" => self.retain_bytes = usize_field(key, value)? as u64,
                "retain_age_secs" => self.retain_age_secs = usize_field(key, value)? as u64,
                "prune_interval_secs" => {
                    self.prune_interval_secs = usize_field(key, value)? as u64;
                }
                "prune_delete_limit" => self.prune_delete_limit = usize_field(key, value)?,
                other => return Err(format!("unknown config key `{other}`")),
            }
        }
        Ok(())
    }

    /// Loads a JSON config file into this config.
    ///
    /// # Errors
    ///
    /// I/O, parse (with byte offset), and unknown-key errors, as strings
    /// ready for the CLI.
    pub fn apply_file(&mut self, path: &std::path::Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        self.apply_json(&doc)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Builds the effective config from CLI args: `--config FILE` loads a
    /// JSON file first, then individual flags override it, then every
    /// limit is raised to its floor, so a value means the same from either
    /// layer.
    ///
    /// Flags: `--bind ADDR`, `--data DIR`, `--queue-workers N`,
    /// `--job-workers N`, `--max-jobs N`, `--max-items N`,
    /// `--max-body-bytes N`, `--event-buffer N`, `--retain-jobs N`,
    /// `--retain-bytes N`, `--retain-age-secs N`,
    /// `--prune-interval-secs N`, `--prune-delete-limit N`.
    ///
    /// # Errors
    ///
    /// A usage string for unknown/valueless flags and file errors.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::default();
        // File layer first, regardless of flag order.
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--config" {
                let path = it.next().ok_or("--config requires a file path")?;
                cfg.apply_file(std::path::Path::new(path))?;
            }
        }
        // Flag layer.
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--config" => {
                    value("--config")?;
                }
                "--bind" => cfg.bind = value("--bind")?.to_string(),
                "--data" => cfg.journal_root = PathBuf::from(value("--data")?),
                "--queue-workers" => cfg.queue_workers = usize_flag("--queue-workers", &mut value)?,
                "--job-workers" => cfg.job_workers = usize_flag("--job-workers", &mut value)?,
                "--max-jobs" => cfg.max_jobs = usize_flag("--max-jobs", &mut value)?,
                "--max-items" => cfg.max_items_per_job = usize_flag("--max-items", &mut value)?,
                "--max-body-bytes" => {
                    cfg.max_body_bytes = usize_flag("--max-body-bytes", &mut value)?
                }
                "--event-buffer" => cfg.event_buffer = usize_flag("--event-buffer", &mut value)?,
                "--retain-jobs" => cfg.retain_jobs = usize_flag("--retain-jobs", &mut value)?,
                "--retain-bytes" => {
                    cfg.retain_bytes = usize_flag("--retain-bytes", &mut value)? as u64
                }
                "--retain-age-secs" => {
                    cfg.retain_age_secs = usize_flag("--retain-age-secs", &mut value)? as u64
                }
                "--prune-interval-secs" => {
                    cfg.prune_interval_secs =
                        usize_flag("--prune-interval-secs", &mut value)? as u64
                }
                "--prune-delete-limit" => {
                    cfg.prune_delete_limit = usize_flag("--prune-delete-limit", &mut value)?
                }
                other => return Err(format!("unknown flag `{other}` (see --help)")),
            }
        }
        cfg.enforce_bounds();
        Ok(cfg)
    }

    /// Raises each limit to its floor — at least one queue worker, job
    /// worker, job and item per job, 1 KiB request bodies and a 16-event
    /// ring — and caps per-job workers at `max_job_workers`. A zero limit
    /// would refuse every submission.
    fn enforce_bounds(&mut self) {
        self.queue_workers = self.queue_workers.max(1);
        self.max_job_workers = self.max_job_workers.max(1);
        self.job_workers = self.job_workers.clamp(1, self.max_job_workers);
        self.max_jobs = self.max_jobs.max(1);
        self.max_items_per_job = self.max_items_per_job.max(1);
        self.max_body_bytes = self.max_body_bytes.max(1024);
        self.event_buffer = self.event_buffer.max(16);
    }
}

fn usize_field(key: &str, value: &Json) -> Result<usize, String> {
    value
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| format!("{key}: expected a non-negative integer"))
}

fn usize_flag<'a>(
    flag: &str,
    value: &mut impl FnMut(&str) -> Result<&'a str, String>,
) -> Result<usize, String> {
    value(flag)?
        .parse()
        .map_err(|_| format!("{flag}: expected a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_override_file_overrides_defaults() {
        let dir = std::env::temp_dir().join(format!("gecko-serve-cfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("serve.json");
        std::fs::write(
            &file,
            r#"{"bind":"127.0.0.1:9000","queue_workers":3,"event_buffer":128}"#,
        )
        .unwrap();
        let args: Vec<String> = [
            "--config",
            file.to_str().unwrap(),
            "--bind",
            "127.0.0.1:0",
            "--job-workers",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = ServeConfig::from_args(&args).unwrap();
        assert_eq!(cfg.bind, "127.0.0.1:0", "flag beats file");
        assert_eq!(cfg.queue_workers, 3, "file beats default");
        assert_eq!(cfg.event_buffer, 128);
        assert_eq!(cfg.job_workers, 2);
        assert_eq!(cfg.max_jobs, ServeConfig::default().max_jobs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flags_and_file_obey_the_same_bounds() {
        let dir = std::env::temp_dir().join(format!("gecko-serve-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("serve.json");
        std::fs::write(
            &file,
            r#"{"queue_workers":0,"job_workers":0,"max_jobs":0,"max_items_per_job":0,
                "max_body_bytes":0,"event_buffer":0}"#,
        )
        .unwrap();
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let from_file =
            ServeConfig::from_args(&args(&["--config", file.to_str().unwrap()])).unwrap();
        let from_flags = ServeConfig::from_args(&args(&[
            "--queue-workers",
            "0",
            "--job-workers",
            "0",
            "--max-jobs",
            "0",
            "--max-items",
            "0",
            "--max-body-bytes",
            "0",
            "--event-buffer",
            "0",
        ]))
        .unwrap();
        assert_eq!(from_flags, from_file);
        assert_eq!(
            (
                from_flags.queue_workers,
                from_flags.job_workers,
                from_flags.max_jobs,
                from_flags.max_items_per_job,
                from_flags.max_body_bytes,
                from_flags.event_buffer,
            ),
            (1, 1, 1, 1, 1024, 16)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_config_is_actionable() {
        let mut cfg = ServeConfig::default();
        let doc = Json::parse(r#"{"queue_wrkers":2}"#).unwrap();
        let e = cfg.apply_json(&doc).unwrap_err();
        assert!(e.contains("queue_wrkers"), "{e}");
        let e = ServeConfig::from_args(&["--frobnicate".to_string()]).unwrap_err();
        assert!(e.contains("--frobnicate"), "{e}");
        let e = ServeConfig::from_args(&["--bind".to_string()]).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
    }

    #[test]
    fn config_document_round_trips() {
        let cfg = ServeConfig::default();
        let doc = cfg.to_value();
        let mut back = ServeConfig::default();
        back.apply_json(&doc).unwrap();
        assert_eq!(back, cfg);
    }
}
