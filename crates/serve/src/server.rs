//! The HTTP front end: request routing over the job queue, one thread per
//! connection, cooperative shutdown that drains running jobs to a clean
//! journal checkpoint.
//!
//! ## Endpoints (all JSON, all `Connection: close`)
//!
//! | Method   | Path                      | Purpose                                   |
//! |----------|---------------------------|-------------------------------------------|
//! | `GET`    | `/v1/healthz`             | liveness probe                            |
//! | `GET`    | `/v1/config`              | effective daemon config                   |
//! | `POST`   | `/v1/campaigns`           | submit a metric sweep                     |
//! | `POST`   | `/v1/checks`              | submit a crash-consistency check          |
//! | `GET`    | `/v1/jobs`                | list all jobs                             |
//! | `GET`    | `/v1/jobs/<id>`           | job status (`?wait_ms=` long-polls until  |
//! |          |                           | the job stops)                            |
//! | `GET`    | `/v1/jobs/<id>/events`    | telemetry stream (`?from=&wait_ms=`)      |
//! | `GET`    | `/v1/jobs/<id>/result`    | merged report (`?view=deterministic`)     |
//! | `DELETE` | `/v1/jobs/<id>`           | cancel                                    |
//! | `POST`   | `/v1/shutdown`            | graceful daemon shutdown                  |
//!
//! Errors are `{"error": "..."}` with 400 (bad input), 404 (no such
//! route/job), 405 (wrong method), 409 (result not ready), 413 (body too
//! large), 500 (the job log could not be written or read), or 503
//! (shutting down).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gecko_fleet::json::Json;
use gecko_fleet::spec_io::SpecError;
use gecko_fleet::supervisor::lock_unpoisoned;

use crate::config::ServeConfig;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::queue::{JobKind, JobState, Queue, SubmitError};
use crate::wire;

/// Long-poll waits are capped so a forgotten client cannot pin a handler
/// thread forever.
const MAX_WAIT_MS: u64 = 30_000;

/// A running daemon: the bound listener, the job queue, and the accept
/// thread. Dropping it does *not* stop it — call [`Server::shutdown`].
pub struct Server {
    queue: Arc<Queue>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<(Mutex<bool>, Condvar)>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.bind`, boots the queue (restoring jobs from the journal
    /// root), and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Bind and journal-root failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        let max_body = cfg.max_body_bytes;
        let queue = Arc::new(Queue::start(cfg)?);
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new((Mutex::new(false), Condvar::new()));

        let accept_queue = Arc::clone(&queue);
        let accept_stop = Arc::clone(&stop);
        let accept_requested = Arc::clone(&shutdown_requested);
        let accept_thread = std::thread::Builder::new()
            .name("gecko-serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let queue = Arc::clone(&accept_queue);
                    let requested = Arc::clone(&accept_requested);
                    let _ = std::thread::Builder::new()
                        .name("gecko-serve-conn".to_string())
                        .spawn(move || handle_connection(stream, &queue, &requested, max_body));
                }
            })?;

        Ok(Server {
            queue,
            addr,
            stop,
            shutdown_requested,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The queue, for in-process drivers (smoke mode, benches).
    pub fn queue(&self) -> &Arc<Queue> {
        &self.queue
    }

    /// Blocks until a client asks for shutdown via `POST /v1/shutdown`
    /// (or another thread calls [`Server::request_shutdown`]).
    pub fn wait_for_shutdown_request(&self) {
        let (flag, cond) = &*self.shutdown_requested;
        let mut requested = lock_unpoisoned(flag);
        while !*requested {
            requested = cond
                .wait(requested)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Flags the server for shutdown and wakes
    /// [`Server::wait_for_shutdown_request`].
    pub fn request_shutdown(&self) {
        let (flag, cond) = &*self.shutdown_requested;
        *lock_unpoisoned(flag) = true;
        cond.notify_all();
    }

    /// Graceful shutdown: stop accepting, then drain the queue — running
    /// jobs finish their in-flight run, journal it, and park as
    /// `interrupted` so the next boot resumes them bit-exactly.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.queue.shutdown();
    }
}

/// One connection: parse, route, reply. Every error path still writes a
/// JSON response when the socket allows it.
fn handle_connection(
    mut stream: TcpStream,
    queue: &Arc<Queue>,
    shutdown_requested: &Arc<(Mutex<bool>, Condvar)>,
    max_body: usize,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream, max_body) {
        Ok(r) => r,
        Err(HttpError::ConnectionClosed) => return,
        Err(HttpError::TooLarge(m)) => {
            let _ = write_response(&mut stream, 413, &error_body(&m));
            return;
        }
        Err(HttpError::Malformed(m)) => {
            let _ = write_response(&mut stream, 400, &error_body(&m));
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    let (status, body) = route(&request, queue, shutdown_requested);
    let _ = write_response(&mut stream, status, &body);
}

fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".to_string(), Json::Str(message.to_string()))]).encode()
}

/// Dispatches one request to its handler. Returns `(status, body)`.
fn route(
    request: &Request,
    queue: &Arc<Queue>,
    shutdown_requested: &Arc<(Mutex<bool>, Condvar)>,
) -> (u16, String) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match segments.as_slice() {
        ["v1", "healthz"] => match method {
            "GET" => (200, r#"{"ok":true}"#.to_string()),
            _ => method_not_allowed("GET"),
        },
        ["v1", "config"] => match method {
            "GET" => (200, queue.config_value().encode()),
            _ => method_not_allowed("GET"),
        },
        ["v1", "campaigns"] => match method {
            "POST" => submit(queue, JobKind::Sweep, request),
            _ => method_not_allowed("POST"),
        },
        ["v1", "checks"] => match method {
            "POST" => submit(queue, JobKind::Check, request),
            _ => method_not_allowed("POST"),
        },
        ["v1", "jobs"] => match method {
            "GET" => {
                let jobs: Vec<Json> = queue.jobs().iter().map(|j| j.status_value()).collect();
                (
                    200,
                    Json::Obj(vec![("jobs".to_string(), Json::Arr(jobs))]).encode(),
                )
            }
            _ => method_not_allowed("GET"),
        },
        ["v1", "jobs", id] => match method {
            "GET" => with_job(queue, id, |job| match request.query_u64("wait_ms", 0) {
                Err(m) => (400, error_body(&m)),
                Ok(wait_ms) => {
                    if wait_ms > 0 {
                        job.wait_stopped(Duration::from_millis(wait_ms.min(MAX_WAIT_MS)));
                    }
                    (200, job.status_value().encode())
                }
            }),
            "DELETE" => with_job(queue, id, |job| {
                queue.cancel(job);
                (200, job.status_value().encode())
            }),
            _ => method_not_allowed("GET, DELETE"),
        },
        ["v1", "jobs", id, "events"] => match method {
            "GET" => with_job(queue, id, |job| {
                let (from, wait_ms) = match (
                    request.query_u64("from", 0),
                    request.query_u64("wait_ms", 0),
                ) {
                    (Ok(f), Ok(w)) => (f, w),
                    (Err(m), _) | (_, Err(m)) => return (400, error_body(&m)),
                };
                let batch = job
                    .sink
                    .wait_events(from, Duration::from_millis(wait_ms.min(MAX_WAIT_MS)));
                // The events are pre-encoded JSON objects; splice them
                // into the envelope verbatim rather than reparsing.
                let mut body = String::from("{\"events\":[");
                for (i, line) in batch.events.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(line);
                }
                use std::fmt::Write as _;
                let _ = write!(
                    body,
                    "],\"next\":{},\"evicted\":{},\"closed\":{}}}",
                    batch.next, batch.evicted, batch.closed
                );
                (200, body)
            }),
            _ => method_not_allowed("GET"),
        },
        ["v1", "jobs", id, "result"] => match method {
            "GET" => with_job(queue, id, |job| {
                let state = job.state();
                if state != JobState::Done {
                    return (
                        409,
                        error_body(&format!(
                            "job {} has no result yet (state: {})",
                            job.id,
                            state.name()
                        )),
                    );
                }
                let deterministic = match request.query_param("view") {
                    Some("deterministic") => true,
                    Some(other) => {
                        return (
                            400,
                            error_body(&format!(
                                "unknown view `{other}` (expected `deterministic`)"
                            )),
                        )
                    }
                    None => false,
                };
                match job.result_doc(deterministic) {
                    Some(text) => (200, text),
                    None => (
                        500,
                        error_body(&format!("job {} has no readable result line", job.id)),
                    ),
                }
            }),
            _ => method_not_allowed("GET"),
        },
        ["v1", "shutdown"] => match method {
            "POST" => {
                let (flag, cond) = &**shutdown_requested;
                *lock_unpoisoned(flag) = true;
                cond.notify_all();
                (202, r#"{"ok":true,"draining":true}"#.to_string())
            }
            _ => method_not_allowed("POST"),
        },
        _ => (404, error_body(&format!("no such route: {}", request.path))),
    }
}

fn method_not_allowed(allowed: &str) -> (u16, String) {
    (
        405,
        error_body(&format!("method not allowed (allowed: {allowed})")),
    )
}

fn with_job(
    queue: &Arc<Queue>,
    id: &str,
    f: impl FnOnce(&Arc<crate::queue::Job>) -> (u16, String),
) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (
            400,
            error_body(&format!("job id must be an integer, got `{id}`")),
        );
    };
    match queue.job(id) {
        Some(job) => f(&job),
        None => (404, error_body(&format!("no such job: {id}"))),
    }
}

fn submit(queue: &Arc<Queue>, kind: JobKind, request: &Request) -> (u16, String) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("request body is not UTF-8")),
    };
    let submission = match wire::parse_submission(text) {
        Ok(s) => s,
        Err(SpecError::Parse(e)) => {
            return (400, error_body(&format!("invalid JSON: {e}")));
        }
        Err(SpecError::Decode(e)) => {
            return (400, error_body(&format!("invalid submission: {e}")));
        }
    };
    match queue.submit(kind, submission) {
        Ok(job) => (201, job.status_value().encode()),
        Err(SubmitError::BadSpec(m)) => (400, error_body(&m)),
        Err(SubmitError::Limit(m)) => (409, error_body(&m)),
        Err(SubmitError::Io(m)) => (500, error_body(&m)),
        Err(SubmitError::ShuttingDown) => (503, error_body("daemon is shutting down")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_call;

    fn test_server(tag: &str) -> (Server, String, std::path::PathBuf) {
        let cfg = ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            journal_root: std::env::temp_dir()
                .join(format!("gecko-serve-server-{}-{tag}", std::process::id())),
            ..ServeConfig::default()
        };
        let _ = std::fs::remove_dir_all(&cfg.journal_root);
        let root = cfg.journal_root.clone();
        let server = Server::start(cfg).unwrap();
        let addr = server.addr().to_string();
        (server, addr, root)
    }

    #[test]
    fn health_config_and_errors_route_correctly() {
        let (server, addr, root) = test_server("routes");
        let r = http_call(&addr, "GET", "/v1/healthz", "").unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, r#"{"ok":true}"#));

        let r = http_call(&addr, "GET", "/v1/config", "").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"queue_workers\""), "{}", r.body);

        let r = http_call(&addr, "POST", "/v1/healthz", "").unwrap();
        assert_eq!(r.status, 405);
        let r = http_call(&addr, "GET", "/v1/nope", "").unwrap();
        assert_eq!(r.status, 404);
        let r = http_call(&addr, "GET", "/v1/jobs/99", "").unwrap();
        assert_eq!(r.status, 404);
        let r = http_call(&addr, "GET", "/v1/jobs/zebra", "").unwrap();
        assert_eq!(r.status, 400);
        let r = http_call(&addr, "POST", "/v1/campaigns", "{not json").unwrap();
        assert_eq!(r.status, 400);
        assert!(r.body.contains("invalid JSON"), "{}", r.body);
        let r = http_call(
            &addr,
            "POST",
            "/v1/campaigns",
            r#"{"name":"x","schemes":["geko"]}"#,
        )
        .unwrap();
        assert_eq!(r.status, 400);
        assert!(r.body.contains("geko"), "{}", r.body);

        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_submission_that_cannot_create_its_job_directory_is_a_500_and_leaves_nothing() {
        let (server, addr, root) = test_server("submit-io");
        // The first job's directory name is taken by a regular file.
        std::fs::write(root.join("job-1"), "not a job").unwrap();
        let spec = r#"{"name":"x","apps":["blink"],"schemes":["gecko"],"seeds":[1],
            "workload":{"kind":"run_for","seconds":0.001}}"#;
        let r = http_call(&addr, "POST", "/v1/campaigns", spec).unwrap();
        assert_eq!(r.status, 500, "{}", r.body);
        assert!(r.body.contains("job-1"), "{}", r.body);
        let r = http_call(&addr, "GET", "/v1/jobs", "").unwrap();
        assert_eq!(r.body, r#"{"jobs":[]}"#);
        assert!(!root.join("job-1").is_dir());
        assert_eq!(
            std::fs::read_to_string(root.join("job-1")).unwrap(),
            "not a job"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_endpoint_wakes_the_waiter() {
        let (server, addr, root) = test_server("shutdown");
        let r = http_call(&addr, "POST", "/v1/shutdown", "").unwrap();
        assert_eq!(r.status, 202);
        server.wait_for_shutdown_request();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
