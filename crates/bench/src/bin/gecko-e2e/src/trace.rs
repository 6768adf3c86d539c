//! In-memory span recorder. Spans carry a name, start, end, parent and a
//! job identifier; they are written out once, at the end of the traced
//! run, with each span's self time (its duration minus the part its
//! children cover).

use std::path::Path;
use std::time::Instant;

use gecko_fleet::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder that is either on (the traced run) or off (every
/// measured round — the same code path, minus the bookkeeping).
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration (s) of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes every span, plus self time summed per span name, as one JSON
    /// document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            match by_name.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += s.end_ns - s.start_ns;
                    entry.3 += self_ns;
                }
                None => by_name.push((s.name, 1, s.end_ns - s.start_ns, self_ns)),
            }
        }
        let us = |ns: u64| Json::F64(ns as f64 / 1e3);
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::U64(seed)),
            (
                "by_name".into(),
                Json::Arr(
                    by_name
                        .iter()
                        .map(|(name, count, total, self_ns)| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str((*name).into())),
                                ("count".into(), Json::U64(*count)),
                                ("total_us".into(), us(*total)),
                                ("self_us".into(), us(*self_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(&own)
                        .enumerate()
                        .map(|(id, (s, &self_ns))| {
                            Json::Obj(vec![
                                ("id".into(), Json::U64(id as u64)),
                                ("name".into(), Json::Str(s.name.into())),
                                ("job".into(), s.job.map_or(Json::Null, Json::U64)),
                                (
                                    "parent".into(),
                                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                                ),
                                ("start_us".into(), us(s.start_ns)),
                                ("end_us".into(), us(s.end_ns)),
                                ("self_us".into(), us(self_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", Some(1), |t| {
            t.span("inner", Some(1), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[0] < t.spans()[0].end_ns - t.spans()[0].start_ns);
        assert_eq!(own[1], t.spans()[1].end_ns - t.spans()[1].start_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", None, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
