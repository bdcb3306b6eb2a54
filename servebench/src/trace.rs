//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions, on one thread, so children nest strictly
//! inside their parent. A span's self time is its duration minus the part
//! of its interval its children cover.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier shared by every span of one request or burst.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.spmm`.
    pub name: &'static str,
    /// Start, relative to the tracer's creation.
    pub start_ns: u64,
    /// End, relative to the tracer's creation.
    pub end_ns: u64,
    /// A work quantity attached by the caller (requests, flops), or 0.
    pub work: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Tags spans opened from now on with trace id `trace`.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_work(name, 0.0, f)
    }

    /// [`span`](Self::span) carrying a work quantity.
    pub fn span_work<R>(
        &mut self,
        name: &'static str,
        work: f64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace: self.trace,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            work,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Self times in ms of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let times = self.self_times_ns();
        self.spans
            .iter()
            .zip(times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// `(duration ms, work)` of every span named `name`.
    pub fn work(&self, name: &str) -> Vec<(f64, f64)> {
        self.named(name).map(|s| (s.ms(), s.work)).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span in ns, as a signed value so that a
    /// malformed trace (children covering more than the parent) shows up
    /// instead of saturating.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                covered[p] += end.saturating_sub(start);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns) as i64 - c as i64)
            .collect()
    }

    /// The trace's structural checks: `(every self time >= 0, every child
    /// lies within its parent)`.
    pub fn check(&self) -> (bool, bool) {
        let self_ok = self.self_times_ns().iter().all(|&t| t >= 0);
        let nested = self.spans.iter().all(|s| match s.parent {
            Some(p) => {
                let parent = &self.spans[p];
                s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns
            }
            None => true,
        });
        (self_ok, nested)
    }

    /// Writes the spans as JSON lines under `servebench/trace-out/` of
    /// the working directory, named after the run; failures only warn.
    pub fn save(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new("servebench").join("trace-out");
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut out = std::io::BufWriter::new(f);
                self.write_jsonl(&mut out)?;
                out.flush()
            });
        match written {
            Ok(()) => println!("# {} spans written to {}", self.spans.len(), path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }

    /// Writes one JSON object per span to `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}",
                s.trace, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        Ok(())
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn traced<R>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    traced_work(tracer, name, 0.0, f)
}

/// [`traced`] carrying a work quantity.
pub fn traced_work<R>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    work: f64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span_work(name, work, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_nesting_holds() {
        let mut t = Tracer::new();
        t.set_trace(7);
        t.span("outer", |t| {
            spin(200_000);
            t.span_work("inner", 3.0, |_| spin(300_000));
            t.span("inner", |_| spin(100_000));
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 7));
        let self_ns = t.self_times_ns();
        let children =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(
            self_ns[0],
            (spans[0].end_ns - spans[0].start_ns - children) as i64
        );
        assert!(self_ns[0] >= 200_000);
        assert_eq!(t.check(), (true, true));
        assert_eq!(t.durations_ms("inner").len(), 2);
        assert_eq!(t.work("inner")[0].1, 3.0);
    }

    #[test]
    fn a_child_outside_its_parent_fails_the_check() {
        let mut t = Tracer::new();
        t.span("parent", |_| ());
        t.span("child", |_| ());
        t.spans[1].parent = Some(0);
        t.spans[1].start_ns = t.spans[0].end_ns + 10;
        t.spans[1].end_ns = t.spans[0].end_ns + 20;
        assert!(!t.check().1);
    }

    #[test]
    fn spans_write_as_json_lines() {
        let mut t = Tracer::new();
        t.span("a", |t| t.span("b", |_| ()));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
    }
}
