//! The benchmark's own spans, recorded around each public call it makes
//! into the program. Spans stay in memory and are written out at exit;
//! the program itself is not instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    pub name: &'static str,
    pub sample: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// Times calls and, when on, records each as a span nested under the
/// innermost open one. Off, it only times.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A call in progress, returned by [`Tracer::begin`].
#[must_use]
pub struct Open {
    start: Instant,
    span: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, sample: usize) -> Open {
        let start = Instant::now();
        let span = self.on.then(|| {
            self.spans.push(Span {
                name,
                sample,
                parent: self.open.last().copied(),
                start_us: self.micros(start),
                end_us: f64::NAN,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, span }
    }

    /// Closes `open` and returns its duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.span {
            self.spans[id].end_us = self.micros(end);
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Times `f` as a span with no children; returns its value and
    /// milliseconds.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        sample: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, sample);
        let value = f();
        (value, self.end(open))
    }

    /// Records a call timed on another thread, under the innermost open
    /// span, and returns its duration in milliseconds.
    pub fn record(
        &mut self,
        name: &'static str,
        sample: usize,
        start: Instant,
        end: Instant,
    ) -> f64 {
        if self.on {
            self.spans.push(Span {
                name,
                sample,
                parent: self.open.last().copied(),
                start_us: self.micros(start),
                end_us: self.micros(end),
            });
        }
        (end - start).as_secs_f64() * 1e3
    }

    fn micros(&self, t: Instant) -> f64 {
        (t - self.origin).as_secs_f64() * 1e6
    }

    /// Milliseconds of each layer's self time: every span's duration minus
    /// the part its children cover, summed by [`layer`] of its name.
    /// Children of a span never overlap, except worker spans, which run
    /// concurrently and are clipped to their parent's length.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let own = ((s.end_us - s.start_us) - c).max(0.0);
            *out.entry(layer(s.name)).or_insert(0.0) += own / 1e3;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"workload\":\"{workload}\",\"sample\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                layer(s.name),
                s.sample,
                s.start_us,
                s.end_us
            );
        }
        out
    }
}

/// The crate that does the work of the call a span is named after.
/// Unknown names are the benchmark's own phase spans.
fn layer(span: &str) -> &'static str {
    match span {
        "engine_with" => "case-studies",
        "read_str" | "with_engine" => "reader",
        "expand_program" | "expand_str" => "expander",
        "compile_chunk" => "bytecode",
        "run_chunks" | "vm_serve_run" | "enable_vm_serving" => "vm",
        "run_str" => "eval",
        "run_str_instrumented" | "current_weights" | "store_profile_v2" | "load_file" => "profiler",
        "incremental_compile" | "recompile" => "core",
        "with_setup" | "collect_run" | "tick" => "adaptive",
        _ => "benchmark",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("compile", 0);
        let inner = t.begin("read_str", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        let total = t.end(outer);
        let selfs = t.self_times();
        let read = selfs["reader"];
        assert!(read >= 5.0);
        assert!((selfs["benchmark"] + read - total).abs() < 0.01);
        assert_eq!(t.jsonl("w").lines().count(), 2);
    }

    #[test]
    fn off_still_times() {
        let mut t = Tracer::new(false);
        let open = t.begin("compile", 0);
        assert!(t.end(open) >= 0.0);
        assert!(t.self_times().is_empty());
    }
}
