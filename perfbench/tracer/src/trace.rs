//! An in-memory span recorder and the JSON helpers the tracer writes with.
//!
//! A span is a name, a tag (design letter, workload, ...), the span that
//! was open when it began, wall-clock start and end relative to the
//! recorder's epoch, the thread CPU time spent inside it, and the counts
//! recorded at its end. Spans stay in memory until [`Tracer::to_json`].

use std::fmt::Write as _;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, matching `#[repr(C)]` above), and the clock id is a
    // constant the kernel always accepts for the calling thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

struct Span {
    name: &'static str,
    tag: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, tag: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag: tag.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_ns: thread_cpu_ns(),
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let cpu_now = thread_cpu_ns();
        let span = &mut self.spans[id];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.cpu_ns = cpu_now - span.cpu_ns;
        span.counts = counts.to_vec();
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect();
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"tag\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}, \"counts\": {{{}}}}}{}",
                json_str(s.name),
                json_str(&s.tag),
                s.start_ns,
                s.end_ns,
                s.cpu_ns,
                counts.join(", "),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
