//! Spans the traced mode records around each call into a layer.
//!
//! A span has a name (the layer call), wall and on-CPU start and end, the
//! span it runs inside, and the id of the frame it serves: every span of
//! one frame shares that id. Spans are kept in memory per thread and
//! written once the run ends, as Chrome trace-event JSON in the form the
//! repository's telemetry already emits (complete `"X"` events), with the
//! parent and frame ids under `args`.
//!
//! A disabled tracer records nothing, so the untraced mode pays one
//! not-taken branch per call.

use crate::clock::thread_cpu_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `engine.replay`.
    pub name: &'static str,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Frame the span serves; shared by every span of that frame.
    pub frame: Option<u64>,
    /// Thread that ran the span (0 = main).
    pub tid: u32,
    /// Wall nanoseconds since the run's epoch.
    pub wall: (u64, u64),
    /// On-CPU nanoseconds of the running thread.
    pub cpu: (u64, u64),
}

impl Span {
    /// On-CPU duration in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu.1 - self.cpu.0
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    frames: u64,
}

impl Tracer {
    /// A recorder for thread `tid`, timing from `epoch`; `on == false`
    /// records nothing.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            frames: 0,
        }
    }

    /// A fresh frame id, unique across the run's threads.
    pub fn next_frame_id(&mut self) -> Option<u64> {
        self.frames += 1;
        Some(u64::from(self.tid) << 32 | self.frames)
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, tid: u32) -> Self {
        Self::new(self.on, self.epoch, tid)
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str, frame: Option<u64>) {
        if !self.on {
            return;
        }
        let wall = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            frame,
            tid: self.tid,
            wall: (wall, wall),
            cpu: (thread_cpu_ns(), 0),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("close without a matching open");
        let s = &mut self.spans[i];
        s.cpu.1 = thread_cpu_ns();
        s.wall.1 = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, frame: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.open(name, frame);
        let r = f();
        self.close();
        r
    }

    /// Appends another thread's spans, opened inside this tracer's
    /// innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        let outer = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(outer);
            s
        }));
    }

    /// The closed spans.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans read while some are open");
        &self.spans
    }
}

/// Per-name totals of on-CPU self time (a span's time minus what its
/// children cover) and of span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.cpu_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.cpu_ns().saturating_sub(c);
        e.1 += 1;
    }
    out
}

/// Whether span `i` lies inside a span named `ancestor`.
pub fn within(spans: &[Span], mut i: usize, ancestor: &str) -> bool {
    while let Some(p) = spans[i].parent {
        if spans[p].name == ancestor {
            return true;
        }
        i = p;
    }
    false
}

/// Chrome trace-event JSON of `spans` (timestamps in microseconds).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"mltc\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{},\"frame\":{},\"cpu_us\":{:.3}}}}}",
            s.name,
            s.wall.0 as f64 / 1e3,
            (s.wall.1 - s.wall.0) as f64 / 1e3,
            s.tid,
            opt(s.parent.map(|p| p as u64)),
            opt(s.frame),
            s.cpu_ns() as f64 / 1e3,
        )
        .expect("write to string");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_reparents() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.open("pass", None);
        t.span("leaf", Some(1), || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        let mut worker = t.fork(1);
        worker.span("client", Some(2), || ());
        t.absorb(worker);
        t.close();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0), "absorbed root hangs under pass");
        assert!(within(spans, 2, "pass"));
        let st = self_times(spans);
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, spans[0].cpu_ns(), "self times partition the root");
        assert!(chrome_trace_json(spans).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.span("x", None, || ());
        assert!(t.spans().is_empty());
    }
}
