//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Disabled (the untraced run), `begin`
//! and `end` return at once and nothing is recorded; enabled, spans go into
//! a buffer allocated up front and are written out as Chrome-trace JSON when
//! the workload ends. Self time is computed afterwards from the buffer.

use std::io::Write;
use std::time::Instant;

/// The calls the benchmark wraps. The discriminant indexes [`SPAN_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Window,
    Materialise,
    ProcessBatch,
    Submit,
    Flush,
    ControlLoad,
    ControlUpdate,
    ControlUnload,
    IoServe,
    IoSend,
    IoRecv,
}

/// Span names as they appear in the trace file.
pub const SPAN_NAMES: [&str; 11] = [
    "window",
    "gen.materialise",
    "core.process_batch",
    "runtime.submit",
    "runtime.flush",
    "runtime.control.load",
    "runtime.control.update",
    "runtime.control.unload",
    "io.serve",
    "io.send",
    "io.recv",
];

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    pub window: u16,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    current: u32,
    window: u16,
    dropped: u64,
}

impl Tracer {
    /// The untraced run's tracer: records nothing, allocates nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            capacity: 0,
            current: NO_PARENT,
            window: 0,
            dropped: 0,
        }
    }

    /// A recording tracer holding at most `capacity` spans; `origin` is the
    /// zero of its clock (share one origin between threads of one run).
    pub fn on(capacity: usize, origin: Instant) -> Tracer {
        Tracer {
            enabled: true,
            origin,
            spans: Vec::with_capacity(capacity),
            capacity,
            current: NO_PARENT,
            window: 0,
            dropped: 0,
        }
    }

    /// Window id stamped on spans begun from now on.
    pub fn set_window(&mut self, window: u16) {
        self.window = window;
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: SpanName) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name: name as u8,
            window: self.window,
            parent: self.current,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.current = index;
        Open(index)
    }

    /// Closes the span `begin` opened. Spans close innermost first.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        self.current = span.parent;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Count, total and self time of every span name, over the spans `keep`
/// accepts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval its
/// direct children cover — the union of their intervals clipped to the
/// parent, so nested grandchildren are not subtracted twice and overlapping
/// children (two threads' spans under one parent) are not counted twice.
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> [SpanTotals; SPAN_NAMES.len()] {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let lo = spans[parent as usize].start_ns;
        let hi = spans[parent as usize].end_ns.max(lo);
        let mut reach = lo;
        while i < children.len() && children[i].0 == parent {
            let start = children[i].1.clamp(reach, hi);
            let end = children[i].2.clamp(reach, hi);
            covered[parent as usize] += end - start;
            reach = reach.max(end);
            i += 1;
        }
    }
    let mut totals = [SpanTotals::default(); SPAN_NAMES.len()];
    for (index, span) in spans.iter().enumerate() {
        if !keep(span) {
            continue;
        }
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let slot = &mut totals[span.name as usize];
        slot.count += 1;
        slot.total_ns += duration;
        slot.self_ns += duration - covered[index].min(duration);
    }
    totals
}

/// Writes the threads' spans as one Chrome-trace JSON document
/// (`chrome://tracing`, Perfetto): complete events, microsecond timestamps.
pub fn write_chrome_trace(
    out: &mut impl Write,
    process: &str,
    threads: &[(&str, &[Span])],
) -> std::io::Result<()> {
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
    )?;
    for (tid, (thread, spans)) in threads.iter().enumerate() {
        let tid = tid + 1;
        write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{thread}\"}}}}"
        )?;
        for (index, span) in spans.iter().enumerate() {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{index},\"parent\":{},\"window\":{}}}}}",
                SPAN_NAMES[span.name as usize],
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) },
                span.window,
            )?;
        }
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name as u8,
            window: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // window [0,100] > submit [10,60] > flush [20,30]
        let spans = [
            span(SpanName::Window, NO_PARENT, 0, 100),
            span(SpanName::Submit, 0, 10, 60),
            span(SpanName::Flush, 1, 20, 30),
        ];
        let totals = self_times(&spans, |_| true);
        assert_eq!(totals[SpanName::Window as usize].self_ns, 50);
        assert_eq!(totals[SpanName::Submit as usize].self_ns, 40);
        assert_eq!(totals[SpanName::Flush as usize].self_ns, 10);
        assert_eq!(totals[SpanName::Submit as usize].total_ns, 50);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        // Children [10,40] and [30,70] overlap; [90,130] sticks out past the
        // parent's end and is clipped to [90,100].
        let spans = [
            span(SpanName::Window, NO_PARENT, 0, 100),
            span(SpanName::Submit, 0, 10, 40),
            span(SpanName::Submit, 0, 30, 70),
            span(SpanName::Flush, 0, 90, 130),
        ];
        let totals = self_times(&spans, |_| true);
        assert_eq!(totals[SpanName::Window as usize].self_ns, 100 - 60 - 10);
        assert_eq!(totals[SpanName::Submit as usize].count, 2);
        assert_eq!(totals[SpanName::Submit as usize].self_ns, 30 + 40);
    }

    #[test]
    fn filter_selects_spans_but_children_still_subtract() {
        let mut a = span(SpanName::Window, NO_PARENT, 0, 100);
        a.window = 1;
        let b = span(SpanName::Submit, 0, 0, 25);
        let totals = self_times(&[a, b], |s| s.window == 1);
        assert_eq!(totals[SpanName::Window as usize].self_ns, 75);
        assert_eq!(totals[SpanName::Submit as usize].count, 0);
    }

    #[test]
    fn tracer_records_parents_and_drops_when_full() {
        let mut tracer = Tracer::on(2, Instant::now());
        tracer.set_window(3);
        let outer = tracer.begin(SpanName::Window);
        let inner = tracer.begin(SpanName::Submit);
        let lost = tracer.begin(SpanName::Flush);
        tracer.end(lost);
        tracer.end(inner);
        tracer.end(outer);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped(), 1);
        assert_eq!(tracer.spans()[1].parent, 0);
        assert_eq!(tracer.spans()[0].parent, NO_PARENT);
        assert_eq!(tracer.spans()[1].window, 3);
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let open = tracer.begin(SpanName::Submit);
        tracer.end(open);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn chrome_trace_is_json() {
        let spans = [
            span(SpanName::Window, NO_PARENT, 0, 1500),
            span(SpanName::Submit, 0, 100, 600),
        ];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, "lone_exact", &[("generator", &spans)]).unwrap();
        let doc = menshen_json::Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let Some(menshen_json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[3].get("name"),
            Some(&menshen_json::Json::Str("runtime.submit".into()))
        );
    }
}
