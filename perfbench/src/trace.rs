//! Spans recorded by the benchmark around its calls into the program,
//! kept in memory and written once as a Chrome trace at the end.

use rcarb::obs::{chrome, Obs, SpanGuard, SpanRecord};
use std::collections::BTreeMap;

/// The validator compares every span against every other, so a traced
/// phase stops opening spans past this many.
pub const MAX_SPANS: usize = 16_000;

/// Total self time and occurrence count of every span name.
#[derive(Debug, Default)]
pub struct SelfTimes(BTreeMap<String, (f64, u64)>);

impl SelfTimes {
    /// Total self time of spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(us, _)| us)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |&(_, n)| n)
    }

    /// Mean self time per span named `name`, in microseconds (0 when
    /// the layer never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_us(name) / n as f64,
        }
    }
}

/// One traced phase's span session.
#[derive(Debug, Default)]
pub struct Tracer {
    obs: Obs,
    opened: std::cell::Cell<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span around a call into the program; it closes when the
    /// guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.opened.set(self.opened.get() + 1);
        self.obs.span(name)
    }

    /// Adds `delta` to the session counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        self.obs.metrics().counter_add(name, delta);
    }

    /// The session counter `name`.
    pub fn counted(&self, name: &str) -> u64 {
        self.obs.snapshot().counter(name)
    }

    /// True once the phase has opened [`MAX_SPANS`] spans.
    pub fn full(&self) -> bool {
        self.opened.get() >= MAX_SPANS
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its children cover.
    pub fn self_times(&self) -> SelfTimes {
        self_times(&self.obs.spans())
    }

    /// The Chrome trace document, checked by the program's own
    /// validator, and its span count.
    ///
    /// # Errors
    ///
    /// Returns the validator's complaint.
    pub fn validated_trace(&self) -> Result<(String, usize), String> {
        let doc = self.obs.chrome_trace();
        let summary = chrome::validate_trace(&doc).map_err(|e| format!("invalid trace: {e}"))?;
        Ok((doc.to_string(), summary.spans))
    }
}

/// Self time per span name, in microseconds.
pub fn self_times(spans: &[SpanRecord]) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut out = SelfTimes::default();
    for s in spans {
        let (start, end) = (s.start_us, s.start_us + s.dur_us);
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        // Length of the union of the children's intervals, clipped to
        // the parent's.
        let mut covered = 0;
        let mut reach = start;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let entry = out.0.entry(s.name.clone()).or_default();
        entry.0 += (s.dur_us - covered) as f64;
        entry.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "op", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 30, 20),
            span(4, Some(1), "a", 80, 10),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [80, 90): 50 of the op's 100 us.
        assert_eq!(t.total_us("op"), 50.0);
        assert_eq!((t.total_us("a"), t.count("a")), (40.0, 2));
        assert_eq!(t.mean_us("a"), 20.0);
        assert_eq!(t.mean_us("missing"), 0.0);
    }

    #[test]
    fn a_traced_session_validates() {
        let tracer = Tracer::new();
        {
            let _op = tracer.span("op");
            let _child = tracer.span("child");
        }
        let (text, spans) = tracer.validated_trace().unwrap();
        assert_eq!(spans, 2);
        assert!(text.contains("traceEvents"));
        assert_eq!(tracer.self_times().count("child"), 1);
    }
}
