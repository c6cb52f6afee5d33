//! Spans recorded by the benchmark around its own calls into a layer.
//!
//! Spans stay in memory and are written once, at exit, in Chrome
//! trace-event format (opens offline in `chrome://tracing` or Perfetto).
//! The product is not instrumented: a span's children are the calls the
//! benchmark itself made inside it.

use std::time::Instant;

use crate::json;

/// Work counted at a span's boundary, so ratios are taken where the work
/// happens.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Operations the span performed (values, ciphertexts, iterations).
    pub items: u64,
    /// Payload bytes the span produced or moved.
    pub bytes: u64,
    /// Estimated 64×64 limb multiplications inside the span.
    pub limb_mults: u64,
}

impl Counts {
    pub fn items(items: u64) -> Self {
        Counts {
            items,
            ..Counts::default()
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Which sample of its kind this span is (0 when not sampled).
    pub sample: u32,
    pub counts: Counts,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the calling thread. When disabled, `span`
/// only runs its closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span; spans `f` opens through the tracer it is
    /// handed become this span's children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        sample: u32,
        counts: Counts,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            sample,
            counts,
        });
        self.open.push(idx);
        // Clock reads sit directly around `f`, inside the bookkeeping.
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        out
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Chrome trace-event document for this run. `meta` pairs go to
    /// `otherData`.
    pub fn to_chrome_json(&self, workload: &str, meta: &[(String, String)]) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)));
        }
        out.push_str("},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\
                 \"sample\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"items\":{},\"bytes\":{},\"limb_mults\":{}}}}}",
                json::escape(s.name),
                json::escape(s.layer),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.duration_ns() as f64 / 1e3),
                i,
                parent,
                json::escape(workload),
                s.sample,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.counts.items,
                s.counts.bytes,
                s.counts.limb_mults,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so the result is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "test",
            start_ns,
            end_ns,
            parent,
            sample: 0,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
            span(15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 20, 5]);
    }

    #[test]
    fn self_time_is_never_negative_and_children_are_clipped_to_the_parent() {
        // One child overhangs both ends, two overlap each other, one lies
        // wholly outside: coverage can never exceed the parent.
        let spans = [
            span(100, 200, None),
            span(50, 260, Some(0)),
            span(120, 160, Some(0)),
            span(150, 180, Some(0)),
            span(300, 400, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 0);
        let spans = [
            span(100, 200, None),
            span(120, 160, Some(0)),
            span(150, 180, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A span whose clock went backwards has zero duration, not a wrap.
        assert_eq!(self_times_ns(&[span(10, 5, None)]), vec![0]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_stay_inside_it() {
        let mut t = Tracer::new(true);
        t.span("outer", "a", 3, Counts::items(2), |t| {
            t.span("inner", "b", 0, Counts::default(), |_| {
                std::hint::black_box(1 + 1)
            });
            t.span("inner", "b", 1, Counts::default(), |_| ());
        });
        t.span("second", "a", 0, Counts::default(), |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[0].sample, 3);
        for child in &s[1..3] {
            assert!(child.start_ns >= s[0].start_ns && child.end_ns <= s[0].end_ns);
        }
        assert!(s[2].start_ns >= s[1].end_ns);
        assert_eq!(t.durations_ns("inner").len(), 2);
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "y", 0, Counts::default(), |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_document_is_valid_json_with_a_parent_for_every_non_root_span() {
        let mut t = Tracer::new(true);
        t.span("root \"quoted\"", "epoch", 0, Counts::default(), |t| {
            t.span("child", "he", 0, Counts::items(4), |_| ());
        });
        let meta = [("rustc".to_string(), "rustc 1.0 (\"x\")".to_string())];
        let doc = json::parse(&t.to_chrome_json("w\\1", &meta)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let mut roots = 0;
        for e in events {
            let args = e.get("args").unwrap();
            assert_eq!(args.get("workload").unwrap().as_str(), Some("w\\1"));
            match args.get("parent").unwrap() {
                json::Value::Null => roots += 1,
                p => assert!(p.as_f64().unwrap() < events.len() as f64),
            }
        }
        assert_eq!(roots, 1);
        assert_eq!(
            doc.get("otherData").unwrap().get("rustc").unwrap().as_str(),
            Some("rustc 1.0 (\"x\")")
        );
    }
}
