//! Benchmark-side spans around every layer call the benchmark makes.
//!
//! A span has a name, a start and an end (host nanoseconds since the
//! recorder was created), the span that was open when it began (its
//! parent), and a session id shared by every span of one simulated
//! session, confsync run or query. Spans stay in memory and are written
//! once, when the run ends. A disabled recorder records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use dynprof_obs::Json;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.run_session` or `query.slice`.
    pub name: &'static str,
    /// Start, host ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, host ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Session id (0 for pass-level spans).
    pub session: u64,
}

impl Span {
    /// Duration in host nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// The span recorder of one run.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_session: u64,
}

impl Recorder {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_session: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off; open spans are unaffected.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh session id (ids start at 1; 0 marks pass-level spans).
    pub fn new_session(&mut self) -> u64 {
        self.next_session += 1;
        self.next_session
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str, session: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            session,
        });
        let i = self.spans.len() - 1;
        self.stack.push(i);
        Open(Some(i))
    }

    /// Close `open`, and any span still open inside it.
    pub fn exit(&mut self, open: Open) {
        let Some(i) = open.0 else { return };
        let now = self.now_ns();
        while let Some(j) = self.stack.pop() {
            self.spans[j].end_ns = now;
            if j == i {
                break;
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from.min(self.spans.len())..]
    }

    /// Per span name: (count, total ns, self ns) over every span, where
    /// self time is a span's duration minus the part its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = &self.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += s.duration_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration in ms of the spans named `name` in `spans`.
    pub fn total_ms(spans: &[Span], name: &str) -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |ms, s| ms + s.duration_ns() as f64 / 1e6)
    }

    /// The whole recording as JSON: every span plus the per-name summary.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", i.into()),
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("session", s.session.into()),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (n, total, own))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", n.into()),
                        ("total_ms", (total as f64 / 1e6).into()),
                        ("self_ms", (own as f64 / 1e6).into()),
                    ]),
                )
            })
            .collect();
        Json::obj([("summary", Json::Obj(summary)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut r = Recorder::new(true);
        let sid = r.new_session();
        let outer = r.enter("outer", sid);
        let inner = r.enter("inner", sid);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(inner);
        r.exit(outer);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].session, s[1].session);
        let sum = r.summary();
        let (_, total, own) = sum["outer"];
        assert_eq!(total - own, s[1].duration_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let o = r.enter("x", 0);
        r.exit(o);
        assert!(r.spans().is_empty());
    }
}
