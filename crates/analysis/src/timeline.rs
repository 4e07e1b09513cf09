//! An ASCII rendering of the VGV main time-line display (paper Fig 4).
//!
//! "In the main time-line display, MPI processes and OpenMP threads are
//! shown as horizontal bars. A wiggle glyph is superimposed on these bars
//! to represent OpenMP parallel regions."
//!
//! Each rank gets one row; time is bucketed into columns. Bucket glyphs,
//! by precedence: `M` while inside an MPI call, `~` while any OpenMP
//! parallel region is active (the wiggle), `#` while inside an
//! instrumented function, `.` otherwise-idle trace time, ` ` before the
//! rank's first event. Optional per-thread rows expand the activity of
//! the individual team members.
//!
//! Rendering is streaming: [`TimelineBuilder`] takes the time bounds up
//! front (for a store, the footer index provides them without decoding
//! anything), accepts events in any order via [`TimelineBuilder::push`],
//! and assembles the rows at [`TimelineBuilder::finish`]. Memory is
//! `O(rows × width)` — the size of the picture, not of the trace.

use std::collections::HashMap;

use dynprof_sim::SimTime;
use dynprof_vt::{Event, Trace};

/// Timeline rendering options.
#[derive(Clone, Copy, Debug)]
pub struct TimelineOptions {
    /// Number of time buckets (columns).
    pub width: usize,
    /// Also render one row per OpenMP thread.
    pub per_thread: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 72,
            per_thread: false,
        }
    }
}

#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Glyph {
    Blank = 0,
    Idle = 1,
    Func = 2,
    Wiggle = 3,
    Mpi = 4,
    /// Suspended by the instrumenter (paper §5.1's period of inactivity).
    Suspended = 5,
}

impl Glyph {
    fn ch(self) -> char {
        match self {
            Glyph::Blank => ' ',
            Glyph::Idle => '.',
            Glyph::Func => '#',
            Glyph::Wiggle => '~',
            Glyph::Mpi => 'M',
            Glyph::Suspended => 'S',
        }
    }
}

/// The window's time-to-column mapping, fixed at construction.
#[derive(Clone, Copy)]
struct Buckets {
    t0: SimTime,
    /// Window length in nanoseconds, at least 1.
    span: u64,
    width: usize,
}

impl Buckets {
    fn of(&self, t: SimTime) -> usize {
        let rel = t.saturating_sub(self.t0).as_nanos();
        if rel >= self.span {
            return self.width - 1;
        }
        // rel < span, so the quotient is below `width`.
        match rel.checked_mul(self.width as u64) {
            Some(p) => (p / self.span) as usize,
            None => (rel as u128 * self.width as u128 / self.span as u128) as usize,
        }
    }

    /// Raise every cell of `grid` that `[a, b]` covers to at least `g`.
    fn paint(&self, grid: &mut [Glyph], a: SimTime, b: SimTime, g: Glyph) {
        for cell in grid[self.of(a)..=self.of(b)].iter_mut() {
            if (*cell as u8) < (g as u8) {
                *cell = g;
            }
        }
    }
}

/// One OpenMP thread of a rank: its row (empty until first painted,
/// and only painted with per-thread rows on) and its open frames.
#[derive(Default)]
struct ThreadRow {
    grid: Vec<Glyph>,
    open: Vec<SimTime>,
}

/// Everything the picture keeps about one rank.
struct RankRow {
    rank: u32,
    first: SimTime,
    last: SimTime,
    grid: Vec<Glyph>,
    /// Indexed by OpenMP thread id, grown on demand.
    threads: Vec<ThreadRow>,
}

impl RankRow {
    fn thread(&mut self, thread: u16) -> &mut ThreadRow {
        let i = thread as usize;
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, ThreadRow::default);
        }
        &mut self.threads[i]
    }
}

/// Streaming timeline accumulator over a fixed time window `[t0, t1]`.
pub struct TimelineBuilder {
    program: String,
    t0: SimTime,
    t1: SimTime,
    buckets: Buckets,
    per_thread: bool,
    /// One row per rank, in first-seen order until `finish` sorts them.
    rows: Vec<RankRow>,
    /// Rank → index into `rows`.
    slots: HashMap<u32, usize>,
    /// The last `(rank, slot)` looked up: store chunks deliver one rank
    /// at a time, so most events skip the map.
    last: Option<(u32, usize)>,
    events: u64,
}

impl TimelineBuilder {
    /// Start a timeline of `program` spanning `[t0, t1]`.
    pub fn new(
        program: impl Into<String>,
        t0: SimTime,
        t1: SimTime,
        opts: TimelineOptions,
    ) -> Self {
        TimelineBuilder {
            program: program.into(),
            t0,
            t1,
            buckets: Buckets {
                t0,
                span: t1.saturating_sub(t0).as_nanos().max(1),
                width: opts.width.max(8),
            },
            per_thread: opts.per_thread,
            rows: Vec::new(),
            slots: HashMap::new(),
            last: None,
            events: 0,
        }
    }

    fn row(&mut self, rank: u32, t: SimTime) -> &mut RankRow {
        let slot = match self.last {
            Some((r, slot)) if r == rank => slot,
            _ => {
                let rows = &mut self.rows;
                let width = self.buckets.width;
                let slot = *self.slots.entry(rank).or_insert_with(|| {
                    rows.push(RankRow {
                        rank,
                        first: t,
                        last: t,
                        grid: vec![Glyph::Blank; width],
                        threads: Vec::new(),
                    });
                    rows.len() - 1
                });
                self.last = Some((rank, slot));
                slot
            }
        };
        &mut self.rows[slot]
    }

    /// Account one event (order-independent except for
    /// `FuncEnter`/`FuncExit` pairing, which needs each rank-thread's
    /// causal order — what traces and store chunks both provide).
    pub fn push(&mut self, ev: &Event) {
        self.events += 1;
        let (buckets, per_thread) = (self.buckets, self.per_thread);
        let t = ev.time();
        let row = self.row(ev.rank(), t);
        row.first = row.first.min(t);
        row.last = row.last.max(t);
        // Paint `[a, b]` on the rank row and, with per-thread rows on,
        // on `thread`'s row too.
        let paint_both = |row: &mut RankRow, thread: u16, a, b, g| {
            buckets.paint(&mut row.grid, a, b, g);
            if per_thread {
                let th = row.thread(thread);
                if th.grid.is_empty() {
                    th.grid = vec![Glyph::Blank; buckets.width];
                }
                buckets.paint(&mut th.grid, a, b, g);
            }
        };
        match *ev {
            Event::FuncEnter { t, thread, .. } => row.thread(thread).open.push(t),
            Event::FuncExit { t, thread, .. } => {
                if let Some(t0) = row.thread(thread).open.pop() {
                    paint_both(row, thread, t0, t, Glyph::Func);
                }
            }
            Event::FuncBatch {
                t, thread, span, ..
            } => paint_both(row, thread, t, t + span, Glyph::Func),
            Event::MpiCall { t, t_end, .. } => buckets.paint(&mut row.grid, t, t_end, Glyph::Mpi),
            Event::OmpThread {
                t, t_end, thread, ..
            } => paint_both(row, thread, t, t_end, Glyph::Wiggle),
            Event::Suspended { t, t_end, .. } => {
                buckets.paint(&mut row.grid, t, t_end, Glyph::Suspended)
            }
            _ => {}
        }
    }

    /// Assemble the picture. Returns `"(empty trace)\n"` when nothing
    /// was pushed.
    pub fn finish(mut self) -> String {
        if self.events == 0 {
            return String::from("(empty trace)\n");
        }
        self.rows.sort_unstable_by_key(|row| row.rank);
        let mut out = String::new();
        out.push_str(&format!(
            "time-line of {:?}: {} .. {} ({} ranks)\n",
            self.program,
            self.t0,
            self.t1,
            self.rows.len()
        ));
        out.push_str("legend: M=MPI call  ~=OpenMP region  #=function  S=suspended  .=traced\n");
        let mut line = |label: String, grid: &[Glyph]| {
            out.push_str(&label);
            out.push('|');
            out.extend(grid.iter().map(|g| g.ch()));
            out.push_str("|\n");
        };
        for row in &mut self.rows {
            // Idle baseline: the rank's first..last event span.
            self.buckets
                .paint(&mut row.grid, row.first, row.last, Glyph::Idle);
            line(format!("rank {:>3}      ", row.rank), &row.grid);
            for (t, th) in row.threads.iter().enumerate() {
                if !th.grid.is_empty() {
                    line(format!("  thread {t:>2}   "), &th.grid);
                }
            }
        }
        out
    }
}

/// Render a whole trace as an ASCII time-line (the legacy entry point;
/// events must be time-sorted, as [`dynprof_vt::VtLib::build_trace`]
/// guarantees).
pub fn render(trace: &Trace, opts: TimelineOptions) -> String {
    let (t0, t1) = match (trace.events.first(), trace.events.last()) {
        (Some(a), Some(b)) => (a.time(), b.time()),
        _ => return String::from("(empty trace)\n"),
    };
    let mut b = TimelineBuilder::new(trace.program.clone(), t0, t1, opts);
    for ev in &trace.events {
        b.push(ev);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_vt::VtFuncId;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn sample() -> Trace {
        Trace {
            program: "sweep3d".into(),
            functions: vec!["sweep".into()],
            events: vec![
                Event::FuncEnter {
                    t: us(0),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::MpiCall {
                    t: us(10),
                    t_end: us(30),
                    rank: 0,
                    op: 2,
                    peer: 1,
                    bytes: 100,
                },
                Event::FuncExit {
                    t: us(50),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::OmpFork {
                    t: us(0),
                    rank: 1,
                    region: 0,
                    team: 2,
                },
                Event::OmpThread {
                    t: us(5),
                    t_end: us(45),
                    rank: 1,
                    thread: 0,
                    region: 0,
                },
                Event::OmpThread {
                    t: us(5),
                    t_end: us(40),
                    rank: 1,
                    thread: 1,
                    region: 0,
                },
                Event::OmpJoin {
                    t: us(50),
                    rank: 1,
                    region: 0,
                    team: 2,
                },
            ],
        }
    }

    #[test]
    fn renders_rows_for_each_rank() {
        let s = render(&sample(), TimelineOptions::default());
        assert!(s.contains("rank   0"));
        assert!(s.contains("rank   1"));
        assert!(s.contains('M'), "MPI glyph missing:\n{s}");
        assert!(s.contains('~'), "wiggle glyph missing:\n{s}");
        assert!(s.contains('#'), "function glyph missing:\n{s}");
    }

    #[test]
    fn per_thread_rows_expand_team() {
        let s = render(
            &sample(),
            TimelineOptions {
                width: 40,
                per_thread: true,
            },
        );
        assert!(s.contains("thread  0"));
        assert!(s.contains("thread  1"));
    }

    #[test]
    fn mpi_glyph_beats_function_glyph() {
        let s = render(
            &sample(),
            TimelineOptions {
                width: 50,
                per_thread: false,
            },
        );
        let row0 = s.lines().find(|l| l.contains("rank   0")).unwrap();
        // The MPI call sits at 20%-60% of the row.
        let bars: String = row0.chars().skip_while(|c| *c != '|').collect();
        assert!(bars.contains('M'));
        assert!(bars.contains('#'));
    }

    #[test]
    fn empty_trace_is_handled() {
        let t = Trace::default();
        assert_eq!(render(&t, TimelineOptions::default()), "(empty trace)\n");
    }

    #[test]
    fn width_is_respected() {
        let s = render(
            &sample(),
            TimelineOptions {
                width: 30,
                per_thread: false,
            },
        );
        for line in s.lines().filter(|l| l.starts_with("rank")) {
            let inner = line.split('|').nth(1).unwrap();
            assert_eq!(inner.chars().count(), 30);
        }
    }

    #[test]
    fn windowed_builder_clamps_outside_spans() {
        // A window inside the trace: spans crossing the edge clamp to it.
        let mut b = TimelineBuilder::new(
            "w",
            us(10),
            us(20),
            TimelineOptions {
                width: 10,
                per_thread: false,
            },
        );
        b.push(&Event::MpiCall {
            t: us(5),
            t_end: us(40),
            rank: 0,
            op: 2,
            peer: 1,
            bytes: 0,
        });
        let s = b.finish();
        let row = s.lines().find(|l| l.starts_with("rank")).unwrap();
        let inner: String = row.split('|').nth(1).unwrap().into();
        assert_eq!(inner, "MMMMMMMMMM", "span clamps to the window: {s}");
    }

    #[test]
    fn builder_equals_legacy_render() {
        let trace = sample();
        let opts = TimelineOptions {
            width: 44,
            per_thread: false,
        };
        let mut b = TimelineBuilder::new(
            trace.program.clone(),
            trace.events.first().unwrap().time(),
            trace.events.last().unwrap().time(),
            opts,
        );
        for ev in &trace.events {
            b.push(ev);
        }
        assert_eq!(b.finish(), render(&trace, opts));
    }
}
