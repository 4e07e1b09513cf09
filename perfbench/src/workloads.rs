//! The four workloads. Each is a set-up step plus a pass: the timed part
//! of one repetition. A pass calls the program's layers through their
//! public functions, times each call, and checks every output it gets.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dynprof_analysis::store::{write_store_from_vt, StoreOptions, StoreReader};
use dynprof_analysis::{comm_report, slice_report, top_report, Profile, ProfileOptions};
use dynprof_apps::workload::Outputs;
use dynprof_apps::{paper_app, test_app};
use dynprof_bench::{
    fig7_cpus, fig7_policies, ConfsyncExperiment, Figure, Series, CONTROLLER_BUDGETS,
};
use dynprof_core::{run_session, AdaptiveSettings, AppSpec, SessionConfig, SessionReport};
use dynprof_mpi::{launch, JobSpec};
use dynprof_sim::rng::SimRng;
use dynprof_sim::{Machine, OnlineStats, Sim, SimTime};
use dynprof_vt::{confsync, ConfigDelta, Event, MonitorLink, Policy, VtConfig, VtLib, VtMpiHooks};

use crate::spans::Recorder;
use crate::{Scale, Workload};

/// The default seed: it reproduces the exact seeds of the figure
/// harnesses (fig7 `1000+cpus`, fig8 `0xF160+run`, fig9 `77+cpus`,
/// controller `42`), so the committed figures are checked byte for byte.
pub const DEFAULT_SEED: u64 = 0;

/// Seed bases of one run: each harness seed plus `4000 × seed`
/// (wrapping), so seed 1 gives fig7 base 5000.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// The `--seed` value.
    pub seed: u64,
    /// Fig 7 sessions (and the trace_store recording) use `fig7 + cpus`.
    pub fig7: u64,
    /// Fig 8 confsync runs use `fig8 + run`.
    pub fig8: u64,
    /// Fig 9 sessions use `fig9 + cpus`.
    pub fig9: u64,
    /// Controller-convergence sessions use `controller`.
    pub controller: u64,
}

impl Seeds {
    /// The bases for `seed`.
    pub fn new(seed: u64) -> Seeds {
        let off = seed.wrapping_mul(4000);
        Seeds {
            seed,
            fig7: 1000u64.wrapping_add(off),
            fig8: 0xF160u64.wrapping_add(off),
            fig9: 77u64.wrapping_add(off),
            controller: 42u64.wrapping_add(off),
        }
    }
}

/// Expected outputs checked byte for byte; `None` skips that check.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    /// Rendered Fig 7 sections (as in `results/fig7.txt`).
    pub fig7: Option<String>,
    /// Rendered Fig 8 sections (as in `results/fig8.txt`).
    pub fig8: Option<String>,
    /// Fig 9 JSON (as in `tests/golden/fig9.json`).
    pub fig9: Option<String>,
}

impl Expected {
    /// The committed figures, which the default seed at paper scale
    /// reproduces; nothing otherwise.
    pub fn committed(seed: u64, scale: Scale) -> Expected {
        if seed != DEFAULT_SEED || scale != Scale::Paper {
            return Expected::default();
        }
        Expected {
            fig7: Some(include_str!("../../results/fig7.txt").to_string()),
            fig8: Some(include_str!("../../results/fig8.txt").to_string()),
            fig9: Some(include_str!("../../tests/golden/fig9.json").to_string()),
        }
    }
}

/// Everything a workload needs besides its own state.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Seed bases.
    pub seeds: Seeds,
    /// Paper scale, or the tiny scale of the benchmark's own tests.
    pub scale: Scale,
    /// Byte-for-byte expectations.
    pub expected: Expected,
    /// Directory for the `trace_store` store file.
    pub store_dir: PathBuf,
    /// Flip one byte of the store after writing it (tests only: the
    /// checks must catch it).
    pub tamper_store: bool,
}

/// Layer numbers the benchmark observes itself (rather than through
/// `dynprof_obs`), summed over one pass.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// Sum of `Image::total_calls` over every session's images.
    pub image_calls: u64,
    /// Sum of `Image::patch_count`.
    pub image_patches: u64,
    /// `OmpFork` events in the session traces (traced passes only).
    pub omp_forks: u64,
    /// `OmpThread` events in the session traces (traced passes only).
    pub omp_thread_spans: u64,
    /// `ConfSync` events in the traces (traced passes only).
    pub confsyncs: u64,
    /// Store file bytes written.
    pub store_bytes: u64,
    /// Store chunks written.
    pub store_chunks: u64,
    /// Events written to the store.
    pub store_events: u64,
    /// Largest decoded chunk payload the reader held.
    pub store_peak_chunk_bytes: u64,
    /// Chunks slices decoded.
    pub slice_chunks_decoded: u64,
    /// Chunks slices considered.
    pub slice_chunks_considered: u64,
}

/// What one pass produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host ms of every timed program call, in call order. Every pass of
    /// a run makes the same calls in the same order.
    pub calls_ms: Vec<f64>,
    /// Indices into `calls_ms` of the operations: sessions, confsync runs
    /// and slice queries.
    pub ops: Vec<usize>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// What the first failed checks were.
    pub failures: Vec<String>,
    /// Figures rendered by the pass, in harness output format.
    pub figures: String,
    /// Layer numbers observed by the benchmark.
    pub observed: Observed,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Host seconds spent inside the program's calls.
    pub fn wall_s(&self) -> f64 {
        self.calls_ms.iter().sum::<f64>() / 1e3
    }

    /// Run `f` as one timed program call named `name`, with a span
    /// recorded around it.
    fn timed<R>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        session: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let span = rec.enter(name, session);
        let t0 = Instant::now();
        let r = f(rec);
        self.calls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.exit(span);
        r
    }

    /// Mark the last timed call as an operation.
    fn mark_op(&mut self) {
        self.ops.push(self.calls_ms.len() - 1);
    }
}

/// App-spec builds per set-up of `fig7_*` and `control_plane`.
const SPEC_BUILDS: usize = 16;

/// A workload with its set-up done.
pub enum State {
    /// `fig7_mpi` or `fig7_omp`.
    Fig7(Fig7),
    /// `trace_store`.
    Store(Box<TraceStore>),
    /// `control_plane`.
    Control(ControlPlane),
}

impl State {
    /// Set the workload up: build the app specs, and for `trace_store`
    /// record the trace. Returns the state and the host seconds of each
    /// set-up repetition: the program calls only, not the benchmark's own
    /// derivation of expected outputs.
    pub fn setup(ctx: &Ctx, rec: &mut Recorder) -> (State, Vec<f64>) {
        if ctx.workload == Workload::TraceStore {
            let (w, times) = TraceStore::setup(ctx, rec);
            return (State::Store(Box::new(w)), times);
        }
        // Building app specs takes about a millisecond: repeat it so the
        // median is steady, and keep the last build.
        let mut times = Vec::with_capacity(SPEC_BUILDS);
        let mut state = None;
        for _ in 0..SPEC_BUILDS {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(match ctx.workload {
                Workload::ControlPlane => State::Control(ControlPlane::setup(ctx, rec)),
                _ => State::Fig7(Fig7::setup(ctx, rec)),
            });
            times.push(t0.elapsed().as_secs_f64());
        }
        (state.expect("at least one build"), times)
    }

    /// One pass of the timed part. `fig7_*` and `control_plane` consume
    /// the app specs set-up built, so every pass gets fresh ones and no
    /// output carries over; `trace_store` reuses its recording.
    pub fn pass(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Pass {
        match self {
            State::Fig7(w) => w.pass(ctx, rec),
            State::Store(w) => w.pass(ctx, rec),
            State::Control(w) => w.pass(ctx, rec),
        }
    }

    /// Whether the state can run another pass without a new set-up.
    pub fn reusable(&self) -> bool {
        matches!(self, State::Store(_))
    }
}

/// Count the OpenMP and confsync events among every rank's events.
fn count_events(vt: &VtLib, obs: &mut Observed) {
    for rank in 0..vt.ranks() {
        vt.with_rank_events(rank, |evs| {
            for e in evs {
                match e {
                    Event::OmpFork { .. } => obs.omp_forks += 1,
                    Event::OmpThread { .. } => obs.omp_thread_spans += 1,
                    Event::ConfSync { .. } => obs.confsyncs += 1,
                    _ => {}
                }
            }
        });
    }
}

/// Tally a finished session's images, and when `deep` (a traced pass),
/// its events.
fn observe_session(report: &SessionReport, deep: bool, pass: &mut Pass) {
    for img in &report.images {
        pass.observed.image_calls += img.total_calls();
        pass.observed.image_patches += img.patch_count();
    }
    if deep {
        count_events(&report.vt, &mut pass.observed);
    }
}

/// Check `rendered` (one figure, as `Figure::render` prints it) against
/// the section of `expected` with the same title line.
fn check_section(pass: &mut Pass, rendered: &str, expected: &str) {
    let title = rendered.lines().next().unwrap_or_default();
    let found = expected
        .split("\n\n")
        .find(|s| s.trim_start_matches('\n').lines().next() == Some(title))
        .map(|s| format!("{}\n", s.trim_start_matches('\n').trim_end_matches('\n')));
    pass.check(found.as_deref() == Some(rendered), || {
        format!("figure differs from the committed one: {title}")
    });
}

// ---------------------------------------------------------------------------
// fig7_mpi / fig7_omp
// ---------------------------------------------------------------------------

/// Fig 7 sessions: every (app, CPU count, policy) of the chosen apps in
/// the harness's order, each with its own freshly built app spec.
pub struct Fig7 {
    sessions: Vec<(&'static str, usize, Policy, AppSpec, Arc<Outputs>)>,
}

/// An app spec and its output sink: paper scale through
/// [`paper_app`], tiny scale through each kernel's test parameters.
fn app_with_outputs(name: &str, cpus: usize, scale: Scale) -> (AppSpec, Arc<Outputs>) {
    use dynprof_apps::{smg98, sppm, sweep3d, umt98};
    use dynprof_apps::{Smg98Params, SppmParams, Sweep3dParams, Umt98Params};
    match scale {
        Scale::Paper => paper_app(name, cpus).expect("a paper kernel"),
        Scale::Tiny => match name {
            "smg98" => {
                let p = Smg98Params::test();
                let o = Arc::clone(&p.outputs);
                (smg98(cpus, p), o)
            }
            "sppm" => {
                let p = SppmParams::test();
                let o = Arc::clone(&p.outputs);
                (sppm(cpus, p), o)
            }
            "sweep3d" => {
                let p = Sweep3dParams::test();
                let o = Arc::clone(&p.outputs);
                (sweep3d(cpus, p), o)
            }
            _ => {
                let p = Umt98Params::test();
                let o = Arc::clone(&p.outputs);
                (umt98(cpus, p), o)
            }
        },
    }
}

/// The CPU counts of Fig 7 for `app` (the first two at tiny scale).
fn cpus_of(app: &str, scale: Scale) -> Vec<usize> {
    let mut c = fig7_cpus(app);
    if scale == Scale::Tiny {
        c.truncate(2);
    }
    c
}

impl Fig7 {
    fn apps(workload: Workload) -> &'static [&'static str] {
        if workload == Workload::Fig7Omp {
            &["umt98"]
        } else {
            &["smg98", "sppm", "sweep3d"]
        }
    }

    fn setup(ctx: &Ctx, rec: &mut Recorder) -> Fig7 {
        let span = rec.enter("apps.build", 0);
        let mut sessions = Vec::new();
        for &app in Fig7::apps(ctx.workload) {
            for c in cpus_of(app, ctx.scale) {
                for policy in fig7_policies(app) {
                    let (spec, out) = app_with_outputs(app, c, ctx.scale);
                    sessions.push((app, c, policy, spec, out));
                }
            }
        }
        rec.exit(span);
        Fig7 { sessions }
    }

    fn pass(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let deep = rec.is_on();
        // (app, cpus, policy, app time, outputs, warnings) per session.
        let mut done = Vec::with_capacity(self.sessions.len());
        for (app, cpus, policy, spec, out) in std::mem::take(&mut self.sessions) {
            let cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy)
                .with_seed(ctx.seeds.fig7.wrapping_add(cpus as u64));
            let sid = rec.new_session();
            let report = pass.timed(rec, "core.run_session", sid, |_| run_session(&spec, cfg));
            pass.mark_op();
            observe_session(&report, deep, &mut pass);
            done.push((
                app,
                cpus,
                policy,
                report.app_time,
                out.all(),
                report.warnings,
            ));
        }
        // Instrumentation must not change what the application computes:
        // every session's outputs equal the None session's at its CPU count.
        let reference: BTreeMap<(&str, usize), BTreeMap<String, f64>> = done
            .iter()
            .filter(|d| d.2 == Policy::None)
            .map(|d| ((d.0, d.1), d.4.clone()))
            .collect();
        for (app, cpus, policy, _, outputs, warnings) in &done {
            let same = reference.get(&(*app, *cpus)) == Some(outputs) && !outputs.is_empty();
            pass.check(same && warnings.is_empty(), || {
                format!(
                    "{app}@{cpus} {policy:?}: outputs differ from None or warnings {warnings:?}"
                )
            });
        }
        for &app in Fig7::apps(ctx.workload) {
            let series = fig7_policies(app)
                .into_iter()
                .map(|p| Series {
                    label: p.label().to_string(),
                    points: done
                        .iter()
                        .filter(|d| d.0 == app && d.2 == p)
                        .map(|d| (d.1, d.3.as_secs_f64()))
                        .collect(),
                })
                .collect();
            let sub = match app {
                "smg98" => "a",
                "sppm" => "b",
                "sweep3d" => "c",
                _ => "d",
            };
            let fig = Figure {
                title: format!("Fig 7({sub}) {app}: execution time of instrumented versions"),
                unit: "seconds",
                xaxis: "CPUs",
                series,
            };
            let rendered = fig.render();
            if let Some(expected) = &ctx.expected.fig7 {
                check_section(&mut pass, &rendered, expected);
            }
            pass.figures.push_str(&rendered);
            pass.figures.push('\n');
        }
        pass
    }
}

// ---------------------------------------------------------------------------
// trace_store
// ---------------------------------------------------------------------------

/// `trace_store` records its trace this many times per run; `setup_s`
/// is the median. The other workloads set up once per pass.
const STORE_SETUPS: usize = 5;
/// Slice windows per pass (paper scale).
const SLICES: usize = 100;
/// Rows of `top`, as `vgv top` prints by default.
const TOP_ROWS: usize = 20;
/// Columns of a slice, as `vgv slice` renders by default.
const SLICE_WIDTH: usize = 96;

/// One recorded sweep3d session under the Full policy, written to a
/// store and queried back.
pub struct TraceStore {
    vt: Arc<VtLib>,
    events: u64,
    expected_top: String,
    windows: Vec<(SimTime, SimTime)>,
    path: PathBuf,
}

impl TraceStore {
    /// Ranks of the recorded session.
    fn ranks(scale: Scale) -> usize {
        match scale {
            Scale::Paper => 256,
            Scale::Tiny => 8,
        }
    }

    /// Record the session. The expected `top` and the slice windows are
    /// derived outside the recorded set-up time.
    fn record(ctx: &Ctx, rec: &mut Recorder) -> Arc<VtLib> {
        let ranks = TraceStore::ranks(ctx.scale);
        let span = rec.enter("apps.build", 0);
        let (spec, _out) = app_with_outputs("sweep3d", ranks, ctx.scale);
        rec.exit(span);
        let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full)
            .with_seed(ctx.seeds.fig7.wrapping_add(ranks as u64));
        let sid = rec.new_session();
        let span = rec.enter("core.run_session", sid);
        let report = run_session(&spec, cfg);
        rec.exit(span);
        report.vt
    }

    /// Record the session [`STORE_SETUPS`] times, keeping the last
    /// recording, and derive what the passes check from it. Returns the
    /// state and the host time of each recording.
    fn setup(ctx: &Ctx, rec: &mut Recorder) -> (TraceStore, Vec<f64>) {
        let mut times = Vec::with_capacity(STORE_SETUPS);
        let mut vt = None;
        for _ in 0..STORE_SETUPS {
            drop(vt.take());
            let t0 = Instant::now();
            vt = Some(TraceStore::record(ctx, rec));
            times.push(t0.elapsed().as_secs_f64());
        }
        let vt = vt.expect("at least one recording");
        (TraceStore::from_recording(ctx, vt), times)
    }

    /// Derive the expectations and windows from a recorded trace.
    fn from_recording(ctx: &Ctx, vt: Arc<VtLib>) -> TraceStore {
        let trace = vt.build_trace();
        let expected_top = Profile::from_trace(&trace).render_top(TOP_ROWS);
        let (lo, hi) = trace.events.iter().fold((u64::MAX, 0), |(lo, hi), e| {
            let t = e.time().as_nanos();
            (lo.min(t), hi.max(t))
        });
        let events = trace.events.len() as u64;
        drop(trace);
        let n = match ctx.scale {
            Scale::Paper => SLICES,
            Scale::Tiny => 5,
        };
        // Windows of 1/16 of the trace, one start drawn from the seed in
        // each of `n` equal strata of the possible starts, so every seed
        // covers the trace evenly and asks for about the same work.
        let width = ((hi - lo) / 16).max(1);
        let stride = (hi - lo - width.min(hi - lo)) as f64 / n as f64;
        let mut rng = SimRng::new(ctx.seeds.seed, 0x511CE);
        let windows = (0..n)
            .map(|i| {
                let jitter = rng.gen_range_u64(0..=1_000_000) as f64 / 1_000_001.0;
                let t0 = lo + ((i as f64 + jitter) * stride) as u64;
                (SimTime::from_nanos(t0), SimTime::from_nanos(t0 + width))
            })
            .collect();
        let path = ctx.store_dir.join(format!(
            "trace-{}-{}.vgvs",
            std::process::id(),
            ctx.seeds.seed
        ));
        TraceStore {
            vt,
            events,
            expected_top,
            windows,
            path,
        }
    }

    fn pass(&self, ctx: &Ctx, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        self.run(ctx, rec, &mut pass);
        let _ = std::fs::remove_file(&self.path);
        pass
    }

    fn run(&self, ctx: &Ctx, rec: &mut Recorder, pass: &mut Pass) {
        let sid = rec.new_session();
        let written = pass.timed(rec, "store.write", sid, |_| {
            write_store_from_vt(&self.vt, &self.path, StoreOptions::default())
        });
        let stats = match written {
            Ok(s) => s,
            Err(e) => return pass.check(false, || format!("store write failed: {e}")),
        };
        pass.check(stats.events == self.events, || {
            format!("store holds {} of {} events", stats.events, self.events)
        });
        pass.observed.store_bytes = stats.bytes;
        pass.observed.store_chunks = stats.chunks as u64;
        pass.observed.store_events = stats.events;
        if ctx.tamper_store {
            flip_middle_byte(&self.path);
        }

        let opened = pass.timed(rec, "store.open", sid, |_| StoreReader::open(&self.path));
        let mut reader = match opened {
            Ok(r) => r,
            Err(e) => return pass.check(false, || format!("store open failed: {e}")),
        };

        let top = pass.timed(rec, "query.top", sid, |_| {
            top_report(&mut reader, TOP_ROWS, ProfileOptions::default())
        });
        pass.check(top.as_ref().ok() == Some(&self.expected_top), || {
            "top differs from Profile::from_trace over the in-memory trace".into()
        });

        for &(t0, t1) in &self.windows {
            let sid = rec.new_session();
            let slice = pass.timed(rec, "query.slice", sid, |_| {
                slice_report(&mut reader, t0, t1, None, SLICE_WIDTH)
            });
            pass.mark_op();
            match slice {
                Ok((_, q)) => {
                    pass.check(q.chunks_bad == 0 && q.events_lost == 0, || {
                        format!("slice dropped {} chunks", q.chunks_bad)
                    });
                    pass.observed.slice_chunks_decoded += q.chunks_decoded as u64;
                    pass.observed.slice_chunks_considered += q.chunks_considered as u64;
                }
                Err(e) => pass.check(false, || format!("slice failed: {e}")),
            }
        }

        let comm = pass.timed(rec, "query.comm", sid, |_| comm_report(&mut reader));
        pass.check(comm.is_ok(), || "comm failed".into());

        // The events read back must equal the events written, rank by
        // rank, and no chunk may have been dropped.
        let span = rec.enter("check.round_trip", sid);
        let mut same = true;
        for rank in 0..self.vt.ranks() {
            let mut back = Vec::new();
            let read = reader.for_each_rank_event(rank as u32, |e| back.push(e.clone()));
            same &= read.is_ok() && self.vt.with_rank_events(rank, |evs| evs == back.as_slice());
        }
        rec.exit(span);
        pass.check(same && reader.dropped_chunks() == 0, || {
            format!(
                "store round trip differs ({} chunks dropped)",
                reader.dropped_chunks()
            )
        });
        pass.observed.store_peak_chunk_bytes = reader.peak_chunk_bytes() as u64;
    }
}

/// Flip the bits of the byte in the middle of the file at `path`.
fn flip_middle_byte(path: &Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let _ = std::fs::write(path, bytes);
    }
}

// ---------------------------------------------------------------------------
// control_plane
// ---------------------------------------------------------------------------

/// Fig 8 confsync runs, Fig 9 create+instrument sessions and the
/// controller-convergence sessions.
pub struct ControlPlane {
    fig9: Vec<(&'static str, usize, AppSpec)>,
    controller: Vec<(f64, AppSpec)>,
}

impl ControlPlane {
    fn runs(scale: Scale) -> usize {
        match scale {
            Scale::Paper => 16,
            Scale::Tiny => 2,
        }
    }

    fn epochs(scale: Scale) -> usize {
        match scale {
            Scale::Paper => 8,
            Scale::Tiny => 2,
        }
    }

    fn setup(ctx: &Ctx, rec: &mut Recorder) -> ControlPlane {
        let span = rec.enter("apps.build", 0);
        let fig9 = ["smg98", "sppm", "sweep3d", "umt98"]
            .into_iter()
            .flat_map(|app| {
                cpus_of(app, ctx.scale)
                    .into_iter()
                    .map(move |c| (app, c, test_app(app, c).expect("a paper kernel")))
            })
            .collect();
        let epochs = ControlPlane::epochs(ctx.scale);
        let controller = CONTROLLER_BUDGETS
            .iter()
            .map(|&b| {
                // The probe-dense sweep3d scaling of the convergence figure.
                let params = dynprof_apps::Sweep3dParams {
                    global_n: 16,
                    k_block: 1,
                    angle_groups: 4,
                    iterations: epochs,
                    omp_threads: 1,
                    scale: 0.001,
                    outputs: Outputs::new(),
                };
                (b, dynprof_apps::sweep3d(4, params))
            })
            .collect();
        rec.exit(span);
        ControlPlane { fig9, controller }
    }

    fn pass(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let deep = rec.is_on();
        let ibm = Machine::ibm_power3_colony();
        let ia32 = Machine::ia32_pentium3_cluster();
        let (ibm_procs, ia32_procs): (Vec<usize>, Vec<usize>) = match ctx.scale {
            Scale::Paper => (vec![2, 4, 8, 16, 32, 64, 128, 256, 512], (2..=16).collect()),
            Scale::Tiny => (vec![2, 4], vec![2, 3]),
        };
        let runs = ControlPlane::runs(ctx.scale);
        let series = |pass: &mut Pass,
                      rec: &mut Recorder,
                      m: &Machine,
                      procs: &[usize],
                      e: ConfsyncExperiment| {
            let label = match e {
                ConfsyncExperiment::NoChange => "No Change",
                ConfsyncExperiment::WithChange => "Changes",
                ConfsyncExperiment::WriteStats => "Write Stats",
            };
            let mut points = Vec::new();
            for &p in procs {
                let mut stats = OnlineStats::new();
                for run in 0..runs {
                    let seed = ctx.seeds.fig8.wrapping_add(run as u64);
                    let sid = rec.new_session();
                    let (cost, vt) = pass.timed(rec, "vt.confsync_run", sid, |rec| {
                        one_confsync(m, p, e, seed, rec, sid)
                    });
                    pass.mark_op();
                    if deep {
                        count_events(&vt, &mut pass.observed);
                    }
                    pass.check(cost > SimTime::ZERO, || {
                        format!("confsync at {p} ranks, seed {seed}: zero cost")
                    });
                    stats.push_time(cost);
                }
                points.push((p, stats.mean()));
            }
            Series {
                label: label.into(),
                points,
            }
        };
        use ConfsyncExperiment::{NoChange, WithChange, WriteStats};
        let a = vec![
            series(&mut pass, rec, &ibm, &ibm_procs, NoChange),
            series(&mut pass, rec, &ibm, &ibm_procs, WithChange),
        ];
        let b = vec![series(&mut pass, rec, &ibm, &ibm_procs, WriteStats)];
        let c = vec![series(&mut pass, rec, &ia32, &ia32_procs, NoChange)];
        let figs = [
            ("Fig 8(a) VT_confsync on IBM (no change vs changes)", a),
            ("Fig 8(b) VT_confsync writing statistics on IBM", b),
            ("Fig 8(c) VT_confsync on IA32 (no change)", c),
        ];
        for (title, series) in figs {
            let fig = Figure {
                title: title.into(),
                unit: "seconds",
                xaxis: "CPUs",
                series,
            };
            let rendered = fig.render();
            if let Some(expected) = &ctx.expected.fig8 {
                check_section(&mut pass, &rendered, expected);
            }
            pass.figures.push_str(&rendered);
            pass.figures.push('\n');
        }

        // Fig 9: create + instrument, on a suspended target.
        let mut fig9: Vec<Series> = Vec::new();
        for (app, cpus, spec) in std::mem::take(&mut self.fig9) {
            let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
                .with_seed(ctx.seeds.fig9.wrapping_add(cpus as u64));
            let sid = rec.new_session();
            let report = pass.timed(rec, "dpcl.create_instrument", sid, |_| {
                run_session(&spec, cfg)
            });
            pass.mark_op();
            observe_session(&report, deep, &mut pass);
            let t = report.create_and_instrument();
            pass.check(report.warnings.is_empty() && t > SimTime::ZERO, || {
                format!("fig9 {app}@{cpus}: warnings {:?}", report.warnings)
            });
            match fig9.last_mut() {
                Some(s) if s.label == app => s.points.push((cpus, t.as_secs_f64())),
                _ => fig9.push(Series {
                    label: app.into(),
                    points: vec![(cpus, t.as_secs_f64())],
                }),
            }
        }
        let json = Figure {
            title: "Fig 9 Time to create and instrument".into(),
            unit: "seconds",
            xaxis: "CPUs",
            series: fig9,
        }
        .to_json();
        if let Some(expected) = &ctx.expected.fig9 {
            pass.check(&json == expected, || "Fig 9 differs from its golden".into());
        }
        pass.figures.push_str(&json);
        pass.figures.push('\n');

        // Controller convergence: one adaptive session per budget.
        let epochs = ControlPlane::epochs(ctx.scale);
        for (budget, spec) in std::mem::take(&mut self.controller) {
            let settings = if budget.is_finite() {
                AdaptiveSettings::budget(budget)
            } else {
                AdaptiveSettings::observer()
            };
            let cfg = SessionConfig::new(Machine::test_machine(), Policy::Full)
                .with_seed(ctx.seeds.controller)
                .with_adaptive(settings);
            let sid = rec.new_session();
            let report = pass.timed(rec, "vt.controller_run", sid, |_| run_session(&spec, cfg));
            pass.mark_op();
            observe_session(&report, deep, &mut pass);
            let series = report.controller.map(|c| c.measured_series());
            let ok = series
                .as_ref()
                .is_some_and(|s| s.len() == epochs && s.iter().all(|v| v.is_finite()));
            pass.check(ok && report.warnings.is_empty(), || {
                format!("controller at budget {budget}%: series {series:?}")
            });
        }
        pass
    }
}

/// One `VT_confsync` cost measurement at rank 0, as the Fig 8 harness
/// makes it: populate statistics, barrier, time the confsync. Returns the
/// cost and the run's VT library.
fn one_confsync(
    machine: &Machine,
    ranks: usize,
    experiment: ConfsyncExperiment,
    seed: u64,
    rec: &mut Recorder,
    sid: u64,
) -> (SimTime, Arc<VtLib>) {
    let vt = VtLib::new("confsync-probe", ranks, VtConfig::all_on(), machine.probe);
    let monitor = MonitorLink::new();
    if experiment == ConfsyncExperiment::WithChange {
        monitor.post_change(
            ConfigDelta::Set(vec![("default".into(), false), ("solve_*".into(), true)]),
            SimTime::from_micros(500),
        );
    }
    let sim = Sim::virtual_time(machine.clone(), seed);
    let cost = Arc::new(Mutex::new(SimTime::ZERO));
    let (vt2, m2, c2) = (Arc::clone(&vt), Arc::clone(&monitor), Arc::clone(&cost));
    let write_stats = experiment == ConfsyncExperiment::WriteStats;
    let span = rec.enter("mpi.launch", sid);
    launch(
        &sim,
        JobSpec::new("confsync-probe", ranks),
        vec![VtMpiHooks::new(Arc::clone(&vt))],
        move |p, comm| {
            comm.init(p);
            for i in 0..16 {
                let f = vt2.funcdef(p, &format!("kernel_{i}"));
                vt2.begin(p, comm.rank(), 0, f, 1);
                p.advance(SimTime::from_micros(30));
                vt2.end(p, comm.rank(), 0, f);
            }
            comm.barrier(p);
            let t0 = p.now();
            confsync(&vt2, &m2, p, comm, write_stats);
            if comm.rank() == 0 {
                *c2.lock().expect("cost cell") = p.now() - t0;
            }
            comm.finalize(p);
        },
    );
    rec.exit(span);
    let span = rec.enter("sim.run", sid);
    sim.run();
    rec.exit(span);
    let t = *cost.lock().expect("cost cell");
    (t, vt)
}
