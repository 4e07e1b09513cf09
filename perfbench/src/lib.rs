//! # dynprof-perfbench — the repository's benchmark
//!
//! Runs one workload of the paper pipelines in this process, on one
//! thread, with the default coroutine backend: set-up, one warm-up pass,
//! then timed passes for the requested seconds. Every pass checks the
//! outputs it gets. With tracing off it reports the end-to-end metrics
//! ([`END_TO_END`]); with tracing on it adds traced passes, with
//! `dynprof_obs` enabled and benchmark-side spans around every layer
//! call, and reports the per-layer metrics ([`PER_LAYER`]).
//!
//! See `README.md` next to this crate for the workloads, the metric map
//! and how to read the traced output.

#![warn(missing_docs)]

pub mod host;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynprof_obs::Json;

use host::Host;
use spans::Recorder;
use workloads::{Ctx, Expected, Pass, Seeds, State};

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 7(a–c): smg98, sppm and sweep3d under every policy, 1–64 CPUs.
    Fig7Mpi,
    /// Fig 7(d): umt98 at 1/2/4/8 OpenMP threads under every policy.
    Fig7Omp,
    /// One recorded 256-rank sweep3d trace written to a store and queried.
    TraceStore,
    /// Fig 8 confsync runs, Fig 9 create+instrument, controller runs.
    ControlPlane,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7Mpi,
        Workload::Fig7Omp,
        Workload::TraceStore,
        Workload::ControlPlane,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Mpi => "fig7_mpi",
            Workload::Fig7Omp => "fig7_omp",
            Workload::TraceStore => "trace_store",
            Workload::ControlPlane => "control_plane",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper pipelines, as the figure harnesses run them.
    Paper,
    /// Test-size apps and a few operations: for the benchmark's own tests.
    Tiny,
}

/// End-to-end metrics: `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

pub use layers::PER_LAYER;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Add traced passes and report per-layer metrics.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Directory the `trace_store` store is written to (and deleted from).
    pub store_dir: PathBuf,
    /// Expected figures; [`Expected::committed`] by default.
    pub expected: Expected,
    /// Flip a byte of the written store (tests only).
    pub tamper_store: bool,
}

impl Config {
    /// Settings for `workload` at `seed`, with the committed expectations
    /// and the store under this crate's `out/` directory.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale,
            store_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            expected: Expected::committed(seed, scale),
            tamper_store: false,
        }
    }
}

/// What a run produced.
pub struct Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Json,
    /// The full report: host block, sample counts, failures, all metrics.
    pub report: Json,
    /// The traced passes' spans, when tracing.
    pub spans: Option<Json>,
    /// Figures rendered by the last pass.
    pub figures: String,
}

/// Fewest untraced passes a run measures, however short `seconds` is.
const MIN_PASSES: usize = 3;

/// Set-up and passes of one run.
struct Runner {
    ctx: Ctx,
    rec: Recorder,
    state: Option<State>,
    setups: Vec<f64>,
    /// Span range of the latest set-up.
    setup_spans: (usize, usize),
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Runner {
    fn setup(&mut self) {
        let from = self.rec.spans().len();
        drop(self.state.take());
        let (state, times) = State::setup(&self.ctx, &mut self.rec);
        self.state = Some(state);
        self.setups.extend(times);
        self.setup_spans = (from, self.rec.spans().len());
    }

    fn pass(&mut self) -> Pass {
        if self.state.is_none() {
            self.setup();
        }
        let state = self.state.as_mut().expect("set up");
        let pass = state.pass(&self.ctx, &mut self.rec);
        if !state.reusable() {
            self.state = None;
        }
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for f in &pass.failures {
            if self.failures.len() < 16 {
                self.failures.push(f.clone());
            }
        }
        pass
    }
}

/// Each timed call's median host ms over `passes` (which make the same
/// calls in the same order; a pass that stopped short is left out).
fn per_call_medians(passes: &[Pass]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.calls_ms.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let v: Vec<f64> = passes
                .iter()
                .filter(|p| p.calls_ms.len() == n)
                .map(|p| p.calls_ms[i])
                .collect();
            stats::median(&v)
        })
        .collect()
}

/// Peak resident set size of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix(" kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload as `cfg` says.
pub fn run(cfg: &Config) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&cfg.store_dir)?;
    let host = Host::probe(&cfg.store_dir);
    dynprof_obs::set_enabled(false);
    let mut r = Runner {
        ctx: Ctx {
            workload: cfg.workload,
            seeds: Seeds::new(cfg.seed),
            scale: cfg.scale,
            expected: cfg.expected.clone(),
            store_dir: cfg.store_dir.clone(),
            tamper_store: cfg.tamper_store,
        },
        rec: Recorder::new(cfg.trace),
        state: None,
        setups: Vec::new(),
        setup_spans: (0, 0),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // Set up with spans on when tracing: `trace_store` sets up only here.
    r.setup();
    r.rec.set_on(false);

    // Warm-up: caches fill and lazy set-up finishes; its checks count.
    r.pass();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let untraced_until = if cfg.trace { budget / 2 } else { budget };
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < untraced_until {
        passes.push(r.pass());
    }
    let peak_rss = peak_rss_mb();

    let (mut traced, mut traced_passes) = (Vec::new(), Vec::new());
    if cfg.trace {
        while traced.is_empty() || start.elapsed() < budget {
            r.rec.set_on(true);
            dynprof_obs::set_enabled(true);
            dynprof_obs::reset();
            let from = r.rec.spans().len();
            let pass = r.pass();
            let counts = dynprof_obs::snapshot();
            dynprof_obs::set_enabled(false);
            r.rec.set_on(false);
            let setup = &r.rec.spans()[r.setup_spans.0..r.setup_spans.1];
            traced.push(layers::per_layer(&pass, &counts, setup, r.rec.since(from)));
            traced_passes.push(pass);
        }
    }

    // Every pass makes the same calls. Each call's time is its median
    // over the passes, so a burst of interference on a shared host moves
    // few of them; the pass time is the sum of those medians.
    let call_medians = per_call_medians(&passes);
    let wall = call_medians.iter().sum::<f64>() / 1e3;
    let ops = passes.first().map_or(&[][..], |p| &p.ops[..]);
    let op_ms: Vec<f64> = ops.iter().map(|&i| call_medians[i]).collect();
    let (op_tail, tail_pct) = stats::tail(&op_ms);
    let e2e = [
        wall,
        stats::median(&r.setups),
        stats::median(&op_ms),
        op_tail,
        peak_rss,
    ];
    let metric = |v: f64, unit: &str| Json::obj([("value", v.into()), ("unit", unit.into())]);
    let e2e_metrics: Vec<(String, Json)> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), v)| (name.to_string(), metric(v, unit)))
        .collect();
    let mut layer_metrics = Vec::new();
    if cfg.trace {
        let traced_wall = per_call_medians(&traced_passes).iter().sum::<f64>() / 1e3;
        let overhead = traced_wall / wall.max(1e-12) - 1.0;
        for (i, &(name, unit, _)) in PER_LAYER.iter().enumerate() {
            let v = if name == "bench.trace_overhead" {
                overhead
            } else {
                let vals: Vec<f64> = traced.iter().map(|t| t[i]).collect();
                stats::median(&vals)
            };
            layer_metrics.push((name.to_string(), metric(v, unit)));
        }
    }
    let metrics = if cfg.trace {
        layer_metrics.clone()
    } else {
        e2e_metrics.clone()
    };

    let result = Json::obj([
        ("correct", (r.failed == 0).into()),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    let report = Json::obj([
        ("workload", cfg.workload.name().into()),
        ("seed", cfg.seed.into()),
        (
            "scale",
            match cfg.scale {
                Scale::Paper => "paper",
                Scale::Tiny => "tiny",
            }
            .into(),
        ),
        ("seconds", cfg.seconds.into()),
        ("host", host.to_json()),
        (
            "samples",
            Json::obj([
                ("passes", passes.len().into()),
                ("traced_passes", traced.len().into()),
                ("setups", r.setups.len().into()),
                ("ops_per_pass", ops.len().into()),
                ("tail_percentile", tail_pct.into()),
                (
                    "pass_wall_s",
                    Json::Arr(passes.iter().map(|p| p.wall_s().into()).collect()),
                ),
            ]),
        ),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        (
            "error_rate",
            (r.failed as f64 / r.attempted.max(1) as f64).into(),
        ),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("end_to_end", Json::Obj(e2e_metrics)),
        ("per_layer", Json::Obj(layer_metrics)),
    ]);
    Ok(Outcome {
        result,
        report,
        spans: cfg.trace.then(|| r.rec.to_json()),
        figures: passes.last().expect("at least one pass").figures.clone(),
    })
}
