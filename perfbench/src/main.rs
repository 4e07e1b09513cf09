//! The benchmark command.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!       --workload fig7_mpi --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Options: `--workload fig7_mpi|fig7_omp|trace_store|control_plane`,
//! `--seed N` (default 0: the figure harnesses' own seeds),
//! `--seconds S` (default 10), `--trace 0|1` (default 0),
//! `--store-dir DIR` (where
//! `trace_store` writes its store; default `perfbench/out`),
//! `--out FILE` (also append the full report there, one line per run,
//! for `perfbench/compare.py`), `--spans FILE`
//! (where a traced run writes its spans; default
//! `perfbench/out/spans-<workload>-<seed>.json`).
//!
//! Standard output ends with the report (host block, sample counts,
//! every metric) and, as the last line, the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

use std::path::PathBuf;
use std::process::exit;

use dynprof_perfbench::{host, run, Config, Scale, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload fig7_mpi|fig7_omp|trace_store|control_plane \
         [--seed N] [--seconds S] [--trace 0|1] [--store-dir DIR] [--out FILE] \
         [--spans FILE]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let (mut store_dir, mut out, mut spans_out) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(v) = args.get(i + 1) else {
            usage(&format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                )
            }
            "--seed" => {
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = match v.parse::<f64>() {
                    Ok(s) if (0.0..=600.0).contains(&s) => s,
                    _ => usage("--seconds takes a number from 0 to 600"),
                }
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--store-dir" => store_dir = Some(PathBuf::from(v)),
            "--out" => out = Some(PathBuf::from(v)),
            "--spans" => spans_out = Some(PathBuf::from(v)),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if let Some(why) = host::refusal() {
        eprintln!("perfbench: refusing to run: {why}");
        exit(2);
    }

    let mut cfg = Config::new(workload, seed, seconds, trace, Scale::Paper);
    if let Some(dir) = store_dir {
        cfg.store_dir = dir;
    }
    let outcome = run(&cfg).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1);
    });
    if let Some(spans) = &outcome.spans {
        let path = spans_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "{}/out/spans-{}-{seed}.json",
                env!("CARGO_MANIFEST_DIR"),
                workload.name()
            ))
        });
        if let Err(e) = std::fs::write(&path, spans.compact() + "\n") {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            exit(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let report = outcome.report.compact();
    if let Some(path) = out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                std::io::Write::write_all(&mut f, (report.clone() + "\n").as_bytes())
            });
        if let Err(e) = appended {
            eprintln!("perfbench: cannot write report to {}: {e}", path.display());
            exit(1);
        }
    }
    println!("{report}");
    println!("{}", outcome.result.compact());
}
