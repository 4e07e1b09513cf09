//! Tiny-scale passes of every workload: every metric is printed with its
//! unit, and a corrupted store or a perturbed expected figure is caught.

use std::sync::Mutex;

use dynprof_perfbench::{run, Config, Scale, Workload, END_TO_END, PER_LAYER};

/// Traced runs share the process-global `dynprof_obs` registry, so every
/// run in this file takes this lock.
static RUNS: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(workload, seed, 0.0, trace, Scale::Tiny);
    cfg.store_dir = cfg.store_dir.join(format!("test-{}", workload.name()));
    cfg
}

fn run_tiny(cfg: &Config) -> (String, bool, u64, u64) {
    let _g = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(cfg).expect("run");
    let line = out.result.compact();
    let _ = std::fs::remove_dir_all(&cfg.store_dir);
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
        rest[..rest.find([',', '}']).unwrap()].to_string()
    };
    let correct = field("correct") == "true";
    let attempted = field("attempted").parse().unwrap();
    let failed = field("failed").parse().unwrap();
    (line, correct, attempted, failed)
}

/// The value of metric `name` in a result line, after checking that the
/// line carries it with `unit`.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"));
    let rest = &line[at + key.len()..];
    let (value, rest) = rest.split_once(',').expect("a value");
    let unit_field = &rest[..rest.find('}').expect("end of metric")];
    assert_eq!(unit_field, format!("\"unit\":\"{unit}\""), "{name}");
    value.parse().expect("a number")
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for w in Workload::ALL {
        let (line, correct, attempted, failed) = run_tiny(&tiny(w, 3, false));
        assert!(
            correct && attempted > 0 && failed == 0,
            "{}: {line}",
            w.name()
        );
        for (name, unit) in END_TO_END {
            let v = metric(&line, name, unit);
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let (line, correct, _, _) = run_tiny(&tiny(w, 3, true));
        assert!(correct, "{}: {line}", w.name());
        for (name, unit, _) in PER_LAYER {
            metric(&line, name, unit);
        }
    }
}

#[test]
fn flipped_store_byte_raises_the_error_rate() {
    let mut cfg = tiny(Workload::TraceStore, 4, false);
    let (_, correct, _, failed) = run_tiny(&cfg);
    assert!(correct && failed == 0);
    cfg.tamper_store = true;
    let (line, correct, attempted, failed) = run_tiny(&cfg);
    assert!(!correct && failed > 0 && failed <= attempted, "{line}");
}

#[test]
fn perturbed_expected_figure_raises_the_error_rate() {
    let cfg = tiny(Workload::Fig7Omp, 5, false);
    let figures = {
        let _g = RUNS.lock().unwrap_or_else(|e| e.into_inner());
        run(&cfg).expect("run").figures
    };
    assert!(figures.starts_with("## Fig 7(d)"), "{figures}");

    let mut same = cfg.clone();
    same.expected.fig7 = Some(figures.clone());
    let (line, correct, _, failed) = run_tiny(&same);
    assert!(correct && failed == 0, "{line}");

    // Change one digit of the first data row.
    let row = figures.find("\n     1 ").expect("a data row") + 12;
    let mut bytes = figures.into_bytes();
    let digit = (row..bytes.len())
        .find(|&i| bytes[i].is_ascii_digit())
        .unwrap();
    bytes[digit] = if bytes[digit] == b'9' {
        b'0'
    } else {
        bytes[digit] + 1
    };
    let mut perturbed = cfg;
    perturbed.expected.fig7 = Some(String::from_utf8(bytes).unwrap());
    let (line, correct, _, failed) = run_tiny(&perturbed);
    assert!(!correct && failed > 0, "{line}");
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let spec = include_str!("../../BENCHMARK.json");
    let compact: String = spec.split_whitespace().collect();
    for (name, unit) in END_TO_END {
        let m = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&m), "{name} missing from BENCHMARK.json");
    }
    for (name, unit, better) in PER_LAYER {
        let m = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
        assert!(compact.contains(&m), "{name} missing from BENCHMARK.json");
    }
    for w in Workload::ALL {
        assert!(compact.contains(&format!("{{\"name\":\"{}\",", w.name())));
    }
}
