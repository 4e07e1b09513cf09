//! The host block every result carries, and the refusal to run under a
//! configuration that would make results incomparable.

use std::path::Path;

use dynprof_obs::Json;
use dynprof_sim::ProcBackend;

/// Where and how a result was produced.
#[derive(Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// The commit of the code under test, when the tree is a git checkout.
    pub commit: String,
    /// The simulated-process backend every `Sim` resolves to.
    pub backend: String,
    /// Whether the `obs` cargo feature is compiled in.
    pub obs_feature: bool,
    /// Filesystem type holding the trace store.
    pub store_fs: String,
}

impl Host {
    /// Probe the host; `store_dir` is where `trace_store` writes.
    pub fn probe(store_dir: &Path) -> Host {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: if kernel.is_empty() {
                "unknown".into()
            } else {
                kernel
            },
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            backend: format!("{:?}", ProcBackend::default_backend()),
            obs_feature: obs_compiled_in(),
            store_fs: filesystem_of(store_dir).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The block as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", self.nproc.into()),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("kernel", self.kernel.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("commit", self.commit.as_str().into()),
            ("backend", self.backend.as_str().into()),
            ("obs_feature", self.obs_feature.into()),
            ("store_fs", self.store_fs.as_str().into()),
        ])
    }
}

/// Whether `dynprof_obs` records at all: with the feature off,
/// `set_enabled` is a no-op and `enabled` stays false.
fn obs_compiled_in() -> bool {
    let was = dynprof_obs::enabled();
    dynprof_obs::set_enabled(true);
    let on = dynprof_obs::enabled();
    dynprof_obs::set_enabled(was);
    on
}

/// The commit `HEAD` names, read from `root/.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Why the benchmark refuses to run here, if it does: a result measured
/// on the threads oracle, or with any process-global fault, txn or
/// budget knob set, is not comparable with the rest.
pub fn refusal() -> Option<String> {
    if std::env::var("DYNPROF_PROC_BACKEND").as_deref() == Ok("threads") {
        return Some("DYNPROF_PROC_BACKEND=threads selects the threads oracle".into());
    }
    if ProcBackend::default_backend() != ProcBackend::Coroutine {
        return Some("the coroutine backend is not available on this platform".into());
    }
    if let Some(spec) = dynprof_sim::fault::global_spec() {
        return Some(format!("a process-global fault plan is set: {spec:?}"));
    }
    if let Some(policy) = dynprof_bench::txn_policy() {
        return Some(format!("a process-global txn policy is set: {policy:?}"));
    }
    if let Some(pct) = dynprof_bench::overhead_budget() {
        return Some(format!("a process-global overhead budget is set: {pct}%"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_is_filled() {
        let h = Host::probe(Path::new("."));
        assert!(h.nproc >= 1);
        assert!(h.rustc.starts_with("rustc "));
        assert_eq!(h.backend, "Coroutine");
        assert!(h.obs_feature);
        assert_ne!(h.store_fs, "unknown");
    }

    #[test]
    fn clean_process_is_not_refused() {
        assert_eq!(refusal(), None);
    }
}
