//! Provenance of a result: report digests, trace content hashes, peak
//! memory, and the run manifest written next to every result.

use std::hash::Hasher as _;
use std::path::Path;
use std::process::Command;

use dsm_core::obs::Json;
use dsm_core::Report;
use dsm_trace::{SharedTrace, BATCH};
use dsm_types::{DecodedRef, FxHasher};

/// A stable digest of a report's simulated outcome: Fx over its JSON
/// form with the host-time field zeroed.
#[must_use]
pub fn report_digest(report: &Report) -> String {
    let mut r = report.clone();
    r.wall_s = 0.0;
    let mut h = FxHasher::default();
    h.write(r.to_json().render().as_bytes());
    format!("{:016x}", h.finish())
}

/// Fx hash over every column of a trace: issuing processor, operation,
/// address, and the derived issuing cluster, first-touch home and
/// first-touch flag.
#[must_use]
pub fn trace_hash(trace: &SharedTrace) -> String {
    let mut h = FxHasher::default();
    let mut batch = [DecodedRef::default(); BATCH];
    let mut start = 0;
    loop {
        let n = trace.decode_batch(start, &mut batch);
        if n == 0 {
            break;
        }
        for (i, d) in batch[..n].iter().enumerate() {
            let r = trace.get(start + i);
            h.write_u16(r.proc.0);
            h.write_u8(u8::from(r.op.is_write()));
            h.write_u64(r.addr.0);
            h.write_u16(d.cluster.0);
            h.write_u16(d.home.0);
            h.write_u8(u8::from(d.first_touch));
        }
        start += n;
    }
    format!("{:016x}", h.finish())
}

/// `VmHWM` of a process in MiB, from `/proc/<pid>/status` (`"self"` for
/// this process). `None` where procfs is unavailable or the process has
/// exited.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The run manifest: commit, toolchain, host, build profile, argv and
/// the content hash of every trace the run replayed.
#[must_use]
pub fn manifest(trace_hashes: &[(String, String)]) -> Json {
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
    let traces: Vec<Json> = trace_hashes
        .iter()
        .map(|(name, hash)| {
            Json::obj()
                .set("trace", name.as_str())
                .set("fx", hash.as_str())
        })
        .collect();
    Json::obj()
        .set("commit", commit.as_deref().unwrap_or("unknown"))
        .set("dirty", dirty)
        .set(
            "rustc",
            command_line("rustc", &["-V"])
                .as_deref()
                .unwrap_or("unknown"),
        )
        .set("cpu_model", cpu_model().as_str())
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set(
            "argv",
            Json::Arr(std::env::args().map(Json::from).collect()),
        )
        .set("traces", Json::Arr(traces))
}

/// Writes `json` to `path`, creating its directory.
///
/// # Errors
///
/// Propagates I/O failures as a message naming the path.
pub fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::runner::run_trace;
    use dsm_core::SystemSpec;
    use dsm_trace::{Scale, WorkloadKind};
    use dsm_types::{Geometry, Topology};

    fn small_trace() -> (u64, SharedTrace) {
        let w = WorkloadKind::Fft.dev_instance();
        let topo = Topology::paper_default();
        let refs = w.generate(&topo, Scale::full());
        (
            w.shared_bytes(),
            SharedTrace::from_refs(topo, Geometry::paper_default(), &refs),
        )
    }

    #[test]
    fn digests_ignore_host_time_and_repeat_across_runs() {
        let (bytes, trace) = small_trace();
        let a = run_trace(&SystemSpec::vb(), "fft", bytes, &trace).unwrap();
        let mut b = run_trace(&SystemSpec::vb(), "fft", bytes, &trace).unwrap();
        b.wall_s += 1.0;
        assert_eq!(report_digest(&a), report_digest(&b));
        assert_eq!(report_digest(&a).len(), 16);
        let base = run_trace(&SystemSpec::base(), "fft", bytes, &trace).unwrap();
        assert_ne!(report_digest(&a), report_digest(&base));
    }

    #[test]
    fn trace_hash_is_a_function_of_the_columns() {
        let (_, a) = small_trace();
        let (_, b) = small_trace();
        assert_eq!(trace_hash(&a), trace_hash(&b));
        let w = WorkloadKind::Radix.dev_instance();
        let topo = Topology::paper_default();
        let other = SharedTrace::from_refs(
            topo,
            Geometry::paper_default(),
            &w.generate(&topo, Scale::full()),
        );
        assert_ne!(trace_hash(&a), trace_hash(&other));
    }
}
