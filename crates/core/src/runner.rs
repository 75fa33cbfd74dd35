//! Convenience harness: run a workload on a system, collect a report.

use crate::config::SystemSpec;
use crate::metrics::Metrics;
use crate::obs::{json::Json, metrics_json};
use crate::probe::Probe;
use crate::system::System;
use dsm_trace::{Scale, SharedTrace, Workload};
use dsm_types::{ConfigError, DsmError, Geometry, Topology};

/// The result of running one workload on one system configuration.
///
/// Equality compares only the simulation outcome: [`Report::wall_s`] is
/// host timing, not simulated state, and is excluded so that repeated
/// (or parallel) runs of the same point compare equal.
#[derive(Debug, Clone)]
pub struct Report {
    /// The configuration name (`base`, `vb16`, `ncp5`, ...).
    pub system: String,
    /// The workload name (`fft`, `radix`, ...).
    pub workload: String,
    /// Shared-data footprint of the workload in bytes.
    pub data_bytes: u64,
    /// Trace length in references.
    pub refs: u64,
    /// Raw event counts.
    pub metrics: Metrics,
    /// Cluster read miss ratio (fraction of shared refs).
    pub read_miss_ratio: f64,
    /// Cluster write miss ratio.
    pub write_miss_ratio: f64,
    /// Relocation overhead in equivalent miss ratio (x225/30).
    pub relocation_overhead: f64,
    /// Remote read stall, bus cycles (Equation 1).
    pub remote_read_stall: u64,
    /// Remote data traffic, block transfers.
    pub remote_traffic: u64,
    /// Directory storage cost per block in bits (full map: O(clusters);
    /// Dir-i-B: O(pointers)).
    pub directory_bits_per_block: u32,
    /// Wall-clock seconds spent simulating this point (0.0 when the
    /// report was assembled by [`report_of`] outside a timed runner).
    pub wall_s: f64,
}

impl PartialEq for Report {
    fn eq(&self, other: &Report) -> bool {
        // Exhaustive destructuring so a new field cannot silently escape
        // the comparison; `wall_s` is deliberately ignored (see above).
        let Report {
            system,
            workload,
            data_bytes,
            refs,
            metrics,
            read_miss_ratio,
            write_miss_ratio,
            relocation_overhead,
            remote_read_stall,
            remote_traffic,
            directory_bits_per_block,
            wall_s: _,
        } = self;
        *system == other.system
            && *workload == other.workload
            && *data_bytes == other.data_bytes
            && *refs == other.refs
            && *metrics == other.metrics
            && *read_miss_ratio == other.read_miss_ratio
            && *write_miss_ratio == other.write_miss_ratio
            && *relocation_overhead == other.relocation_overhead
            && *remote_read_stall == other.remote_read_stall
            && *remote_traffic == other.remote_traffic
            && *directory_bits_per_block == other.directory_bits_per_block
    }
}

impl Report {
    /// Serializes the report — identity, figures of merit, and the full
    /// metric breakdown — as a JSON object for `results/*.json` exports.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("system", self.system.as_str())
            .set("workload", self.workload.as_str())
            .set("data_bytes", self.data_bytes)
            .set("refs", self.refs)
            .set("read_miss_ratio", self.read_miss_ratio)
            .set("write_miss_ratio", self.write_miss_ratio)
            .set("relocation_overhead", self.relocation_overhead)
            .set("remote_read_stall", self.remote_read_stall)
            .set("remote_traffic", self.remote_traffic)
            .set("directory_bits_per_block", self.directory_bits_per_block)
            .set("metrics", metrics_json(&self.metrics))
            .set("wall_s", self.wall_s)
    }

    /// Rebuilds a report from its [`Report::to_json`] serialization — the
    /// inverse used when a sweep journal is resumed. Re-serializing the
    /// result is byte-identical to the original, so journaled points merge
    /// into exports indistinguishably from freshly-run ones.
    ///
    /// # Errors
    ///
    /// Returns [`DsmError`] (bad input) if a field is missing, has the
    /// wrong type, or a metrics counter name is unknown.
    pub fn from_json(json: &Json) -> Result<Report, DsmError> {
        fn str_field(json: &Json, key: &str) -> Result<String, DsmError> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| DsmError::bad_input(format!("missing string field '{key}'")))
        }
        fn u64_field(json: &Json, key: &str) -> Result<u64, DsmError> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| DsmError::bad_input(format!("missing integer field '{key}'")))
        }
        fn f64_field(json: &Json, key: &str) -> Result<f64, DsmError> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| DsmError::bad_input(format!("missing number field '{key}'")))
        }
        let mut metrics = Metrics::new();
        let entries = json
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| DsmError::bad_input("missing object field 'metrics'"))?;
        for (name, value) in entries {
            let value = value
                .as_u64()
                .ok_or_else(|| DsmError::bad_input(format!("metric '{name}' is not a counter")))?;
            if !metrics.set_field(name, value) {
                return Err(DsmError::bad_input(format!("unknown metric '{name}'")));
            }
        }
        let bits = u64_field(json, "directory_bits_per_block")?;
        Ok(Report {
            system: str_field(json, "system")?,
            workload: str_field(json, "workload")?,
            data_bytes: u64_field(json, "data_bytes")?,
            refs: u64_field(json, "refs")?,
            metrics,
            read_miss_ratio: f64_field(json, "read_miss_ratio")?,
            write_miss_ratio: f64_field(json, "write_miss_ratio")?,
            relocation_overhead: f64_field(json, "relocation_overhead")?,
            remote_read_stall: u64_field(json, "remote_read_stall")?,
            remote_traffic: u64_field(json, "remote_traffic")?,
            directory_bits_per_block: u32::try_from(bits)
                .map_err(|_| DsmError::bad_input("directory_bits_per_block out of range"))?,
            wall_s: f64_field(json, "wall_s")?,
        })
    }
}

// Reports cross sweep-worker boundaries by value; keep them thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Report>();
};

/// Runs `workload` at `scale` on a system built from `spec` with the
/// paper's topology and geometry.
///
/// # Errors
///
/// Returns [`ConfigError`] if the spec is invalid for this workload (e.g.
/// a fraction page cache too small to hold one page).
///
/// # Example
///
/// ```
/// use dsm_core::runner::run_workload;
/// use dsm_core::SystemSpec;
/// use dsm_trace::{Scale, workloads::Fft, Workload};
///
/// let fft = Fft::with_points(1 << 8);
/// let report = run_workload(&SystemSpec::vb(), &fft, Scale::full())?;
/// assert!(report.refs > 0);
/// # Ok::<(), dsm_types::ConfigError>(())
/// ```
pub fn run_workload(
    spec: &SystemSpec,
    workload: &dyn Workload,
    scale: Scale,
) -> Result<Report, ConfigError> {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    run_workload_on(spec, workload, scale, topo, geo)
}

/// [`run_workload`] with explicit topology/geometry.
///
/// # Errors
///
/// As [`run_workload`].
pub fn run_workload_on(
    spec: &SystemSpec,
    workload: &dyn Workload,
    scale: Scale,
    topo: Topology,
    geo: Geometry,
) -> Result<Report, ConfigError> {
    let data_bytes = workload.shared_bytes();
    let mut system = System::new(spec.clone(), topo, geo, data_bytes)?;
    let refs = workload.generate(&topo, scale);
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    let t0 = std::time::Instant::now();
    system.run_shared(&trace);
    let mut report = report_of(&system, workload.name(), data_bytes, trace.len() as u64);
    report.wall_s = t0.elapsed().as_secs_f64();
    Ok(report)
}

/// Runs a pre-built columnar trace (so several systems can share one
/// trace and its precomputed decomposition — how the paper compares
/// configurations). The system is built for the trace's topology and
/// geometry.
///
/// # Errors
///
/// As [`run_workload`], plus an error if the file backing a mapped trace
/// has shrunk since it was opened (checked again before the replay).
pub fn run_trace(
    spec: &SystemSpec,
    workload_name: &str,
    data_bytes: u64,
    trace: &SharedTrace,
) -> Result<Report, ConfigError> {
    let mut system = System::new(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        data_bytes,
    )?;
    revalidate(workload_name, trace)?;
    let t0 = std::time::Instant::now();
    system.run_shared(trace);
    let mut report = report_of(&system, workload_name, data_bytes, trace.len() as u64);
    report.wall_s = t0.elapsed().as_secs_f64();
    Ok(report)
}

/// [`run_trace`] with an attached [`Probe`]: the trace runs through an
/// instrumented system and the probe is returned alongside the report for
/// inspection (event counts, epoch series, a drained JSONL sink, ...).
///
/// `epoch_window` enables the epoch sampler: every `window` shared
/// references the probe receives an [`crate::EpochSample`] carrying the
/// delta [`Metrics`] and per-cluster counts for that window. The final
/// partial epoch is flushed before the report is taken.
///
/// # Errors
///
/// As [`run_trace`].
pub fn run_trace_probed<P: Probe>(
    spec: &SystemSpec,
    workload_name: &str,
    data_bytes: u64,
    trace: &SharedTrace,
    probe: P,
    epoch_window: Option<u64>,
) -> Result<(Report, P), ConfigError> {
    let mut system = System::with_probe(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        data_bytes,
        probe,
    )?;
    if let Some(window) = epoch_window {
        system.set_epoch_window(window);
    }
    revalidate(workload_name, trace)?;
    let t0 = std::time::Instant::now();
    system.run_shared(trace);
    system.finish();
    let mut report = report_of(&system, workload_name, data_bytes, trace.len() as u64);
    report.wall_s = t0.elapsed().as_secs_f64();
    let (probe, _) = system.into_probe();
    Ok((report, probe))
}

/// Re-checks a mapped trace's backing file right before a replay: a file
/// truncated since open would otherwise `SIGBUS` on the first touch of a
/// vanished page instead of erroring cleanly (exit code 3 at the CLI).
/// One `fstat` on a mapped trace, one enum match on an owned one.
fn revalidate(workload_name: &str, trace: &SharedTrace) -> Result<(), ConfigError> {
    trace
        .revalidate_mapping()
        .map_err(|e| ConfigError::new(format!("trace mapping for {workload_name}: {e}")))
}

/// Builds a [`Report`] from a finished system (useful when the caller
/// keeps the [`System`] alive to inspect per-cluster state afterwards).
/// The caller owns timing, so [`Report::wall_s`] is left at 0.0.
#[must_use]
pub fn report_of<P: Probe>(
    system: &System<P>,
    workload: &str,
    data_bytes: u64,
    refs: u64,
) -> Report {
    let m = *system.metrics();
    let model = system.model();
    Report {
        system: system.name().to_owned(),
        workload: workload.to_owned(),
        data_bytes,
        refs,
        read_miss_ratio: m.read_miss_ratio(),
        write_miss_ratio: m.write_miss_ratio(),
        relocation_overhead: m.relocation_overhead_ratio(model),
        remote_read_stall: m.remote_read_stall(model),
        remote_traffic: m.remote_traffic(),
        directory_bits_per_block: system.directory_bits_per_block(),
        metrics: m,
        wall_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemSpec;
    use dsm_trace::workloads::Fft;

    #[test]
    fn run_produces_consistent_report() {
        let fft = Fft::with_points(1 << 8);
        let r = run_workload(&SystemSpec::base(), &fft, Scale::full()).unwrap();
        assert_eq!(r.system, "base");
        assert_eq!(r.workload, "fft");
        assert_eq!(r.refs, r.metrics.shared_refs);
        assert!(r.read_miss_ratio >= 0.0);
        assert_eq!(r.relocation_overhead, 0.0);
        // Full map on the paper's 8 clusters: 8 presence bits + owner.
        assert_eq!(r.directory_bits_per_block, 8 + 7);
    }

    #[test]
    fn report_carries_directory_cost() {
        let fft = Fft::with_points(1 << 8);
        let spec = SystemSpec::base().with_limited_directory(4);
        let r = run_workload(&spec, &fft, Scale::full()).unwrap();
        // Dir-4-B: four 6-bit pointers + count + broadcast + owner.
        assert_eq!(r.directory_bits_per_block, 4 * 6 + 12);
    }

    #[test]
    fn shared_trace_comparison_is_fair() {
        use dsm_types::{Geometry, Topology};
        let fft = Fft::with_points(1 << 8);
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let trace = SharedTrace::from_refs(topo, geo, &fft.generate(&topo, Scale::full()));
        let a = run_trace(&SystemSpec::base(), "fft", fft.shared_bytes(), &trace).unwrap();
        let b = run_trace(&SystemSpec::vb(), "fft", fft.shared_bytes(), &trace).unwrap();
        assert_eq!(a.refs, b.refs);
        // A victim NC can only help the cluster miss ratio.
        assert!(b.read_miss_ratio <= a.read_miss_ratio + 1e-12);
    }

    #[test]
    fn truncated_mapping_fails_the_replay_cleanly() {
        use crate::probe::NoProbe;
        use dsm_types::{DsmError, Geometry, Topology};
        let fft = Fft::with_points(1 << 8);
        let topo = Topology::paper_default();
        let trace = SharedTrace::from_refs(
            topo,
            Geometry::paper_default(),
            &fft.generate(&topo, Scale::full()),
        );
        let mut bytes = Vec::new();
        dsm_trace::write_shared(&mut bytes, &trace).unwrap();
        let path = std::env::temp_dir().join(format!("dsm-runner-{}.dsmt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = dsm_trace::open_shared_mapped(&path).unwrap();
        let spec = SystemSpec::base();
        assert_eq!(
            run_trace(&spec, "fft", fft.shared_bytes(), &mapped).unwrap(),
            run_trace(&spec, "fft", fft.shared_bytes(), &trace).unwrap()
        );
        // Shrink the file under the live mapping: a replay would now
        // fault on the vanished pages, so both runners must refuse it.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(16)
            .unwrap();
        let truncated = run_trace(&spec, "fft", fft.shared_bytes(), &mapped);
        let probed = run_trace_probed(&spec, "fft", fft.shared_bytes(), &mapped, NoProbe, None);
        std::fs::remove_file(&path).unwrap();
        // Only a kernel mapping has a backing file to re-check; platforms
        // without the raw mmap path load an owned copy that always passes.
        if mapped.is_mapped() {
            let err = truncated.unwrap_err();
            assert!(err.to_string().contains("shrank"), "{err}");
            assert_eq!(DsmError::from(err).exit_code(), 3);
            assert!(probed.is_err());
        }
    }

    #[test]
    fn probed_run_matches_unprobed_and_collects_epochs() {
        use crate::obs::StatsSink;
        use dsm_types::{Geometry, Topology};
        let fft = Fft::with_points(1 << 8);
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let trace = SharedTrace::from_refs(topo, geo, &fft.generate(&topo, Scale::full()));
        let plain = run_trace(&SystemSpec::vb(), "fft", fft.shared_bytes(), &trace).unwrap();
        let (probed, sink) = run_trace_probed(
            &SystemSpec::vb(),
            "fft",
            fft.shared_bytes(),
            &trace,
            StatsSink::new(),
            Some(1000),
        )
        .unwrap();
        // Instrumentation must not perturb the simulation.
        assert_eq!(plain, probed);
        assert!(!sink.epochs().is_empty());
        // Epoch deltas sum back to the final aggregate metrics.
        assert_eq!(sink.epoch_total(), probed.metrics);
    }

    #[test]
    fn wall_time_is_recorded_but_not_compared() {
        let fft = Fft::with_points(1 << 8);
        let a = run_workload(&SystemSpec::base(), &fft, Scale::full()).unwrap();
        let b = run_workload(&SystemSpec::base(), &fft, Scale::full()).unwrap();
        assert!(a.wall_s > 0.0, "runner must time the simulation");
        // Two timed runs almost surely differ in wall clock, yet the
        // reports — the simulation outcome — must compare equal.
        assert_eq!(a, b);
        let mut c = a.clone();
        c.wall_s = a.wall_s + 1.0;
        assert_eq!(a, c);
    }

    #[test]
    fn report_serializes_to_json() {
        let fft = Fft::with_points(1 << 8);
        let r = run_workload(&SystemSpec::base(), &fft, Scale::full()).unwrap();
        let json = r.to_json().render();
        assert!(json.starts_with(r#"{"system":"base","workload":"fft""#));
        assert!(json.contains(r#""metrics":{"#));
        assert!(json.contains(&format!(r#""refs":{}"#, r.refs)));
    }

    #[test]
    fn report_json_roundtrip_is_byte_identical() {
        let fft = Fft::with_points(1 << 8);
        let r = run_workload(&SystemSpec::vb(), &fft, Scale::full()).unwrap();
        let rendered = r.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        let back = Report::from_json(&parsed).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().render(), rendered);
    }

    #[test]
    fn report_from_json_rejects_malformed_input() {
        let missing = Json::obj().set("system", "base");
        assert!(Report::from_json(&missing).is_err());
        let fft = Fft::with_points(1 << 8);
        let r = run_workload(&SystemSpec::base(), &fft, Scale::full()).unwrap();
        let bad_metric = r
            .to_json()
            .set("metrics", Json::obj().set("no_such_counter", 1u64));
        let err = Report::from_json(&bad_metric).unwrap_err();
        assert!(err.to_string().contains("no_such_counter"), "{err}");
    }
}
