//! What the benchmark runs and what it reports: the workloads, their
//! system configurations and traces, and the metric catalogue read from
//! `BENCHMARK.json`.

use dsm_core::obs::Json;
use dsm_core::{PcSize, SystemSpec};
use dsm_trace::WorkloadKind;

use crate::stats::token;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `reproduce --scale 0.05` binary: every figure of the paper,
    /// on fft.
    Reproduce,
    /// Static-home configurations replayed in interleaved rounds.
    ReplayStatic,
    /// Page migration/replication configurations in interleaved rounds.
    ReplayMigrep,
    /// Generate, encode, map and replay each kernel at full scale.
    ColdStart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Reproduce,
        Workload::ReplayStatic,
        Workload::ReplayMigrep,
        Workload::ColdStart,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::ReplayStatic => "replay-static",
            Workload::ReplayMigrep => "replay-migrep",
            Workload::ColdStart => "cold-start",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `replay-static`'s configurations: one per layer of the simulated
/// machine, so that [`LAYERS`] can difference them.
#[must_use]
pub fn static_configs() -> Vec<SystemSpec> {
    vec![
        SystemSpec::base(),
        SystemSpec::vb(),
        SystemSpec::nc(),
        SystemSpec::ncd(),
        SystemSpec::vbp(PcSize::DataFraction(5)),
        SystemSpec::vpp(PcSize::DataFraction(5)),
        SystemSpec::vxp(PcSize::DataFraction(5), 32),
        SystemSpec::base().with_limited_directory(4),
    ]
}

/// fft is regular with a 3 MB footprint, radix a write-heavy permutation
/// where the victim path wastes work, raytrace a read-dominated random
/// walk over 35 MB and the costliest kernel of the sweep.
pub const STATIC_TRACES: [WorkloadKind; 3] = [
    WorkloadKind::Fft,
    WorkloadKind::Radix,
    WorkloadKind::Raytrace,
];

/// `replay-migrep`'s configurations: both take the live-home replay path.
#[must_use]
pub fn migrep_configs() -> Vec<SystemSpec> {
    vec![SystemSpec::origin(), SystemSpec::origin_vb()]
}

/// Replication pays off on lu and raytrace, migration is noisy on ocean
/// and ping-pongs on radix.
pub const MIGREP_TRACES: [WorkloadKind; 4] = [
    WorkloadKind::Lu,
    WorkloadKind::Ocean,
    WorkloadKind::Radix,
    WorkloadKind::Raytrace,
];

/// The simulated-machine layers as differences of `replay-static`
/// configurations on one trace: `(layer, config, baseline config)`.
pub const LAYERS: [(&str, &str, Option<&str>); 8] = [
    ("cache_bus", "base", None),
    ("nc_victim", "vb16", Some("base")),
    ("nc_inclusion", "nc", Some("base")),
    ("nc_dram", "NCD", Some("base")),
    ("page_cache", "vbp5", Some("vb16")),
    ("page_index", "vpp5", Some("vbp5")),
    ("relocation_counters", "vxp5(t32)", Some("vpp5")),
    ("directory_limited", "base-dir4B", Some("base")),
];

/// The lowercase trace name used in metric names and reports.
#[must_use]
pub fn trace_name(kind: WorkloadKind) -> String {
    kind.display_name().to_lowercase()
}

/// `BENCHMARK.json`, the one description of the workloads, the run
/// length and the metrics.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn benchmark() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
}

fn metrics(key: &str) -> Vec<MetricDef> {
    benchmark()
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some(MetricDef {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
            })
        })
        .collect()
}

/// The end-to-end metrics, measured with tracing off, on every workload.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    metrics("end_to_end")
}

/// The per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for its metrics.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    metrics("per_layer")
}

/// How long one run measures when `--seconds` is not given.
#[must_use]
pub fn run_seconds() -> f64 {
    benchmark()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds")
}

#[must_use]
pub fn replay_metric(config: &str, kind: WorkloadKind) -> String {
    format!("replay.{}.{}.ns_per_ref", token(config), trace_name(kind))
}

#[must_use]
pub fn layer_metric(layer: &str, kind: WorkloadKind) -> String {
    format!("layer.{layer}.{}.ns_per_ref", trace_name(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use dsm_core::PHASES;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(per_layer().len() <= 128);
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    /// `BENCHMARK.json` parses and re-renders to the same value, lists
    /// every workload, and names every per-point metric the replay
    /// workloads can set.
    #[test]
    fn benchmark_json_round_trips_and_covers_the_workloads() {
        let json = benchmark();
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(end_to_end().len(), 6);
        let layer: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
        let mut want = vec![];
        for (configs, traces) in [
            (static_configs(), &STATIC_TRACES[..]),
            (migrep_configs(), &MIGREP_TRACES[..]),
        ] {
            for spec in configs {
                want.push(format!("replay.{}.ns_per_event", token(&spec.name)));
                want.extend(traces.iter().map(|&k| replay_metric(&spec.name, k)));
            }
        }
        for (name, _, _) in LAYERS {
            want.extend(STATIC_TRACES.iter().map(|&k| layer_metric(name, k)));
        }
        for phase in PHASES {
            want.push(format!("phase.{}.events_per_kref", phase.label()));
            want.push(format!("phase.{}.cyc_per_ref", phase.label()));
        }
        for name in want {
            assert!(layer.contains(&name), "{name} is not in BENCHMARK.json");
        }
        assert!(run_seconds() >= 1.0);
    }

    #[test]
    fn layer_table_names_real_configs() {
        let names: Vec<String> = static_configs().into_iter().map(|s| s.name).collect();
        for (layer, config, baseline) in LAYERS {
            assert!(names.iter().any(|n| n == config), "{layer}: {config}");
            if let Some(b) = baseline {
                assert!(names.iter().any(|n| n == b), "{layer}: {b}");
            }
        }
    }
}
