//! # sram-nc-dsm core
//!
//! A from-scratch reproduction of Moga & Dubois, *"The Effectiveness of
//! SRAM Network Caches in Clustered DSMs"* (HPCA 1998 / USC CENG 97-11):
//! small SRAM network **victim caches** and main-memory **page caches** as
//! alternatives to large, slow DRAM network caches in clustered CC-NUMA
//! machines.
//!
//! This crate is the top of the workspace: it composes the substrates —
//! [`dsm_cache`] (set-associative arrays, MESIR states), [`dsm_protocol`]
//! (the snooping cluster bus), [`dsm_directory`] (full-map inter-cluster
//! directory, first-touch placement, R-NUMA counters) and [`dsm_trace`]
//! (SPLASH-2-style trace kernels) — into complete systems:
//!
//! * [`nc`] — the network-cache design space (victim `vb`/`vp`, relaxed
//!   inclusion `nc`, DRAM `NCD`, infinite `NCS`);
//! * [`page_cache`] — remote pages aliased into local DRAM, with
//!   least-recently-missed replacement and the adaptive relocation
//!   threshold;
//! * [`relocation`] — `vxp`: victimization counters on victim-cache sets
//!   replacing R-NUMA's directory counters;
//! * [`model`] — the latency model of Tables 1-2 and Equation 1;
//! * [`System`] — the trace-driven machine simulator;
//! * [`runner`] — one-call experiment execution.
//!
//! # Observability
//!
//! [`System`] is generic over a [`Probe`] — `System<P: Probe = NoProbe>`
//! — and emits a structured [`Event`] for every machine-level occurrence
//! it counts. The emission hook is monomorphized and guarded by the
//! associated constant `P::ENABLED`, so the default [`NoProbe`] system
//! compiles to the exact uninstrumented code: observability is
//! zero-overhead unless a probe is attached
//! ([`System::with_probe`] / [`runner::run_trace_probed`]).
//!
//! The event taxonomy follows the machine's layers:
//!
//! * **processor caches / bus** — `CacheHit`, `LocalUpgrade`,
//!   `PeerTransfer`, `LocalMiss` (each cluster's bus also counts the
//!   transactions it carries, [`dsm_protocol::BusCluster::transactions`]);
//! * **network cache** — `NcHit`, `NcCapture`, `AbsorbedDowngrade`,
//!   `ForcedEviction`;
//! * **page cache & relocation** — `PcHit`, `Relocation`,
//!   `PageEviction`, `ThresholdAdapted`;
//! * **directory / remote home** — `RemoteRead`, `RemoteWrite`,
//!   `OwnershipRequest`, `Invalidation`, `RemoteWriteback`;
//! * **OS page policies** — `Migration`, `Replication`,
//!   `ReplicaCollapse`.
//!
//! The simulator counts only [`Metrics`]; per-kind and per-cluster
//! counts are projections of an observer's [`EventCounts`] table.
//! [`System::set_epoch_window`] additionally samples the run into
//! epochs: every N shared references the probe receives an
//! [`EpochSample`] with the delta [`Metrics`] and per-cluster counts for
//! that window (the samples sum back exactly to the final aggregates).
//! Ready-made sinks live in [`obs`]: a counting/top-K [`obs::StatsSink`]
//! and a JSONL event-log [`obs::JsonlSink`], built like the run reports
//! ([`Report::to_json`]) on the dependency-free [`obs::Json`] writer.
//!
//! On top of the probe sit two profiling layers: [`phase`] attributes
//! every event to a protocol phase ([`PhaseProfiler`], with estimated
//! per-phase cycle contributions and log-bucketed histograms), and
//! [`obs::span`] records hierarchical wall-clock spans exportable as
//! chrome://tracing JSON. [`System::occupancy`] snapshots structure
//! fill levels (cache/NC/PC/directory) for the same diagnostics.
//!
//! # Quickstart
//!
//! ```
//! use dsm_core::{runner::run_workload, SystemSpec};
//! use dsm_trace::{workloads::Fft, Scale};
//!
//! let fft = Fft::with_points(1 << 8); // small instance for the doctest
//! let base = run_workload(&SystemSpec::base(), &fft, Scale::full())?;
//! let vb = run_workload(&SystemSpec::vb(), &fft, Scale::full())?;
//! assert!(vb.read_miss_ratio <= base.read_miss_ratio + 1e-12);
//! # Ok::<(), dsm_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cluster;
pub mod config;
pub mod fault;
pub mod metrics;
pub mod model;
pub mod nc;
pub mod obs;
pub mod page_cache;
pub mod phase;
pub mod probe;
pub mod relocation;
pub mod runner;
pub mod system;

pub use config::{
    CacheSpec, CounterSource, DirectorySpec, MigRepSpec, NcSpec, PcSize, PcSpec, SystemSpec,
    ThresholdPolicy,
};
pub use fault::{FaultPlan, FaultSite};
pub use metrics::Metrics;
pub use model::{Latencies, LatencyModel, NcTechnology};
pub use phase::{LogHistogram, Phase, PhaseCounters, PhaseProfiler, PHASES};
pub use probe::{EpochSample, Event, EventCounts, NoProbe, Probe, Tee};
pub use runner::{run_workload, Report};
pub use system::{ClusterOccupancy, OccupancySnapshot, System};
