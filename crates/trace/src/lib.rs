//! Synthetic SPLASH-2-style shared-memory reference traces.
//!
//! The paper drives its simulator with SPARC V7 address traces of eight
//! SPLASH-2 benchmarks. Real SPLASH-2 binaries and a SPARC tracer are not
//! portable, so this crate substitutes **deterministic trace kernels**: for
//! each benchmark we re-implement the *shared-data access pattern* of the
//! algorithm — same data-set sizes (Table 3 of the paper), same phase
//! structure, same read/write mix and spatial/temporal locality character —
//! and emit the interleaved per-processor reference stream a tracer would
//! have produced. Trace-driven simulation only consumes the address stream,
//! so this preserves exactly the properties the paper's results depend on:
//! working-set size, spatial locality, regularity, and sharing.
//!
//! | Benchmark | Kernel | Character |
//! |---|---|---|
//! | [`workloads::Fft`] | six-step 64K-point FFT with all-to-all transposes | regular, high spatial locality |
//! | [`workloads::Lu`] | blocked 512x512 dense LU | regular, high spatial locality |
//! | [`workloads::Radix`] | 1M-key radix sort, scattered permutation writes | irregular, write-heavy, low locality |
//! | [`workloads::Ocean`] | 258x258 red-black multigrid stencils | regular, nearest-neighbour |
//! | [`workloads::Barnes`] | 16K-body tree-walk force computation | irregular reads, hot shared tree top |
//! | [`workloads::Fmm`] | 16K-body adaptive FMM interactions | irregular, large sparse working set |
//! | [`workloads::Cholesky`] | supernodal sparse factorization (tk15.0-sized) | irregular tasks, long sequential panel reads |
//! | [`workloads::Raytrace`] | BVH walk over a 35-MB scene | read-mostly, very sparse, low locality |
//!
//! # Example
//!
//! ```
//! use dsm_trace::{Scale, Workload};
//! use dsm_trace::workloads::Fft;
//! use dsm_types::Topology;
//!
//! let fft = Fft::with_points(1 << 8); // small instance for the example
//! let trace = fft.generate(&Topology::paper_default(), Scale::new(1.0)?);
//! assert!(!trace.is_empty());
//! # Ok::<(), dsm_types::ConfigError>(())
//! ```

// `deny`, not `forbid`: the `mmap` module opts back in for the raw
// mapping syscalls alone (see its module docs for the safety story).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codec;
pub mod interleave;
pub mod layout;
pub mod mmap;
pub mod rng;
pub mod scale;
pub mod shared;
pub mod stats;
pub mod workload;
pub mod workloads;

pub use analysis::{analyze, SharingAnalysis};
pub use codec::{open_shared_mapped, read_shared, shared_from_mapping, write_shared, CodecError};
pub use interleave::PhaseBuilder;
pub use layout::{Layout, Region};
pub use mmap::Mapping;
pub use scale::Scale;
pub use shared::{SharedTrace, BATCH};
pub use stats::TraceStats;
pub use workload::{Workload, WorkloadKind};
