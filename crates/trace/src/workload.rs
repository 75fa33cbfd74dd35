//! The workload abstraction and the catalog of paper benchmarks.

use core::fmt;

use dsm_types::{MemRef, Topology};

use crate::workloads::{Barnes, Cholesky, Fft, Fmm, Lu, Ocean, Radix, Raytrace};
use crate::Scale;

/// A shared-memory trace kernel: a deterministic generator of the
/// interleaved reference stream of one parallel program.
///
/// Implementations mirror the paper's SPLASH-2 benchmarks (see the crate
/// docs for the substitution rationale). All of them:
///
/// * produce byte-identical traces for the same parameters, topology and
///   scale (no hidden global state);
/// * begin with an initialization phase in which each region is first
///   touched by its eventual owner, so first-touch placement distributes
///   pages as the tuned SPLASH-2 codes do;
/// * scale *time* (passes, steps, batches) rather than *space*, keeping the
///   paper's data-set sizes and working sets intact.
pub trait Workload {
    /// The benchmark's (lowercase) name, e.g. `"radix"`.
    fn name(&self) -> &'static str;

    /// Human-readable parameter summary, e.g. `"1M integers"` (Table 3).
    fn params(&self) -> String;

    /// The shared-data footprint in bytes implied by the parameters
    /// (compare with Table 3 of the paper).
    fn shared_bytes(&self) -> u64;

    /// Generates the interleaved reference trace for `topo` at `scale`.
    fn generate(&self, topo: &Topology, scale: Scale) -> Vec<MemRef>;
}

/// The eight paper benchmarks, for harness iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Barnes-Hut N-body (16K bodies).
    Barnes,
    /// Supernodal sparse Cholesky (tk15.0-sized).
    Cholesky,
    /// Six-step FFT (64K points).
    Fft,
    /// Adaptive fast multipole method (16K bodies).
    Fmm,
    /// Blocked dense LU (512 x 512).
    Lu,
    /// Ocean simulation (258 x 258).
    Ocean,
    /// Radix sort (1M integers).
    Radix,
    /// Raytrace (car-sized scene).
    Raytrace,
}

impl WorkloadKind {
    /// All eight benchmarks in the paper's (alphabetical) order.
    #[must_use]
    pub fn all() -> [WorkloadKind; 8] {
        [
            WorkloadKind::Barnes,
            WorkloadKind::Cholesky,
            WorkloadKind::Fft,
            WorkloadKind::Fmm,
            WorkloadKind::Lu,
            WorkloadKind::Ocean,
            WorkloadKind::Radix,
            WorkloadKind::Raytrace,
        ]
    }

    /// The benchmark named `name`, in any letter case (`lu`, `LU`).
    ///
    /// # Errors
    ///
    /// An "unknown workload" message.
    pub fn from_name(name: &str) -> Result<WorkloadKind, String> {
        let all = WorkloadKind::all().into_iter();
        let mut found = all.filter(|k| k.display_name().eq_ignore_ascii_case(name.trim()));
        found
            .next()
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    /// Instantiates the benchmark with the paper's parameters (Table 3).
    #[must_use]
    pub fn paper_instance(self) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Barnes => Box::new(Barnes::default()),
            WorkloadKind::Cholesky => Box::new(Cholesky::default()),
            WorkloadKind::Fft => Box::new(Fft::default()),
            WorkloadKind::Fmm => Box::new(Fmm::default()),
            WorkloadKind::Lu => Box::new(Lu::default()),
            WorkloadKind::Ocean => Box::new(Ocean::default()),
            WorkloadKind::Radix => Box::new(Radix::default()),
            WorkloadKind::Raytrace => Box::new(Raytrace::default()),
        }
    }

    /// Instantiates a reduced-size variant for fast tests and examples
    /// (smaller data sets, same phase structure).
    #[must_use]
    pub fn dev_instance(self) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Barnes => Box::new(Barnes::with_bodies(1 << 10)),
            WorkloadKind::Cholesky => Box::new(Cholesky::with_supernodes(64)),
            WorkloadKind::Fft => Box::new(Fft::with_points(1 << 10)),
            WorkloadKind::Fmm => Box::new(Fmm::with_bodies(1 << 10)),
            WorkloadKind::Lu => Box::new(Lu::with_matrix(128)),
            WorkloadKind::Ocean => Box::new(Ocean::with_grid(66)),
            WorkloadKind::Radix => Box::new(Radix::with_keys(1 << 14)),
            WorkloadKind::Raytrace => Box::new(Raytrace::with_scene_mb(2)),
        }
    }

    /// The benchmark name as the paper writes it.
    #[must_use]
    pub fn display_name(self) -> &'static str {
        match self {
            WorkloadKind::Barnes => "Barnes",
            WorkloadKind::Cholesky => "Cholesky",
            WorkloadKind::Fft => "FFT",
            WorkloadKind::Fmm => "FMM",
            WorkloadKind::Lu => "LU",
            WorkloadKind::Ocean => "Ocean",
            WorkloadKind::Radix => "Radix",
            WorkloadKind::Raytrace => "Raytrace",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_eight_unique() {
        let all = WorkloadKind::all();
        assert_eq!(all.len(), 8);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(WorkloadKind::Fft.to_string(), "FFT");
        assert_eq!(WorkloadKind::Barnes.to_string(), "Barnes");
    }

    #[test]
    fn names_parse_in_any_case() {
        for kind in WorkloadKind::all() {
            let lower = kind.display_name().to_lowercase();
            assert_eq!(WorkloadKind::from_name(&lower), Ok(kind));
            assert_eq!(WorkloadKind::from_name(kind.display_name()), Ok(kind));
        }
        let e = WorkloadKind::from_name("lu2").unwrap_err();
        assert!(e.starts_with("unknown workload 'lu2'"), "{e}");
    }

    #[test]
    fn paper_instances_report_names() {
        for kind in WorkloadKind::all() {
            let w = kind.paper_instance();
            assert_eq!(w.name(), kind.display_name().to_lowercase());
            assert!(w.shared_bytes() > 0);
        }
    }

    #[test]
    fn dev_instances_are_smaller() {
        for kind in WorkloadKind::all() {
            let paper = kind.paper_instance();
            let dev = kind.dev_instance();
            assert!(
                dev.shared_bytes() < paper.shared_bytes(),
                "{kind}: dev {} !< paper {}",
                dev.shared_bytes(),
                paper.shared_bytes()
            );
        }
    }
}
