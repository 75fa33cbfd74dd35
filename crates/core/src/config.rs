//! System configurations: the paper's design points by name.
//!
//! | paper name | constructor | NC | PC |
//! |---|---|---|---|
//! | `base` | [`SystemSpec::base`] | — | — |
//! | `nc` | [`SystemSpec::nc`] | 16 KB 4-way SRAM, inclusion relaxed for clean | — |
//! | `vb` | [`SystemSpec::vb`] | 16 KB 4-way SRAM victim, block-indexed | — |
//! | `vp` | [`SystemSpec::vp`] | victim, page-indexed | — |
//! | `NCD` | [`SystemSpec::ncd`] | 512 KB 4-way DRAM, full inclusion | — |
//! | `NCS` | [`SystemSpec::ncs`] | infinite SRAM | — |
//! | (baseline) | [`SystemSpec::infinite_dram`] | infinite DRAM | — |
//! | `ncp` | [`SystemSpec::ncp`] | as `nc` | directory counters |
//! | `vbp` | [`SystemSpec::vbp`] | as `vb` | directory counters |
//! | `vpp` | [`SystemSpec::vpp`] | as `vp` | directory counters |
//! | `vxp` | [`SystemSpec::vxp`] | as `vp` | victim-set counters |
//!
//! Page-cache sizes follow the paper's notation: `ncp5` is
//! `SystemSpec::ncp(PcSize::DataFraction(5))` (one fifth of the data set);
//! the 512-KB points of Figures 9-10 are `PcSize::Bytes(512 * 1024)`.
//! [`text`] spells any spec as one string and parses it back.

pub mod text;

use crate::model::NcTechnology;
use crate::nc::NcIndexing;
use dsm_types::{ConfigError, Geometry};

/// Processor-cache geometry (per processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheSpec {
    /// Capacity in bytes (paper: 16 KB).
    pub bytes: u64,
    /// Associativity (paper: 2-way base, 1/2/4 in Figure 3).
    pub ways: usize,
}

impl Default for CacheSpec {
    fn default() -> Self {
        CacheSpec {
            bytes: 16 * 1024,
            ways: 2,
        }
    }
}

/// Network-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NcSpec {
    /// No network cache.
    None,
    /// Small SRAM NC with relaxed (clean) inclusion — the paper's `nc`.
    SramInclusion {
        /// Capacity in bytes.
        bytes: u64,
        /// Associativity (paper: always 4).
        ways: usize,
    },
    /// SRAM network victim cache — `vb` / `vp`.
    SramVictim {
        /// Capacity in bytes.
        bytes: u64,
        /// Associativity (paper: always 4).
        ways: usize,
        /// Block- or page-address set indexing.
        indexing: NcIndexingSpec,
        /// Capture clean (MESIR `R`-state replacement) victims; disabling
        /// this models a plain-MESI bus where only dirty write-backs reach
        /// the NC (an ablation of the paper's protocol extension).
        capture_clean: bool,
    },
    /// Large DRAM NC with full inclusion — `NCD`.
    DramInclusion {
        /// Capacity in bytes (paper: 512 KB).
        bytes: u64,
        /// Associativity.
        ways: usize,
    },
    /// Unbounded NC of the given technology — `NCS` / the normalization
    /// baseline.
    Infinite {
        /// SRAM (`NCS`) or DRAM (baseline).
        dram: bool,
    },
}

/// Serializable mirror of [`NcIndexing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NcIndexingSpec {
    /// Block-address bits (`vb`).
    Block,
    /// Page-address bits (`vp`).
    Page,
}

impl From<NcIndexingSpec> for NcIndexing {
    fn from(s: NcIndexingSpec) -> Self {
        match s {
            NcIndexingSpec::Block => NcIndexing::Block,
            NcIndexingSpec::Page => NcIndexing::Page,
        }
    }
}

/// Page-cache size, absolute or relative to the application data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcSize {
    /// Absolute bytes (the 512-KB comparisons of Figures 9-10).
    Bytes(u64),
    /// `1/denominator` of the application's data-set size (the paper's
    /// `ncp5` = 1/5, `ncp7` = 1/7, `ncp9` = 1/9 notation).
    DataFraction(u32),
}

impl PcSize {
    /// Resolves to a frame count for a data set of `data_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the resolved size is smaller than one
    /// page.
    pub fn frames(&self, data_bytes: u64, geo: &Geometry) -> Result<usize, ConfigError> {
        let bytes = match self {
            PcSize::Bytes(b) => *b,
            PcSize::DataFraction(d) => {
                if *d == 0 {
                    return Err(ConfigError::new("page-cache fraction denominator is zero"));
                }
                data_bytes / u64::from(*d)
            }
        };
        let frames = bytes / geo.page_bytes();
        if frames == 0 {
            return Err(ConfigError::new(format!(
                "page cache of {bytes} bytes holds no {}-byte page",
                geo.page_bytes()
            )));
        }
        #[allow(clippy::cast_possible_truncation)]
        Ok(frames as usize)
    }
}

/// Which counters trigger page relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterSource {
    /// R-NUMA: per-page per-cluster capacity-miss counters at the
    /// directory.
    Directory,
    /// The paper's `vxp`: per-set victimization counters on the network
    /// victim cache.
    VictimSets,
}

/// The relocation-threshold policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdPolicy {
    /// A fixed threshold (Figure 6's comparison point).
    Fixed(u32),
    /// The adaptive policy: start at `initial`, +8 on thrashing.
    Adaptive {
        /// Initial threshold (32, or 64 for eager `vxp` counters).
        initial: u32,
    },
}

impl ThresholdPolicy {
    /// The initial threshold value.
    #[must_use]
    pub fn initial(&self) -> u32 {
        match self {
            ThresholdPolicy::Fixed(t) | ThresholdPolicy::Adaptive { initial: t } => *t,
        }
    }
}

/// Page-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcSpec {
    /// Capacity.
    pub size: PcSize,
    /// Counter placement.
    pub counters: CounterSource,
    /// Threshold policy.
    pub threshold: ThresholdPolicy,
    /// The paper's optional refinement for `vxp`: decrement the set's
    /// victimization counter when an invalidation arrives and no cache or
    /// NC in the node holds the block (the next miss will be a coherence
    /// miss, so the earlier victimization should not push toward
    /// relocation). Off in the paper's base system.
    pub decrement_on_invalidation: bool,
}

/// Inter-cluster directory organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirectorySpec {
    /// Full-map presence bits (the paper's base; required by R-NUMA's
    /// directory-controlled relocation counters).
    #[default]
    FullMap,
    /// Dir-i-B limited pointers (NUMA-Q-class scalability) — usable with
    /// `vxp`'s victim-set counters, per the paper's scalability argument.
    LimitedPointer {
        /// Sharer pointers per entry.
        pointers: usize,
    },
}

/// OS-level page migration/replication (the SGI Origin approach the paper
/// contrasts against: no network cache, "relying exclusively on page
/// migration and replication").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MigRepSpec {
    /// Remote misses from one cluster to one page before the OS acts.
    pub threshold: u32,
    /// Migrate written pages to their dominant accessor.
    pub migration: bool,
    /// Replicate read-only pages into the reader's local memory.
    pub replication: bool,
}

impl Default for MigRepSpec {
    fn default() -> Self {
        MigRepSpec {
            threshold: DEFAULT_THRESHOLD,
            migration: true,
            replication: true,
        }
    }
}

/// A complete system configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemSpec {
    /// Display name (the paper's configuration label).
    pub name: String,
    /// Processor caches.
    pub cache: CacheSpec,
    /// Network cache.
    pub nc: NcSpec,
    /// Page cache, if any.
    pub pc: Option<PcSpec>,
    /// Use the MOESI-R protocol variant (dirty-shared `O` state) instead
    /// of plain MESIR — the option the paper evaluated and found of
    /// "very little benefit". Off by default.
    pub dirty_shared: bool,
    /// OS page migration/replication (the SGI Origin alternative;
    /// mutually exclusive with a page cache).
    pub migrep: Option<MigRepSpec>,
    /// Inter-cluster directory organization.
    pub directory: DirectorySpec,
}

/// The paper's NC size for the SRAM configurations: 16 KB (equal to one
/// processor cache).
pub const SRAM_NC_BYTES: u64 = 16 * 1024;
/// The paper's DRAM NC size: 512 KB (8x the cluster's total cache).
pub const DRAM_NC_BYTES: u64 = 512 * 1024;
/// NCs are always four-way set-associative in the paper.
pub const NC_WAYS: usize = 4;
/// Default adaptive relocation threshold.
pub const DEFAULT_THRESHOLD: u32 = 32;

impl SystemSpec {
    fn named(name: impl Into<String>, nc: NcSpec, pc: Option<PcSpec>) -> Self {
        SystemSpec {
            name: name.into(),
            cache: CacheSpec::default(),
            nc,
            pc,
            dirty_shared: false,
            migrep: None,
            directory: DirectorySpec::default(),
        }
    }

    /// `base`: no NC, no PC.
    #[must_use]
    pub fn base() -> Self {
        SystemSpec::named("base", NcSpec::None, None)
    }

    /// `nc`: 16-KB SRAM NC, inclusion relaxed for clean blocks.
    #[must_use]
    pub fn nc() -> Self {
        SystemSpec::named(
            "nc",
            NcSpec::SramInclusion {
                bytes: SRAM_NC_BYTES,
                ways: NC_WAYS,
            },
            None,
        )
    }

    /// `vb`: 16-KB SRAM victim NC, block-indexed.
    #[must_use]
    pub fn vb() -> Self {
        SystemSpec::vb_sized(SRAM_NC_BYTES)
    }

    /// A block-indexed victim NC of `bytes` bytes (Figure 3's `vb1` is
    /// 1 KB, `vb16` is 16 KB).
    #[must_use]
    pub fn vb_sized(bytes: u64) -> Self {
        SystemSpec::named(
            format!("vb{}", bytes / 1024),
            NcSpec::SramVictim {
                bytes,
                ways: NC_WAYS,
                indexing: NcIndexingSpec::Block,
                capture_clean: true,
            },
            None,
        )
    }

    /// `vp`: 16-KB SRAM victim NC, page-indexed.
    #[must_use]
    pub fn vp() -> Self {
        SystemSpec::named(
            "vp",
            NcSpec::SramVictim {
                bytes: SRAM_NC_BYTES,
                ways: NC_WAYS,
                indexing: NcIndexingSpec::Page,
                capture_clean: true,
            },
            None,
        )
    }

    /// `NCD`: 512-KB DRAM NC with full inclusion.
    #[must_use]
    pub fn ncd() -> Self {
        SystemSpec::named(
            "NCD",
            NcSpec::DramInclusion {
                bytes: DRAM_NC_BYTES,
                ways: NC_WAYS,
            },
            None,
        )
    }

    /// `NCS`: infinite SRAM NC (ideal).
    #[must_use]
    pub fn ncs() -> Self {
        SystemSpec::named("NCS", NcSpec::Infinite { dram: false }, None)
    }

    /// Infinite DRAM NC — the normalization baseline of Figures 9-11.
    #[must_use]
    pub fn infinite_dram() -> Self {
        SystemSpec::named("NCD-inf", NcSpec::Infinite { dram: true }, None)
    }

    fn directory_pc(size: PcSize) -> PcSpec {
        PcSpec {
            size,
            counters: CounterSource::Directory,
            threshold: ThresholdPolicy::Adaptive {
                initial: DEFAULT_THRESHOLD,
            },
            decrement_on_invalidation: false,
        }
    }

    fn pc_suffix(size: PcSize) -> String {
        match size {
            PcSize::Bytes(b) => format!("-{}K", b / 1024),
            PcSize::DataFraction(d) => format!("{d}"),
        }
    }

    /// `ncp`: `nc` plus a page cache with directory (R-NUMA) counters.
    #[must_use]
    pub fn ncp(size: PcSize) -> Self {
        let mut s = SystemSpec::nc();
        s.name = format!("ncp{}", Self::pc_suffix(size));
        s.pc = Some(Self::directory_pc(size));
        s
    }

    /// `vbp`: `vb` plus a page cache with directory counters.
    #[must_use]
    pub fn vbp(size: PcSize) -> Self {
        let mut s = SystemSpec::vb();
        s.name = format!("vbp{}", Self::pc_suffix(size));
        s.pc = Some(Self::directory_pc(size));
        s
    }

    /// `vpp`: `vp` plus a page cache with directory counters.
    #[must_use]
    pub fn vpp(size: PcSize) -> Self {
        let mut s = SystemSpec::vp();
        s.name = format!("vpp{}", Self::pc_suffix(size));
        s.pc = Some(Self::directory_pc(size));
        s
    }

    /// `vxp`: page-indexed victim NC whose per-set victimization counters
    /// control the page cache (`initial` threshold 32 or 64 in Figure 11).
    #[must_use]
    pub fn vxp(size: PcSize, initial: u32) -> Self {
        let mut s = SystemSpec::vp();
        s.name = format!("vxp{}(t{initial})", Self::pc_suffix(size));
        s.pc = Some(PcSpec {
            size,
            counters: CounterSource::VictimSets,
            threshold: ThresholdPolicy::Adaptive { initial },
            decrement_on_invalidation: false,
        });
        s
    }

    /// `origin`: no RDC at all — OS page migration and replication only,
    /// the SGI Origin philosophy the paper contrasts against.
    #[must_use]
    pub fn origin() -> Self {
        let mut s = SystemSpec::base();
        s.name = "origin".into();
        s.migrep = Some(MigRepSpec::default());
        s
    }

    /// `origin` plus a 16-KB victim NC — the paper's concluding
    /// hypothesis: "a small, very fast NC could shield the page migration
    /// and replication policies from the noise of conflict misses".
    #[must_use]
    pub fn origin_vb() -> Self {
        let mut s = SystemSpec::vb();
        s.name = "origin+vb".into();
        s.migrep = Some(MigRepSpec::default());
        s
    }

    /// Switches to a Dir-i-B limited-pointer directory with `pointers`
    /// sharer slots (NUMA-Q-class scalability). Only `vxp`'s victim-set
    /// counters remain usable for page relocation under it.
    ///
    /// # Panics
    ///
    /// Panics if `pointers` is zero.
    #[must_use]
    pub fn with_limited_directory(mut self, pointers: usize) -> Self {
        assert!(pointers > 0, "need at least one sharer pointer");
        self.directory = DirectorySpec::LimitedPointer { pointers };
        self.name.push_str(&format!("-dir{pointers}B"));
        self
    }

    /// Enables the MOESI-R dirty-shared `O` state (protocol-variant
    /// ablation).
    #[must_use]
    pub fn with_dirty_shared(mut self) -> Self {
        self.dirty_shared = true;
        self.name.push_str("-O");
        self
    }

    /// Enables the invalidation-driven counter decrement on a `vxp` spec
    /// (the paper's optional refinement).
    ///
    /// # Panics
    ///
    /// Panics unless the spec uses victim-set counters.
    #[must_use]
    pub fn with_invalidation_decrement(mut self) -> Self {
        let pc = self.pc.as_mut().expect("no page cache configured");
        assert_eq!(
            pc.counters,
            CounterSource::VictimSets,
            "invalidation decrement refines the vxp counters"
        );
        pc.decrement_on_invalidation = true;
        self.name.push_str("-dec");
        self
    }

    /// Overrides the processor-cache geometry (Figure 3's associativity
    /// sweep).
    #[must_use]
    pub fn with_cache(mut self, bytes: u64, ways: usize) -> Self {
        self.cache = CacheSpec { bytes, ways };
        self
    }

    /// Disables MESIR clean-victim capture on a victim-NC spec (ablation:
    /// under plain MESI only dirty write-backs reach the NC).
    ///
    /// # Panics
    ///
    /// Panics if the spec's NC is not a victim cache.
    #[must_use]
    pub fn without_mesir_capture(mut self) -> Self {
        match &mut self.nc {
            NcSpec::SramVictim { capture_clean, .. } => *capture_clean = false,
            other => panic!("MESIR capture only applies to victim NCs, not {other:?}"),
        }
        self.name.push_str("-mesi");
        self
    }

    /// Overrides the threshold policy (Figure 6's fixed-vs-adaptive
    /// comparison).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no page cache.
    #[must_use]
    pub fn with_threshold(mut self, threshold: ThresholdPolicy) -> Self {
        let pc = self.pc.as_mut().expect("no page cache to configure");
        pc.threshold = threshold;
        self
    }

    /// The NC memory technology, for the latency model.
    #[must_use]
    pub fn technology(&self) -> NcTechnology {
        match self.nc {
            NcSpec::None => NcTechnology::None,
            NcSpec::SramInclusion { .. } | NcSpec::SramVictim { .. } => NcTechnology::Sram,
            NcSpec::DramInclusion { .. } => NcTechnology::Dram,
            NcSpec::Infinite { dram } => {
                if dram {
                    NcTechnology::Dram
                } else {
                    NcTechnology::Sram
                }
            }
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if victim-set counters are configured
    /// without a victim NC, a limited directory has no pointers or more
    /// than its entries hold, or cache/NC shapes are degenerate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cache.bytes == 0 || self.cache.ways == 0 {
            return Err(ConfigError::new("degenerate processor cache"));
        }
        if let Some(pc) = &self.pc {
            if pc.counters == CounterSource::VictimSets
                && !matches!(self.nc, NcSpec::SramVictim { .. })
            {
                return Err(ConfigError::new(
                    "victim-set relocation counters require a victim network cache",
                ));
            }
            if pc.threshold.initial() == 0 {
                return Err(ConfigError::new("relocation threshold must be nonzero"));
            }
            if self.migrep.is_some() {
                return Err(ConfigError::new(
                    "page migration/replication and a page cache are mutually exclusive",
                ));
            }
        }
        if let Some(pc) = &self.pc {
            if pc.counters == CounterSource::Directory && self.directory != DirectorySpec::FullMap {
                return Err(ConfigError::new(
                    "R-NUMA's directory relocation counters require a full-map directory \
                     (the paper's scalability critique); use vxp's victim-set counters",
                ));
            }
        }
        if let DirectorySpec::LimitedPointer { pointers } = self.directory {
            // The packed entries of `dsm_directory`'s Dir-i-B directory.
            if !(1..=8).contains(&pointers) {
                return Err(ConfigError::new(format!(
                    "a Dir-i-B directory entry holds 1 to 8 sharer pointers, not {pointers}"
                )));
            }
        }
        if let Some(mr) = &self.migrep {
            if mr.threshold == 0 {
                return Err(ConfigError::new("migration threshold must be nonzero"));
            }
            if !(mr.migration || mr.replication) {
                return Err(ConfigError::new(
                    "migration/replication spec enables neither mechanism",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names() {
        assert_eq!(SystemSpec::base().name, "base");
        assert_eq!(SystemSpec::nc().name, "nc");
        assert_eq!(SystemSpec::vb().name, "vb16");
        assert_eq!(SystemSpec::vp().name, "vp");
        assert_eq!(SystemSpec::ncd().name, "NCD");
        assert_eq!(SystemSpec::ncs().name, "NCS");
        assert_eq!(SystemSpec::ncp(PcSize::DataFraction(5)).name, "ncp5");
        assert_eq!(
            SystemSpec::vxp(PcSize::DataFraction(5), 64).name,
            "vxp5(t64)"
        );
    }

    #[test]
    fn technologies() {
        assert_eq!(SystemSpec::base().technology(), NcTechnology::None);
        assert_eq!(SystemSpec::vb().technology(), NcTechnology::Sram);
        assert_eq!(SystemSpec::ncd().technology(), NcTechnology::Dram);
        assert_eq!(SystemSpec::ncs().technology(), NcTechnology::Sram);
        assert_eq!(SystemSpec::infinite_dram().technology(), NcTechnology::Dram);
    }

    #[test]
    fn pc_size_resolution() {
        let geo = Geometry::paper_default();
        assert_eq!(PcSize::Bytes(512 * 1024).frames(0, &geo).unwrap(), 128);
        // 1/5 of 10 MB = 2 MB = 512 pages.
        assert_eq!(
            PcSize::DataFraction(5)
                .frames(10 * 1024 * 1024, &geo)
                .unwrap(),
            512
        );
        assert!(PcSize::Bytes(100).frames(0, &geo).is_err());
        assert!(PcSize::DataFraction(0).frames(1000, &geo).is_err());
    }

    #[test]
    fn validation_catches_vxp_without_victim_nc() {
        let mut bad = SystemSpec::ncp(PcSize::DataFraction(5));
        bad.pc.as_mut().unwrap().counters = CounterSource::VictimSets;
        assert!(bad.validate().is_err());
        assert!(SystemSpec::vxp(PcSize::DataFraction(5), 32)
            .validate()
            .is_ok());
    }

    #[test]
    fn all_paper_specs_validate() {
        let specs = [
            SystemSpec::base(),
            SystemSpec::nc(),
            SystemSpec::vb(),
            SystemSpec::vb_sized(1024),
            SystemSpec::vp(),
            SystemSpec::ncd(),
            SystemSpec::ncs(),
            SystemSpec::infinite_dram(),
            SystemSpec::ncp(PcSize::Bytes(512 * 1024)),
            SystemSpec::vbp(PcSize::DataFraction(7)),
            SystemSpec::vpp(PcSize::DataFraction(5)),
            SystemSpec::vxp(PcSize::DataFraction(5), 64),
        ];
        for s in specs {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn with_cache_and_threshold() {
        let s = SystemSpec::vb().with_cache(16 * 1024, 4);
        assert_eq!(s.cache.ways, 4);
        let s = SystemSpec::ncp(PcSize::DataFraction(5)).with_threshold(ThresholdPolicy::Fixed(32));
        assert_eq!(s.pc.unwrap().threshold, ThresholdPolicy::Fixed(32));
    }

    #[test]
    fn full_map_requirement_is_one_sentence() {
        let spec = SystemSpec::ncp(PcSize::DataFraction(5)).with_limited_directory(4);
        assert_eq!(
            spec.validate().unwrap_err().to_string(),
            "R-NUMA's directory relocation counters require a full-map directory (the \
             paper's scalability critique); use vxp's victim-set counters"
        );
    }

    #[test]
    fn limited_directories_hold_one_to_eight_pointers() {
        assert!(SystemSpec::vb()
            .with_limited_directory(8)
            .validate()
            .is_ok());
        let e = SystemSpec::vb().with_limited_directory(9).validate();
        assert!(e
            .unwrap_err()
            .to_string()
            .contains("1 to 8 sharer pointers, not 9"));
    }

    #[test]
    #[should_panic(expected = "no page cache")]
    fn with_threshold_requires_pc() {
        let _ = SystemSpec::vb().with_threshold(ThresholdPolicy::Fixed(32));
    }
}
