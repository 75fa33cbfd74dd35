//! Seed-deterministic fault injection: the plan vocabulary and the
//! process-wide arming switch.
//!
//! The replay stack's I/O is supervised (journal and atomic writes retry
//! transient errors, mapped traces are revalidated), and this module is
//! how that machinery is *tested*: a [`FaultPlan`] names one injection
//! site and its failure budget, and every supervised layer consults the
//! plan at its injection points. With no plan installed the
//! consultation is a single relaxed atomic load ([`active`] returns
//! `None` without locking), so the hot path costs nothing — the same
//! zero-cost-when-absent discipline as the probe layer.
//!
//! Plans come from two places:
//!
//! * a **seed** (`--fault-seed N` or a bare integer in
//!   `DSM_FAULT_PLAN`), expanded deterministically by
//!   [`FaultPlan::derive`] so a CI sweep over seeds covers the
//!   site × budget space reproducibly;
//! * an **explicit spec** (`DSM_FAULT_PLAN=journal-io:2` etc.), parsed
//!   by [`FaultPlan::from_spec`], for targeting one site exactly.
//!
//! This lives in `dsm-types` (not `dsm-core`) because the lowest
//! injection site — mapped-trace truncation — is in `dsm-trace`, which
//! only depends on this crate. `dsm_core::fault` re-exports everything
//! and adds the recovery helpers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Where an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Transient `EINTR`-style failures injected into sweep-journal
    /// appends ([`FaultPlan::io_failures`] consecutive attempts fail).
    JournalIo,
    /// Transient failures injected into atomic JSON writes.
    AtomicWriteIo,
    /// Mapped-trace revalidation reports the file truncated.
    MmapTruncate,
}

impl FaultSite {
    /// The stable spec label — the prefix accepted by
    /// [`FaultPlan::from_spec`] and printed in diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::JournalIo => "journal-io",
            FaultSite::AtomicWriteIo => "atomic-write-io",
            FaultSite::MmapTruncate => "mmap-truncate",
        }
    }
}

/// All sites, in the order [`FaultPlan::derive`] indexes them.
pub const FAULT_SITES: [FaultSite; 3] = [
    FaultSite::JournalIo,
    FaultSite::AtomicWriteIo,
    FaultSite::MmapTruncate,
];

/// One deterministic fault to inject: a site plus its failure budget.
/// Built from a seed ([`FaultPlan::derive`]) or a spec string
/// ([`FaultPlan::from_spec`]), installed process-wide with [`install`],
/// and consulted by the supervised layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injection site.
    pub site: FaultSite,
    /// `journal-io` and `atomic-write-io`: how many consecutive attempts
    /// fail before the operation is allowed to succeed (`mmap-truncate`
    /// ignores it). Below the retry budget the fault is absorbed
    /// transparently; at or above it, the structured degradation path
    /// runs.
    pub io_failures: u32,
}

impl FaultPlan {
    /// Expands `seed` into a plan, deterministically (splitmix64): the
    /// same seed always yields the same site and budget, so a CI seed
    /// sweep is reproducible anywhere.
    #[must_use]
    pub fn derive(seed: u64) -> FaultPlan {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let sites = FAULT_SITES.len() as u64;
        let site = FAULT_SITES[usize::try_from(next() % sites).unwrap_or(0)];
        FaultPlan {
            site,
            io_failures: 1 + u32::try_from(next() % 4).unwrap_or(0),
        }
    }

    /// Parses a `DSM_FAULT_PLAN` spec. A bare integer is a seed for
    /// [`FaultPlan::derive`]; otherwise the grammar is:
    ///
    /// ```text
    /// journal-io:<failures>
    /// atomic-write-io:<failures>
    /// mmap-truncate
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (a usage error at the CLI) when
    /// the spec matches no site or its failure count does not parse.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if !spec.is_empty() && spec.bytes().all(|b| b.is_ascii_digit()) {
            return spec
                .parse::<u64>()
                .map(FaultPlan::derive)
                .map_err(|e| format!("fault seed '{spec}': {e}"));
        }
        if spec == FaultSite::MmapTruncate.label() {
            return Ok(FaultPlan {
                site: FaultSite::MmapTruncate,
                io_failures: 1,
            });
        }
        for site in [FaultSite::JournalIo, FaultSite::AtomicWriteIo] {
            if let Some(rest) = spec.strip_prefix(site.label()) {
                let n = rest.strip_prefix(':').ok_or_else(|| {
                    format!(
                        "fault spec '{spec}': expected '{}:<failures>'",
                        site.label()
                    )
                })?;
                let io_failures = n
                    .parse()
                    .map_err(|e| format!("fault spec '{spec}': bad failure count: {e}"))?;
                return Ok(FaultPlan { site, io_failures });
            }
        }
        Err(format!(
            "fault spec '{spec}': unknown site (one of journal-io, atomic-write-io, \
             mmap-truncate, or a bare seed)"
        ))
    }

    /// Renders the plan back as a spec string (diagnostics only).
    #[must_use]
    pub fn spec(&self) -> String {
        match self.site {
            FaultSite::MmapTruncate => self.site.label().to_owned(),
            FaultSite::JournalIo | FaultSite::AtomicWriteIo => {
                format!("{}:{}", self.site.label(), self.io_failures)
            }
        }
    }
}

/// Fast gate: `true` only while a plan is installed. Relaxed is enough —
/// installation happens-before the run it arms through thread spawning.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The installed plan plus its remaining transient-I/O budget.
static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);

#[derive(Debug, Clone, Copy)]
struct PlanState {
    plan: FaultPlan,
    io_left: u32,
}

/// Installs (or, with `None`, clears) the process-wide fault plan.
/// Intended for binaries at startup and for the chaos harness between
/// sequential scenarios; library code only reads.
pub fn install(plan: Option<FaultPlan>) {
    let mut guard = PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = plan.map(|plan| PlanState {
        plan,
        io_left: plan.io_failures,
    });
    ARMED.store(plan.is_some(), Ordering::Release);
}

/// The installed plan, if any. One relaxed atomic load when disarmed —
/// safe to consult on warm paths.
#[must_use]
pub fn active() -> Option<FaultPlan> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .map(|s| s.plan)
}

/// Consumes one injected transient I/O failure for `site`, if the
/// installed plan targets it and its [`FaultPlan::io_failures`] budget
/// is not exhausted. Returns the error the failed operation should
/// report (`Interrupted`, i.e. `EINTR`).
#[must_use]
pub fn take_io_error(site: FaultSite) -> Option<std::io::Error> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut guard = PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let state = guard.as_mut()?;
    if state.plan.site != site || state.io_left == 0 {
        return None;
    }
    state.io_left -= 1;
    Some(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected transient I/O failure ({})", site.label()),
    ))
}

/// Serializes tests (here and in dependent crates) that install the
/// process-wide plan, so parallel test threads cannot observe each
/// other's injections. Not part of the production surface.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_covers_sites() {
        let a = FaultPlan::derive(42);
        let b = FaultPlan::derive(42);
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let plan = FaultPlan::derive(seed);
            assert!((1..=4).contains(&plan.io_failures), "{plan:?}");
            seen.insert(plan.site);
        }
        let all: std::collections::HashSet<_> = FAULT_SITES.into_iter().collect();
        assert_eq!(seen, all, "64 seeds should hit all three sites");
    }

    #[test]
    fn spec_round_trips() {
        for spec in ["journal-io:2", "atomic-write-io:4", "mmap-truncate"] {
            let plan = FaultPlan::from_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(plan.spec(), spec, "round trip");
        }
    }

    #[test]
    fn bare_seed_derives() {
        assert_eq!(FaultPlan::from_spec("17").unwrap(), FaultPlan::derive(17));
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "worker-panic@r1.p0.s0",
            "mailbox-send-fail@r1.p0.s0",
            "mailbox-stall@r1.p0.s0",
            "journal-io",
            "journal-io:x",
            "mmap-truncate:1",
            "no-such-site@r0.p0.s0",
            "",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "accepted: '{bad}'");
        }
    }

    #[test]
    fn io_budget_is_consumed_once_installed() {
        // Serialized against sibling tests touching the global plan.
        let _guard = crate::fault::test_lock();
        install(Some(FaultPlan::from_spec("journal-io:2").unwrap()));
        assert!(
            take_io_error(FaultSite::AtomicWriteIo).is_none(),
            "wrong site"
        );
        assert!(take_io_error(FaultSite::JournalIo).is_some());
        assert!(take_io_error(FaultSite::JournalIo).is_some());
        assert!(
            take_io_error(FaultSite::JournalIo).is_none(),
            "budget spent"
        );
        install(None);
        assert!(active().is_none());
        assert!(take_io_error(FaultSite::JournalIo).is_none());
    }
}
