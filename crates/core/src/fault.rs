//! Fault-injection plumbing for the replay stack: environment plumbing
//! and the bounded-retry helper the supervised I/O paths share.
//!
//! The plan vocabulary and the process-wide arming switch live in
//! [`dsm_types::fault`] (so `dsm-trace` can consult the plan without
//! depending on this crate); this module re-exports that surface and
//! adds the pieces that belong at the runtime layer:
//!
//! * [`install_from_env`] — binaries call this once at startup to arm
//!   the plan named by `DSM_FAULT_PLAN` (a seed or an explicit spec);
//! * [`retry_transient`] — bounded retry-with-backoff around fallible
//!   I/O, absorbing `EINTR`-class errors (injected or real) before the
//!   caller's sticky-disable / structured-error path runs.
//!
//! Of the three injection sites, `journal-io` and `atomic-write-io` fire
//! inside [`retry_transient`]; `mmap-truncate` needs no helper here, as
//! mapped-trace revalidation in `dsm-trace` consults the plan directly,
//! at open and before each point's replay ([`crate::runner::run_trace`]).
//! With no plan installed every consultation is a single relaxed atomic
//! load, so the hot path costs nothing.

pub use dsm_types::fault::{active, install, take_io_error, test_lock, FAULT_SITES};
pub use dsm_types::{FaultPlan, FaultSite};

use dsm_types::DsmError;
use std::io;
use std::time::Duration;

/// The environment variable naming the fault plan: a bare integer seed
/// (expanded by [`FaultPlan::derive`]) or an explicit spec (see
/// [`FaultPlan::from_spec`]).
pub const FAULT_PLAN_ENV: &str = "DSM_FAULT_PLAN";

/// Arms the process-wide fault plan from [`FAULT_PLAN_ENV`], if set.
/// Returns the installed plan so binaries can log it.
///
/// # Errors
///
/// A malformed spec is a usage error (exit code 2) naming the variable
/// and the parse failure.
pub fn install_from_env() -> Result<Option<FaultPlan>, DsmError> {
    let Ok(spec) = std::env::var(FAULT_PLAN_ENV) else {
        return Ok(None);
    };
    if spec.trim().is_empty() {
        install(None);
        return Ok(None);
    }
    let plan =
        FaultPlan::from_spec(&spec).map_err(|e| DsmError::usage(e).context(FAULT_PLAN_ENV))?;
    install(Some(plan));
    Ok(Some(plan))
}

/// Backoff schedule between retry attempts: first retry after 1ms, the
/// second (final) after 5ms more.
const RETRY_BACKOFF: [Duration; 2] = [Duration::from_millis(1), Duration::from_millis(5)];

/// Whether an I/O error is transient — worth retrying rather than
/// surfacing. `Interrupted` is `EINTR` (signals); `WouldBlock` covers
/// short-write-style contention.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
    )
}

/// Runs `op` with a bounded retry budget (three attempts, short
/// backoff) for transient errors, consulting the installed fault plan
/// before each attempt so injected `EINTR`s exercise exactly this path.
/// Non-transient errors and budget exhaustion surface to the caller,
/// where the existing sticky-disable or structured-error handling takes
/// over.
///
/// # Errors
///
/// The first non-transient error, or the last transient one once the
/// retry budget is spent.
pub fn retry_transient<T>(site: FaultSite, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut backoff = RETRY_BACKOFF.iter();
    loop {
        let result = match take_io_error(site) {
            Some(injected) => Err(injected),
            None => op(),
        };
        match result {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) => match backoff.next() {
                Some(delay) => std::thread::sleep(*delay),
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn retry_absorbs_transient_errors_within_budget() {
        let calls = AtomicU32::new(0);
        let out = retry_transient(FaultSite::JournalIo, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_gives_up_after_three_transient_attempts() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_transient(FaultSite::JournalIo, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"))
        });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_passes_hard_errors_straight_through() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_transient(FaultSite::AtomicWriteIo, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::other("disk on fire"))
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry for hard errors");
    }

    #[test]
    fn retry_consumes_injected_failures_first() {
        let _guard = test_lock();
        install(Some(FaultPlan::from_spec("journal-io:2").unwrap()));
        let calls = AtomicU32::new(0);
        let out = retry_transient(FaultSite::JournalIo, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(1)
        });
        install(None);
        // Two injected EINTRs absorbed by the two retries; the real op
        // then runs exactly once and succeeds.
        assert_eq!(out.unwrap(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn injected_budget_beyond_retries_surfaces() {
        let _guard = test_lock();
        install(Some(FaultPlan::from_spec("journal-io:3").unwrap()));
        let out: io::Result<u32> = retry_transient(FaultSite::JournalIo, || Ok(1));
        install(None);
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn install_from_env_rejects_bad_specs() {
        let _guard = test_lock();
        // Env mutation is process-global; serialized by the same lock as
        // every other plan-touching test.
        // Only the three I/O sites parse; any other site name is unknown.
        for bad in ["no-such-site@r0.p0.s0", "worker-panic@r1.p0.s0"] {
            std::env::set_var(FAULT_PLAN_ENV, bad);
            let err = install_from_env().unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains(FAULT_PLAN_ENV), "{err}");
        }
        std::env::set_var(FAULT_PLAN_ENV, "mmap-truncate");
        let plan = install_from_env().unwrap().unwrap();
        assert_eq!(plan.site, FaultSite::MmapTruncate);
        std::env::remove_var(FAULT_PLAN_ENV);
        install(None);
    }
}
