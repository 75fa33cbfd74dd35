//! Crash-safe sweep journaling: an append-only JSONL record of every
//! completed sweep point, fsynced per entry, from which an interrupted
//! reproduction can resume.
//!
//! Each line is one JSON object:
//!
//! ```text
//! {"key":{"spec":{...},"workload":"lu","scale":0.05},"wall_s":1.2,"report":{...}}
//! {"key":{"spec":{...},"workload":"lu","scale":0.05},"wall_s":0.4,"failed":{"message":...,"repro":...}}
//! ```
//!
//! `key` identifies the simulation, not the figure that asked for it:
//! the point's [`PointKey`] (every field of the system spec but its
//! display name), the workload and the trace scale. The point table runs
//! each key once per `reproduce`, so one lookup serves every figure that
//! plots the point, and an entry written at one scale never answers for
//! another. Successful points carry the full [`Report`] (which
//! round-trips byte-identically through the JSON writer/parser); failed
//! points carry the structured [`PointFailure`] so the failure summary —
//! including the one-line repro invocation — survives the crash.
//!
//! On [`SweepJournal::resume`], successful entries become a skip-set:
//! the sweep engine returns their recorded reports without re-running
//! them, in submission order, so a killed-and-resumed run merges to
//! byte-identical output. Failed entries are *not* skipped — a resumed
//! run retries them. A torn final line (the crash happened mid-write)
//! is ignored, as is everything after it. An entry without a `key` (the
//! older per-figure `scope`/`label` format) is rejected as bad input.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dsm_core::obs::Json;
use dsm_core::Report;
use dsm_trace::Scale;
use dsm_types::{DsmError, FxHashMap};

use crate::points::PointKey;
use crate::sweep::{PointFailure, SweepPoint};

/// The journal key of `point` at `scale`. Entries match by its rendering
/// (rendering a parsed key reproduces the text exactly).
fn entry_key(point: &SweepPoint, scale: Scale) -> Json {
    Json::obj()
        .set("spec", PointKey::of(&point.spec).to_json())
        .set("workload", point.workload.display_name().to_lowercase())
        .set("scale", scale.factor())
}

/// The journal: shared by every worker of a sweep, serialized by an
/// internal mutex, durable per entry (`fsync` after each line).
#[derive(Debug)]
pub struct SweepJournal {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// `None` after a write failure: journaling disables itself (with a
    /// warning) rather than failing the sweep it was meant to protect.
    file: Option<File>,
    path: PathBuf,
    /// Completed points from a resumed journal, keyed by their rendered
    /// entry key.
    completed: FxHashMap<String, Report>,
    /// Entries lost to the sticky disable: the append that failed plus
    /// every one skipped afterwards. Surfaced in the sweep failure
    /// summary and `timings.json` so losing crash-safety is never
    /// silent.
    disabled_appends: u64,
}

impl SweepJournal {
    /// Starts a fresh journal at `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// Returns a [`DsmError`] if the file cannot be created.
    pub fn create(path: &Path) -> Result<Self, DsmError> {
        let file = File::create(path).map_err(|e| {
            DsmError::bad_input(format!("cannot create journal {}: {e}", path.display()))
        })?;
        Ok(SweepJournal {
            inner: Mutex::new(Inner {
                file: Some(file),
                path: path.to_owned(),
                completed: FxHashMap::default(),
                disabled_appends: 0,
            }),
        })
    }

    /// Reopens the journal at `path`, loading every successful entry as
    /// a skip-set and appending new entries after them. Lines after a
    /// torn (unparseable) line are ignored — they are the debris of the
    /// crash being resumed from.
    ///
    /// # Errors
    ///
    /// Returns a [`DsmError`] if the file cannot be read or reopened,
    /// or if a well-formed entry carries a malformed report.
    pub fn resume(path: &Path) -> Result<Self, DsmError> {
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| {
                DsmError::bad_input(format!("cannot read journal {}: {e}", path.display()))
            })?;
        let mut completed = FxHashMap::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(entry) = Json::parse(line) else {
                break; // torn tail: the crash interrupted this write
            };
            let Some(key) = entry.get("key") else {
                return Err(DsmError::bad_input(format!(
                    "journal {}: entry without a key (an older scope/label journal \
                     cannot be resumed; start a new one with --journal)",
                    path.display()
                )));
            };
            if let Some(report) = entry.get("report") {
                let report = Report::from_json(report)
                    .map_err(|e| e.context(format!("journal {}", path.display())))?;
                completed.insert(key.render(), report);
            }
            // Failed entries are read past but not skipped: resume
            // retries them.
        }
        let file = OpenOptions::new().append(true).open(path).map_err(|e| {
            DsmError::bad_input(format!("cannot reopen journal {}: {e}", path.display()))
        })?;
        Ok(SweepJournal {
            inner: Mutex::new(Inner {
                file: Some(file),
                path: path.to_owned(),
                completed,
                disabled_appends: 0,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The report a resumed journal recorded for `point` at `scale`, if
    /// that simulation already completed successfully.
    #[must_use]
    pub fn lookup(&self, point: &SweepPoint, scale: Scale) -> Option<Report> {
        let key = entry_key(point, scale).render();
        self.lock().completed.get(&key).cloned()
    }

    /// Number of completed points loaded by [`SweepJournal::resume`].
    #[must_use]
    pub fn resumed_points(&self) -> usize {
        self.lock().completed.len()
    }

    /// Entries lost to the sticky disable — the failed append plus
    /// every append skipped after it. Zero while journaling is healthy.
    #[must_use]
    pub fn disabled_points(&self) -> u64 {
        self.lock().disabled_appends
    }

    /// Appends a successful point. Durable before return (fsync).
    pub fn record_ok(&self, point: &SweepPoint, scale: Scale, report: &Report, wall_s: f64) {
        self.append(
            &Json::obj()
                .set("key", entry_key(point, scale))
                .set("wall_s", wall_s)
                .set("report", report.to_json()),
        );
    }

    /// Appends a failed point (structured, including the repro line).
    /// Durable before return (fsync).
    pub fn record_failed(
        &self,
        point: &SweepPoint,
        scale: Scale,
        failure: &PointFailure,
        wall_s: f64,
    ) {
        self.append(
            &Json::obj()
                .set("key", entry_key(point, scale))
                .set("wall_s", wall_s)
                .set("failed", failure.to_json()),
        );
    }

    /// Writes one entry under the mutex. Transient failures (`EINTR`,
    /// injected or real) get a bounded retry-with-backoff first; a
    /// persistent failure disables the journal (sticky, counted) with a
    /// warning instead of failing the sweep.
    fn append(&self, entry: &Json) {
        let line = entry.render();
        let mut inner = self.lock();
        let Some(file) = inner.file.as_mut() else {
            inner.disabled_appends += 1;
            return;
        };
        let result =
            dsm_core::fault::retry_transient(dsm_core::fault::FaultSite::JournalIo, || {
                writeln!(file, "{line}").and_then(|()| file.sync_data())
            });
        if let Err(e) = result {
            eprintln!(
                "warning: journal {} failed ({e}); journaling disabled for the rest of the run",
                inner.path.display()
            );
            inner.file = None;
            inner.disabled_appends += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::SystemSpec;
    use dsm_trace::WorkloadKind;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsm-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn scale() -> Scale {
        Scale::new(0.05).unwrap()
    }

    fn point(spec: SystemSpec) -> SweepPoint {
        SweepPoint::new(spec, WorkloadKind::Lu)
    }

    fn sample_report(label: &str) -> Report {
        // A report with enough non-trivial floats to exercise the
        // byte-identity of the JSON round-trip.
        let mut r = Report {
            system: label.to_owned(),
            workload: "lu".to_owned(),
            data_bytes: 1 << 20,
            refs: 12345,
            read_miss_ratio: 0.062_499_999_3,
            write_miss_ratio: 0.01,
            relocation_overhead: 0.0,
            remote_read_stall: 987_654,
            remote_traffic: 4321,
            directory_bits_per_block: 32,
            metrics: dsm_core::Metrics::default(),
            wall_s: 1.5,
        };
        r.metrics.shared_refs = 12345;
        r
    }

    #[test]
    fn journal_round_trips_completed_points() {
        let path = tmp_path("roundtrip");
        let j = SweepJournal::create(&path).expect("create");
        let r = sample_report("base");
        j.record_ok(&point(SystemSpec::base()), scale(), &r, 0.25);
        drop(j);

        let j = SweepJournal::resume(&path).expect("resume");
        assert_eq!(j.resumed_points(), 1);
        let back = j
            .lookup(&point(SystemSpec::base()), scale())
            .expect("completed point");
        assert_eq!(back, r);
        // The key is the spec's content: a renamed alias hits...
        let mut alias = SystemSpec::base();
        alias.name = "2w-vb0".into();
        assert_eq!(j.lookup(&point(alias), scale()), Some(r));
        // ...another spec or another workload does not.
        assert!(j.lookup(&point(SystemSpec::vb()), scale()).is_none());
        let fft = SweepPoint::new(SystemSpec::base(), WorkloadKind::Fft);
        assert!(j.lookup(&fft, scale()).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entries_from_another_scale_do_not_match() {
        let path = tmp_path("scale");
        let j = SweepJournal::create(&path).expect("create");
        j.record_ok(&point(SystemSpec::nc()), scale(), &sample_report("nc"), 0.1);
        drop(j);
        let j = SweepJournal::resume(&path).expect("resume");
        assert!(j.lookup(&point(SystemSpec::nc()), scale()).is_some());
        let other = Scale::new(0.1).unwrap();
        assert!(
            j.lookup(&point(SystemSpec::nc()), other).is_none(),
            "a 0.05 entry must not answer for a 0.1 run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entry_without_a_key_is_bad_input() {
        let path = tmp_path("old-format");
        let report = sample_report("base").to_json();
        let line = Json::obj()
            .set("scope", "fig3")
            .set("label", "2w-vb0/LU")
            .set("wall_s", 0.1)
            .set("report", report);
        std::fs::write(&path, format!("{}\n", line.render())).unwrap();
        let e = SweepJournal::resume(&path).expect_err("old format must be refused");
        assert_eq!(e.exit_code(), 3, "{e}");
        assert!(e.to_string().contains("without a key"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_and_failures_are_retried() {
        let path = tmp_path("torn");
        let j = SweepJournal::create(&path).expect("create");
        j.record_ok(
            &point(SystemSpec::base()),
            scale(),
            &sample_report("base"),
            0.1,
        );
        let failure = PointFailure {
            label: "vb16/LU".to_owned(),
            system: "vb16".to_owned(),
            workload: "LU".to_owned(),
            scale: 0.05,
            message: "boom".to_owned(),
            repro: "simulate --system vb --workload lu --scale 0.05".to_owned(),
        };
        j.record_failed(&point(SystemSpec::vb()), scale(), &failure, 0.2);
        drop(j);
        // Simulate a crash mid-write: a torn final line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":{{\"spec\":{{\"cache\":{{\"bytes\":16").unwrap();
        }

        let j = SweepJournal::resume(&path).expect("resume tolerates the torn tail");
        let hit = |spec| j.lookup(&point(spec), scale()).is_some();
        assert!(hit(SystemSpec::base()), "completed point skipped");
        assert!(!hit(SystemSpec::vb()), "failed point must be retried");
        assert!(!hit(SystemSpec::nc()), "torn point must be retried");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_injected_failures_are_retried_not_sticky() {
        let _guard = dsm_core::fault::test_lock();
        let path = tmp_path("transient");
        let j = SweepJournal::create(&path).expect("create");
        // Two injected EINTRs fit the three-attempt retry budget: the
        // append lands and journaling stays enabled.
        dsm_core::fault::install(Some(
            dsm_core::fault::FaultPlan::from_spec("journal-io:2").unwrap(),
        ));
        j.record_ok(
            &point(SystemSpec::base()),
            scale(),
            &sample_report("base"),
            0.1,
        );
        dsm_core::fault::install(None);
        assert_eq!(j.disabled_points(), 0);
        drop(j);
        let j = SweepJournal::resume(&path).expect("resume");
        assert_eq!(j.resumed_points(), 1, "retried append is durable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exhausted_injection_budget_disables_and_counts() {
        let _guard = dsm_core::fault::test_lock();
        let path = tmp_path("sticky");
        let j = SweepJournal::create(&path).expect("create");
        // Four failures outlast the three attempts: sticky disable.
        dsm_core::fault::install(Some(
            dsm_core::fault::FaultPlan::from_spec("journal-io:4").unwrap(),
        ));
        j.record_ok(
            &point(SystemSpec::base()),
            scale(),
            &sample_report("base"),
            0.1,
        );
        dsm_core::fault::install(None);
        assert_eq!(j.disabled_points(), 1, "the failed append is counted");
        j.record_ok(&point(SystemSpec::vb()), scale(), &sample_report("vb"), 0.1);
        j.record_ok(&point(SystemSpec::nc()), scale(), &sample_report("nc"), 0.1);
        assert_eq!(j.disabled_points(), 3, "skipped appends count too");
        drop(j);
        let j = SweepJournal::resume(&path).expect("resume");
        assert_eq!(j.resumed_points(), 0, "nothing was durably recorded");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn real_enospc_disables_without_retry_loops() {
        // /dev/full fails every write with ENOSPC — a non-transient
        // error that must go straight to the sticky disable.
        let Ok(file) = OpenOptions::new().append(true).open("/dev/full") else {
            return; // container without /dev/full
        };
        let j = SweepJournal {
            inner: Mutex::new(Inner {
                file: Some(file),
                path: PathBuf::from("/dev/full"),
                completed: FxHashMap::default(),
                disabled_appends: 0,
            }),
        };
        j.record_ok(
            &point(SystemSpec::base()),
            scale(),
            &sample_report("base"),
            0.1,
        );
        assert_eq!(j.disabled_points(), 1);
        j.record_ok(&point(SystemSpec::vb()), scale(), &sample_report("vb"), 0.1);
        assert_eq!(j.disabled_points(), 2);
    }
}
