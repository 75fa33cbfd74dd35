//! End-to-end crash-safety: a `reproduce` run killed mid-sweep (via the
//! `DSM_FAULT_ABORT` injection point, which calls `abort()` inside a
//! worker) and then resumed from its journal must produce a dataset
//! byte-identical to an uninterrupted run — same figures, same f64 bits,
//! whatever the worker count. Wall-clock timings are deliberately outside
//! the comparison (they live in `timings.json`, not the dataset).

use std::path::Path;
use std::process::{Command, Output};

/// The 6th of fig3's nine LU sweep points: by the time a 2-worker sweep
/// reaches it, several earlier points have already been journaled, so
/// the resumed run exercises both the skip path and the re-run path.
const ABORT_AT: &str = "2w-vb16/LU";

fn reproduce(base: &[&str], args: &[&str], abort_at: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args(["--scale", "0.05", "--figures", "fig3"]);
    cmd.args(base);
    cmd.args(args);
    if let Some(label) = abort_at {
        cmd.env("DSM_FAULT_ABORT", label);
    }
    cmd.output().expect("spawn reproduce")
}

fn read_dataset(dir: &Path) -> Vec<u8> {
    let path = dir.join("reproduce_full.json");
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The full kill-and-resume cycle under `base` flags: an uninterrupted
/// reference run, a journaled run killed at [`ABORT_AT`], and a resume
/// that must merge to a byte-identical dataset. A non-empty
/// `rejected_resume` is first tried as extra resume flags: that attempt
/// must be a usage error that leaves the journal and output untouched.
/// `tag` isolates the temp tree so the variants can run concurrently.
fn kill_and_resume_cycle(tag: &str, base: &[&str], rejected_resume: &[&str]) {
    let tmp = std::env::temp_dir().join(format!("dsm-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let dir_straight = tmp.join("straight");
    let dir_resumed = tmp.join("resumed");
    let journal = tmp.join("sweep.jsonl");
    let journal_s = journal.to_str().expect("utf-8 temp path");

    // 1. The reference: an uninterrupted serial run.
    let out = reproduce(
        base,
        &[
            "--jobs",
            "1",
            "--out",
            dir_straight.to_str().expect("utf-8"),
        ],
        None,
    );
    assert!(
        out.status.success(),
        "[{tag}] uninterrupted run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. A journaled 2-worker run killed mid-sweep by an injected abort.
    let out = reproduce(
        base,
        &[
            "--jobs",
            "2",
            "--out",
            dir_resumed.to_str().expect("utf-8"),
            "--journal",
            journal_s,
        ],
        Some(ABORT_AT),
    );
    assert!(
        !out.status.success(),
        "[{tag}] the injected abort must kill the run"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("DSM_FAULT_ABORT tripped"),
        "[{tag}] the run must die at the injection point, not elsewhere:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir_resumed.join("reproduce_full.json").exists(),
        "[{tag}] a killed run must not leave a dataset behind"
    );
    let journal_bytes = std::fs::read(&journal).expect("journal must survive the crash");
    assert!(
        !journal_bytes.is_empty(),
        "[{tag}] completed points must be journaled before the crash"
    );

    // 2b. A resume with a rejected flag must fail before it touches
    //     the journal or writes a dataset.
    if !rejected_resume.is_empty() {
        let mut args = vec![
            "--jobs",
            "2",
            "--out",
            dir_resumed.to_str().expect("utf-8"),
            "--resume",
            journal_s,
        ];
        args.extend_from_slice(rejected_resume);
        let out = reproduce(base, &args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "[{tag}] {rejected_resume:?} must be a usage error:\n{stderr}"
        );
        assert!(
            stderr.contains("sharding was removed"),
            "[{tag}] the usage error must say why:\n{stderr}"
        );
        assert_eq!(
            std::fs::read(&journal).expect("journal after rejected resume"),
            journal_bytes,
            "[{tag}] a rejected resume must leave the journal untouched"
        );
        assert!(
            !dir_resumed.join("reproduce_full.json").exists(),
            "[{tag}] a rejected resume must not write a dataset"
        );
    }

    // 3. Resume from the journal: completed points are skipped, the rest
    //    (including the aborted point) are recomputed.
    let out = reproduce(
        base,
        &[
            "--jobs",
            "2",
            "--out",
            dir_resumed.to_str().expect("utf-8"),
            "--resume",
            journal_s,
        ],
        None,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "[{tag}] resumed run failed:\n{stderr}"
    );
    assert!(
        stderr.contains("resumed journal"),
        "[{tag}] resume must report the reloaded journal:\n{stderr}"
    );

    // The merged output must be byte-identical to never having crashed.
    assert_eq!(
        read_dataset(&dir_straight),
        read_dataset(&dir_resumed),
        "[{tag}] resumed dataset diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn killed_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle("serial", &["--workloads", "lu"], &[]);
}

/// Same cycle over two workloads: the sweep runs workload-major, so the
/// abort lands in the first workload and the resume must both skip its
/// journaled points and run the whole second workload from scratch.
#[test]
fn killed_two_workload_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle("two-workloads", &["--workloads", "lu,fft"], &[]);
}

/// Same cycle with `--shard-workers 1`, the retired flag's one accepted
/// value, on every command line, as the benchmark passes it: the no-op
/// must leave the crash, journal-skip and re-run paths byte-identical.
#[test]
fn killed_sharded_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle(
        "shard1",
        &["--workloads", "lu", "--shard-workers", "1"],
        &[],
    );
}

/// A killed sweep resumed by a command line that still says
/// `--shard-workers auto` must stop at the usage error without touching
/// the journal, so the corrected resume still merges to byte-identical
/// output.
#[test]
fn killed_auto_sharded_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle(
        "shard-auto",
        &["--workloads", "lu"],
        &["--shard-workers", "auto"],
    );
}

/// Every experiment binary parses its flags through
/// `dsm_bench::parse_run_args`, which arms the fault plan: a malformed
/// `DSM_FAULT_PLAN` is a usage error (exit 2) before any work starts,
/// never a silently disarmed run.
#[test]
fn every_bench_binary_rejects_a_malformed_fault_plan() {
    let runs: [(&str, &str, &[&str]); 2] = [
        (
            "reproduce",
            env!("CARGO_BIN_EXE_reproduce"),
            &["--figures", ""],
        ),
        (
            "profile",
            env!("CARGO_BIN_EXE_profile"),
            &["--workload", "lu", "--scale", "0.01", "--systems", "base"],
        ),
    ];
    for (name, exe, args) in runs {
        let out = Command::new(exe)
            .args(args)
            .env("DSM_FAULT_PLAN", "garbage")
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}:\n{stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} must not start work");
    }
}

/// The instrumented form (`--epoch`/`--trace-events`) reads none of the
/// figure form's flags: naming one is a usage error that starts no work
/// and writes no journal.
#[test]
fn instrumented_form_rejects_figure_only_flags() {
    let tmp = std::env::temp_dir().join(format!("dsm-instrumented-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let journal = tmp.join("j.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--epoch", "20000", "--workloads", "lu", "--scale", "0.02"])
        .args(["--figures", "fig4", "--phase-stats", "--journal"])
        .arg(&journal)
        .arg("--out")
        .arg(tmp.join("o"))
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
    assert!(!journal.exists(), "a rejected run must not write a journal");
    assert!(
        !tmp.join("o").exists(),
        "a rejected run must not write reports"
    );
    std::fs::remove_dir_all(&tmp).unwrap();
}
