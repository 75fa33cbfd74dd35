//! `reproduce` through its point table: each distinct simulation runs
//! once per workload, and the sweep journal matches points by content,
//! workload and scale. `reproduce --figures <keys>` is the one command
//! that prints the paper's tables and figures.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dsm_bench::figures::{tables, Figure};
use dsm_bench::{Jobs, TraceSet};
use dsm_trace::{Scale, WorkloadKind};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

/// A fresh temp directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-points-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn point_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("sweep: ["))
        .collect()
}

#[test]
fn figure_10_reuses_figure_9_points() {
    let out = reproduce(&[
        "--scale",
        "0.05",
        "--figures",
        "fig9,fig10",
        "--workloads",
        "lu",
        "--progress",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "reproduce failed:\n{stderr}");
    let lines = point_lines(&stderr);
    assert_eq!(lines.len(), 10, "one line per distinct point:\n{stderr}");
    assert!(lines.iter().all(|l| l.contains("/10] ")), "{stderr}");
    assert!(stderr.contains("NCD-inf/LU: "), "{stderr}");
    // Both figures still print.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# Figure 9:"), "{stdout}");
    assert!(stdout.contains("# Figure 10:"), "{stdout}");
}

/// Tables 1-3, each followed by a blank line, as every run prints them
/// first.
fn tables_1_to_3() -> String {
    format!(
        "{}\n{}\n{}\n",
        tables::table1(),
        tables::table2(),
        tables::table3()
    )
}

#[test]
fn no_figures_prints_tables_1_to_3_and_simulates_nothing() {
    let out = reproduce(&["--figures", "", "--progress"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "reproduce failed:\n{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), tables_1_to_3());
    assert!(point_lines(&stderr).is_empty(), "{stderr}");
}

#[test]
fn figure_6_prints_both_page_cache_tables() {
    let out = reproduce(&[
        "--scale",
        "0.05",
        "--figures",
        "fig6,fig6-tight",
        "--workloads",
        "lu",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "reproduce failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for denom in [5, 16] {
        let caption = format!(
            "# Figure 6: cluster miss ratio + relocation overhead (%), fixed(32) vs adaptive \
             threshold, ncp{denom}\n"
        );
        assert!(stdout.contains(&caption), "{stdout}");
    }
    // Each figure prints exactly its table alone, in registry order.
    let mut expected = tables_1_to_3();
    for key in ["fig6", "fig6-tight"] {
        let figure = Figure::by_key(key).expect("registered");
        let mut ts = TraceSet::with_jobs(Scale::new(0.05).unwrap(), Jobs::serial());
        let table = figure.run(&mut ts, &[WorkloadKind::Lu]).expect(key);
        expected.push_str(&format!("{}\n", table.render()));
    }
    assert_eq!(stdout, expected);
}

/// A journal written at one scale must not answer for another: the
/// resumed run recomputes every point and matches a straight run.
#[test]
fn resume_at_another_scale_reruns_every_point() {
    let tmp = temp_dir("scale");
    let journal = tmp.join("sweep.jsonl");
    let (resumed, straight) = (tmp.join("resumed"), tmp.join("straight"));
    let base = ["--figures", "fig4", "--workloads", "lu"];
    let run = |scale: &str, extra: &[&str]| {
        let mut args = vec!["--scale", scale];
        args.extend(base);
        args.extend(extra);
        let out = reproduce(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "reproduce {args:?} failed:\n{stderr}");
        stderr
    };
    run("0.05", &["--journal", path_str(&journal)]);
    let stderr = run(
        "0.1",
        &[
            "--resume",
            path_str(&journal),
            "--progress",
            "--out",
            path_str(&resumed),
        ],
    );
    assert!(!stderr.contains("restored from journal"), "{stderr}");
    run("0.1", &["--out", path_str(&straight)]);
    let read = |dir: &Path| std::fs::read(dir.join("reproduce_full.json")).expect("dataset");
    assert_eq!(
        read(&resumed),
        read(&straight),
        "a resumed 0.1 run must not reuse 0.05 results"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn resuming_a_journal_without_keys_is_bad_input() {
    let tmp = temp_dir("old-format");
    let journal = tmp.join("old.jsonl");
    std::fs::write(
        &journal,
        "{\"scope\":\"fig4\",\"label\":\"nc/LU\",\"wall_s\":0.1,\"report\":{}}\n",
    )
    .expect("write journal");
    let out = reproduce(&[
        "--scale",
        "0.05",
        "--figures",
        "fig4",
        "--workloads",
        "lu",
        "--resume",
        path_str(&journal),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("without a key"), "{stderr}");
    std::fs::remove_dir_all(&tmp).ok();
}
