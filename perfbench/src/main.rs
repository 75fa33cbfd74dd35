//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-refs
//! ```
//!
//! Run from the repository root (see `perfbench/README.md`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The lines before it name every
//! metric with its unit and sample count. The exit code is 0 only when
//! every point matched its reference.

mod catalog;
mod manifest;
mod measure;
mod replay;
mod reproduce;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dsm_core::obs::Json;

use catalog::{end_to_end, per_layer, Workload};
use measure::parse_references;
use replay::{RunOut, DEFAULT_SEED};

/// Every environment knob the simulator's code reads. They are cleared
/// before any workload runs and for every child process, so a stray
/// fault plan or shard setting cannot change what is measured.
pub const DSM_KNOBS: [&str; 9] = [
    "DSM_JOBS",
    "DSM_SCALE",
    "DSM_SHARD_WORKERS",
    "DSM_MMAP",
    "DSM_NO_MMAP",
    "DSM_FAULT_PLAN",
    "DSM_FAULT_ABORT",
    "DSM_FAULT_POINT",
    "DSM_SHARD_WATCHDOG_MS",
];

/// Where runs leave their results, manifests and temporary files.
const RUNS_DIR: &str = ".perfbench";

const REFS_STATIC: &str = include_str!("../refs/replay-static.digests");
const REFS_MIGREP: &str = include_str!("../refs/replay-migrep.digests");
const REFS_COLD: &str = include_str!("../refs/cold-start.digests");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, DEFAULT_SEED, catalog::run_seconds(), false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// Builds the `reproduce` binary in the enclosing repository (a no-op
/// when it is up to date) and returns its path.
fn build_reproduce() -> Result<PathBuf, String> {
    if !Path::new("ci/golden").is_dir() {
        return Err("run from the repository root: ci/golden not found".to_owned());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut cmd = Command::new(&cargo);
    cmd.args([
        "build",
        "--release",
        "--offline",
        "--quiet",
        "-p",
        "dsm-bench",
        "--bin",
        "reproduce",
    ]);
    for knob in DSM_KNOBS {
        cmd.env_remove(knob);
    }
    let status = cmd.status().map_err(|e| format!("{cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building reproduce failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    let exe = Path::new(&target).join("release").join("reproduce");
    exe.is_file()
        .then_some(exe)
        .ok_or_else(|| format!("reproduce not found under {target}/release"))
}

fn run(args: &Args, exe: &Path, tmp: &Path) -> RunOut {
    let refs = |text: &str| {
        if args.seed == DEFAULT_SEED {
            parse_references(text)
        } else {
            BTreeMap::new()
        }
    };
    match args.workload {
        Workload::Reproduce => reproduce::reproduce(exe, args.seconds, args.traced, tmp),
        Workload::ReplayStatic => replay::replay(
            false,
            args.seed,
            args.seconds,
            args.traced,
            refs(REFS_STATIC),
        ),
        Workload::ReplayMigrep => replay::replay(
            true,
            args.seed,
            args.seconds,
            args.traced,
            refs(REFS_MIGREP),
        ),
        Workload::ColdStart => {
            replay::cold_start(args.seed, args.seconds, args.traced, tmp, refs(REFS_COLD))
        }
    }
}

/// Prints every metric of the run's set with its unit and sample count,
/// then the result line; returns whether the run is correct.
fn report(args: &Args, out: &RunOut, dir: &Path) -> Result<bool, String> {
    let defs = if args.traced {
        per_layer()
    } else {
        end_to_end()
    };
    let mut metrics = Json::obj();
    let mut samples = Json::obj();
    let mut correct = out.checker.failed == 0;
    for d in &defs {
        let (value, n) = match out.measured.get(&d.name) {
            Some(v) => v,
            // A per-layer metric of a layer this workload does not run.
            None if args.traced => (0.0, 0),
            None => {
                correct = false;
                eprintln!("perfbench: end-to-end metric {} was not measured", d.name);
                (0.0, 0)
            }
        };
        println!("{:<42} {:>16.6} {:<12} n={n}", d.name, value, d.unit);
        metrics = metrics.set(
            &d.name,
            Json::obj().set("value", value).set("unit", d.unit.as_str()),
        );
        samples = samples.set(&d.name, n as u64);
    }
    let c = &out.checker;
    for p in &c.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    println!(
        "attempted {} failed {} failed_frac {}",
        c.attempted,
        c.failed,
        c.failed as f64 / c.attempted.max(1) as f64
    );
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", c.attempted.max(1))
        .set("failed", c.failed)
        .set("metrics", metrics);
    let mut detail = result.clone().set("samples", samples);
    if !out.points.is_empty() {
        detail = detail.set("points", Json::Arr(out.points.clone()));
    }
    manifest::write_json(&dir.join("result.json"), &detail)?;
    manifest::write_json(&dir.join("manifest.json"), &manifest::manifest(&out.traces))?;
    println!("{}", result.render());
    Ok(correct)
}

/// Regenerates the committed reference digests from the default seed.
fn write_refs(tmp: &Path) -> Result<(), String> {
    let sets = [
        (
            "replay-static",
            replay::replay(false, DEFAULT_SEED, 0.0, false, BTreeMap::new()),
        ),
        (
            "replay-migrep",
            replay::replay(true, DEFAULT_SEED, 0.0, false, BTreeMap::new()),
        ),
        (
            "cold-start",
            replay::cold_start(DEFAULT_SEED, 0.0, false, tmp, BTreeMap::new()),
        ),
    ];
    for (name, out) in sets {
        if out.checker.failed > 0 {
            return Err(format!("{name}: {:?}", out.checker.problems));
        }
        let mut text = format!(
            "# Report digests of the {name} workload at the default seed.\n\
             # Regenerate: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --write-refs\n"
        );
        for (label, digest) in out.checker.references() {
            text += &format!("{label} {digest}\n");
        }
        let path = format!("perfbench/refs/{name}.digests");
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("perfbench: wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    for knob in DSM_KNOBS {
        std::env::remove_var(knob);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tmp = Path::new(RUNS_DIR).join(format!("tmp-{}", std::process::id()));
    if argv.first().map(String::as_str) == Some("--write-refs") {
        let result = std::fs::create_dir_all(&tmp)
            .map_err(|e| e.to_string())
            .and_then(|()| write_refs(&tmp));
        let _ = std::fs::remove_dir_all(&tmp);
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let exe = match build_reproduce().and_then(|exe| {
        std::fs::create_dir_all(&tmp)
            .map(|()| exe)
            .map_err(|e| e.to_string())
    }) {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let out = run(&args, &exe, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let dir = Path::new(RUNS_DIR).join(format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced)
    ));
    match report(&args, &out, &dir) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_benchmark_form() {
        let argv: Vec<String> = [
            "--workload",
            "replay-static",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Workload::ReplayStatic, 4, 10.0, true)
        );
        assert!(parse_args(&["--workload".to_owned()]).is_err());
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(parse_args(&["--trace".to_owned(), "2".to_owned()]).is_err());
    }

    #[test]
    fn committed_references_cover_every_point() {
        assert_eq!(parse_references(REFS_STATIC).len(), 24);
        assert_eq!(parse_references(REFS_MIGREP).len(), 8);
        assert_eq!(parse_references(REFS_COLD).len(), 8);
    }
}
