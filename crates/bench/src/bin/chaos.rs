//! Chaos harness: sweeps deterministic fault-injection plans over the
//! supervised I/O of the replay stack and asserts the recovery contract
//! of `dsm_core::fault` — every plan must end in byte-identical output
//! (the fault absorbed by a retry) or a structured [`DsmError`] with a
//! documented exit code. Never a hang, a torn file, or silent drift.
//!
//! Usage:
//!
//! ```text
//! chaos [--seeds <n,n,...>] [--sha <hex>] [--reproduce <path>] [--golden <dir>]
//! ```
//!
//! Two layers run:
//!
//! 1. **In-process scenarios** — a fixed directed matrix covering every
//!    [`FaultSite`] on both sides of the retry budget, plus one
//!    [`FaultPlan::derive`]d plan per `--seeds` entry (default `1..=8`)
//!    and, with `--sha`, one plan derived from the commit hash so every
//!    CI run probes a fresh plan. Each plan exercises its site's
//!    subsystem directly: the sweep journal, `write_json_atomic`, or the
//!    mmap loader.
//! 2. **End-to-end subprocess scenarios** (with `--reproduce` and
//!    `--golden`) — `reproduce --workloads fft` runs under `--fault-seed`
//!    plans, where any exit is legal as long as it is
//!    0-with-identical-bytes or a documented error code with no torn
//!    dataset. A polling deadline converts a wedged child into
//!    [`DsmError::stalled`] (exit 4) instead of a hung CI job.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dsm_bench::{SweepJournal, SweepPoint};
use dsm_core::fault::{install, FaultPlan, FaultSite};
use dsm_core::obs::{write_json_atomic, Json};
use dsm_core::{Metrics, Report, SystemSpec};
use dsm_trace::rng::TraceRng;
use dsm_trace::{codec, Scale, SharedTrace, WorkloadKind};
use dsm_types::{Addr, DsmError, Geometry, MemRef, ProcId, Topology};

const USAGE: &str = "chaos [--seeds <n,n,...>] [--sha <hex>] [--reproduce <path>] [--golden <dir>]";

/// Default seed sweep when `--seeds` is absent: small, fixed, and
/// documented in the CI job so failures reproduce locally verbatim.
const DEFAULT_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Wall-clock ceiling per `reproduce` child. A healthy run takes seconds
/// at scale 0.05; a child that outlives this is wedged and becomes a
/// structured `stalled` error instead of a hung job.
const CHILD_DEADLINE: Duration = Duration::from_secs(480);

/// How many of the sweep seeds also run end-to-end (each costs a full
/// fft reproduce); the rest stay in-process. The SHA-derived seed, when
/// present, always runs end-to-end.
const E2E_SEEDS: usize = 2;

struct Args {
    seeds: Vec<u64>,
    sha_seed: Option<u64>,
    reproduce: Option<PathBuf>,
    golden: Option<PathBuf>,
}

fn parse_args() -> Result<Args, DsmError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        seeds: DEFAULT_SEEDS.to_vec(),
        sha_seed: None,
        reproduce: None,
        golden: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let need = |what: &str| -> Result<&str, DsmError> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| DsmError::usage(format!("{} requires {what}\n{USAGE}", argv[i])))
        };
        match argv[i].as_str() {
            "--seeds" => {
                let list = need("a comma-separated seed list")?;
                args.seeds = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|_| DsmError::usage(format!("bad seed '{s}' in --seeds")))
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--sha" => {
                let hex = need("a hex commit hash")?;
                let prefix: String = hex.chars().take(16).collect();
                let seed = u64::from_str_radix(&prefix, 16)
                    .map_err(|_| DsmError::usage(format!("--sha wants hex, got '{hex}'")))?;
                args.sha_seed = Some(seed);
                i += 2;
            }
            "--reproduce" => {
                args.reproduce = Some(PathBuf::from(need("a path to the reproduce binary")?));
                i += 2;
            }
            "--golden" => {
                args.golden = Some(PathBuf::from(need("a golden directory")?));
                i += 2;
            }
            other => {
                return Err(DsmError::usage(format!("unknown flag '{other}'\n{USAGE}")));
            }
        }
    }
    Ok(args)
}

/// Small machine for the mmap scenario's trace file: 4 clusters x 2
/// procs.
fn topo() -> Result<Topology, DsmError> {
    Topology::new(4, 2).map_err(|e| DsmError::internal(format!("chaos topology: {e}")))
}

/// A random trace over one 64 KiB window shared machine-wide.
fn chaos_trace(seed: u64, refs: usize) -> Result<SharedTrace, DsmError> {
    let topo = topo()?;
    let geo = Geometry::paper_default();
    let mut rng = TraceRng::for_workload("chaos", seed);
    let mut out = Vec::with_capacity(refs);
    for _ in 0..refs {
        let proc = rng.below(u64::from(topo.total_procs()));
        let addr = Addr(rng.below(1 << 16) & !3);
        let r = if rng.chance(0.3) {
            MemRef::write(ProcId(proc as u16), addr)
        } else {
            MemRef::read(ProcId(proc as u16), addr)
        };
        out.push(r);
    }
    Ok(SharedTrace::from_refs(topo, geo, &out))
}

fn sample_report(label: &str) -> Report {
    let mut r = Report {
        system: label.to_owned(),
        workload: "chaos".to_owned(),
        data_bytes: 1 << 20,
        refs: 4096,
        metrics: Metrics::default(),
        read_miss_ratio: 0.125,
        write_miss_ratio: 0.0625,
        relocation_overhead: 0.0,
        remote_read_stall: 1024,
        remote_traffic: 256,
        directory_bits_per_block: 32,
        wall_s: 0.0,
    };
    r.metrics.shared_refs = 4096;
    r
}

/// Journal-I/O contract: up to two consecutive transient failures per
/// append are absorbed by the retry budget; at three or more the
/// journal disables itself, *counts* every lost point, and never tears
/// a line. The run itself keeps going either way.
fn run_journal_scenario(plan: FaultPlan, tmp: &Path, label: &str) -> Result<(), DsmError> {
    const APPENDS: u64 = 4;
    let path = tmp.join(format!("journal-{}.jsonl", plan.io_failures));
    let _ = fs::remove_file(&path);
    let journal = SweepJournal::create(&path)?;
    let scale = Scale::new(0.05).map_err(|e| DsmError::internal(e.to_string()))?;
    install(Some(plan));
    for i in 0..APPENDS {
        let point = SweepPoint::new(SystemSpec::vb_sized(1024 << i), WorkloadKind::Lu);
        journal.record_ok(&point, scale, &sample_report(&point.label), 0.0);
    }
    install(None);
    let disabled = journal.disabled_points();
    let want = if plan.io_failures <= 2 { 0 } else { APPENDS };
    if disabled != want {
        return Err(DsmError::internal(format!(
            "{label}: {disabled} disabled journal point(s), wanted {want}"
        )));
    }
    let bytes =
        fs::read(&path).map_err(|e| DsmError::internal(format!("{label}: read journal: {e}")))?;
    if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
        return Err(DsmError::internal(format!(
            "{label}: journal ends mid-line (torn write)"
        )));
    }
    println!(
        "chaos: {label} plan={} disabled_points={disabled} .. ok",
        plan.spec()
    );
    Ok(())
}

/// Atomic-write contract: absorbed within the retry budget, otherwise a
/// structured exit-4 error with the previous file contents intact — an
/// injected failure must never leave a torn or half-new file.
fn run_atomic_scenario(plan: FaultPlan, tmp: &Path, label: &str) -> Result<(), DsmError> {
    let path = tmp.join(format!("atomic-{}.json", plan.io_failures));
    let before = Json::obj().set("generation", 1u64);
    let after = Json::obj().set("generation", 2u64);
    write_json_atomic(&path, &before)?;
    let baseline =
        fs::read(&path).map_err(|e| DsmError::internal(format!("{label}: read baseline: {e}")))?;
    install(Some(plan));
    let outcome = write_json_atomic(&path, &after);
    install(None);
    let now =
        fs::read(&path).map_err(|e| DsmError::internal(format!("{label}: read outcome: {e}")))?;
    match outcome {
        Ok(()) => {
            if plan.io_failures > 2 {
                return Err(DsmError::internal(format!(
                    "{label}: {} injected failures absorbed beyond the retry budget",
                    plan.io_failures
                )));
            }
            if now == baseline {
                return Err(DsmError::internal(format!(
                    "{label}: write reported success but the file did not change"
                )));
            }
            println!("chaos: {label} plan={} absorbed .. ok", plan.spec());
        }
        Err(e) => {
            if plan.io_failures <= 2 {
                return Err(DsmError::internal(format!(
                    "{label}: failed inside the retry budget: {e}"
                )));
            }
            if e.exit_code() != 4 {
                return Err(DsmError::internal(format!(
                    "{label}: exit code {} for an internal I/O error, want 4",
                    e.exit_code()
                )));
            }
            if now != baseline {
                return Err(DsmError::internal(format!(
                    "{label}: failed write altered the target file (torn state)"
                )));
            }
            println!(
                "chaos: {label} plan={} structured error (exit 4), file intact .. ok",
                plan.spec()
            );
        }
    }
    Ok(())
}

/// Mmap-truncation contract: a mapping whose backing file has shrunk is
/// refused at revalidation with a clean error (the alternative is a
/// SIGBUS mid-replay); with the plan cleared the same file loads fine.
fn run_mmap_scenario(plan: FaultPlan, tmp: &Path, label: &str) -> Result<(), DsmError> {
    let path = tmp.join("chaos.dsmt");
    if !path.exists() {
        let trace = chaos_trace(11, 512)?;
        let file = fs::File::create(&path)
            .map_err(|e| DsmError::internal(format!("{label}: create trace file: {e}")))?;
        codec::write_shared(std::io::BufWriter::new(file), &trace)
            .map_err(|e| DsmError::internal(format!("{label}: encode trace: {e}")))?;
    }
    install(Some(plan));
    let refused = codec::open_shared_mapped(&path);
    install(None);
    if refused.is_ok() {
        return Err(DsmError::internal(format!(
            "{label}: truncated mapping was accepted"
        )));
    }
    codec::open_shared_mapped(&path)
        .map_err(|e| DsmError::internal(format!("{label}: clean reload failed: {e}")))?;
    println!(
        "chaos: {label} plan={} load refused cleanly, clean reload ok .. ok",
        plan.spec()
    );
    Ok(())
}

/// Dispatch one plan to the scenario of its site, which hits the
/// site's subsystem directly.
fn run_plan(plan: FaultPlan, label: &str, tmp: &Path) -> Result<(), DsmError> {
    match plan.site {
        FaultSite::JournalIo => run_journal_scenario(plan, tmp, label),
        FaultSite::AtomicWriteIo => run_atomic_scenario(plan, tmp, label),
        FaultSite::MmapTruncate => run_mmap_scenario(plan, tmp, label),
    }
}

/// The directed in-process matrix: every site, and both sides of the
/// I/O retry budget.
const DIRECTED_SPECS: [&str; 5] = [
    "journal-io:2",
    "journal-io:5",
    "atomic-write-io:2",
    "atomic-write-io:4",
    "mmap-truncate",
];

/// Run `reproduce` on the fft subset and assert it exits within the
/// deadline; a child that overruns is killed and reported as exit-4
/// `stalled`.
fn run_reproduce(
    reproduce: &Path,
    out_dir: &Path,
    extra_args: &[&str],
    label: &str,
) -> Result<(std::process::ExitStatus, String), DsmError> {
    fs::create_dir_all(out_dir)
        .map_err(|e| DsmError::internal(format!("{label}: create out dir: {e}")))?;
    let stdout_path = out_dir.join("stdout.txt");
    let stderr_path = out_dir.join("stderr.txt");
    let stdout = fs::File::create(&stdout_path)
        .map_err(|e| DsmError::internal(format!("{label}: create stdout capture: {e}")))?;
    let stderr = fs::File::create(&stderr_path)
        .map_err(|e| DsmError::internal(format!("{label}: create stderr capture: {e}")))?;
    let mut cmd = Command::new(reproduce);
    cmd.args(["--scale", "0.05", "--workloads", "fft", "--jobs", "1"]);
    cmd.args(extra_args);
    cmd.args(["--out"]).arg(out_dir);
    cmd.stdin(Stdio::null());
    cmd.stdout(Stdio::from(stdout));
    cmd.stderr(Stdio::from(stderr));
    let mut child = cmd
        .spawn()
        .map_err(|e| DsmError::internal(format!("{label}: spawn {}: {e}", reproduce.display())))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() > CHILD_DEADLINE {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(DsmError::stalled(format!(
                        "{label}: reproduce exceeded the {}s chaos deadline",
                        CHILD_DEADLINE.as_secs()
                    )));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => {
                return Err(DsmError::internal(format!("{label}: wait: {e}")));
            }
        }
    };
    let child_stderr = fs::read_to_string(&stderr_path).unwrap_or_default();
    Ok((status, child_stderr))
}

fn diff_against_golden(out_dir: &Path, golden: &Path, label: &str) -> Result<(), DsmError> {
    let pairs = [
        ("reproduce_full.json", "reproduce_full.scale0.05.fft.json"),
        ("stdout.txt", "reproduce_stdout.scale0.05.fft.txt"),
    ];
    for (produced, expected) in pairs {
        let got = fs::read(out_dir.join(produced))
            .map_err(|e| DsmError::internal(format!("{label}: read {produced}: {e}")))?;
        let want = fs::read(golden.join(expected))
            .map_err(|e| DsmError::internal(format!("{label}: read golden {expected}: {e}")))?;
        if got != want {
            return Err(DsmError::internal(format!(
                "{label}: {produced} diverged from ci/golden/{expected} ({} vs {} bytes)",
                got.len(),
                want.len()
            )));
        }
    }
    Ok(())
}

fn tail(text: &str, lines: usize) -> String {
    let all: Vec<&str> = text.lines().collect();
    let start = all.len().saturating_sub(lines);
    all[start..].join("\n")
}

/// Seed sweep end to end: whatever site the seed lands on, the run must
/// either succeed with byte-identical output or die with a documented
/// exit code and no torn dataset — and always within the deadline.
fn e2e_seed(reproduce: &Path, golden: &Path, tmp: &Path, seed: u64) -> Result<(), DsmError> {
    let plan = FaultPlan::derive(seed);
    let label = format!("e2e/seed-{seed}");
    let out_dir = tmp.join(format!("e2e-seed-{seed}"));
    let seed_arg = seed.to_string();
    let (status, stderr) =
        run_reproduce(reproduce, &out_dir, &["--fault-seed", &seed_arg], &label)?;
    if status.success() {
        diff_against_golden(&out_dir, golden, &label)?;
        println!(
            "chaos: {label} plan={} exit 0, byte-identical .. ok",
            plan.spec()
        );
        return Ok(());
    }
    let code = status.code().ok_or_else(|| {
        DsmError::internal(format!(
            "{label}: reproduce killed by a signal; stderr tail:\n{}",
            tail(&stderr, 15)
        ))
    })?;
    if !matches!(code, 2..=4) {
        return Err(DsmError::internal(format!(
            "{label}: undocumented exit code {code}; stderr tail:\n{}",
            tail(&stderr, 15)
        )));
    }
    // A failed run may leave no dataset, but never a torn one: if the
    // file exists it must be a complete, golden-identical artifact.
    if out_dir.join("reproduce_full.json").exists() {
        let got = fs::read(out_dir.join("reproduce_full.json"))
            .map_err(|e| DsmError::internal(format!("{label}: read dataset: {e}")))?;
        let want = fs::read(golden.join("reproduce_full.scale0.05.fft.json"))
            .map_err(|e| DsmError::internal(format!("{label}: read golden: {e}")))?;
        if got != want {
            return Err(DsmError::internal(format!(
                "{label}: exit {code} left a torn dataset behind"
            )));
        }
    }
    println!(
        "chaos: {label} plan={} structured error (exit {code}), no torn output .. ok",
        plan.spec()
    );
    Ok(())
}

fn run() -> Result<(), DsmError> {
    let args = parse_args()?;
    let tmp = std::env::temp_dir().join(format!("dsm-chaos-{}", std::process::id()));
    fs::create_dir_all(&tmp)
        .map_err(|e| DsmError::internal(format!("create {}: {e}", tmp.display())))?;

    let mut sweep_summary = String::new();
    for spec in DIRECTED_SPECS {
        let plan =
            FaultPlan::from_spec(spec).map_err(|e| DsmError::internal(format!("{spec}: {e}")))?;
        run_plan(plan, &format!("directed/{spec}"), &tmp)?;
    }

    let mut seeds = args.seeds.clone();
    if let Some(sha) = args.sha_seed {
        seeds.push(sha);
    }
    for &seed in &seeds {
        let plan = FaultPlan::derive(seed);
        run_plan(plan, &format!("seed-{seed}"), &tmp)?;
        let _ = write!(sweep_summary, " {seed}:{}", plan.site.label());
    }
    println!("chaos: in-process sweep complete:{sweep_summary}");

    match (&args.reproduce, &args.golden) {
        (Some(reproduce), Some(golden)) => {
            for &seed in args.seeds.iter().take(E2E_SEEDS) {
                e2e_seed(reproduce, golden, &tmp, seed)?;
            }
            if let Some(sha) = args.sha_seed {
                e2e_seed(reproduce, golden, &tmp, sha)?;
            }
        }
        (None, None) => {
            println!("chaos: skipping end-to-end scenarios (no --reproduce/--golden)");
        }
        _ => {
            return Err(DsmError::usage(format!(
                "--reproduce and --golden go together\n{USAGE}"
            )));
        }
    }

    let _ = fs::remove_dir_all(&tmp);
    println!("chaos: all scenarios held the recovery contract");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
