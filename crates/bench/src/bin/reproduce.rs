//! Runs every experiment of the paper — Tables 1-3 and Figures 3-11 —
//! and prints each table, plus a Markdown digest suitable for
//! EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! reproduce [--scale <f>] [--jobs <n>] [--markdown] [--out <dir>]
//!           [--journal <file> | --resume <file>]
//!           [--figures <csv>] [--workloads <csv>]
//!           [--progress] [--phase-stats] [--chrome-trace <file>]
//! reproduce --epoch <refs> [--trace-events] [--scale <f>] [--out <dir>]
//! ```
//!
//! The first form reproduces the figures through one point table
//! (`dsm_bench::points`): the union of the selected figures' specs,
//! deduplicated by spec content, so each distinct simulation runs once
//! (all 11 figures plot 61 points per kernel and simulate 34). The table
//! runs workload-major — generate a workload's trace, sweep every
//! distinct spec over it, drop it — and each figure is then projected
//! from the table and printed. With `--out` it also writes the full
//! machine-readable dataset to `<dir>/reproduce_full.json` plus the
//! timings to `<dir>/timings.json` (stage breakdown, plotted and
//! simulated point counts). The dataset file carries no timestamps or
//! wall times, so two runs at the same scale are byte-identical
//! regardless of `--jobs` — the determinism CI job diffs exactly that
//! file (and stdout).
//!
//! Telemetry (all off by default; none of it perturbs the simulation or
//! the diffable dataset): `--progress` streams one line per simulated
//! point to stderr with Mrefs/s and an ETA; `--phase-stats` runs every
//! point under the phase profiler and folds each point's phase-counter
//! rollup into `timings.json`, under the figure that owns its label;
//! `--chrome-trace <file>` records spans (trace loads, sweep points and
//! workers, one lane per sweep worker, and each figure's projection) and
//! writes a chrome://tracing JSON trace.
//!
//! `--journal <file>` appends every completed point to an fsynced JSONL
//! journal as it finishes, keyed by spec content, workload and scale; if
//! the run is killed, `--resume <file>` reloads the journal, skips the
//! completed points, and merges their recorded reports with the freshly
//! computed remainder — producing the same bytes an uninterrupted run
//! would have. `--figures` / `--workloads` restrict the run to a
//! comma-separated subset (figure keys: fig3..fig11, fig6-tight, origin).
//! Tables 1-3 always print first, so `--figures ''` prints only them and
//! simulates nothing, and `--figures fig9` prints them and Figure 9
//! (Figure 6's supplementary 1/16 page cache is its own key,
//! `fig6-tight`).
//!
//! The table executes through the parallel sweep engine
//! (`dsm_bench::sweep`) on `--jobs <n>` workers (default: all hardware
//! threads); `--jobs 1` is the exact legacy serial path.
//! Points are the unit of parallelism: each one replays its trace on a
//! single thread. `--shard-workers 1` is still accepted, and ignored, so
//! existing command lines keep working; any other value is a usage error.
//! A failed point does not abort the sweep: every other point still
//! runs, every figure that does not need a failed point still prints,
//! the failure summaries (with one-line `simulate` repro invocations)
//! are printed at the end, no dataset is written, and the process exits
//! with the first failure's code.
//!
//! The second form runs the *instrumented* reproduction instead: each
//! workload runs on the key system configurations (`base`, `vb`, `ncd`,
//! `vxp`) with the observability probe attached, and one JSON run report
//! per (workload, system) pair — figures of merit, event counts, the
//! per-epoch time series with per-cluster breakdowns, hottest pages and
//! the relocation timeline — lands under `<dir>` (default `results/`).
//! `--trace-events` additionally streams every structured event to
//! `<dir>/<workload>_<system>.events.jsonl`. Flags only the first form
//! reads are a usage error here.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dsm_bench::figures::{all_workloads, tables, Figure, FIGURES};
use dsm_bench::harness::{usage_exit, RunArgs};
use dsm_bench::{parse_run_args, PointTable, SweepJournal, SweepPoint, TraceSet};
use dsm_core::obs::span::SpanTracer;
use dsm_core::obs::{write_json_atomic, Json, JsonlSink, StatsSink};
use dsm_core::{PcSize, PhaseCounters, SystemSpec, Tee};
use dsm_trace::WorkloadKind;
use dsm_types::DsmError;

const USAGE: &str = "reproduce [--scale <f>] [--jobs <n>] [--markdown] [--out <dir>] [--journal <file> | --resume <file>] [--figures <csv>] [--workloads <csv>] [--progress] [--phase-stats] [--chrome-trace <file>]\n       reproduce --epoch <refs> [--trace-events] [--scale <f>] [--out <dir>]";

struct Flags {
    run: RunArgs,
    markdown: bool,
    epoch: Option<u64>,
    trace_events: bool,
    out: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    figures: Option<Vec<String>>,
    workloads: Option<Vec<WorkloadKind>>,
    progress: bool,
    phase_stats: bool,
    chrome_trace: Option<PathBuf>,
}

fn parse_workload_csv(csv: &str) -> Result<Vec<WorkloadKind>, String> {
    csv.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(WorkloadKind::from_name)
        .collect()
}

fn parse_flags() -> Flags {
    let mut markdown = false;
    let mut epoch = None;
    let mut trace_events = false;
    let mut out = None;
    let mut journal = None;
    let mut resume = None;
    let mut figures = None;
    let mut workloads = None;
    let mut progress = false;
    let mut phase_stats = false;
    let mut chrome_trace = None;
    let run = parse_run_args(USAGE, |args, i| match args[i].as_str() {
        "--markdown" => {
            markdown = true;
            Ok(1)
        }
        "--trace-events" => {
            trace_events = true;
            Ok(1)
        }
        "--epoch" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--epoch requires a value".to_owned())?;
            let w: u64 = v.parse().map_err(|_| format!("bad epoch '{v}'"))?;
            if w == 0 {
                return Err("--epoch must be positive".to_owned());
            }
            epoch = Some(w);
            Ok(2)
        }
        "--out" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--out requires a value".to_owned())?;
            out = Some(PathBuf::from(v));
            Ok(2)
        }
        "--journal" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--journal requires a value".to_owned())?;
            journal = Some(PathBuf::from(v));
            Ok(2)
        }
        "--resume" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--resume requires a value".to_owned())?;
            resume = Some(PathBuf::from(v));
            Ok(2)
        }
        "--figures" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--figures requires a value".to_owned())?;
            figures = Some(
                v.split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().to_owned())
                    .collect::<Vec<_>>(),
            );
            Ok(2)
        }
        "--workloads" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--workloads requires a value".to_owned())?;
            workloads = Some(parse_workload_csv(v)?);
            Ok(2)
        }
        "--progress" => {
            progress = true;
            Ok(1)
        }
        "--phase-stats" => {
            phase_stats = true;
            Ok(1)
        }
        "--chrome-trace" => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--chrome-trace requires a value".to_owned())?;
            chrome_trace = Some(PathBuf::from(v));
            Ok(2)
        }
        _ => Ok(0),
    });
    if journal.is_some() && resume.is_some() {
        usage_exit(USAGE, "--journal and --resume are mutually exclusive");
    }
    let figure_only = figures.is_some()
        || journal.is_some()
        || resume.is_some()
        || phase_stats
        || chrome_trace.is_some()
        || markdown
        || progress;
    if figure_only && (epoch.is_some() || trace_events) {
        usage_exit(
            USAGE,
            "--epoch and --trace-events take none of --figures, --journal, --resume, \
             --phase-stats, --chrome-trace, --markdown and --progress",
        );
    }
    Flags {
        run,
        markdown,
        epoch,
        trace_events,
        out,
        journal,
        resume,
        figures,
        workloads,
        progress,
        phase_stats,
        chrome_trace,
    }
}

/// Makes a spec name filesystem-friendly (`vxp5(t32)` -> `vxp5-t32`).
fn file_stem(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    while out.contains("--") {
        out = out.replace("--", "-");
    }
    out.trim_matches('-').to_owned()
}

/// The instrumented reproduction: probed runs of every workload on the
/// key configurations, exported as JSON run reports. This path runs
/// serially regardless of `--jobs`: each run streams its own event log
/// and progress lines, which must stay ordered.
fn run_instrumented(flags: &Flags) -> Result<(), DsmError> {
    let scale = flags.run.scale;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&out)
        .map_err(|e| DsmError::bad_input(format!("cannot create {}: {e}", out.display())))?;
    let specs = [
        SystemSpec::base(),
        SystemSpec::vb(),
        SystemSpec::ncd(),
        SystemSpec::vxp(PcSize::DataFraction(5), 32),
    ];
    let kinds = flags.workloads.clone().unwrap_or_else(all_workloads);
    let mut index: Vec<Json> = Vec::new();
    for &kind in &kinds {
        let mut ts = TraceSet::from_args(&flags.run);
        let wl = kind.display_name().to_lowercase();
        for spec in &specs {
            eprintln!("reproduce: instrumented {wl}/{} ...", spec.name);
            let stem = format!("{wl}_{}", file_stem(&spec.name));
            let (report, sink) = if flags.trace_events {
                let ev_path = out.join(format!("{stem}.events.jsonl"));
                let file = BufWriter::new(File::create(&ev_path).map_err(|e| {
                    DsmError::bad_input(format!("cannot create {}: {e}", ev_path.display()))
                })?);
                let probe = Tee(StatsSink::new(), JsonlSink::new(file));
                let (report, Tee(sink, jsonl)) = ts.run_probed(spec, kind, probe, flags.epoch)?;
                let lines = jsonl.lines();
                jsonl
                    .finish()
                    .and_then(|mut f| f.flush().map(|()| f))
                    .map_err(|e| {
                        DsmError::internal(format!("event log {}: {e}", ev_path.display()))
                    })?;
                eprintln!("reproduce:   {} events -> {}", lines, ev_path.display());
                (report, sink)
            } else {
                ts.run_probed(spec, kind, StatsSink::new(), flags.epoch)?
            };
            let path = out.join(format!("{stem}.json"));
            let json = Json::obj()
                .set("scale", scale.factor())
                .set(
                    "epoch_window",
                    match flags.epoch {
                        Some(w) => Json::U64(w),
                        None => Json::Null,
                    },
                )
                .set("report", report.to_json())
                .set("observability", sink.to_json(10));
            write_json_atomic(&path, &json)?;
            index.push(
                Json::obj()
                    .set(
                        "file",
                        path.file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_default(),
                    )
                    .set("workload", wl.as_str())
                    .set("system", spec.name.as_str())
                    .set("refs", report.refs)
                    .set("read_miss_ratio", report.read_miss_ratio)
                    .set("relocation_overhead", report.relocation_overhead),
            );
        }
    }
    let count = index.len();
    write_json_atomic(&out.join("index.json"), &Json::obj().set("runs", index))?;
    eprintln!("reproduce: wrote {count} run reports to {}", out.display());
    Ok(())
}

fn run_figures(flags: &Flags) -> Result<(), DsmError> {
    let scale = flags.run.scale;
    let jobs = flags.run.jobs;
    eprintln!(
        "reproduce: scale factor {}, {} sweep worker(s)",
        scale.factor(),
        jobs.get()
    );
    if let Some(wanted) = &flags.figures {
        for w in wanted {
            if Figure::by_key(w).is_none() {
                return Err(DsmError::usage(format!(
                    "unknown figure '{w}' (known: {})",
                    FIGURES.map(|f| f.key).join(", ")
                )));
            }
        }
    }

    // An unusable --out stops the run before the journal opens or
    // anything prints, not after the whole sweep.
    if let Some(out) = &flags.out {
        std::fs::create_dir_all(out)
            .map_err(|e| DsmError::bad_input(format!("cannot create {}: {e}", out.display())))?;
    }

    let journal: Option<Arc<SweepJournal>> = match (&flags.journal, &flags.resume) {
        (Some(path), None) => Some(Arc::new(SweepJournal::create(path)?)),
        (None, Some(path)) => {
            let j = SweepJournal::resume(path)?;
            eprintln!(
                "reproduce: resumed journal {} ({} completed point(s) will be skipped)",
                path.display(),
                j.resumed_points()
            );
            Some(Arc::new(j))
        }
        _ => None,
    };
    let tracer: Option<Arc<SpanTracer>> = flags
        .chrome_trace
        .as_ref()
        .map(|_| Arc::new(SpanTracer::new()));

    println!("{}", tables::table1());
    println!("{}", tables::table2());
    println!("{}", tables::table3());

    let kinds = flags.workloads.clone().unwrap_or_else(all_workloads);
    let figures: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| {
            flags
                .figures
                .as_ref()
                .is_none_or(|wanted| wanted.iter().any(|w| w == f.key))
        })
        .collect();
    let specs: Vec<Vec<SystemSpec>> = figures.iter().map(|f| (f.specs)()).collect();
    let table = PointTable::new(specs.iter().cloned());
    eprintln!(
        "reproduce: {} figure(s) plot {} point(s) per workload, {} distinct",
        figures.len(),
        table.plotted(),
        table.simulated()
    );

    // The point table, workload-major: one trace at a time, every
    // distinct point of every figure swept over it.
    let mut ts = TraceSet::from_args(&flags.run);
    ts.set_journal(journal.clone());
    ts.set_progress(flags.progress);
    ts.enable_phase_stats(flags.phase_stats);
    ts.set_tracer(tracer.clone());
    let t_all = Instant::now();
    let results = table.run(&mut ts, &kinds)?;
    let table_s = t_all.elapsed().as_secs_f64();
    let loads = ts.load_times().to_vec();
    let replay_s = table_s - loads.iter().map(|(_, s)| s).sum::<f64>();
    eprintln!("reproduce: point table done in {table_s:.1}s");

    // Each simulated point's phase rollup goes to the figure that owns
    // its label (the first to request it), so every rollup appears once.
    let mut owner_of = HashMap::new();
    for (i, spec) in table.specs().iter().enumerate() {
        for &kind in &kinds {
            owner_of.insert(SweepPoint::new(spec.clone(), kind).label, table.owner(i));
        }
    }
    let mut rollups: Vec<Vec<(String, PhaseCounters)>> = vec![Vec::new(); figures.len()];
    let mut taken = ts.take_phase_rollups();
    // Rollups accumulate in completion order; sort by point label so
    // timings.json is stable across worker counts.
    taken.sort_by(|a, b| a.0.cmp(&b.0));
    for (label, counters) in taken {
        if let Some(&fig) = owner_of.get(&label) {
            rollups[fig].push((label, counters));
        }
    }

    let mut exported: Vec<Json> = Vec::new();
    let mut failures: Vec<(String, DsmError)> = Vec::new();
    let t_project = Instant::now();
    for (fig, fig_specs) in figures.iter().zip(&specs) {
        let name = fig.name;
        let fig_span = tracer.as_deref().map(|t| {
            let lane = t.lane("main");
            t.span(lane, format!("figure: {name}"))
        });
        let grid = match table.project(&results, fig_specs) {
            Ok(grid) => grid,
            Err(e) => {
                eprintln!("reproduce: {name} FAILED");
                failures.push((name.to_owned(), e));
                continue;
            }
        };
        let fig_table = (fig.table)(&grid);
        if flags.markdown {
            println!(
                "## {}\n\n{}",
                fig_table.caption,
                fig_table.render_markdown()
            );
        } else {
            println!("{}", fig_table.render());
        }
        if flags.out.is_some() {
            exported.push(fig_table.to_json().set("figure", name));
        }
        drop(fig_span);
    }
    let project_s = t_project.elapsed().as_secs_f64();
    // Losing crash-safety must not be silent: points whose journal
    // entries were dropped by the sticky disable cannot be resumed.
    let journal_disabled_points = journal.as_ref().map_or(0, |j| j.disabled_points());
    if journal_disabled_points > 0 {
        eprintln!(
            "reproduce: WARNING: journaling was disabled mid-run; {journal_disabled_points} \
             point(s) were not journaled and would re-run on --resume"
        );
    }

    if !failures.is_empty() {
        eprintln!("reproduce: {} figure(s) failed:", failures.len());
        for (name, e) in &failures {
            eprintln!("reproduce: {name}: {e}");
        }
        eprintln!("reproduce: no dataset written");
        let (name, first) = failures.swap_remove(0);
        return Err(first.context(format!("figure {name}")));
    }
    eprintln!(
        "reproduce: all figures done in {:.1}s",
        t_all.elapsed().as_secs_f64()
    );

    if let Some(out) = &flags.out {
        let t_write = Instant::now();
        // The dataset: everything *but* wall clock, so any two runs at
        // one scale are byte-identical whatever the worker count.
        let path = out.join("reproduce_full.json");
        let json = Json::obj()
            .set("scale", scale.factor())
            .set("figures", exported);
        write_json_atomic(&path, &json)?;
        eprintln!("reproduce: wrote {}", path.display());
        let write_s = t_write.elapsed().as_secs_f64();
        // The timings, separately, so where the time went is visible in
        // results/ without polluting the diffable dataset.
        let t_path = out.join("timings.json");
        let generation: Vec<Json> = loads
            .iter()
            .map(|(kind, s)| {
                Json::obj()
                    .set("workload", kind.display_name())
                    .set("wall_s", *s)
            })
            .collect();
        let stages = Json::obj()
            .set("trace_generation", generation)
            .set("replay_s", replay_s)
            .set("project_render_s", project_s)
            .set("write_s", write_s);
        let figures_json: Vec<Json> = figures
            .iter()
            .zip(rollups)
            .map(|(fig, rollups)| {
                let fig_json = Json::obj().set("figure", fig.name);
                if !flags.phase_stats {
                    return fig_json;
                }
                let phases: Vec<Json> = rollups
                    .into_iter()
                    .map(|(label, counters)| {
                        Json::obj()
                            .set("point", label)
                            .set("counters", counters.to_json())
                    })
                    .collect();
                fig_json.set("phases", phases)
            })
            .collect();
        let t_json = Json::obj()
            .set("scale", scale.factor())
            .set("jobs", jobs.get())
            .set("total_wall_s", t_all.elapsed().as_secs_f64())
            .set("journal_disabled_points", journal_disabled_points)
            .set("points_plotted", table.plotted() * kinds.len())
            .set("points_simulated", table.simulated() * kinds.len())
            .set("stages", stages)
            .set("figures", figures_json);
        write_json_atomic(&t_path, &t_json)?;
        eprintln!("reproduce: wrote {}", t_path.display());
    }
    if let (Some(path), Some(t)) = (&flags.chrome_trace, &tracer) {
        t.write(path)?;
        eprintln!("reproduce: wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let flags = parse_flags();
    let result = if flags.epoch.is_some() || flags.trace_events {
        run_instrumented(&flags)
    } else {
        run_figures(&flags)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
