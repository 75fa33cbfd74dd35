//! Simulates a system configuration on a workload or a recorded trace.
//!
//! ```text
//! simulate --system <spec> --workload <benchmark> [--scale <f>] [--dev]
//! simulate --system <spec> --trace <file.dsmt> [--data-mb <n>] [--mmap]
//! ```
//!
//! `<spec>` is a system's text (`dsm_core::config::text`): a family such
//! as `vxp`, then optional `:field=value` overrides, as in
//! `ncp:pc=1/16:threshold=fixed32`. An unknown, inapplicable or
//! inconsistent field exits 2. A failed sweep point's repro line names
//! its spec this way.
//!
//! `--check <K>` audits the coherence invariants every `K` references
//! (and after the last) on the same batched replay loop an unchecked run
//! uses; a violation exits with code 4.
//!
//! `--stats` attaches the observability probe and appends a profiling
//! view: event counts by kind, per-cluster remote intensity and bus
//! traffic, the hottest pages (`--top <k>`, default 10), and the
//! relocation/threshold timelines. `--epoch <refs>` additionally samples
//! the run into epochs and reports the per-epoch remote miss series.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use dsm_core::config::text;
use dsm_core::obs::StatsSink;
use dsm_core::runner::{report_of, run_trace};
use dsm_core::{Report, System, SystemSpec};
use dsm_trace::{open_shared_mapped, read_shared, CodecError, Scale, SharedTrace, WorkloadKind};
use dsm_types::{ClusterId, DsmError, Geometry, Topology};

fn usage() -> ExitCode {
    eprintln!(
        "usage: simulate --system <spec> --workload <benchmark> [--scale <f>] [--dev]\n\
         \x20      simulate --system <spec> --trace <file.dsmt> [--data-mb <n>] [--mmap]\n\
         spec: <family>[:<field>=<value>]..., e.g. ncp:pc=1/16:threshold=fixed32\n\
         {}\n\
         checking: --check <K> (validate coherence invariants every K references)\n\
         observability: --stats [--top <k>] [--epoch <refs>]",
        text::usage()
    );
    ExitCode::from(2)
}

struct Options {
    system: Option<SystemSpec>,
    workload: Option<WorkloadKind>,
    trace: Option<String>,
    scale: Option<f64>,
    dev: bool,
    check: Option<usize>,
    data_mb: Option<u64>,
    mmap: bool,
    stats: bool,
    top: Option<usize>,
    epoch: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        system: None,
        workload: None,
        trace: None,
        scale: None,
        dev: false,
        check: None,
        data_mb: None,
        mmap: false,
        stats: false,
        top: None,
        epoch: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} requires a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value '{v}' for {flag}"))
        }
        match a.as_str() {
            "--system" => o.system = Some(text::parse(&val()?).map_err(|e| e.to_string())?),
            "--workload" => o.workload = Some(WorkloadKind::from_name(&val()?)?),
            "--trace" => o.trace = Some(val()?),
            "--scale" => o.scale = Some(num("--scale", &val()?)?),
            "--dev" => o.dev = true,
            "--check" => o.check = Some(num("--check", &val()?)?),
            "--data-mb" => o.data_mb = Some(num("--data-mb", &val()?)?),
            "--mmap" => o.mmap = true,
            "--stats" => o.stats = true,
            "--top" => o.top = Some(num("--top", &val()?)?),
            "--epoch" => {
                let w: u64 = num("--epoch", &val()?)?;
                if w == 0 {
                    return Err("--epoch must be positive".to_owned());
                }
                o.epoch = Some(w);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if o.system.is_none() {
        return Err("--system is required".to_owned());
    }
    if o.workload.is_none() == o.trace.is_none() {
        return Err("exactly one of --workload and --trace is required".to_owned());
    }
    if o.mmap && o.trace.is_none() {
        return Err("--mmap requires --trace (generated workloads are heap-resident)".to_owned());
    }
    if o.data_mb.is_some() && o.trace.is_none() {
        return Err("--data-mb requires --trace (a workload knows its data set)".to_owned());
    }
    if o.trace.is_some() && (o.scale.is_some() || o.dev) {
        return Err("--scale and --dev require --workload (a trace is replayed whole)".to_owned());
    }
    if !o.stats && (o.epoch.is_some() || o.top.is_some()) {
        return Err("--epoch and --top require --stats".to_owned());
    }
    Ok(o)
}

fn print_report(report: &Report) {
    println!("system:              {}", report.system);
    println!("workload:            {}", report.workload);
    println!("references:          {}", report.refs);
    println!(
        "read miss ratio:     {:.4} %",
        report.read_miss_ratio * 100.0
    );
    println!(
        "write miss ratio:    {:.4} %",
        report.write_miss_ratio * 100.0
    );
    println!(
        "relocation overhead: {:.4} %",
        report.relocation_overhead * 100.0
    );
    println!("remote read stall:   {} cycles", report.remote_read_stall);
    println!("remote traffic:      {} blocks", report.remote_traffic);
    let m = &report.metrics;
    println!(
        "  necessary misses:  {} r / {} w",
        m.remote_read_necessary, m.remote_write_necessary
    );
    println!(
        "  capacity misses:   {} r / {} w",
        m.remote_read_capacity, m.remote_write_capacity
    );
    println!(
        "  NC hits:           {} r / {} w",
        m.nc_read_hits, m.nc_write_hits
    );
    println!(
        "  PC hits:           {} r / {} w",
        m.pc_read_hits, m.pc_write_hits
    );
    println!("  relocations:       {}", m.relocations);
    println!("  writebacks:        {}", m.remote_writebacks);
}

/// The `--stats` profiling view: per-cluster intensity, hot pages,
/// relocation history, epoch series. Reads both the probe's aggregation
/// (its event table and timelines) and the final machine state (bus
/// transactions, resident frames).
fn print_stats(system: &System<StatsSink>, top: usize) {
    let sink = system.probe();
    let counts = sink.counts();
    let clusters = (0..system.topology().clusters()).map(ClusterId);

    println!("\n== events by kind ({} total) ==", counts.total());
    for (kind, n) in counts.kind_counts() {
        println!("  {kind:<20} {n:>12}");
    }

    println!("\n== per-cluster breakdown ==");
    println!(
        "  {:>7}  {:>12}  {:>9}  {:>9}  {:>8}  {:>8}  {:>6}  {:>12}  {:>8}",
        "cluster",
        "refs",
        "rd-remote",
        "wr-remote",
        "nc-hits",
        "pc-hits",
        "reloc",
        "bus-txns",
        "rem/ref"
    );
    for c in clusters {
        let cc = counts.cluster_counts(usize::from(c.0));
        println!(
            "  {:>7}  {:>12}  {:>9}  {:>9}  {:>8}  {:>8}  {:>6}  {:>12}  {:>8.4}",
            c.0,
            cc.refs,
            cc.remote_reads,
            cc.remote_writes,
            cc.nc_hits,
            cc.pc_hits,
            cc.relocations,
            system.cluster(c).bus.transactions(),
            cc.remote_intensity(),
        );
    }

    let hot = sink.top_pages(top);
    if !hot.is_empty() {
        println!(
            "\n== top {} hottest pages (PC hits + relocations) ==",
            hot.len()
        );
        for (page, heat) in hot {
            println!("  page {:>8}  {:>10}", page.0, heat);
        }
    }

    let resident: Vec<(u64, u32, u16)> = (0..system.topology().clusters())
        .map(ClusterId)
        .filter_map(|c| system.cluster(c).pc.as_ref().map(|pc| (c, pc)))
        .flat_map(|(c, pc)| {
            pc.pages_with_hits()
                .map(move |(p, h)| (p.0, h, c.0))
                .collect::<Vec<_>>()
        })
        .collect();
    if !resident.is_empty() {
        let mut frames = resident;
        frames.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        frames.truncate(top);
        println!("\n== hottest resident page frames ==");
        for (page, hits, cluster) in frames {
            println!("  page {page:>8}  cluster {cluster:>3}  {hits:>8} hits since reset");
        }
    }

    let reloc = sink.relocation_timeline();
    if !reloc.is_empty() {
        println!("\n== relocation timeline ({} events) ==", reloc.len());
        for &(at, cluster, page) in reloc.iter().take(top) {
            println!("  ref {at:>12}  cluster {cluster:>3}  page {page}");
        }
        if reloc.len() > top {
            println!("  ... {} more", reloc.len() - top);
        }
    }

    let thresholds = sink.threshold_timeline();
    if !thresholds.is_empty() {
        println!(
            "\n== threshold adaptations ({} events) ==",
            thresholds.len()
        );
        for &(at, cluster, t) in thresholds.iter().take(top) {
            println!("  ref {at:>12}  cluster {cluster:>3}  threshold -> {t}");
        }
        if thresholds.len() > top {
            println!("  ... {} more", thresholds.len() - top);
        }
    }

    let epochs = sink.epochs();
    if !epochs.is_empty() {
        println!("\n== epoch series ({} epochs) ==", epochs.len());
        println!(
            "  {:>5}  {:>12}  {:>9}  {:>9}  {:>8}  {:>6}",
            "epoch", "refs", "rd-remote", "wr-remote", "nc-hits", "reloc"
        );
        for s in epochs {
            let d = &s.delta;
            println!(
                "  {:>5}  {:>12}  {:>9}  {:>9}  {:>8}  {:>6}",
                s.index,
                s.len(),
                d.remote_read_necessary + d.remote_read_capacity,
                d.remote_write_necessary + d.remote_write_capacity,
                d.nc_read_hits + d.nc_write_hits,
                d.relocations,
            );
        }
    }
}

fn run(o: &Options) -> Result<(), DsmError> {
    let Some(spec) = o.system.clone() else {
        return Err(DsmError::usage("--system is required"));
    };
    let (trace, data_bytes, name) = if let Some(kind) = o.workload {
        let scale = Scale::new(o.scale.unwrap_or(1.0)).map_err(DsmError::from)?;
        let w = if o.dev {
            kind.dev_instance()
        } else {
            kind.paper_instance()
        };
        let topo = Topology::paper_default();
        let refs = w.generate(&topo, scale);
        let trace = SharedTrace::from_refs(topo, Geometry::paper_default(), &refs);
        (trace, w.shared_bytes(), w.name().to_owned())
    } else {
        let path = o.trace.as_deref().unwrap_or_default();
        // Trace files carry their geometry. --mmap decodes straight from
        // the kernel mapping instead of reading the file into memory.
        let trace = if o.mmap {
            open_shared_mapped(std::path::Path::new(path)).map_err(|e| match e {
                // Match the owned path's classification: a path the user
                // gave us that does not exist is their input's fault.
                CodecError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                    DsmError::bad_input(format!("cannot open {path}: {io}"))
                }
                other => DsmError::from(other).context(format!("trace {path}")),
            })?
        } else {
            let file = File::open(path)
                .map_err(|e| DsmError::bad_input(format!("cannot open {path}: {e}")))?;
            read_shared(BufReader::new(file))
                .map_err(|e| DsmError::from(e).context(format!("trace {path}")))?
        };
        let data_bytes = o.data_mb.unwrap_or(32) * 1024 * 1024;
        (trace, data_bytes, path.to_owned())
    };

    if o.stats {
        let (topo, geo) = (*trace.topology(), *trace.geometry());
        let mut system = System::with_probe(spec, topo, geo, data_bytes, StatsSink::new())?;
        if let Some(w) = o.epoch {
            system.set_epoch_window(w);
        }
        if let Some(k) = o.check {
            system.run_shared_checked(&trace, k)?;
        } else {
            system.run_shared(&trace);
        }
        system.finish();
        let report = report_of(&system, &name, data_bytes, trace.len() as u64);
        print_report(&report);
        print_stats(&system, o.top.unwrap_or(10).max(1));
        return Ok(());
    }

    let report = if let Some(k) = o.check {
        let (topo, geo) = (*trace.topology(), *trace.geometry());
        let mut system = System::new(spec, topo, geo, data_bytes)?;
        system.run_shared_checked(&trace, k)?;
        report_of(&system, &name, data_bytes, trace.len() as u64)
    } else {
        run_trace(&spec, &name, data_bytes, &trace)?
    };
    print_report(&report);
    Ok(())
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            return usage();
        }
    };
    match run(&o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
