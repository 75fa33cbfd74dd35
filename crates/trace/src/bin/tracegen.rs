//! Generates a benchmark reference trace and writes it in the `DSMT`
//! binary format (or prints its statistics).
//!
//! ```text
//! tracegen <benchmark> [--scale <f>] [--dev] [--out <file>] [--stats]
//! ```
//!
//! * `<benchmark>` — barnes | cholesky | fft | fmm | lu | ocean | radix |
//!   raytrace
//! * `--scale <f>` — trace-length factor in (0, 1], default 1.0
//! * `--dev` — use the reduced development-size instance
//! * `--out <file>` — write the trace (default: `<benchmark>.dsmt`)
//! * `--stats` — print trace statistics instead of writing a file

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use dsm_trace::{analyze, write_shared, Scale, SharedTrace, TraceStats, WorkloadKind};
use dsm_types::{DsmError, Geometry, Topology};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracegen <benchmark> [--scale <f>] [--dev] [--out <file>] [--stats] [--analyze]\n\
         benchmarks: barnes cholesky fft fmm lu ocean radix raytrace"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        return usage();
    };
    let Ok(kind) = WorkloadKind::from_name(&name).inspect_err(|msg| eprintln!("{msg}")) else {
        return usage();
    };

    let mut scale = 1.0f64;
    let mut dev = false;
    let mut out: Option<String> = None;
    let mut stats = false;
    let mut analyze_flag = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(v)) => scale = v,
                _ => return usage(),
            },
            "--dev" => dev = true,
            "--out" => match args.next() {
                Some(v) => out = Some(v),
                None => return usage(),
            },
            "--stats" => stats = true,
            "--analyze" => analyze_flag = true,
            other => {
                eprintln!("unknown option '{other}'");
                return usage();
            }
        }
    }

    match run(kind, scale, dev, out, stats, analyze_flag) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[allow(clippy::fn_params_excessive_bools)]
fn run(
    kind: WorkloadKind,
    scale: f64,
    dev: bool,
    out: Option<String>,
    stats: bool,
    analyze_flag: bool,
) -> Result<(), DsmError> {
    let scale = Scale::new(scale).map_err(DsmError::from)?;
    let workload = if dev {
        kind.dev_instance()
    } else {
        kind.paper_instance()
    };
    let topo = Topology::paper_default();
    eprintln!(
        "tracegen: {} ({}), {:.2} MB shared, scale {}",
        workload.name(),
        workload.params(),
        workload.shared_bytes() as f64 / (1024.0 * 1024.0),
        scale.factor()
    );
    let trace = workload.generate(&topo, scale);

    if analyze_flag {
        let geo = Geometry::paper_default();
        let a = analyze(&trace, &geo, &topo);
        println!("blocks touched:        {}", a.blocks);
        println!("pages touched:         {}", a.pages);
        println!("avg block sharers:     {:.2}", a.avg_block_sharers);
        println!("avg page sharers:      {:.2}", a.avg_page_sharers);
        println!(
            "read-only pages:       {:.1} %",
            a.read_only_page_fraction * 100.0
        );
        println!(
            "write-shared blocks:   {:.1} %",
            a.write_shared_block_fraction * 100.0
        );
        println!("sequentiality:         {:.3}", a.sequentiality);
        if !stats {
            return Ok(());
        }
    }
    if stats {
        let geo = Geometry::paper_default();
        let s = TraceStats::compute(&trace, &geo, &topo);
        println!("refs:            {}", s.refs);
        println!("reads:           {}", s.reads);
        println!("writes:          {}", s.writes);
        println!("write fraction:  {:.4}", s.write_fraction());
        println!("blocks touched:  {}", s.blocks_touched);
        println!("pages touched:   {}", s.pages_touched);
        println!(
            "footprint:       {:.2} MB",
            s.footprint_bytes(&geo) as f64 / (1024.0 * 1024.0)
        );
        println!("refs per block:  {:.2}", s.refs_per_block());
        return Ok(());
    }

    let path = out.unwrap_or_else(|| format!("{}.dsmt", workload.name()));
    let file = File::create(&path)
        .map_err(|e| DsmError::bad_input(format!("cannot create {path}: {e}")))?;
    let shared = SharedTrace::from_refs(topo, Geometry::paper_default(), &trace);
    write_shared(BufWriter::new(file), &shared)
        .map_err(|e| DsmError::from(e).context(format!("writing {path}")))?;
    eprintln!("tracegen: wrote {} references to {path}", trace.len());
    Ok(())
}
