//! The paper's central design-space question, on two contrasting
//! workloads: for a fixed DRAM budget, should a cluster buy a large slow
//! network cache (`NCD`) or a small fast SRAM victim cache backed by a
//! page cache in main memory (`vbp`)?
//!
//! Run with: `cargo run -p dsm-core --release --example design_space`

use dsm_core::{runner::run_workload, PcSize, SystemSpec};
use dsm_trace::{
    workloads::{Lu, Raytrace},
    Scale, Workload,
};

fn evaluate(workload: &dyn Workload, character: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== {} ({character}), {:.1} MB shared ==",
        workload.name(),
        workload.shared_bytes() as f64 / (1024.0 * 1024.0)
    );
    // Equal DRAM on both sides: a 512-KB DRAM NC, or a 512-KB page cache
    // behind a 16-KB SRAM victim NC.
    let contenders = [
        SystemSpec::infinite_dram(), // normalization baseline
        SystemSpec::ncd(),
        SystemSpec::vbp(PcSize::Bytes(512 * 1024)),
    ];
    let mut baseline = None;
    for spec in &contenders {
        let r = run_workload(spec, workload, Scale::new(0.5)?)?;
        let stall = r.remote_read_stall as f64;
        match baseline {
            None => {
                baseline = Some(stall.max(1.0));
                println!(
                    "  {:<10} stall {:>12} (baseline)",
                    r.system, r.remote_read_stall
                );
            }
            Some(b) => println!(
                "  {:<10} stall {:>12} ({:.3}x), relocation overhead {:.2}%",
                r.system,
                r.remote_read_stall,
                stall / b,
                r.relocation_overhead * 100.0
            ),
        }
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Regular, high spatial locality: the page-cache side should win
    // (little fragmentation, hits at local-DRAM speed off the miss path).
    evaluate(&Lu::with_matrix(512), "regular, high spatial locality")?;

    // Irregular, huge sparse read working set: the paper's hard case.
    // Neither 512-KB design recovers much of it — the page-cache system
    // pays relocation overhead and fragmentation, the DRAM NC pays a tag
    // check on every one of the many misses — so the two end up close,
    // far from the ideal baseline.
    evaluate(&Raytrace::with_scene_mb(8), "irregular, sparse working set")?;

    println!(
        "Figure 9 of the paper (`reproduce --figures fig9`) runs this\n\
         comparison across all eight benchmarks at full scale."
    );
    Ok(())
}
