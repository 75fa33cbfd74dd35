//! Quickstart: simulate one SPLASH-2-style workload on three remote-data
//! cache designs and compare the paper's metrics.
//!
//! Run with: `cargo run -p dsm-core --release --example quickstart`

use dsm_core::{runner::run_workload, SystemSpec};
use dsm_trace::{workloads::Fft, Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4K-point FFT: small enough to finish instantly, structured like
    // the paper's 64K-point run (use `Fft::default()` for that one).
    let fft = Fft::with_points(1 << 12);
    println!(
        "workload: {} ({}), shared data {:.2} MB",
        fft.name(),
        fft.params(),
        fft.shared_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Three design points from the paper:
    //   base - no remote-data caching at all
    //   vb   - 16-KB SRAM network *victim* cache (the paper's proposal)
    //   NCD  - 512-KB DRAM network cache with full inclusion (NUMA-Q style)
    let systems = [SystemSpec::base(), SystemSpec::vb(), SystemSpec::ncd()];

    println!(
        "\n{:<8} {:>12} {:>12} {:>14} {:>12}",
        "system", "read-miss%", "write-miss%", "remote stall", "traffic"
    );
    for spec in &systems {
        let r = run_workload(spec, &fft, Scale::full())?;
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>14} {:>12}",
            r.system,
            r.read_miss_ratio * 100.0,
            r.write_miss_ratio * 100.0,
            r.remote_read_stall,
            r.remote_traffic
        );
    }

    println!(
        "\nThe victim NC serves conflict/capacity misses at bus speed (1 cycle)\n\
         while the DRAM NC charges 13 cycles on hits and adds 3 cycles to\n\
         every miss - Table 1 of the paper, printed by `reproduce --figures ''`."
    );
    Ok(())
}
