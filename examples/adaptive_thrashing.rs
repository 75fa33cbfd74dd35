//! Page-cache thrashing and the adaptive relocation threshold, on the
//! paper's worst case: Radix's scattered permutation writes.
//!
//! A fixed threshold of 32 lets the page cache thrash (pages relocated,
//! evicted before amortizing the 225-cycle relocation, relocated again);
//! the adaptive policy detects negative amortization through per-frame
//! hit counters and raises the threshold by 8 per monitoring window.
//!
//! Run with: `cargo run -p dsm-core --release --example adaptive_thrashing`

use dsm_core::{runner::run_workload, PcSize, SystemSpec, ThresholdPolicy};
use dsm_trace::{workloads::Radix, Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let radix = Radix::with_keys(1 << 17); // 128K keys: fast but thrashy
    println!(
        "workload: {} ({}), shared data {:.2} MB",
        radix.name(),
        radix.params(),
        radix.shared_bytes() as f64 / (1024.0 * 1024.0)
    );
    // A deliberately tight page cache (1/16 of the data set) so the
    // destination array's page working set overwhelms it; the paper's
    // Figure 6 uses 1/5 at full problem size for the same effect.
    let pc = PcSize::DataFraction(16);

    let policies = [
        ("fixed(32)", ThresholdPolicy::Fixed(32)),
        ("adaptive(32)", ThresholdPolicy::Adaptive { initial: 32 }),
        ("adaptive(64)", ThresholdPolicy::Adaptive { initial: 64 }),
    ];

    println!(
        "\n{:<14} {:>12} {:>12} {:>14} {:>12}",
        "policy", "relocations", "PC hits", "reloc-ovhd%", "miss%"
    );
    for (label, policy) in policies {
        let spec = SystemSpec::ncp(pc).with_threshold(policy);
        let r = run_workload(&spec, &radix, Scale::full())?;
        println!(
            "{:<14} {:>12} {:>12} {:>14.3} {:>12.3}",
            label,
            r.metrics.relocations,
            r.metrics.pc_read_hits + r.metrics.pc_write_hits,
            r.relocation_overhead * 100.0,
            (r.read_miss_ratio + r.write_miss_ratio) * 100.0
        );
    }

    println!(
        "\nFigure 6 of the paper (`reproduce --figures fig6`) runs the\n\
         fixed-vs-adaptive comparison across all eight benchmarks; Figure 11\n\
         (`reproduce --figures fig11`) shows why `vxp`'s eager victimization\n\
         counters prefer threshold 64."
    );
    Ok(())
}
