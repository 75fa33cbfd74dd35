//! Experiment harnesses that regenerate every table and figure of the
//! paper.
//!
//! Each figure has a module under [`figures`] exposing the systems it
//! plots (`specs`) and a pure projection of their reports into printable
//! rows (`table`); the [`figures::FIGURES`] registry names each one by
//! its `reproduce --figures` key. One binary prints results: `cargo run
//! -p dsm-bench --release --bin reproduce` runs the selected figures
//! (`--figures fig3,fig9`; all of them by default; Tables 1-3 alone with
//! `--figures ''`) through one [`points::PointTable`], which simulates
//! each distinct (system, workload) point once, and emits the data
//! behind `EXPERIMENTS.md`. [`figures::Figure::run`] runs one figure the
//! same way, for the tests and benches.
//!
//! Traces are generated **once per workload** and shared across all system
//! configurations of a figure — the paper's methodology (every system sees
//! the same reference stream).
//!
//! Trace lengths are controlled by a scale factor in `(0, 1]` (see
//! `dsm_trace::Scale`), settable with `--scale <f>` on `reproduce`,
//! `profile` and `throughput` (all three parse their flags with
//! [`parse_run_args`]) or the `DSM_SCALE` environment variable; the
//! default is 1.0 (full-length traces, minutes of runtime in release
//! mode).
//!
//! Sweeps execute on the parallel engine in [`sweep`]: every (system,
//! workload) point of the table is enumerated as a [`sweep::SweepPoint`]
//! and run on a scoped-thread worker pool sharing the workload's
//! immutable trace, with results returned in submission order so the
//! output is byte-identical to a serial run. `--jobs <n>` (or `DSM_JOBS`)
//! sizes the pool; `--jobs 1` is the exact legacy serial path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod journal;
pub mod points;
pub mod sweep;
pub mod tinybench;

pub use harness::{parse_run_args, FigureTable, RunArgs, TraceSet};
pub use journal::SweepJournal;
pub use points::{PointKey, PointTable};
pub use sweep::{run_sweep, Jobs, PointFailure, SweepOutcome, SweepPoint};
