//! The VALMOD suite benchmark: three workloads (`ecg-exact`,
//! `astro-kernel`, `serve-mixed`), their end-to-end metrics, and a
//! traced run that splits time by crate.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path valbench/Cargo.toml -- \
//!     --workload ecg-exact --seed 48807 --seconds 20 --trace 0
//! ```
//!
//! The program only ever sees the series the benchmark generates from
//! `--seed`. Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `valbench/WORKLOADS.md` for what each workload
//! measures and why.

pub mod batch;
pub mod check;
pub mod layers;
pub mod ops;
pub mod report;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use std::sync::Arc;

use valmod_mp::WorkerPool;
use valmod_series::gen;

/// Worker threads of every pool and query: the benchmark is sized for
/// a 2-CPU machine.
pub const THREADS: usize = 2;

/// The seed whose exact outputs are pinned in [`check::PINNED`].
pub const DEFAULT_SEED: u64 = 0xBEA7;

/// The generator behind a workload's series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Synthetic electrocardiogram.
    Ecg,
    /// Synthetic light curve.
    Astro,
}

impl Kind {
    /// Generates `n` points from `seed` (a call into `valmod-series`).
    #[must_use]
    pub fn generate(self, n: usize, seed: u64) -> Vec<f64> {
        let _span = trace::span("series", "gen");
        match self {
            Self::Ecg => gen::ecg(n, &gen::EcgConfig::default(), seed),
            Self::Astro => gen::astro(n, &gen::AstroConfig::default(), seed),
        }
    }
}

/// A fresh worker pool with its threads already spawned, so the first
/// timed batch does not pay for thread creation.
#[must_use]
pub fn warm_pool() -> Arc<WorkerPool> {
    let pool = Arc::new(WorkerPool::new());
    let _ = pool.run(THREADS, |w| w);
    pool
}

/// Seconds since `start`.
#[must_use]
pub fn secs_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Restarts the peak-RSS count from the current resident set, so that
/// [`peak_rss_mb`] covers only what runs after this call. Without the
/// kernel interface the peak simply keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MiB (`VmHWM`): since the
/// last [`reset_peak_rss`], or since the process started.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
