//! The batch workloads, `ecg-exact` and `astro-kernel`: repeated
//! `Query` runs over a few generated series.

use std::sync::Arc;
use std::time::Instant;

use valmod_core::{Quality, Query, StageTimings, ValmodOutput};
use valmod_mp::WorkerPool;

use crate::check::output_checksum;
use crate::report::Report;
use crate::trace::span;
use crate::{secs_since, Kind, THREADS};

/// Rounds of the anytime query.
pub const ANYTIME_BUDGET: usize = 4;
/// Seed of the anytime query's shuffled diagonal order.
pub const ANYTIME_SEED: u64 = 42;

/// One batch workload.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Workload name.
    pub name: &'static str,
    /// Series generator.
    pub kind: Kind,
    /// Series length.
    pub n: usize,
    /// Shortest motif length.
    pub l_min: usize,
    /// Longest motif length.
    pub l_max: usize,
    /// Motif pairs per length.
    pub k: usize,
    /// Whether each iteration also runs the anytime query.
    pub anytime: bool,
    /// Series a run derives from its seed and queries in turn, so that
    /// one run's figures stand for the workload rather than for the
    /// motifs of a single series.
    pub series: usize,
}

/// ECG, n = 30 000, ℓ 64..80, k = 3, exact: the stage-2 recompute does
/// about half the work. How many rows need recomputing varies widely
/// between ECG series (about 100 to 700), so a run cycles over eight.
pub const ECG_EXACT: BatchSpec = BatchSpec {
    name: "ecg-exact",
    kind: Kind::Ecg,
    n: 30_000,
    l_min: 64,
    l_max: 80,
    k: 3,
    anytime: false,
    series: 8,
};

/// ASTRO, n = 40 000, ℓ 64..80, k = 3, exact then anytime: the stage-1
/// kernel does most of the work through both of its walks.
pub const ASTRO_KERNEL: BatchSpec = BatchSpec {
    name: "astro-kernel",
    kind: Kind::Astro,
    n: 40_000,
    l_min: 64,
    l_max: 80,
    k: 3,
    anytime: true,
    series: 3,
};

impl BatchSpec {
    /// The exact query of this workload on `pool` at `threads`.
    #[must_use]
    pub fn query(&self, pool: &Arc<WorkerPool>, threads: usize) -> Query {
        Query::new(self.l_min, self.l_max).k(self.k).threads(threads).pool(Arc::clone(pool))
    }
}

/// What one anytime query showed.
#[derive(Debug, Clone, Copy)]
pub struct AnytimeRun {
    /// Wall time of the whole query, s.
    pub total_s: f64,
    /// Time to the first preview, s.
    pub first_preview_s: f64,
    /// Fraction of stage-1 cells retired at the first preview.
    pub first_preview_cells: f64,
    /// Stage-1 time, s.
    pub stage1_s: f64,
}

/// One iteration of a batch workload.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Which of the run's series it queried.
    pub series: usize,
    /// Exact query wall time, s.
    pub exact_s: f64,
    /// The exact query's stage timings.
    pub timings: StageTimings,
    /// The anytime query, when the workload runs one.
    pub anytime: Option<AnytimeRun>,
    /// Wall time of the whole iteration, s.
    pub total_s: f64,
}

/// A measured pass: iterations until the deadline.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Iterations, in order.
    pub iterations: Vec<Iteration>,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that returned an error.
    pub failed: u64,
    /// Per series: the first exact output and its checksum.
    pub outputs: Vec<Option<(ValmodOutput, String)>>,
}

/// Runs the exact query once; returns its output and wall time.
///
/// # Errors
///
/// The query's own error.
pub fn exact_query(query: &Query, series: &[f64]) -> valmod_series::Result<(ValmodOutput, f64)> {
    let _s = span("core", "Query::run");
    let t = Instant::now();
    let outcome = query.run(series)?;
    let secs = secs_since(t);
    match outcome {
        valmod_core::QueryOutcome::Exact(out) => Ok((out, secs)),
        valmod_core::QueryOutcome::Screen(_) => unreachable!("exact queries return full outputs"),
    }
}

/// Runs the anytime query once; returns its settled output and timings.
///
/// # Errors
///
/// The query's own error.
pub fn anytime_query(
    query: &Query,
    series: &[f64],
) -> valmod_series::Result<(ValmodOutput, AnytimeRun)> {
    let query =
        query.clone().quality(Quality::Anytime { budget: ANYTIME_BUDGET }).seed(ANYTIME_SEED);
    let _s = span("core", "Query::run_with_preview");
    let t = Instant::now();
    let mut first: Option<(f64, f64)> = None;
    let outcome = query.run_with_preview(series, |p| {
        if first.is_none() {
            first = Some((secs_since(t), p.convergence()));
        }
    })?;
    let total_s = secs_since(t);
    let out = match outcome {
        valmod_core::QueryOutcome::Exact(out) => out,
        valmod_core::QueryOutcome::Screen(_) => unreachable!("anytime queries return full outputs"),
    };
    let (first_preview_s, first_preview_cells) = first.unwrap_or((f64::NAN, f64::NAN));
    let stage1_s = out.timings.stage1.as_secs_f64();
    Ok((out, AnytimeRun { total_s, first_preview_s, first_preview_cells, stage1_s }))
}

/// Runs iterations of `spec` for `seconds` (at least one per series),
/// querying the series in turn, and checks that every exact output
/// matches the first one of its series and that each settled anytime
/// output equals its iteration's exact output.
pub fn run_pass(
    report: &mut Report,
    spec: &BatchSpec,
    all_series: &[Vec<f64>],
    pool: &Arc<WorkerPool>,
    seconds: f64,
) -> Pass {
    let query = spec.query(pool, THREADS);
    let mut pass = Pass { outputs: vec![None; all_series.len()], ..Pass::default() };
    let start = Instant::now();
    while pass.iterations.len() < all_series.len() || secs_since(start) < seconds {
        let index = pass.iterations.len() % all_series.len();
        let series = &all_series[index];
        let it_start = Instant::now();
        pass.attempted += 1;
        let (out, exact_s) = match exact_query(&query, series) {
            Ok(r) => r,
            Err(e) => {
                pass.failed += 1;
                report.fail(&format!("{}: exact query failed: {e}", spec.name));
                break;
            }
        };
        let checksum = output_checksum(&out);
        let anytime = if spec.anytime {
            pass.attempted += 1;
            match anytime_query(&query, series) {
                Ok((settled, run)) => {
                    let settled_sum = output_checksum(&settled);
                    report.check(settled_sum == checksum, || {
                        format!(
                            "{}: settled anytime output {settled_sum} != exact {checksum}",
                            spec.name
                        )
                    });
                    Some(run)
                }
                Err(e) => {
                    pass.failed += 1;
                    report.fail(&format!("{}: anytime query failed: {e}", spec.name));
                    None
                }
            }
        } else {
            None
        };
        let timings = out.timings.clone();
        match &pass.outputs[index] {
            Some((_, first)) => report.check(*first == checksum, || {
                format!(
                    "{}: exact output changed between iterations ({first} then {checksum})",
                    spec.name
                )
            }),
            None => pass.outputs[index] = Some((out, checksum)),
        }
        pass.iterations.push(Iteration {
            series: index,
            exact_s,
            timings,
            anytime,
            total_s: secs_since(it_start),
        });
    }
    pass
}
