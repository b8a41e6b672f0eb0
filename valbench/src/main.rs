//! `valbench`: runs one workload of the VALMOD suite benchmark.
//!
//! ```text
//! valbench --workload <ecg-exact|astro-kernel|serve-mixed|all> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! `all` runs the three workloads one after another in this process and
//! prefixes each metric with its workload's name.
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the workload once untraced and once traced, probes
//! every layer on the workload's inputs, and reports the per-layer
//! metrics. Either way it checks the outputs, prints readable lines, and
//! ends with one JSON line. It exits 1 when a check failed and 2 on a
//! usage error.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use valmod_core::{Query, ValmodOutput};
use valmod_mp::WorkerPool;

use valbench::batch::{self, AnytimeRun, BatchSpec, Pass, ASTRO_KERNEL, ECG_EXACT};
use valbench::check::{output_checksum, pinned, spot_check};
use valbench::layers::{self, STAGE1_BYTES_PER_CELL, STAGE1_FLOPS_PER_CELL};
use valbench::ops::sub_seed;
use valbench::ops::Verb;
use valbench::report::{say, Report};
use valbench::serve_mixed::{self, LoopResult, ServeSpec, Stop, SERVE_MIXED};
use valbench::stats::{error_rate, median, percentile, tail_percentile};
use valbench::{peak_rss_mb, reset_peak_rss, secs_since, trace, warm_pool, DEFAULT_SEED, THREADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Windows of each series sampled by the brute-force spot check.
const SPOT_ROWS: usize = 1;
/// Rows timed by the per-row probes.
const PROBE_ROWS: usize = 32;
/// Operations per client of the short serving session that traced batch
/// runs use to measure the stream and serve layers.
const PROBE_SESSION_OPS: u64 = 64;
/// `hello` round trips timed for the transport cost.
const NOOP_REQUESTS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 20.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage(&e));
    let scratch = PathBuf::from(".bench_scratch").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut report = Report::new();
    match args.workload.as_str() {
        "all" => {
            // Every workload in this one process; metric names gain the
            // workload as a prefix.
            for name in WORKLOADS {
                let mut one = Report::new();
                run_workload(&mut one, name, &args, &scratch);
                report.correct &= one.correct;
                report.attempted += one.attempted;
                report.failed += one.failed;
                for m in one.metrics {
                    report.metric(&format!("{name}.{}", m.name), m.value, m.unit);
                }
            }
        }
        name if WORKLOADS.contains(&name) => run_workload(&mut report, name, &args, &scratch),
        other => usage(&format!("unknown workload {other:?}")),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let json = report.json();
    println!("{json}");
    std::process::exit(if report.correct { 0 } else { 1 });
}

/// The benchmark's workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["ecg-exact", "astro-kernel", "serve-mixed"];

fn run_workload(report: &mut Report, name: &str, args: &Args, scratch: &Path) {
    match name {
        "ecg-exact" => batch_workload(report, &ECG_EXACT, args, scratch),
        "astro-kernel" => batch_workload(report, &ASTRO_KERNEL, args, scratch),
        _ => serve_workload(report, args, scratch),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: valbench --workload <ecg-exact|astro-kernel|serve-mixed|all> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

/// Ends the traced part of a run: reports the self time of each crate
/// over the recorded spans and writes the spans out as NDJSON.
fn finish_trace(report: &mut Report, w: &str, args: &Args, scratch: &Path) {
    trace::set_enabled(false);
    let spans = trace::take();
    let by_layer = trace::self_time_by_layer(&spans);
    let total: f64 = by_layer.values().sum();
    for layer in ["series", "fft", "mp", "core", "stream", "serve", "calib"] {
        let secs = by_layer.get(layer).copied().unwrap_or(0.0);
        say(
            w,
            &format!("{layer}.self_s"),
            secs,
            "s",
            &format!("{:.1}% of traced time", 100.0 * secs / total),
        );
        report.metric(&format!("{layer}.self_s"), secs, "s");
    }
    let dir = scratch.parent().unwrap_or(scratch).join("traces");
    let path = dir.join(format!("{w}-{}.ndjson", args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| trace::write_ndjson(&path, &spans)) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: trace not written to {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------

fn batch_workload(report: &mut Report, spec: &BatchSpec, args: &Args, scratch: &Path) {
    let w = spec.name;
    // A traced run records its set-ups too; only the untraced pass below
    // runs with recording off.
    trace::set_enabled(args.trace);
    let setup = |report: &mut Report| {
        let t = Instant::now();
        let all: Vec<Vec<f64>> =
            (0..spec.series).map(|i| spec.kind.generate(spec.n, sub_seed(args.seed, i))).collect();
        let pool = warm_pool();
        // One exact query on the first series: first-touch page faults and
        // buffer growth are paid here, not by the first measured iteration.
        report.attempted += 1;
        if let Err(e) = batch::exact_query(&spec.query(&pool, THREADS), &all[0]) {
            report.failed += 1;
            report.fail(&format!("{w}: warm-up query failed: {e}"));
        }
        (all, pool, secs_since(t))
    };
    // The pass runs right after the first set-up, so that its memory
    // figure does not depend on what the other set-ups left behind.
    let (all, pool, first) = setup(report);

    trace::set_enabled(false);
    reset_peak_rss();
    let pass = batch::run_pass(report, spec, &all, &pool, args.seconds);
    let rss = peak_rss_mb();
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    check_batch(report, spec, args.seed, &all, &pass);

    trace::set_enabled(args.trace);
    let mut setups = vec![first];
    setups.extend((1..SETUP_REPS).map(|_| setup(report).2));
    let setup_s = median(&setups);
    let e2e = BatchE2e::of(&pass);
    say(w, "setup_s", setup_s, "s", &format!("median of {SETUP_REPS}"));
    e2e.print(w, &pass, rss);

    if !args.trace {
        report.metric("setup_s", setup_s, "s");
        report.metric("op_p50_ms", e2e.op_ms, "ms");
        report.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    trace::set_enabled(true);
    let traced = batch::run_pass(report, spec, &all, &pool, args.seconds);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let traced_e2e = BatchE2e::of(&traced);
    let overhead = traced_e2e.op_ms / e2e.op_ms - 1.0;
    say(
        w,
        "trace_overhead_frac",
        overhead,
        "",
        &format!("op_p50 {:.1} ms traced vs {:.1} ms untraced", traced_e2e.op_ms, e2e.op_ms),
    );
    report.metric("trace_overhead_frac", overhead, "ratio");

    // The layer metrics describe the run's first series.
    let calib = calibration(report, w, &pool);
    let runs = CoreRuns {
        exact: traced.iterations.iter().map(|i| (i.exact_s, i.timings.clone())).collect(),
        outputs: traced.outputs.iter().flatten().map(|(out, _)| out).collect(),
        anytime: traced.iterations.iter().filter_map(|i| i.anytime).collect(),
        probe_query_s: median(
            &traced
                .iterations
                .iter()
                .filter(|i| i.series == 0)
                .map(|i| i.exact_s)
                .collect::<Vec<_>>(),
        ),
    };
    // The probes run on the first series.
    let series = &all[0];
    core_layer(report, w, series, &spec.query(&pool, THREADS), &runs, &calib);
    low_layers(report, w, series, &pool);
    let probe = ServeSpec { kind: spec.kind, ..SERVE_MIXED };
    serve_layers(report, w, &probe, args.seed, &pool, scratch, None);
    finish_trace(report, w, args, scratch);
}

/// End-to-end figures of a batch pass.
struct BatchE2e {
    query_s: f64,
    op_ms: f64,
}

impl BatchE2e {
    fn of(pass: &Pass) -> Self {
        let exact: Vec<f64> = pass.iterations.iter().map(|i| i.exact_s).collect();
        let totals: Vec<f64> = pass.iterations.iter().map(|i| i.total_s * 1e3).collect();
        Self { query_s: median(&exact), op_ms: median(&totals) }
    }

    fn print(&self, w: &str, pass: &Pass, rss: f64) {
        let n = pass.iterations.len();
        say(w, "query_s", self.query_s, "s", &format!("exact query, median of {n}"));
        for (i, output) in pass.outputs.iter().enumerate() {
            let times: Vec<f64> =
                pass.iterations.iter().filter(|it| it.series == i).map(|it| it.exact_s).collect();
            let rows: usize = output
                .iter()
                .flat_map(|(o, _)| o.per_length.iter())
                .map(|r| r.stats.recomputed_rows)
                .sum();
            let fallback = output
                .iter()
                .flat_map(|(o, _)| o.per_length.iter())
                .filter(|r| r.stats.stomp_fallback)
                .count();
            println!(
                "{w:<13} series {i}: query_s {:.3} (median of {}), {rows} recomputed rows, {fallback} STOMP fallbacks",
                median(&times),
                times.len()
            );
        }
        let anytime: Vec<AnytimeRun> = pass.iterations.iter().filter_map(|i| i.anytime).collect();
        if !anytime.is_empty() {
            let total: Vec<f64> = anytime.iter().map(|a| a.total_s).collect();
            let first: Vec<f64> = anytime.iter().map(|a| a.first_preview_s).collect();
            say(w, "anytime_query_s", median(&total), "s", &format!("median of {}", total.len()));
            say(w, "first_preview_s", median(&first), "s", &format!("median of {}", first.len()));
        }
        say(w, "op_p50_ms", self.op_ms, "ms", &format!("one iteration, median of {n}"));
        say(
            w,
            "error_rate",
            error_rate(pass.failed, pass.attempted),
            "",
            &format!("{} of {} queries", pass.failed, pass.attempted),
        );
        say(w, "peak_rss_mb", rss, "MiB", "peak during the measured pass");
    }
}

fn check_batch(report: &mut Report, spec: &BatchSpec, seed: u64, all: &[Vec<f64>], pass: &Pass) {
    let t = Instant::now();
    for (i, (series, output)) in all.iter().zip(&pass.outputs).enumerate() {
        let Some((out, checksum)) = output else {
            report.fail(&format!("{}: series {i} has no output to check", spec.name));
            continue;
        };
        match pinned(spec.name, seed, i) {
            Some(pin) => {
                report.check(checksum == pin, || {
                    format!("{}: series {i} checksum {checksum} != pinned {pin}", spec.name)
                });
                println!("{:<13} series {i} checksum {checksum} (pinned {pin})", spec.name);
            }
            None => println!(
                "{:<13} series {i} checksum {checksum} (seed {seed} is not pinned)",
                spec.name
            ),
        }
        spot_check(report, spec.name, series, &out.config, out, SPOT_ROWS, seed ^ i as u64);
    }
    println!(
        "{:<13} brute-force spot check of {SPOT_ROWS} rows and every top pair per series: {:.2} s",
        spec.name,
        secs_since(t)
    );
}

// ---------------------------------------------------------------------
// Layer probes shared by every traced run
// ---------------------------------------------------------------------

fn calibration(report: &mut Report, w: &str, pool: &Arc<WorkerPool>) -> layers::Calibration {
    let c = layers::calibrate(pool);
    let llc = layers::llc_bytes();
    say(w, "calib.fma_gflops", c.fma_gflops, "GFLOP/s", &format!("{THREADS} workers"));
    #[allow(clippy::cast_precision_loss)]
    let arrays = c.copy_bytes as f64 / f64::from(1 << 20);
    let note = match llc {
        #[allow(clippy::cast_precision_loss)]
        Some(b) => format!(
            "arrays {arrays:.0} MiB = {:.2}x the {:.0} MiB LLC; 4x LLC does not fit the run, so no bandwidth roofline",
            c.copy_bytes as f64 / b as f64,
            b as f64 / f64::from(1 << 20)
        ),
        None => format!("arrays {arrays:.0} MiB; LLC size not reported"),
    };
    say(w, "calib.copy_gbs", c.copy_gbs, "GB/s", &note);
    report.metric("calib.fma_gflops", c.fma_gflops, "GFLOP/s");
    report.metric("calib.copy_gbs", c.copy_gbs, "GB/s");
    c
}

/// What a workload's own exact queries showed, for the `core` metrics.
struct CoreRuns<'a> {
    /// Every traced exact query: wall time and stage timings.
    exact: Vec<(f64, valmod_core::StageTimings)>,
    /// The exact output of each distinct series; the first is the one
    /// the probes run on.
    outputs: Vec<&'a ValmodOutput>,
    /// The workload's anytime queries (none when it runs none).
    anytime: Vec<AnytimeRun>,
    /// Median exact query time on the probe series, at [`THREADS`].
    probe_query_s: f64,
}

/// The `core` metrics of one workload: its exact runs' phase split and
/// pruning counts, then on the probe series a stage-1-only query, a
/// single-thread query and (unless the workload ran them) an anytime
/// query.
fn core_layer(
    report: &mut Report,
    w: &str,
    series: &[f64],
    query: &Query,
    runs: &CoreRuns<'_>,
    calib: &layers::Calibration,
) {
    let exact = &runs.exact;
    let Some(&output) = runs.outputs.first() else {
        return report.fail(&format!("{w}: no exact output for the core metrics"));
    };
    let phase = |f: &dyn Fn(&valmod_core::StageTimings) -> std::time::Duration| {
        median(&exact.iter().map(|(_, t)| f(t).as_secs_f64()).collect::<Vec<_>>())
    };
    let stage1 = phase(&|t| t.stage1);
    let advance = phase(&|t| t.stage2_advance);
    let stats = phase(&|t| t.stage2_stats);
    let classify = phase(&|t| t.stage2_classify);
    let recompute = phase(&|t| t.stage2_recompute);
    let unexplained = median(
        &exact
            .iter()
            .map(|(s, t)| {
                let sum = t.stage1
                    + t.stage2_advance
                    + t.stage2_stats
                    + t.stage2_classify
                    + t.stage2_recompute;
                1.0 - sum.as_secs_f64() / s
            })
            .collect::<Vec<_>>(),
    );
    let query_s = median(&exact.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    say(w, "core.query_s", query_s, "s", &format!("traced exact query, median of {}", exact.len()));
    for (name, v) in [
        ("core.stage2_advance_s", advance),
        ("core.stage2_stats_s", stats),
        ("core.stage2_classify_s", classify),
        ("core.stage2_recompute_s", recompute),
    ] {
        say(w, name, v, "s", &format!("{:.1}% of query_s", 100.0 * v / query_s));
        report.metric(name, v, "s");
    }
    println!(
        "{w:<13} attribution: stage1 {stage1:.3} + stage2 {:.3} s of query_s {query_s:.3} s, unexplained {:.1}%",
        advance + stats + classify + recompute,
        100.0 * unexplained
    );
    report.metric("core.unexplained_frac", unexplained, "ratio");

    // Stage-2 pruning over every series of the run (the base length has
    // no bound to check, so it is skipped).
    let stage2: Vec<_> =
        runs.outputs.iter().flat_map(|o| o.per_length.iter().skip(1).map(|r| r.stats)).collect();
    let rows: usize = stage2.iter().map(|s| s.recomputed_rows).sum();
    let valid: usize = stage2.iter().map(|s| s.valid_rows).sum();
    let invalid: usize = stage2.iter().map(|s| s.invalid_rows).sum();
    #[allow(clippy::cast_precision_loss)]
    let lb_ratio = valid as f64 / (valid + invalid).max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let rows_f = rows as f64 / runs.outputs.len() as f64;
    say(
        w,
        "core.recomputed_rows",
        rows_f,
        "count",
        &format!("stage-2 MASS recomputations per query, mean of {} series", runs.outputs.len()),
    );
    say(
        w,
        "core.lb_valid_ratio",
        lb_ratio,
        "ratio",
        &format!("{valid} valid / {} rows", valid + invalid),
    );
    report.metric("core.recomputed_rows", rows_f, "count");
    report.metric("core.lb_valid_ratio", lb_ratio, "ratio");

    // Stage 1 alone: a query at ℓmin = ℓmax.
    let config = query.config();
    let mut stage1_config = config.clone();
    stage1_config.l_max = stage1_config.l_min;
    let stage1_query = Query::from_config(stage1_config);
    let m = valmod_obs::metrics();
    let (cells0, offers0) = (m.stage1_cells.get(), m.stage1_offers.get());
    let s1 =
        batch::exact_query(&stage1_query, series).map(|(out, _)| out.timings.stage1.as_secs_f64());
    let (cells, offers) = (m.stage1_cells.get() - cells0, m.stage1_offers.get() - offers0);
    let s1 = s1.unwrap_or_else(|e| {
        report.fail(&format!("{w}: stage-1 query failed: {e}"));
        f64::NAN
    });
    #[allow(clippy::cast_precision_loss)]
    let (cells_f, offers_f) = (cells as f64, offers as f64);
    let cells_per_s = cells_f / s1;
    let peak_frac = cells_per_s * STAGE1_FLOPS_PER_CELL / (calib.fma_gflops * 1e9);
    say(w, "core.stage1_s", s1, "s", "query at ℓmin = ℓmax");
    say(w, "core.stage1_cells_per_s", cells_per_s, "cells/s", &format!("{cells} cells"));
    say(w, "core.stage1_offer_ratio", offers_f / cells_f, "ratio", &format!("{offers} offers"));
    say(
        w,
        "core.stage1_peak_frac",
        peak_frac,
        "ratio",
        &format!("{STAGE1_FLOPS_PER_CELL} flop/cell over calib.fma_gflops"),
    );
    println!(
        "{w:<13} core.stage1_ops_per_byte (computed) {:.3} flop/B ({STAGE1_FLOPS_PER_CELL} flop and {STAGE1_BYTES_PER_CELL} B loaded per cell)",
        STAGE1_FLOPS_PER_CELL / STAGE1_BYTES_PER_CELL
    );
    report.metric("core.stage1_s", s1, "s");
    report.metric("core.stage1_cells_per_s", cells_per_s, "cells/s");
    report.metric("core.stage1_offer_ratio", offers_f / cells_f, "ratio");
    report.metric("core.stage1_peak_frac", peak_frac, "ratio");

    // The same exact query on one thread: the baseline of the speed-up,
    // and a cross-thread bit-identity check.
    let serial = Query::from_config(config.clone()).threads(1);
    match batch::exact_query(&serial, series) {
        Ok((out, secs)) => {
            let (one, two) = (output_checksum(&out), output_checksum(output));
            report.check(one == two, || {
                format!("{w}: 1-thread checksum {one} != {THREADS}-thread {two}")
            });
            let base = runs.probe_query_s;
            say(
                w,
                "core.speedup_2t",
                secs / base,
                "ratio",
                &format!("1 thread {secs:.3} s vs {THREADS} threads {base:.3} s"),
            );
            report.metric("core.speedup_2t", secs / base, "ratio");
        }
        Err(e) => report.fail(&format!("{w}: 1-thread query failed: {e}")),
    }

    let mut anytime = runs.anytime.clone();
    if anytime.is_empty() {
        match batch::anytime_query(query, series) {
            Ok((settled, run)) => {
                report.check(output_checksum(&settled) == output_checksum(output), || {
                    format!("{w}: settled anytime output differs from the exact one")
                });
                anytime.push(run);
            }
            Err(e) => report.fail(&format!("{w}: anytime query failed: {e}")),
        }
    }
    let any_s1 = median(&anytime.iter().map(|a| a.stage1_s).collect::<Vec<_>>());
    let first = median(&anytime.iter().map(|a| a.first_preview_cells).collect::<Vec<_>>());
    say(w, "core.anytime_stage1_s", any_s1, "s", &format!("median of {}", anytime.len()));
    say(w, "core.first_preview_cells", first, "ratio", "cells retired at the first preview");
    report.metric("core.anytime_stage1_s", any_s1, "s");
    report.metric("core.first_preview_cells", first, "ratio");
}

/// The `fft` and `mp` probes on one series.
fn low_layers(report: &mut Report, w: &str, series: &[f64], pool: &Arc<WorkerPool>) {
    let rows = layers::row_costs(series, PROBE_ROWS);
    let n = series.len();
    say(
        w,
        "fft.sliding_dot_ms",
        rows.sliding_dot_ms,
        "ms",
        &format!("per row, n = {n}, ℓ = {}", layers::ROW_LENGTH),
    );
    say(w, "fft.naive_dot_ms", rows.naive_dot_ms, "ms", "per row");
    say(w, "mp.mass_row_ms", rows.mass_row_ms, "ms", "per row");
    report.metric("fft.sliding_dot_ms", rows.sliding_dot_ms, "ms");
    report.metric("fft.naive_dot_ms", rows.naive_dot_ms, "ms");
    report.metric("mp.mass_row_ms", rows.mass_row_ms, "ms");
    let dispatch = layers::pool_dispatch_us(pool);
    say(w, "mp.pool_dispatch_us", dispatch, "us", &format!("empty {THREADS}-worker batch"));
    report.metric("mp.pool_dispatch_us", dispatch, "us");
    // STOMP at the streaming bootstrap's size: what one length of a
    // tenant bootstrap costs.
    let boot = &series[..SERVE_MIXED.bootstrap];
    let stomp = layers::stomp_s(boot, SERVE_MIXED.l_min, pool);
    say(
        w,
        "mp.stomp_s",
        stomp,
        "s",
        &format!("ℓ = {}, first {} points", SERVE_MIXED.l_min, boot.len()),
    );
    report.metric("mp.stomp_s", stomp, "s");
}

/// The `stream` and `serve` metrics: engine costs on the bootstrap
/// prefix, then — unless the caller already ran the served loop and
/// passes it in — a short served session, its in-process replay, and
/// the attribution of request latency to the two layers.
fn serve_layers(
    report: &mut Report,
    w: &str,
    spec: &ServeSpec,
    seed: u64,
    pool: &Arc<WorkerPool>,
    scratch: &Path,
    served: Option<(&LoopResult, &[Vec<f64>], f64)>,
) {
    let owned;
    let (result, streams, noop_ms) = match served {
        Some(s) => s,
        None => {
            let (session, streams, _) =
                match serve_mixed::timed_setup(spec, seed, pool, scratch.join("probe-serve")) {
                    Ok(s) => s,
                    Err(e) => {
                        return report.fail(&format!("{w}: probe session did not start: {e}"))
                    }
                };
            let result =
                serve_mixed::run_loop(spec, &session, &streams, seed, Stop::Ops(PROBE_SESSION_OPS));
            let noop = serve_mixed::noop_rtt_ms(&session, NOOP_REQUESTS).map(|v| median(&v));
            serve_mixed::check_tenants(report, spec, &session, &streams, &result.appended);
            if let Err(e) = session.shutdown() {
                report.fail(&format!("{w}: probe session shutdown: {e}"));
            }
            report.attempted += result.attempted;
            report.failed += result.failed;
            let noop = noop.unwrap_or_else(|e| {
                report.fail(&format!("{w}: hello probe failed: {e}"));
                f64::NAN
            });
            owned = (result, streams);
            (&owned.0, owned.1.as_slice(), noop)
        }
    };

    let engine = layers::engine_costs(
        report,
        &streams[0][..spec.bootstrap],
        &spec.config(),
        &scratch.join("probe-ckpt"),
    );
    say(
        w,
        "stream.bootstrap_s",
        engine.bootstrap_s,
        "s",
        &format!("StreamingValmod::new on {} points", spec.bootstrap),
    );
    say(w, "stream.checkpoint_ms", engine.checkpoint_ms, "ms", "incl. fsync, median of 5");
    say(w, "stream.checkpoint_bytes", engine.checkpoint_bytes, "B", "");
    say(w, "stream.restore_ms", engine.restore_ms, "ms", "median of 5");
    report.metric("stream.bootstrap_s", engine.bootstrap_s, "s");
    report.metric("stream.checkpoint_ms", engine.checkpoint_ms, "ms");
    report.metric("stream.checkpoint_bytes", engine.checkpoint_bytes, "B");
    report.metric("stream.restore_ms", engine.restore_ms, "ms");

    let costs = serve_mixed::replay_in_process(
        report,
        spec,
        streams,
        pool,
        &scratch.join("replay"),
        &result.executed,
    );
    let s_append = median(&costs.append_ms);
    let s_valmap = median(&costs.valmap_ms);
    let s_snapshot = median(&costs.snapshot_ms);
    let append_ms = result.ms(Verb::Append);
    let valmap_ms = result.ms(Verb::Valmap);
    let e_append = median(&append_ms);
    let e_valmap = median(&valmap_ms);
    let tail = percentile(&costs.append_ms, 90.0);
    let tail_note = match tail_percentile(costs.append_ms.len()) {
        Some(p) if p >= 90.0 => {
            format!("{} samples; p{p} is the highest with 10 beyond", costs.append_ms.len())
        }
        _ => format!("only {} samples: fewer than 10 beyond p90", costs.append_ms.len()),
    };
    say(
        w,
        "stream.append_p50_ms",
        s_append,
        "ms",
        &format!("TenantRegistry::append + poll_deltas, {} samples", costs.append_ms.len()),
    );
    say(w, "stream.append_p90_ms", tail, "ms", &tail_note);
    say(w, "stream.valmap_ms", s_valmap, "ms", &format!("median of {}", costs.valmap_ms.len()));
    say(
        w,
        "stream.snapshot_ms",
        s_snapshot,
        "ms",
        &format!("median of {}", costs.snapshot_ms.len()),
    );
    report.metric("stream.append_p50_ms", s_append, "ms");
    report.metric("stream.append_p90_ms", tail, "ms");
    report.metric("stream.valmap_ms", s_valmap, "ms");
    report.metric("stream.snapshot_ms", s_snapshot, "ms");

    let resp = median(&result.bytes(Verb::Valmap));
    say(
        w,
        "serve.append_p50_ms",
        e_append,
        "ms",
        &format!("served round trip, {} samples", append_ms.len()),
    );
    say(w, "serve.append_overhead_ms", e_append - s_append, "ms", "served p50 minus stream p50");
    say(
        w,
        "serve.valmap_overhead_ms",
        e_valmap - s_valmap,
        "ms",
        &format!("{} samples", valmap_ms.len()),
    );
    say(
        w,
        "serve.noop_rtt_ms",
        noop_ms,
        "ms",
        &format!("`hello` round trip, median of {NOOP_REQUESTS}"),
    );
    say(w, "serve.valmap_resp_bytes", resp, "B", "");
    report.metric("serve.append_p50_ms", e_append, "ms");
    report.metric("serve.append_overhead_ms", e_append - s_append, "ms");
    report.metric("serve.valmap_overhead_ms", e_valmap - s_valmap, "ms");
    report.metric("serve.noop_rtt_ms", noop_ms, "ms");
    report.metric("serve.valmap_resp_bytes", resp, "B");
    #[allow(clippy::cast_precision_loss)]
    for (name, v) in [
        ("serve.errors_saturated", result.errors.saturated),
        ("serve.errors_over_budget", result.errors.over_budget),
        ("serve.errors_proto", result.errors.proto),
    ] {
        say(w, name, v as f64, "count", "");
        report.metric(name, v as f64, "count");
    }
    let unexplained = 1.0 - (s_append + noop_ms) / e_append;
    println!(
        "{w:<13} attribution: append_p50 {e_append:.2} ms = stream {s_append:.2} + serve round trip {noop_ms:.2} \
         + unexplained {:.1}%; valmap_p50 {e_valmap:.2} ms = stream {s_valmap:.3} + serve {:.2} \
         (rendering and sending {resp:.0} B)",
        100.0 * unexplained,
        e_valmap - s_valmap
    );
    report.metric("serve.unexplained_frac", unexplained, "ratio");
}

// ---------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------

fn serve_workload(report: &mut Report, args: &Args, scratch: &Path) {
    let w = "serve-mixed";
    let spec = SERVE_MIXED;
    // A traced run records its set-ups too; only the untraced loop below
    // runs with recording off.
    trace::set_enabled(args.trace);
    let pool = warm_pool();
    let setup = |report: &mut Report, rep: usize| {
        let dir = scratch.join(format!("serve-{rep}"));
        match serve_mixed::timed_setup(&spec, args.seed, &pool, dir) {
            Ok(s) => Some(s),
            Err(e) => {
                report.fail(&format!("{w}: set-up {rep} failed: {e}"));
                report.attempted += 1;
                report.failed += 1;
                None
            }
        }
    };
    // The loop runs on the first set-up, before any other daemon has come
    // and gone, so that its memory figure does not depend on what other
    // set-ups left behind in the allocator.
    let Some((session, streams, first)) = setup(report, 0) else { return };
    trace::set_enabled(false);
    reset_peak_rss();
    let result =
        serve_mixed::run_loop(&spec, &session, &streams, args.seed, Stop::Deadline(args.seconds));
    let rss = peak_rss_mb();
    report.attempted += result.attempted;
    report.failed += result.failed;
    if !args.trace {
        serve_mixed::check_tenants(report, &spec, &session, &streams, &result.appended);
    }
    if let Err(e) = session.shutdown() {
        report.fail(&format!("{w}: shutdown: {e}"));
    }

    // The other set-ups, for the set-up median; a traced run keeps the
    // second one for its traced loop.
    trace::set_enabled(args.trace);
    let mut setups = vec![first];
    let mut for_trace = None;
    for rep in 1..SETUP_REPS {
        let Some((session, streams, secs)) = setup(report, rep) else { return };
        setups.push(secs);
        if args.trace && for_trace.is_none() {
            for_trace = Some((session, streams));
        } else if let Err(e) = session.shutdown() {
            report.fail(&format!("{w}: set-up {rep} shutdown: {e}"));
        }
    }
    let setup_s = median(&setups);
    say(
        w,
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUP_REPS}: generate + serve + bootstrap {} tenants", spec.tenants),
    );
    let append_p50 = print_serve_e2e(w, &result, rss);
    if !args.trace {
        report.metric("setup_s", setup_s, "s");
        report.metric("op_p50_ms", append_p50, "ms");
        report.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    // Traced: the same loop from the same state on a second set-up, with
    // every request in a span.
    let (session, streams) = for_trace.expect("a traced run keeps its second set-up");
    trace::set_enabled(true);
    let traced =
        serve_mixed::run_loop(&spec, &session, &streams, args.seed, Stop::Deadline(args.seconds));
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let traced_p50 = median(&traced.ms(Verb::Append));
    let overhead = traced_p50 / append_p50 - 1.0;
    say(
        w,
        "trace_overhead_frac",
        overhead,
        "",
        &format!("append_p50 {traced_p50:.2} ms traced vs {append_p50:.2} ms untraced"),
    );
    report.metric("trace_overhead_frac", overhead, "ratio");
    let noop = serve_mixed::noop_rtt_ms(&session, NOOP_REQUESTS).map(|v| median(&v));
    serve_mixed::check_tenants(report, &spec, &session, &streams, &traced.appended);
    if let Err(e) = session.shutdown() {
        report.fail(&format!("{w}: shutdown: {e}"));
    }
    let noop = noop.unwrap_or_else(|e| {
        report.fail(&format!("{w}: hello probe failed: {e}"));
        f64::NAN
    });
    serve_layers(report, w, &spec, args.seed, &pool, scratch, Some((&traced, &streams, noop)));

    // The core, fft and mp layers on what a `snapshot` computes: tenant
    // 0's series as the traced loop left it.
    let calib = calibration(report, w, &pool);
    let t0 = &streams[0][..spec.bootstrap + traced.appended[0] * valbench::ops::APPEND_POINTS];
    let query = Query::from_config(spec.config()).pool(Arc::clone(&pool));
    let mut exact = Vec::new();
    let mut output = None;
    for _ in 0..3 {
        match batch::exact_query(&query, t0) {
            Ok((out, secs)) => {
                exact.push((secs, out.timings.clone()));
                output = Some(out);
            }
            Err(e) => report.fail(&format!("{w}: tenant query failed: {e}")),
        }
    }
    if let Some(out) = output {
        let runs = CoreRuns {
            probe_query_s: median(&exact.iter().map(|(s, _)| *s).collect::<Vec<_>>()),
            exact,
            outputs: vec![&out],
            anytime: Vec::new(),
        };
        core_layer(report, w, t0, &query, &runs, &calib);
    }
    low_layers(report, w, t0, &pool);
    finish_trace(report, w, args, scratch);
}

/// Prints the serve-mixed end-to-end figures; returns the append p50.
fn print_serve_e2e(w: &str, result: &LoopResult, rss: f64) -> f64 {
    let append = result.ms(Verb::Append);
    let valmap = result.ms(Verb::Valmap);
    let snapshot = result.ms(Verb::Snapshot);
    let append_p50 = median(&append);
    say(w, "append_p50_ms", append_p50, "ms", &format!("{} samples", append.len()));
    for (name, samples) in [("append", &append), ("valmap", &valmap)] {
        match tail_percentile(samples.len()) {
            Some(p) => say(
                w,
                &format!("{name}_p{p}_ms"),
                percentile(samples, p),
                "ms",
                "highest percentile with 10 samples beyond",
            ),
            None => println!(
                "{w:<13} {name} tail: {} samples, fewer than 10 beyond p90; not reported",
                samples.len()
            ),
        }
    }
    say(w, "valmap_p50_ms", median(&valmap), "ms", &format!("{} samples", valmap.len()));
    say(w, "snapshot_p50_ms", median(&snapshot), "ms", &format!("{} samples", snapshot.len()));
    #[allow(clippy::cast_precision_loss)]
    let req_per_s = result.samples.len() as f64 / result.wall_s;
    say(w, "req_per_s", req_per_s, "1/s", &format!("{} clients, closed loop", SERVE_MIXED.clients));
    say(
        w,
        "error_rate",
        error_rate(result.failed, result.attempted),
        "",
        &format!("{} of {} requests", result.failed, result.attempted),
    );
    say(w, "peak_rss_mb", rss, "MiB", "peak during the measured loop");
    append_p50
}
