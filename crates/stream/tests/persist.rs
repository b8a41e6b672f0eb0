//! Crash-recovery harness: kill the durable streaming pipeline at
//! *every* instrumented I/O operation and prove the recovered engine is
//! bit-identical to a reference engine that never crashed.
//!
//! The pipeline under test mirrors the CLI's `--checkpoint-dir` loop:
//! bootstrap → checkpoint generation 0 → per-point append + journal,
//! with VALMAP polls and journal fsyncs every [`POLL_EVERY`] appends and
//! a checkpoint every [`CKPT_EVERY`]. A [`valmod_series::faults`] plan
//! turns the k-th I/O operation (and everything after it) into an error
//! — observationally a SIGKILL at that point — and recovery must then
//! reconstruct a state whose VALMAP bits, forward `poll_deltas`, and
//! batch snapshot checksum all match the uninterrupted reference.
//!
//! `PROPTEST_CASES` scales the sweep like the proptest suites: the
//! default run strides the crash points across the lane-level × worker
//! combos (every operation is still killed under *some* combo); the
//! nightly roll (`PROPTEST_CASES > 1`) enumerates every crash point
//! under every combo, over that many distinct series.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use valmod_core::testkit::{force_level, output_checksum, test_levels};
use valmod_core::ValmodConfig;
use valmod_series::faults::{self, FaultKind, FaultPlan};
use valmod_series::{gen, Result, SeriesError};
use valmod_stream::{CheckpointStore, StreamingValmod, ValmapDelta};

const N: usize = 120;
const WARMUP: usize = 60;
const CKPT_EVERY: usize = 12;
const POLL_EVERY: usize = 6;

/// `PROPTEST_CASES` with a default, the same knob the proptest suites
/// honor — the nightly roll raises it for exhaustive sweeps.
fn cases(default: usize) -> usize {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("valmod-persist-{}-{tag}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config_with_threads(threads: usize) -> ValmodConfig {
    ValmodConfig::new(8, 12).with_k(2).with_threads(threads)
}

/// A deliberately hostile series: a planted motif pair, a flat
/// (zero-variance) window inside the bootstrap, and a huge-magnitude
/// spike in the appended tail — the inputs most likely to expose a
/// restore that is "close" but not bit-exact.
fn stressed_series(seed: u64) -> Vec<f64> {
    let pattern: Vec<f64> =
        (0..10).map(|i| (f64::from(i) / 10.0 * std::f64::consts::TAU).sin()).collect();
    let (mut series, _) = gen::planted_pair(N, &pattern, &[N / 5, 3 * N / 4], 0.02, seed);
    for v in &mut series[40..48] {
        *v = 2.5;
    }
    series[70] = 1e150;
    series
}

/// The durable pipeline under test — the same schedule the CLI runs:
/// checkpoint generation g lands after `WARMUP + g·CKPT_EVERY` points,
/// polls and journal fsyncs every `POLL_EVERY` appends.
fn durable_run(dir: &Path, series: &[f64], config: &ValmodConfig) -> Result<StreamingValmod> {
    let mut store = CheckpointStore::open(dir)?;
    let mut engine = StreamingValmod::new(&series[..WARMUP], config.clone())?;
    store.checkpoint(&engine)?;
    for (i, &v) in series[WARMUP..].iter().enumerate() {
        engine.try_append(v)?;
        store.journal_sample(v)?;
        if (i + 1) % POLL_EVERY == 0 {
            let _ = engine.poll_deltas();
            store.sync_journal()?;
        }
        if (i + 1) % CKPT_EVERY == 0 {
            store.checkpoint(&engine)?;
        }
    }
    store.sync_journal()?;
    Ok(engine)
}

/// A never-crashed engine at `upto` points whose emitted VALMAP matches
/// a session that polled on the pipeline's schedule up to `polled_upto`
/// (polls after the recovered checkpoint died with the crashed process).
fn reference_engine(
    series: &[f64],
    config: &ValmodConfig,
    upto: usize,
    polled_upto: usize,
) -> StreamingValmod {
    let mut engine = StreamingValmod::new(&series[..WARMUP], config.clone()).unwrap();
    for (i, &v) in series[WARMUP..upto].iter().enumerate() {
        engine.try_append(v).unwrap();
        if (i + 1).is_multiple_of(POLL_EVERY) && WARMUP + i < polled_upto {
            let _ = engine.poll_deltas();
        }
    }
    engine
}

fn valmap_bits(engine: &mut StreamingValmod) -> (Vec<u64>, Vec<Option<usize>>, Vec<usize>) {
    let v = engine.valmap();
    (v.mpn.iter().map(|x| x.to_bits()).collect(), v.ip.clone(), v.lp.clone())
}

fn delta_bits(deltas: &[ValmapDelta]) -> Vec<(usize, Option<usize>, usize, u64)> {
    deltas
        .iter()
        .map(|d| (d.offset, d.match_offset, d.length, d.normalized_distance.to_bits()))
        .collect()
}

/// What the reference predicts for a recovery at `(upto, generation)`:
/// the VALMAP bits at the recovery point, then — after feeding the rest
/// of the series — the forward deltas and the batch snapshot checksum.
type Prediction =
    ((Vec<u64>, Vec<Option<usize>>, Vec<usize>), Vec<(usize, Option<usize>, usize, u64)>, u64);

/// Recovers from `dir`, checks the recovery's own bookkeeping, and
/// proves the engine bit-identical to the cached reference — at the
/// recovery point *and* after racing both to the end of the series.
fn verify_recovery(
    dir: &Path,
    series: &[f64],
    config: &ValmodConfig,
    predictions: &mut HashMap<(usize, u64), Prediction>,
    context: &str,
) -> Option<(usize, u64)> {
    let mut store = CheckpointStore::open(dir).unwrap();
    let rec = store.recover(config).unwrap_or_else(|e| panic!("{context}: recover failed: {e}"))?;
    let mut engine = rec.engine;
    let upto = engine.len();
    let polled_upto = WARMUP + usize::try_from(rec.generation).unwrap() * CKPT_EVERY;
    assert!(
        (WARMUP..=N).contains(&upto),
        "{context}: recovered {upto} points outside [{WARMUP}, {N}]"
    );
    assert_eq!(
        upto,
        polled_upto + usize::try_from(rec.replayed).unwrap(),
        "{context}: checkpoint position + replay does not add up"
    );

    let key = (upto, rec.generation);
    let (at_recovery, forward_deltas, final_sum) = predictions.entry(key).or_insert_with(|| {
        let mut r = reference_engine(series, config, upto, polled_upto);
        let at_recovery = valmap_bits(&mut r);
        for &v in &series[upto..] {
            r.try_append(v).unwrap();
        }
        let deltas = delta_bits(&r.poll_deltas());
        let sum = output_checksum(&r.snapshot().unwrap());
        (at_recovery, deltas, sum)
    });
    assert_eq!(&valmap_bits(&mut engine), at_recovery, "{context}: VALMAP diverged at recovery");
    for &v in &series[upto..] {
        engine.try_append(v).unwrap();
    }
    assert_eq!(
        &delta_bits(&engine.poll_deltas()),
        forward_deltas,
        "{context}: forward deltas diverged after recovery"
    );
    assert_eq!(
        output_checksum(&engine.snapshot().unwrap()),
        *final_sum,
        "{context}: snapshot checksum diverged after recovery"
    );
    Some(key)
}

#[test]
fn kill_at_every_point_recovers_bit_identically() {
    let combos: Vec<(valmod_fft::simd::SimdLevel, usize)> =
        test_levels().into_iter().flat_map(|level| [(level, 1), (level, 8)]).collect();
    // Each extra round is a full kill-matrix over a fresh series (~6 s);
    // cap the PROPTEST_CASES scaling so the generic high-case CI rolls
    // stay bounded — 8 exhaustive rounds is already a deep sweep.
    let rounds = cases(1).min(8);
    for round in 0..rounds {
        let series = stressed_series(3 + round as u64);
        for (i, &(level, threads)) in combos.iter().enumerate() {
            let _simd = force_level(level);
            let config = config_with_threads(threads);
            let context = format!("round {round}, {level:?} x{threads} workers");

            // Enumerate the operation schedule with a counting plan.
            let total = {
                let dir = fresh_dir("count");
                let guard = faults::arm(FaultPlan::observe(None));
                durable_run(&dir, &series, &config).unwrap();
                let total = guard.hits();
                drop(guard);
                std::fs::remove_dir_all(&dir).unwrap();
                total
            };
            assert!(total > 60, "{context}: expected a rich op schedule, found {total} ops");

            // Default run: stride the crash points across combos so the
            // union still kills every operation. Nightly (rounds > 1):
            // every operation under every combo.
            let (stride, offset) = if rounds > 1 { (1, 0) } else { (combos.len(), i) };
            let mut predictions: HashMap<(usize, u64), Prediction> = HashMap::new();
            let mut recovered_none = 0u64;
            for k in ((offset as u64)..total).step_by(stride) {
                let dir = fresh_dir("kill");
                let crashed = {
                    let _fault = faults::arm(FaultPlan::crash_at(None, k));
                    durable_run(&dir, &series, &config)
                };
                assert!(crashed.is_err(), "{context}: crash at op {k} did not abort");
                let key = verify_recovery(
                    &dir,
                    &series,
                    &config,
                    &mut predictions,
                    &format!("{context}, crash at op {k}"),
                );
                if key.is_none() {
                    // Only crashes before generation 0 published may
                    // leave nothing to recover.
                    recovered_none += 1;
                    assert!(k < 8, "{context}: op {k} left no recoverable state");
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
            assert!(
                recovered_none <= 6,
                "{context}: {recovered_none} crash points lost the whole session"
            );
        }
    }
}

#[test]
fn torn_writes_recover_to_a_valid_prefix() {
    let series = stressed_series(11);
    let config = config_with_threads(2);
    // Tear journal records (header and mid-stream) and checkpoint images
    // at several widths: every torn write must leave a recoverable
    // prefix, never a hard failure.
    let plans = [
        ("journal.write", 0u64, 9usize), // gen-0 journal header, torn mid-line
        ("journal.write", 7, 0),         // a record that lands zero bytes
        ("journal.write", 13, 20),       // a record torn mid-checksum
        ("ckpt.write", 2, 4096),         // a checkpoint image torn mid-body
    ];
    for (site, after, width) in plans {
        let dir = fresh_dir("torn");
        let context = format!("torn {site} op {after} at {width} bytes");
        let crashed = {
            let _fault = faults::arm(FaultPlan {
                site: Some(site.into()),
                after,
                times: u64::MAX,
                kind: FaultKind::ShortWrite(width),
            });
            durable_run(&dir, &series, &config)
        };
        assert!(crashed.is_err(), "{context}: torn write did not abort");
        let mut predictions = HashMap::new();
        let recovered = verify_recovery(&dir, &series, &config, &mut predictions, &context);
        assert!(recovered.is_some(), "{context}: no recoverable state");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corrupt_newest_checkpoint_falls_back_one_generation() {
    let series = stressed_series(5);
    let config = config_with_threads(1);
    for damage in ["flip", "truncate"] {
        let dir = fresh_dir("fallback");
        let mut uninterrupted = durable_run(&dir, &series, &config).unwrap();

        let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "bin"))
            .collect();
        ckpts.sort();
        assert_eq!(ckpts.len(), 2, "retention should keep exactly two generations");
        let newest = ckpts.last().unwrap();
        let bytes = std::fs::read(newest).unwrap();
        match damage {
            "flip" => {
                let mut bad = bytes;
                let mid = bad.len() / 2;
                bad[mid] ^= 0x20;
                std::fs::write(newest, bad).unwrap();
            }
            _ => std::fs::write(newest, &bytes[..bytes.len() / 3]).unwrap(),
        }

        let mut store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover(&config).unwrap().expect("previous generation must recover");
        assert_eq!(rec.fell_back, 1, "{damage}: newest generation should be skipped");
        let mut engine = rec.engine;
        assert_eq!(engine.len(), N, "{damage}: journal replay must reach the end");
        assert!(rec.replayed >= CKPT_EVERY as u64, "{damage}: the longer journal must replay");
        assert_eq!(
            valmap_bits(&mut engine),
            valmap_bits(&mut uninterrupted),
            "{damage}: fallback recovery diverged"
        );
        assert_eq!(
            output_checksum(&engine.snapshot().unwrap()),
            output_checksum(&uninterrupted.snapshot().unwrap()),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn clean_recovery_reproduces_the_exact_checkpoint_image() {
    // After an uninterrupted run whose final checkpoint landed on the
    // final sample, recovery must reconstruct an engine whose own
    // checkpoint image is byte-equal — full-state bit-identity, not just
    // identical views.
    let series = stressed_series(7);
    let config = config_with_threads(3);
    let dir = fresh_dir("clean");
    let uninterrupted = durable_run(&dir, &series, &config).unwrap();
    let mut store = CheckpointStore::open(&dir).unwrap();
    let rec = store.recover(&config).unwrap().unwrap();
    assert_eq!(rec.engine.len(), uninterrupted.len());
    assert_eq!((rec.replayed, rec.fell_back), (0, 0));
    let image = |e: &StreamingValmod| {
        let mut buf = Vec::new();
        e.checkpoint_to(&mut buf).unwrap();
        buf
    };
    assert_eq!(image(&rec.engine), image(&uninterrupted), "recovered image differs");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovering_under_a_different_config_is_a_hard_error() {
    let series = stressed_series(9);
    let config = config_with_threads(1);
    let dir = fresh_dir("mismatch");
    durable_run(&dir, &series, &config).unwrap();

    // A state-affecting difference refuses loudly — falling back to an
    // older generation would silently compute wrong answers.
    let mut store = CheckpointStore::open(&dir).unwrap();
    let wider = ValmodConfig::new(8, 13).with_k(2).with_threads(1);
    assert!(matches!(store.recover(&wider), Err(SeriesError::CheckpointMismatch { .. })));

    // Worker count is a runtime knob, not state: recovery proceeds.
    let mut store = CheckpointStore::open(&dir).unwrap();
    let threaded = config_with_threads(6);
    let rec = store.recover(&threaded).unwrap().unwrap();
    assert_eq!(rec.engine.len(), N);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fault plans are scoped to the arming thread: an unarmed durable run
/// on another thread, made to run start to finish while a crash plan is
/// armed, neither dies from the plan nor consumes its operation count,
/// and the armed run then crashes exactly as it does alone.
#[test]
fn an_armed_plan_never_reaches_a_concurrent_unarmed_run() {
    let series = stressed_series(17);
    let config = config_with_threads(2);
    let total = {
        let dir = fresh_dir("scoped-count");
        let guard = faults::arm(FaultPlan::observe(None));
        durable_run(&dir, &series, &config).unwrap();
        let total = guard.hits();
        drop(guard);
        std::fs::remove_dir_all(&dir).unwrap();
        total
    };
    // Runs a crash-at-`k` pipeline; `during_arm` runs after the plan is
    // armed and before this thread issues any I/O.
    let crash_run = |k: u64, during_arm: &dyn Fn()| {
        let dir = fresh_dir("scoped-armed");
        let guard = faults::arm(FaultPlan::crash_at(None, k));
        during_arm();
        let crashed = durable_run(&dir, &series, &config).is_err();
        let hits = guard.hits();
        drop(guard);
        std::fs::remove_dir_all(&dir).unwrap();
        (crashed, hits)
    };
    for k in [0, total / 2, total - 1] {
        let alone = crash_run(k, &|| {});
        assert!(alone.0, "crash at op {k}: the armed run did not abort");
        let armed_now = Barrier::new(2);
        let unarmed_done = Barrier::new(2);
        let (armed, unarmed) = std::thread::scope(|s| {
            let armed = s.spawn(|| {
                crash_run(k, &|| {
                    armed_now.wait();
                    unarmed_done.wait();
                })
            });
            let unarmed = s.spawn(|| {
                armed_now.wait();
                let dir = fresh_dir("scoped-unarmed");
                let ok = durable_run(&dir, &series, &config).is_ok();
                // No panic before the second barrier: the armed thread
                // is waiting on it.
                let _ = std::fs::remove_dir_all(&dir);
                unarmed_done.wait();
                ok
            });
            (armed.join().unwrap(), unarmed.join().unwrap())
        });
        assert!(unarmed, "crash at op {k}: the unarmed run was faulted");
        assert_eq!(armed, alone, "crash at op {k}: the plan saw the other thread's I/O");
    }
}
