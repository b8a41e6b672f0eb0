//! Per-layer probes of the traced run: timed calls into the public
//! functions of `valmod-fft`, `valmod-mp` and `valmod-stream` on the
//! workload's own series, plus the machine-calibration row.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use valmod_core::ValmodConfig;
use valmod_fft::{sliding_dot_product_naive_into, SlidingDotPlan};
use valmod_mp::stomp::stomp_parallel_in;
use valmod_mp::{DistanceProfiler, WorkerPool};
use valmod_stream::{CheckpointStore, StreamingValmod};

use crate::report::Report;
use crate::stats::median;
use crate::trace::span;
use crate::{secs_since, THREADS};

/// Arithmetic operations per stage-1 cell, counted from the kernel's
/// per-cell expression tree in `valmod-core`: the dot recurrence
/// (multiply, subtract, fused multiply-add = 4), the correlation
/// (multiply, subtract, multiply, divide = 4) and the distance (subtract,
/// multiply, square root = 3). Clamps and compares are not counted.
pub const STAGE1_FLOPS_PER_CELL: f64 = 11.0;

/// Bytes the stage-1 kernel loads per cell: four `f64` lane loads (the
/// dropped and entering series values, and the column mean and standard
/// deviation) per cell of a register tile.
pub const STAGE1_BYTES_PER_CELL: f64 = 32.0;

/// Window length of the per-row probes.
pub const ROW_LENGTH: usize = 80;

/// Per-row costs of the sliding dot product and MASS on one series.
#[derive(Debug, Clone, Copy)]
pub struct RowCosts {
    /// `SlidingDotPlan::dot_into` per row, ms.
    pub sliding_dot_ms: f64,
    /// `sliding_dot_product_naive_into` per row, ms.
    pub naive_dot_ms: f64,
    /// `DistanceProfiler::self_profile_into` per row, ms.
    pub mass_row_ms: f64,
}

/// Times the per-row primitives on `rows` evenly spaced windows of
/// `series` at [`ROW_LENGTH`] (medians over rows).
///
/// # Panics
///
/// If the series is shorter than one window.
#[must_use]
pub fn row_costs(series: &[f64], rows: usize) -> RowCosts {
    let l = ROW_LENGTH;
    let m = series.len() - l + 1;
    let offsets: Vec<usize> = (0..rows).map(|r| r * (m - 1) / (rows - 1).max(1)).collect();
    let plan = {
        let _s = span("fft", "SlidingDotPlan::new");
        SlidingDotPlan::new(series)
    };
    let mut scratch = plan.scratch();
    let mut out = Vec::new();
    let mut sliding = Vec::with_capacity(rows);
    for &o in &offsets {
        let _s = span("fft", "SlidingDotPlan::dot_into");
        let t = Instant::now();
        plan.dot_into(&series[o..o + l], &mut scratch, &mut out);
        black_box(&out);
        sliding.push(secs_since(t) * 1e3);
    }
    let mut naive = Vec::with_capacity(rows);
    for &o in offsets.iter().take(rows.div_ceil(4)) {
        let _s = span("fft", "sliding_dot_product_naive_into");
        let t = Instant::now();
        sliding_dot_product_naive_into(&series[o..o + l], series, &mut out);
        black_box(&out);
        naive.push(secs_since(t) * 1e3);
    }
    let profiler = {
        let _s = span("mp", "DistanceProfiler::new");
        DistanceProfiler::new(series).expect("workload series are long enough for MASS")
    };
    let mut pscratch = profiler.scratch();
    let mut mass = Vec::with_capacity(rows);
    for &o in &offsets {
        let _s = span("mp", "DistanceProfiler::self_profile_into");
        let t = Instant::now();
        let p = profiler.self_profile_into(o, l, &mut pscratch).expect("offsets are in range");
        black_box(p);
        mass.push(secs_since(t) * 1e3);
    }
    RowCosts {
        sliding_dot_ms: median(&sliding),
        naive_dot_ms: median(&naive),
        mass_row_ms: median(&mass),
    }
}

/// Median cost of dispatching one empty 2-worker batch on `pool`, µs.
#[must_use]
pub fn pool_dispatch_us(pool: &WorkerPool) -> f64 {
    const BATCHES: u32 = 500;
    let mut per_batch = Vec::new();
    for _ in 0..9 {
        let _s = span("mp", "WorkerPool::run");
        let t = Instant::now();
        for _ in 0..BATCHES {
            black_box(pool.run(THREADS, black_box));
        }
        per_batch.push(secs_since(t) * 1e6 / f64::from(BATCHES));
    }
    median(&per_batch)
}

/// Wall time of one parallel STOMP at `l` over `series`, s.
///
/// # Panics
///
/// If the series is shorter than one window.
#[must_use]
pub fn stomp_s(series: &[f64], l: usize, pool: &WorkerPool) -> f64 {
    let excl = ValmodConfig::new(l, l).exclusion(l);
    let _s = span("mp", "stomp_parallel_in");
    let t = Instant::now();
    let mp = stomp_parallel_in(series, l, excl, THREADS, pool).expect("valid STOMP window");
    black_box(&mp);
    secs_since(t)
}

/// The streaming engine's bootstrap and durability costs on one series.
#[derive(Debug, Clone, Copy)]
pub struct EngineCosts {
    /// `StreamingValmod::new`, s.
    pub bootstrap_s: f64,
    /// `CheckpointStore::checkpoint` (serialize, write, fsync), ms.
    pub checkpoint_ms: f64,
    /// Size of one checkpoint image, bytes.
    pub checkpoint_bytes: f64,
    /// `StreamingValmod::restore_from_bytes`, ms.
    pub restore_ms: f64,
}

/// Bootstraps a streaming engine on `initial`, then checkpoints it into a
/// store under `dir` and restores it from its image (medians of five),
/// checking that the restored engine re-serializes to the same bytes.
pub fn engine_costs(
    report: &mut Report,
    initial: &[f64],
    config: &ValmodConfig,
    dir: &std::path::Path,
) -> EngineCosts {
    let t = Instant::now();
    let engine = {
        let _s = span("stream", "StreamingValmod::new");
        StreamingValmod::new(initial, config.clone()).expect("valid bootstrap")
    };
    let bootstrap_s = secs_since(t);
    let mut store = CheckpointStore::open(dir).expect("checkpoint directory is writable");
    let mut checkpoint = Vec::new();
    for _ in 0..5 {
        let _s = span("stream", "CheckpointStore::checkpoint");
        let t = Instant::now();
        store.checkpoint(&engine).expect("checkpoint is written");
        checkpoint.push(secs_since(t) * 1e3);
    }
    let mut image = Vec::new();
    engine.checkpoint_to(&mut image).expect("in-memory image");
    let mut restore = Vec::new();
    let mut restored = None;
    for _ in 0..5 {
        let _s = span("stream", "StreamingValmod::restore_from_bytes");
        let t = Instant::now();
        restored =
            Some(StreamingValmod::restore_from_bytes(&image, config).expect("own image restores"));
        restore.push(secs_since(t) * 1e3);
    }
    let mut reimage = Vec::new();
    restored.expect("five restores ran").checkpoint_to(&mut reimage).expect("in-memory image");
    report.check(reimage == image, || "checkpoint round trip is not bit-identical".to_string());
    #[allow(clippy::cast_precision_loss)]
    let checkpoint_bytes = image.len() as f64;
    EngineCosts {
        bootstrap_s,
        checkpoint_ms: median(&checkpoint),
        checkpoint_bytes,
        restore_ms: median(&restore),
    }
}

/// The machine-calibration row, measured on [`THREADS`] workers at once.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Fused multiply-add throughput, GFLOP/s (2 flops per lane op).
    pub fma_gflops: f64,
    /// Copy bandwidth (bytes read plus bytes written), GB/s.
    pub copy_gbs: f64,
    /// Bytes of the copy arrays (source plus destination, all workers).
    pub copy_bytes: usize,
}

/// Bytes of each worker's copy source (its destination is the same).
const COPY_BYTES_PER_ARRAY: usize = 32 << 20;

/// Measures the calibration row: independent FMA chains at the widest
/// lane width the CPU offers, and a large `copy_from_slice` loop.
#[must_use]
pub fn calibrate(pool: &Arc<WorkerPool>) -> Calibration {
    const ITERS: u64 = 20_000_000;
    let flops = {
        let _s = span("calib", "fma_chain");
        let t = Instant::now();
        let per_worker = pool.run(THREADS, |_| fma_chain_flops(ITERS));
        per_worker.iter().sum::<f64>() / secs_since(t)
    };
    let n = COPY_BYTES_PER_ARRAY / 8;
    let copy = {
        const REPS: usize = 8;
        let _s = span("calib", "copy");
        // Each worker fills its own arrays and faults in the destination
        // with one untimed copy, then times its copies; the slowest worker
        // bounds the total.
        let secs = pool.run(THREADS, |w| {
            let src: Vec<f64> = (0..n).map(|i| (i + w) as f64).collect();
            let mut dst = src.clone();
            let t = Instant::now();
            for _ in 0..REPS {
                dst.copy_from_slice(black_box(&src));
                black_box(&dst);
            }
            secs_since(t)
        });
        #[allow(clippy::cast_precision_loss)]
        let moved = (2 * COPY_BYTES_PER_ARRAY * REPS * THREADS) as f64;
        moved / secs.into_iter().fold(0.0, f64::max)
    };
    Calibration {
        fma_gflops: flops / 1e9,
        copy_gbs: copy / 1e9,
        copy_bytes: 2 * COPY_BYTES_PER_ARRAY * THREADS,
    }
}

/// Runs eight independent FMA chains for `iters` steps at the widest
/// available lane width; returns the flops performed.
fn fma_chain_flops(iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(b) = valmod_fft::simd::Avx512::new() {
        // SAFETY: the `Avx512` token is only constructed after runtime
        // detection of AVX-512 F/DQ/VL, AVX2 and FMA.
        let sum = unsafe { fma_avx512(b, iters) };
        black_box(sum);
        #[allow(clippy::cast_precision_loss)]
        return iters as f64 * 8.0 * 8.0 * 2.0;
    }
    let sum = fma_chain::<4, _>(valmod_fft::simd::Portable, iters);
    black_box(sum);
    #[allow(clippy::cast_precision_loss)]
    {
        iters as f64 * 8.0 * 4.0 * 2.0
    }
}

/// The AVX-512 instantiation of [`fma_chain`].
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn fma_avx512(b: valmod_fft::simd::Avx512, iters: u64) -> f64 {
    fma_chain::<8, _>(b, iters)
}

#[inline(always)]
fn fma_chain<const W: usize, B: valmod_fft::simd::F64Lanes<W>>(b: B, iters: u64) -> f64 {
    let x = b.splat(black_box(0.999_999));
    let y = b.splat(black_box(1e-6));
    let mut acc = [b.splat(1.0); 8];
    for _ in 0..iters {
        for a in &mut acc {
            *a = b.mul_add(*a, x, y);
        }
    }
    acc.iter().map(|&a| b.to_array(a).iter().sum::<f64>()).sum()
}

/// Size of the last-level cache the machine reports, bytes.
#[must_use]
pub fn llc_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let text = text.trim();
    let (num, mult) = match text.strip_suffix('K') {
        Some(k) => (k, 1024),
        None => match text.strip_suffix('M') {
            Some(m) => (m, 1 << 20),
            None => (text, 1),
        },
    };
    num.parse::<usize>().ok().map(|v| v * mult)
}
