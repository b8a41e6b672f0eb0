//! Test support shared by the in-crate kernel tests and the
//! `kernel_differential` integration harness (hence `#[doc(hidden)]
//! pub`): lane-level enumeration and forcing, byte-level stage-1
//! snapshots, and the end-to-end output checksum.
//!
//! Not a public API — no stability guarantees.

use valmod_fft::simd::{self, LaneWidth, SimdLevel, SimdOverride, SimdOverrideGuard};
use valmod_mp::stomp::StompEngine;

use crate::algo::ValmodOutput;
use crate::kernel;

/// Every kernel variant worth differencing in this process: both
/// portable widths plus whichever packed levels the CPU offers —
/// restricted by the env knobs, so CI's `VALMOD_FORCE_PORTABLE=1` /
/// `VALMOD_FORCE_WIDTH=4` matrix legs exercise exactly the lanes they
/// name (the env wins over [`force_level`]'s override, making the other
/// levels unreachable through dispatch anyway).
#[must_use]
pub fn test_levels() -> Vec<SimdLevel> {
    let forced_w = simd::env_force_width();
    let mut levels = Vec::new();
    if forced_w != Some(LaneWidth::W8) {
        levels.push(SimdLevel::Portable4);
    }
    if forced_w != Some(LaneWidth::W4) {
        levels.push(SimdLevel::Portable8);
    }
    if !simd::env_force_portable() {
        if simd::avx2_available() && forced_w != Some(LaneWidth::W8) {
            levels.push(SimdLevel::Avx2);
        }
        if simd::avx512_available() && forced_w != Some(LaneWidth::W4) {
            levels.push(SimdLevel::Avx512);
        }
    }
    levels
}

/// Forces every dispatch site in the process to `level` for the guard's
/// lifetime (serialized across threads — the guard holds the override
/// lock). Levels from [`test_levels`] resolve exactly; a packed level the
/// CPU lacks degrades to the portable stand-in of the same width, and the
/// env knobs still win, exactly like production dispatch.
#[must_use]
pub fn force_level(level: SimdLevel) -> SimdOverrideGuard {
    let o = match level {
        SimdLevel::Portable4 => SimdOverride { portable: true, width: Some(LaneWidth::W4) },
        SimdLevel::Portable8 => SimdOverride { portable: true, width: Some(LaneWidth::W8) },
        SimdLevel::Avx2 => SimdOverride { portable: false, width: Some(LaneWidth::W4) },
        SimdLevel::Avx512 => SimdOverride { portable: false, width: Some(LaneWidth::W8) },
    };
    simd::override_simd(o)
}

/// One merged stage-1 row, down to the bits: best distance bits, best
/// neighbor offset, the selector's truncation flag (a function of the
/// *exact* offered count — this is what pins the prefilter's bookkeeping),
/// and the kept entries as `(offset, ρ bits, qt bits)` in the canonical
/// "(ρ desc, offset asc)" order.
pub type RowSnapshot = (u64, u32, bool, Vec<(u32, u64, u64)>);

/// Runs the stage-1 kernel at `level` across `num_workers` partitions and
/// merges them exactly as `stage_one` does, returning the byte-level
/// per-row state. Two snapshots compare equal iff the merged stage-1
/// results are bit-for-bit identical.
///
/// # Panics
///
/// Panics when the engine rejects the series (too short, non-finite) or
/// the series has flat windows at `l` — those take the scalar
/// distance-space walk in production and are differenced end-to-end via
/// [`output_checksum`] instead.
#[must_use]
pub fn stage1_snapshot(
    series: &[f64],
    l: usize,
    first_diag: usize,
    num_workers: usize,
    profile_size: usize,
    level: SimdLevel,
) -> Vec<RowSnapshot> {
    let engine = StompEngine::new(series, l).expect("snapshot series must be valid");
    assert!(
        !engine.has_flat_windows(),
        "flat windows bypass the kernel; difference them via output_checksum"
    );
    let mut parts = (0..num_workers)
        .map(|w| kernel::stage1_walk(&engine, first_diag, w, num_workers, profile_size, level));
    let mut merged = parts.next().expect("at least one worker");
    for part in parts {
        merged.absorb(&part);
    }
    part_snapshot(merged, l)
}

/// The byte-level per-row state of one (merged) stage-1 part, consumed.
pub(crate) fn part_snapshot(part: kernel::Stage1Part, base_len: usize) -> Vec<RowSnapshot> {
    part.selectors
        .into_iter()
        .zip(part.best_d.into_iter().zip(part.best_j))
        .map(|(selector, (d, j))| {
            let row = selector.into_row(base_len);
            let entries =
                row.entries.iter().map(|e| (e.j, e.rho_base.to_bits(), e.qt.to_bits())).collect();
            (d.to_bits(), j, row.truncated, entries)
        })
        .collect()
}

/// Whether the series has a flat (σ ≈ 0) window at `l` — or is rejected
/// by the engine outright. Such series bypass the stage-1 kernel in
/// production, so the harness differences them end-to-end instead of via
/// [`stage1_snapshot`].
#[must_use]
pub fn has_flat_windows(series: &[f64], l: usize) -> bool {
    StompEngine::new(series, l).map(|e| e.has_flat_windows()).unwrap_or(true)
}

/// The bench suite's FNV-1a checksum over the best pair of every length —
/// the end-to-end fingerprint two runs must share to count as
/// bit-identical.
#[must_use]
pub fn output_checksum(out: &ValmodOutput) -> u64 {
    out.best_per_length().into_iter().flatten().fold(0xcbf2_9ce4_8422_2325u64, |acc, p| {
        [p.a as u64, p.b as u64, p.length as u64]
            .into_iter()
            .fold(acc, |a, v| (a ^ v).wrapping_mul(0x1000_0000_01b3))
    })
}
