//! Queue-depth sweep on the real-I/O backend: how much wall-clock
//! throughput the completion-based read path buys.
//!
//! # What this experiment shows
//!
//! Nemo's get path reads a *wave* of candidate set pages per lookup.
//! Each wave is one submitted batch at `NemoConfig::io_queue_depth`.
//! At depth 0, the default, `RealFlash` reads the wave inline as one
//! chained sequence of `pread` calls; at a positive depth it services
//! the batch with up to `queue_depth` overlapped reads. This sweep ages
//! a file-backed `RealFlash` pool to steady state, then replays a
//! read-heavy measured window at queue depths 1, 2, 4, 8 and 16 next
//! to the sequential depth-0 baseline, printing the measured
//! read-latency CDF and the sustained request rate per depth.
//!
//! Two properties are asserted:
//!
//! - **Behaviour is depth-invariant**: hit ratio, ALWA/DLWA bytes and
//!   device op counts are identical at every depth — the queue depth
//!   may change wall-clock time, never outcomes.
//! - **Overlap pays** (full runs only; `--smoke` prints without
//!   asserting): some queue depth ≥ 4 sustains at least 1.5× the
//!   sequential path's req/s.
//!
//! The wave width is uncapped here (`disable_read_staging`) so lookups
//! actually produce multi-page batches — with the default width of 1
//! there is nothing to overlap and every depth degenerates to the
//! sequential schedule.
//!
//! # Why the measured window injects device time
//!
//! The file images live in the page cache, where a `pread` is a ~1 µs
//! memcpy — there is no medium time for overlap to win back, so at that
//! scale thread handoff can only lose. Real NAND reads take tens of
//! microseconds waiting off-CPU, and *that* is the serialized cost the
//! async path is built to overlap. The sweep therefore ages the pool at
//! raw page-cache speed and then measures with
//! `RealFlashOptions::emulated_read_latency` injecting
//! [`EMULATED_READ_US`] µs of slept device time per page read (the
//! same trick as `null_blk` completion-latency injection, matching the
//! model's 70 µs reference page read). The sequential chain pays it
//! per page; the submit/poll pool overlaps the sleeps across workers,
//! exactly like DMA against real dies. Pointing `NEMO_DEV_DIR` at a
//! real SSD and dropping the emulation measures the genuine article.

use crate::common::{f2, f3, print_table, write_csv, RunScale};
use crate::device_validation::device_dir;
use nemo_core::Nemo;
use nemo_engine::CacheEngine;
use nemo_flash::{Nanos, RealFlash, RealFlashOptions};
use nemo_metrics::LatencyHistogram;
use nemo_trace::RequestKind;
use std::time::{Duration, Instant};

/// Queue depths swept; 0 is the sequential (inline, chained) baseline.
const DEPTHS: [u32; 6] = [0, 1, 2, 4, 8, 16];

/// Emulated NAND time per page read during the measured window, in µs
/// — the latency model's reference page read, so the measured sweep
/// and the modeled timeline describe the same device.
pub const EMULATED_READ_US: u64 = 70;

/// One depth's aged-pool replay outcome.
struct DepthRun {
    depth: u32,
    req_per_sec: f64,
    latency: LatencyHistogram,
    stats: nemo_engine::EngineStats,
}

fn run_depth(scale: &RunScale, depth: u32, age_ops: u64, measure_ops: u64) -> DepthRun {
    let mut cfg = scale.nemo_config();
    // Uncapped waves: the whole candidate list is one submitted batch.
    // The supersede filter is off for the same reason staging is — the
    // sweep measures the legacy burst path, whose wide waves are what
    // the overlap machinery exists for (the staging/stale-filter work
    // flattened them for the default config).
    cfg.disable_read_staging();
    cfg.enable_stale_filter = false;
    cfg.io_queue_depth = depth;
    let dir = device_dir();
    std::fs::create_dir_all(&dir).expect("device dir");
    let path = dir.join(format!("qd{depth}.img"));
    std::fs::remove_file(&path).ok();
    let dev = RealFlash::create(cfg.geometry, &path, RealFlashOptions::default())
        .expect("create real device");
    let mut engine = Nemo::with_device(cfg, dev);
    let mut trace = scale.merged_trace();

    // Age the pool: demand-fill until the cache has turned over and
    // steady-state eviction is engaged. Identical at every depth, and
    // run at raw page-cache speed — no device time injected yet.
    for _ in 0..age_ops {
        let r = trace.next_request();
        match r.kind {
            RequestKind::Get => {
                if !engine.get(r.key, Nanos::ZERO).hit {
                    engine.put(r.key, r.size, Nanos::ZERO);
                }
            }
            RequestKind::Put => {
                engine.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }

    // Measured window: same read-heavy trace, wall-clocked, with
    // emulated NAND time on every page read (see the module docs). Each
    // get is issued at virtual time zero, so its completion time *is*
    // the measured read latency on this backend.
    engine
        .device_mut()
        .set_emulated_read_latency(Some(Duration::from_micros(EMULATED_READ_US)));
    let mut latency = LatencyHistogram::new();
    let wall = Instant::now();
    for _ in 0..measure_ops {
        let r = trace.next_request();
        match r.kind {
            RequestKind::Get => {
                let out = engine.get(r.key, Nanos::ZERO);
                latency.record(out.done_at.0);
                if !out.hit {
                    engine.put(r.key, r.size, Nanos::ZERO);
                }
            }
            RequestKind::Put => {
                engine.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    engine.device_mut().set_emulated_read_latency(None);
    engine.drain(Nanos::ZERO);
    std::fs::remove_file(&path).ok();
    DepthRun {
        depth,
        req_per_sec: measure_ops as f64 / elapsed.max(1e-9),
        latency,
        stats: engine.stats(),
    }
}

/// Sweeps the submit/poll queue depth on a file-backed `RealFlash` pool
/// aged to steady state, printing measured read-latency CDFs and
/// sustained req/s per depth.
///
/// # Panics
///
/// Panics if behaviour (hit ratio, WA bytes, device op counts) differs
/// across depths, or — in full (non-`--smoke`) runs — if no queue depth
/// ≥ 4 reaches 1.5× the sequential path's sustained req/s.
pub fn qd_sweep(scale: RunScale, smoke: bool) {
    println!("\n### Queue-depth sweep — overlapped async reads on the real-I/O backend");
    println!("device images: {}", device_dir().display());
    println!(
        "emulated NAND read time: {EMULATED_READ_US}us/page during the measured window \
         (page-cache images have no medium; see the module docs)"
    );
    let age_ops = scale.ops_for_fills(1.25);
    // The measured window pays ~EMULATED_READ_US per page read, so cap
    // it: 20k ops keeps the full sweep in seconds per depth while still
    // averaging thousands of flash reads per percentile.
    let measure_ops = (age_ops / 4).clamp(2_000, 20_000);
    let runs: Vec<DepthRun> = DEPTHS
        .iter()
        .map(|&d| run_depth(&scale, d, age_ops, measure_ops))
        .collect();

    // --- behaviour is depth-invariant -----------------------------------
    let base = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            (base.stats.gets, base.stats.hits),
            (run.stats.gets, run.stats.hits),
            "hit ratio must be identical at queue depth {}",
            run.depth
        );
        assert_eq!(
            (
                base.stats.logical_bytes,
                base.stats.flash_bytes_written,
                base.stats.nand_bytes_written
            ),
            (
                run.stats.logical_bytes,
                run.stats.flash_bytes_written,
                run.stats.nand_bytes_written
            ),
            "ALWA/DLWA bytes must be identical at queue depth {}",
            run.depth
        );
        assert_eq!(
            (
                base.stats.device.pages_read,
                base.stats.device.read_ops,
                base.stats.device.pages_written
            ),
            (
                run.stats.device.pages_read,
                run.stats.device.read_ops,
                run.stats.device.pages_written
            ),
            "device op counts must be identical at queue depth {}",
            run.depth
        );
    }
    println!(
        "parity: PASS — hit ratio {:.4}, ALWA {:.3} identical at all {} depths",
        1.0 - base.stats.miss_ratio(),
        base.stats.alwa(),
        runs.len()
    );

    // --- per-depth throughput and measured latency ----------------------
    let headers = [
        "queue depth",
        "req/s",
        "speedup",
        "read p50 (us)",
        "read p90 (us)",
        "read p99 (us)",
        "avg submit (us)",
        "inflight hwm",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let d = &run.stats.device;
            let avg_submit_us = if d.async_reads == 0 {
                "-".to_string()
            } else {
                f2(d.submit_lat_total.0 as f64 / d.async_reads as f64 / 1000.0)
            };
            vec![
                if run.depth == 0 {
                    "0 (sequential)".to_string()
                } else {
                    run.depth.to_string()
                },
                format!("{:.0}", run.req_per_sec),
                f2(run.req_per_sec / base.req_per_sec),
                f2(run.latency.p50() as f64 / 1000.0),
                f2(run.latency.percentile(0.90) as f64 / 1000.0),
                f2(run.latency.p99() as f64 / 1000.0),
                avg_submit_us,
                d.inflight_hwm.to_string(),
            ]
        })
        .collect();
    print_table("queue-depth sweep (measured, wall clock)", &headers, &rows);
    write_csv("qd_sweep", &headers, &rows);

    let best = runs
        .iter()
        .filter(|r| r.depth >= 4)
        .map(|r| r.req_per_sec)
        .fold(0.0f64, f64::max);
    let speedup = best / base.req_per_sec;
    println!(
        "\n   best deep-queue rate: {:.0} req/s vs {:.0} sequential — {}x",
        best,
        base.req_per_sec,
        f3(speedup)
    );
    if smoke {
        println!("   (smoke run: speedup printed, not asserted)");
    } else {
        assert!(
            speedup >= 1.5,
            "no queue depth >= 4 sustained 1.5x the sequential req/s (best {speedup:.2}x)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_parity_holds() {
        // The sweep asserts depth-invariant behaviour internally; smoke
        // mode skips the wall-clock speedup assertion, which a loaded
        // test host cannot promise.
        let scale = RunScale {
            flash_mb: 8,
            ops_mult: 0.02,
            dies: 8,
        };
        qd_sweep(scale, true);
    }
}
