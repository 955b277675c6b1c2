//! The repository benchmark: end-to-end and per-layer metrics of the Nemo
//! cache on three workloads.
//!
//! - `wire-zipf`: open loop over loopback memcached-text, merged
//!   Twitter-like trace, 2 shards on `RealFlash` images.
//! - `wire-churn`: the same stack, mostly sets of never-seen keys.
//! - `engine-zipf`: closed loop straight into one Nemo on modeled flash.
//!
//! A run with tracing off reports the end-to-end metrics
//! ([`END_TO_END`]); a separate traced run reports the per-layer ones
//! ([`PER_LAYER`]). See `README.md` for what each metric means and which
//! end-to-end metric each layer should move.

pub mod check;
pub mod client;
pub mod engine;
pub mod layers;
pub mod probe;
pub mod stats;
mod sys;
pub mod wire;
pub mod workload;

use stats::Outcome;
use std::io;
use std::path::PathBuf;
use workload::{Scale, Workload};

/// End-to-end metrics `(name, unit)` with a regression bound, in the
/// result of every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("miss_ratio", "ratio"),
    ("alwa", "ratio"),
    ("dram_bits_per_object", "bits"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics every untraced run prints where they apply, but
/// without a bound: wire latency on a shared host swings several-fold
/// between runs, and throughput follows the host's speed, which drifts
/// by a quarter within minutes (README.md has the measured spreads).
/// The error ratios must stay 0, which the result's `correct` already
/// checks.
pub const REPORTED: [(&str, &str); 8] = [
    ("ops_per_s", "op/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("set_p99_us", "us"),
    ("rps_at_slo", "req/s"),
    ("model_get_p99_us", "us"),
    ("error_ratio", "ratio"),
    ("value_mismatch_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("gen.lateness_p99_us", "us"),
    ("gen.backlog_end", "count"),
    ("gen.io_us_per_op", "us"),
    ("proto.parse_ns_per_cmd", "ns"),
    ("proto.bytes_per_op", "B"),
    ("proto.meta_entries", "count"),
    ("proto.protocol_errors", "count"),
    ("proto.server_errors", "count"),
    ("service.non_engine_us_p50", "us"),
    ("service.non_engine_us_p99", "us"),
    ("service.non_engine_share", "ratio"),
    ("service.shard_get_imbalance", "ratio"),
    ("core.get_us_p50", "us"),
    ("core.get_us_p99", "us"),
    ("core.put_us_p50", "us"),
    ("core.put_us_p99", "us"),
    ("core.self_us_per_op", "us"),
    ("core.bg_busy_share", "ratio"),
    ("core.model_get_p99_us", "us"),
    ("core.candidate_reads_per_get", "1/get"),
    ("core.candidate_read_yield", "ratio"),
    ("core.pbfg_cache_miss_ratio", "ratio"),
    ("core.sg_fill_rate", "ratio"),
    ("core.writeback_per_flush", "count"),
    ("core.sacrificed_per_flush", "count"),
    ("core.forced_scan_finishes", "count"),
    ("core.fault_induced_misses", "count"),
    ("bloom.fp_reads_per_get", "1/get"),
    ("flash.busy_us_per_op", "us"),
    ("flash.model_busy_us_per_op", "us"),
    ("flash.pages_read_per_get", "1/get"),
    ("flash.pages_written_per_put", "1/put"),
    ("flash.zone_resets_per_mop", "1/Mop"),
    ("flash.read_errors", "count"),
    ("flash.write_errors", "count"),
    ("flash.superblock_syncs", "count"),
    ("check.value_mismatch_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.unmatched", "count"),
];

/// Where runs keep device images and write spans: `.perfbench` under the
/// working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Runs one workload once. The result's metrics are exactly those of
/// [`END_TO_END`] (or [`PER_LAYER`] when `trace`), in that order; the
/// [`REPORTED`] ones that apply go to [`Outcome::reported`].
pub fn run(
    w: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> io::Result<Outcome> {
    let mut out = match w {
        Workload::WireZipf | Workload::WireChurn => wire::run(w, scale, seed, seconds, trace)?,
        Workload::EngineZipf => engine::run(scale, seed, seconds, trace)?,
    };
    let measured = std::mem::take(&mut out.metrics);
    let find = |name: &str, unit: &str| {
        let m = measured.iter().find(|m| m.name == name)?;
        assert_eq!(m.unit, unit, "unit of {name}");
        Some(m.clone())
    };
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in list {
        let m = match find(name, unit) {
            Some(m) => m,
            // A layer with no work on this workload.
            None if trace => stats::Metric {
                name,
                unit,
                value: 0.0,
            },
            None => panic!("end-to-end metric {name} was not measured"),
        };
        out.metrics.push(m);
    }
    if !trace {
        out.reported = REPORTED.iter().filter_map(|&(n, u)| find(n, u)).collect();
    }
    let declared = |m: &stats::Metric| list.iter().chain(&REPORTED).any(|&(n, _)| n == m.name);
    assert!(
        measured.iter().all(declared),
        "every measured metric is declared"
    );
    Ok(out)
}
