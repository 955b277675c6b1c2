//! Workload definitions: the request mixes, the cache configuration
//! they run against, and the scale of a run.

use crate::client::Op;
use nemo_core::NemoConfig;
use nemo_flash::Geometry;
use nemo_trace::{
    ClusterProfile, RequestKind, SyntheticInsertTrace, TraceConfig, TraceGenerator, TwitterCluster,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop over loopback: the merged Twitter-like trace.
    WireZipf,
    /// Open loop over loopback: mostly sets of never-seen keys.
    WireChurn,
    /// Closed loop straight into one engine on modeled flash.
    EngineZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WireZipf,
        Workload::WireChurn,
        Workload::EngineZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireZipf => "wire-zipf",
            Workload::WireChurn => "wire-churn",
            Workload::EngineZipf => "engine-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Offered rates of one workload, requests per second.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// The nominal rate: latency and the counter window.
    pub nominal: f64,
    /// Further fixed rates tried for `rps_at_slo`.
    pub ladder: [f64; 2],
}

/// Sizes, rates and time split of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Flash per wire shard, MB.
    pub wire_flash_mb: u32,
    /// Flash of engine-zipf's one engine, MB.
    pub engine_flash_mb: u32,
    /// Key catalog as a multiple of the flash it runs against.
    pub catalog_mult: f64,
    /// Pre-fill volume as a multiple of flash capacity.
    pub prefill_mult: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub wire_zipf: Rates,
    pub wire_churn: Rates,
}

/// Share of `--seconds` an untraced wire run spends in its nominal step.
pub const NOMINAL_SHARE: f64 = 0.7;
/// Share of `--seconds` each wire ladder step takes.
pub const LADDER_STEP_SHARE: f64 = 0.15;

impl Scale {
    /// The scale the benchmark runs at.
    pub fn full() -> Self {
        Self {
            wire_flash_mb: 16,
            engine_flash_mb: 64,
            catalog_mult: 6.0,
            prefill_mult: 1.5,
            setup_reps: 5,
            wire_zipf: Rates {
                nominal: 10_000.0,
                ladder: [20_000.0, 40_000.0],
            },
            wire_churn: Rates {
                nominal: 4_000.0,
                ladder: [2_000.0, 8_000.0],
            },
        }
    }

    /// A toy scale for self-tests: every code path in a few seconds.
    pub fn toy() -> Self {
        Self {
            wire_flash_mb: 8,
            engine_flash_mb: 8,
            catalog_mult: 6.0,
            prefill_mult: 0.5,
            setup_reps: 2,
            wire_zipf: Rates {
                nominal: 2_000.0,
                ladder: [1_000.0, 4_000.0],
            },
            wire_churn: Rates {
                nominal: 2_000.0,
                ladder: [1_000.0, 4_000.0],
            },
        }
    }

    /// The rates of a wire workload.
    pub fn rates(&self, w: Workload) -> Rates {
        match w {
            Workload::WireChurn => self.wire_churn,
            _ => self.wire_zipf,
        }
    }
}

/// Nemo as the latency experiments configure it: 4 KB pages, 1 MB zones
/// (one SG each), 64 dies, flushing threshold and filter sizing scaled to
/// the 256-set SG, and the eviction scan deferred into background slices.
pub fn nemo_config(flash_mb: u32) -> NemoConfig {
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, flash_mb, 64));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg.background_eviction = true;
    cfg
}

/// The merged Twitter-like trace with a key catalog of `catalog_bytes`.
pub fn merged_trace(catalog_bytes: f64, seed: u64) -> TraceGenerator {
    let clusters: f64 = TwitterCluster::ALL
        .iter()
        .map(|&c| ClusterProfile::twitter(c).wss_bytes as f64)
        .sum();
    let mut cfg = TraceConfig::twitter_merged(1.0);
    cfg.scale = catalog_bytes / (clusters * f64::from(cfg.key_spaces));
    cfg.seed = seed;
    TraceGenerator::new(cfg)
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The connection a key is pinned to.
pub fn conn_of(key: u64, conns: usize) -> usize {
    (mix64(key ^ 0x5EED) % conns as u64) as usize
}

/// Set value length that makes the engine-visible size (key bytes +
/// value bytes) equal the trace's object size.
pub fn value_len(key: u64, size: u32) -> u32 {
    let key_len = crate::check::wire_key(key).len() as u32;
    size.saturating_sub(key_len).max(1)
}

/// Share of wire-churn requests that set a never-seen key.
pub const CHURN_SET_SHARE: f64 = 0.75;

/// A seeded request stream.
#[derive(Debug)]
pub struct Mix {
    trace: TraceGenerator,
    /// `Some` for wire-churn: new keys and the coin that picks them.
    churn: Option<(SyntheticInsertTrace, u64)>,
}

impl Mix {
    pub fn new(w: Workload, catalog_bytes: f64, seed: u64) -> Self {
        Self {
            trace: merged_trace(catalog_bytes, seed),
            churn: (w == Workload::WireChurn).then(|| {
                (
                    SyntheticInsertTrace::paper_synthetic(seed),
                    mix64(seed ^ 0xC0FFEE),
                )
            }),
        }
    }

    /// The next `(key, object size, op)`.
    pub fn draw(&mut self) -> (u64, u32, Op) {
        if let Some((inserts, coin)) = &mut self.churn {
            *coin = coin.wrapping_add(0x9E37_79B9_7F4A_7C15);
            if (mix64(*coin) >> 11) as f64 / (1u64 << 53) as f64 <= CHURN_SET_SHARE {
                let r = inserts.next().expect("the insert stream is endless");
                return (r.key, r.size, Op::Set);
            }
            let r = self.trace.next_request();
            return (r.key, r.size, Op::Get);
        }
        let r = self.trace.next_request();
        let op = match r.kind {
            RequestKind::Get => Op::Get,
            RequestKind::Put => Op::Set,
        };
        (r.key, r.size, op)
    }

    /// Keys and sizes drawn from the merged trace until `bytes` are
    /// covered: the pre-fill.
    pub fn prefill(&mut self, bytes: f64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut total = 0.0;
        while total < bytes {
            let r = self.trace.next_request();
            total += f64::from(r.size);
            out.push((r.key, r.size));
        }
        out
    }
}
