//! The engine wrapper: a [`CacheEngine`] around one shard's Nemo that
//! records a span around every call when tracing is on, and publishes
//! snapshots of the engine's counters and memory when asked.
//!
//! It is handed to `ShardedCacheBuilder::spawn` through the factory, so
//! it sits exactly where the shard worker calls the engine, and it wraps
//! only the `CacheEngine` trait: no device or engine internals.

use nemo_core::{Nemo, NemoReport};
use nemo_engine::{CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{Nanos, ZonedFlash};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One traced engine call, plus the background slices the worker ran
/// right after it (which delay the call's reply just the same).
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub key: u64,
    pub is_get: bool,
    /// Call start, ns since the run's epoch.
    pub start_ns: u64,
    /// Foreground call duration.
    pub fg_ns: u64,
    /// Background slices that followed the call.
    pub bg_ns: u64,
}

/// Nemo's own counters beyond [`EngineStats`], as cumulative totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct NemoCounters {
    pub flushes: u64,
    pub fill_rate_sum: f64,
    pub writeback_objects: u64,
    pub sacrificed_objects: u64,
    pub bloom_fp_reads: u64,
    pub stale_version_reads: u64,
    pub forced_scan_finishes: u64,
    pub pbfg_cache_hits: u64,
    pub pbfg_cache_misses: u64,
}

impl NemoCounters {
    fn of(r: &NemoReport) -> Self {
        Self {
            flushes: r.fill_rates.len() as u64,
            fill_rate_sum: r.fill_rates.iter().sum(),
            writeback_objects: r.writeback_objects,
            sacrificed_objects: r.sacrificed_objects,
            bloom_fp_reads: r.bloom_fp_reads,
            stale_version_reads: r.stale_version_reads,
            forced_scan_finishes: r.forced_scan_finishes,
            pbfg_cache_hits: r.index.cache_hits,
            pbfg_cache_misses: r.index.cache_misses,
        }
    }

    /// `self + other`, for summing shards.
    pub fn merge(&self, o: &NemoCounters) -> NemoCounters {
        NemoCounters {
            flushes: self.flushes + o.flushes,
            fill_rate_sum: self.fill_rate_sum + o.fill_rate_sum,
            writeback_objects: self.writeback_objects + o.writeback_objects,
            sacrificed_objects: self.sacrificed_objects + o.sacrificed_objects,
            bloom_fp_reads: self.bloom_fp_reads + o.bloom_fp_reads,
            stale_version_reads: self.stale_version_reads + o.stale_version_reads,
            forced_scan_finishes: self.forced_scan_finishes + o.forced_scan_finishes,
            pbfg_cache_hits: self.pbfg_cache_hits + o.pbfg_cache_hits,
            pbfg_cache_misses: self.pbfg_cache_misses + o.pbfg_cache_misses,
        }
    }

    /// `self - earlier`, for a measured window.
    pub fn since(&self, e: &NemoCounters) -> NemoCounters {
        NemoCounters {
            flushes: self.flushes - e.flushes,
            fill_rate_sum: self.fill_rate_sum - e.fill_rate_sum,
            writeback_objects: self.writeback_objects - e.writeback_objects,
            sacrificed_objects: self.sacrificed_objects - e.sacrificed_objects,
            bloom_fp_reads: self.bloom_fp_reads - e.bloom_fp_reads,
            stale_version_reads: self.stale_version_reads - e.stale_version_reads,
            forced_scan_finishes: self.forced_scan_finishes - e.forced_scan_finishes,
            pbfg_cache_hits: self.pbfg_cache_hits - e.pbfg_cache_hits,
            pbfg_cache_misses: self.pbfg_cache_misses - e.pbfg_cache_misses,
        }
    }
}

/// Everything one shard (or, merged, the fleet) reports at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub stats: EngineStats,
    pub memory: MemoryBreakdown,
    pub nemo: NemoCounters,
    /// Per shard: `(logical bytes, flash bytes written)` after each
    /// flush so far.
    pub flush_marks: Vec<Vec<(u64, u64)>>,
}

impl Snapshot {
    /// The fleet view: counters summed, memory merged by component.
    pub fn merge_all(parts: &[Snapshot]) -> Snapshot {
        let mut out = Snapshot::default();
        for p in parts {
            out.stats = out.stats.merge(&p.stats);
            out.memory = out.memory.merge(&p.memory);
            out.nemo = out.nemo.merge(&p.nemo);
            out.flush_marks.extend(p.flush_marks.iter().cloned());
        }
        out
    }
}

/// State shared between the benchmark and every shard's probe.
#[derive(Debug)]
pub struct Hub {
    epoch: Instant,
    tracing: AtomicBool,
    snapshot_armed: AtomicBool,
    snapshots: Mutex<Vec<Option<Snapshot>>>,
}

impl Hub {
    pub fn new(epoch: Instant, shards: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            tracing: AtomicBool::new(false),
            snapshot_armed: AtomicBool::new(false),
            snapshots: Mutex::new(vec![None; shards]),
        })
    }

    /// Turns span recording on or off. The shard workers see the switch
    /// through their command channels' ordering, so a window between two
    /// quiescent points is traced exactly.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Takes a fleet snapshot: arms the probes, runs `read_stats` (which
    /// must make every shard call `CacheEngine::stats`, as
    /// `Server::engine_stats` does), and collects what each published.
    pub fn snapshot(&self, read_stats: impl FnOnce()) -> Vec<Snapshot> {
        self.snapshot_armed.store(true, Ordering::SeqCst);
        read_stats();
        self.snapshot_armed.store(false, Ordering::SeqCst);
        let mut slots = self.snapshots.lock().expect("snapshot slots poisoned");
        slots
            .iter_mut()
            .map(|s| s.take().expect("every shard published a snapshot"))
            .collect()
    }
}

/// The wrapper engine.
#[derive(Debug)]
pub struct Probe<D: ZonedFlash> {
    inner: Nemo<D>,
    shard: usize,
    hub: Arc<Hub>,
    spans: Vec<OpSpan>,
    /// `(logical bytes, flash bytes written)` right after each flush.
    flush_marks: Vec<(u64, u64)>,
}

impl<D: ZonedFlash + Send> Probe<D> {
    pub fn new(inner: Nemo<D>, shard: usize, hub: Arc<Hub>) -> Self {
        Self {
            inner,
            shard,
            hub,
            spans: Vec::new(),
            flush_marks: Vec::new(),
        }
    }

    /// The hub this probe reports to.
    pub fn hub(&self) -> &Hub {
        &self.hub
    }

    /// This shard's counters and memory right now.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            stats: self.inner.stats(),
            memory: self.inner.memory(),
            nemo: NemoCounters::of(&self.inner.report()),
            flush_marks: vec![self.flush_marks.clone()],
        }
    }

    /// Spans recorded so far, in call order.
    pub fn spans(&self) -> &[OpSpan] {
        &self.spans
    }

    /// Records a flush mark if the last call wrote to flash.
    fn mark_flush(&mut self) {
        let s = self.inner.stats();
        if self.flush_marks.last().map_or(0, |m| m.1) != s.flash_bytes_written {
            self.flush_marks
                .push((s.logical_bytes, s.flash_bytes_written));
        }
    }

    fn traced<T>(&mut self, key: u64, is_get: bool, call: impl FnOnce(&mut Nemo<D>) -> T) -> T {
        if !self.hub.tracing.load(Ordering::Relaxed) {
            return call(&mut self.inner);
        }
        let t0 = Instant::now();
        let out = call(&mut self.inner);
        let fg_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(OpSpan {
            key,
            is_get,
            start_ns: t0.duration_since(self.hub.epoch).as_nanos() as u64,
            fg_ns,
            bg_ns: 0,
        });
        out
    }
}

impl<D: ZonedFlash + Send> CacheEngine for Probe<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        self.traced(key, true, |e| e.try_get(key, now))
    }

    fn try_put(&mut self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        let out = self.traced(key, false, |e| e.try_put(key, size, now));
        self.mark_flush();
        out
    }

    fn stats(&self) -> EngineStats {
        if self.hub.snapshot_armed.load(Ordering::SeqCst) {
            let snap = self.snapshot();
            let stats = snap.stats;
            self.hub.snapshots.lock().expect("snapshot slots poisoned")[self.shard] = Some(snap);
            return stats;
        }
        self.inner.stats()
    }

    fn memory(&self) -> MemoryBreakdown {
        self.inner.memory()
    }

    fn drain(&mut self, now: Nanos) {
        self.inner.drain(now);
    }

    fn background_pending(&self) -> bool {
        self.inner.background_pending()
    }

    fn background_slice(&mut self, now: Nanos) {
        if !self.hub.tracing.load(Ordering::Relaxed) {
            return self.inner.background_slice(now);
        }
        let t0 = Instant::now();
        self.inner.background_slice(now);
        if let Some(span) = self.spans.last_mut() {
            span.bg_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}
