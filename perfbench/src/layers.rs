//! Per-layer metrics of a traced run: counter deltas over the traced
//! window, span self times, and the spans written out at the end.

use crate::client::{Sent, StepStats};
use crate::probe::{NemoCounters, OpSpan, Snapshot};
use crate::stats::{ratio, Outcome, Samples};
use crate::workload::Workload;
use nemo_engine::{CacheEngine, EngineStats};
use nemo_proto::{parse_command, Limits, ParseOutcome, ServerReport};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// Counter deltas between two fleet snapshots.
#[derive(Debug)]
pub struct Window {
    pub d: EngineStats,
    pub n: NemoCounters,
    /// Application-level write amplification over the window.
    pub alwa: f64,
}

impl Window {
    pub fn new(before: &Snapshot, after: &Snapshot) -> Self {
        let (a, b) = (&after.stats, &before.stats);
        let d = EngineStats {
            gets: a.gets - b.gets,
            hits: a.hits - b.hits,
            puts: a.puts - b.puts,
            logical_bytes: a.logical_bytes - b.logical_bytes,
            flash_bytes_written: a.flash_bytes_written - b.flash_bytes_written,
            nand_bytes_written: a.nand_bytes_written - b.nand_bytes_written,
            flash_bytes_read: a.flash_bytes_read - b.flash_bytes_read,
            candidate_reads: a.candidate_reads - b.candidate_reads,
            evicted_objects: a.evicted_objects - b.evicted_objects,
            objects_on_flash: a.objects_on_flash,
            device_retries: a.device_retries - b.device_retries,
            quarantined_zones: a.quarantined_zones - b.quarantined_zones,
            fault_induced_misses: a.fault_induced_misses - b.fault_induced_misses,
            device: a.device.delta(&b.device),
        };
        // Flash is written a whole SG at a time, so a plain delta swings
        // by up to one SG per shard with where the window's ends fall.
        // Measuring each shard between its first and last flush inside
        // the window compares like states (an SG just sealed) instead.
        let (mut flash, mut logical) = (0, 0);
        for (b, a) in before.flush_marks.iter().zip(&after.flush_marks) {
            if let [first, .., last] = &a[b.len()..] {
                logical += last.0 - first.0;
                flash += last.1 - first.1;
            }
        }
        if logical == 0 {
            (flash, logical) = (d.flash_bytes_written, d.logical_bytes);
        }
        Self {
            d,
            n: after.nemo.since(&before.nemo),
            alwa: ratio(flash as f64, logical as f64),
        }
    }

    pub fn miss_ratio(&self) -> f64 {
        self.d.miss_ratio()
    }

    fn ops(&self) -> f64 {
        (self.d.gets + self.d.puts) as f64
    }
}

/// Engine spans matched to the client requests that caused them.
fn match_spans<'a>(log: &[Vec<Sent>], spans: &[&'a [OpSpan]]) -> (Vec<(Sent, &'a OpSpan)>, u64) {
    let mut by_key: HashMap<(u64, bool), VecDeque<&OpSpan>> = HashMap::new();
    for s in spans.iter().copied().flatten() {
        by_key.entry((s.key, s.is_get)).or_default().push_back(s);
    }
    let mut matched = Vec::new();
    let mut unmatched = 0;
    // Each key is pinned to one connection and routed to one shard, so
    // its requests reach the engine in the order the connection sent them.
    for sent in log.iter().flatten() {
        match by_key
            .get_mut(&(sent.key, sent.is_get))
            .and_then(VecDeque::pop_front)
        {
            Some(span) => matched.push((*sent, span)),
            None => unmatched += 1,
        }
    }
    unmatched += by_key.values().map(|q| q.len() as u64).sum::<u64>();
    (matched, unmatched)
}

/// Builds the per-layer metrics into an [`Outcome`].
pub struct Layers<'a> {
    out: &'a mut Outcome,
}

impl<'a> Layers<'a> {
    pub fn new(out: &'a mut Outcome) -> Self {
        Self { out }
    }

    /// The load generator: how late it sent, what it left queued, and
    /// the time its own socket calls took.
    pub fn generator(&mut self, step: &mut StepStats, io_ns: u64, sent: u64) {
        self.out.put(
            "gen.lateness_p99_us",
            "us",
            step.lateness_ns.quantile_us(0.99),
        );
        self.out
            .put("gen.backlog_end", "count", step.backlog_end as f64);
        self.out.put(
            "gen.io_us_per_op",
            "us",
            ratio(io_ns as f64 / 1e3, sent as f64),
        );
    }

    /// The protocol layer: `parse_command` replayed over the traced
    /// window's request bytes, bytes per request, and the server's
    /// protocol counters.
    pub fn proto<E: CacheEngine>(
        &mut self,
        captured: &[&[u8]],
        bytes: u64,
        sent: u64,
        report: &ServerReport<E>,
    ) {
        let limits = Limits::default();
        let (mut cmds, mut passes) = (0u64, 0u32);
        let t0 = Instant::now();
        while passes < 3 || t0.elapsed().as_millis() < 200 {
            for buf in captured {
                let mut off = 0;
                while let ParseOutcome::Cmd(cmd, n) =
                    parse_command(std::hint::black_box(&buf[off..]), &limits)
                {
                    std::hint::black_box(&cmd);
                    off += n;
                    cmds += 1;
                }
            }
            passes += 1;
            if cmds == 0 {
                break;
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        self.out
            .put("proto.parse_ns_per_cmd", "ns", ratio(ns, cmds as f64));
        self.out
            .put("proto.bytes_per_op", "B", ratio(bytes as f64, sent as f64));
        self.out
            .put("proto.meta_entries", "count", report.meta_entries as f64);
        self.out.put(
            "proto.protocol_errors",
            "count",
            report.proto.protocol_errors as f64,
        );
        self.out.put(
            "proto.server_errors",
            "count",
            report.proto.server_errors as f64,
        );
    }

    /// The service path (sockets, parse, dispatch, shard queue, render):
    /// each request's wire time minus its engine span.
    pub fn service<E: CacheEngine>(
        &mut self,
        log: &[Vec<Sent>],
        spans: &[&[OpSpan]],
        report: &ServerReport<E>,
    ) {
        let (matched, unmatched) = match_spans(log, spans);
        let mut non_engine = Samples::default();
        let (mut wire_sum, mut non_engine_sum) = (0u64, 0u64);
        for (sent, span) in &matched {
            if sent.recv_ns == 0 {
                continue; // noreply: no reply time
            }
            let wire = sent.recv_ns.saturating_sub(sent.send_ns);
            let rest = wire.saturating_sub(span.fg_ns + span.bg_ns);
            wire_sum += wire;
            non_engine_sum += rest;
            if sent.is_get {
                non_engine.push(rest);
            }
        }
        self.out.put(
            "service.non_engine_us_p50",
            "us",
            non_engine.quantile_us(0.5),
        );
        self.out.put(
            "service.non_engine_us_p99",
            "us",
            non_engine.quantile_us(0.99),
        );
        self.out.put(
            "service.non_engine_share",
            "ratio",
            ratio(non_engine_sum as f64, wire_sum as f64),
        );
        let gets: Vec<f64> = report
            .report
            .per_shard
            .iter()
            .map(|s| s.gets as f64)
            .collect();
        let mean = gets.iter().sum::<f64>() / gets.len().max(1) as f64;
        self.out.put(
            "service.shard_get_imbalance",
            "ratio",
            ratio(gets.iter().copied().fold(0.0, f64::max), mean),
        );
        self.out.put("trace.unmatched", "count", unmatched as f64);
    }

    /// The engine: call times from the wrapper's spans, Nemo's counters
    /// over the traced window. The engine's self time excludes device
    /// busy time only where that time is measured (`RealFlash`); modeled
    /// device time is virtual and is never subtracted from wall time.
    pub fn core_from_spans(
        &mut self,
        spans: &[&[OpSpan]],
        before: &Snapshot,
        after: &Snapshot,
        device_measured: bool,
    ) {
        let (mut get, mut put) = (Samples::default(), Samples::default());
        let (mut fg, mut bg) = (0u64, 0u64);
        for s in spans.iter().copied().flatten() {
            if s.is_get { &mut get } else { &mut put }.push(s.fg_ns);
            fg += s.fg_ns;
            bg += s.bg_ns;
        }
        let w = Window::new(before, after);
        let ops = (get.len() + put.len()) as f64;
        let busy = if device_measured {
            w.d.device.busy_time.0 as f64
        } else {
            0.0
        };
        self.out.put("core.get_us_p50", "us", get.quantile_us(0.5));
        self.out.put("core.get_us_p99", "us", get.quantile_us(0.99));
        self.out.put("core.put_us_p50", "us", put.quantile_us(0.5));
        self.out.put("core.put_us_p99", "us", put.quantile_us(0.99));
        self.out.put(
            "core.bg_busy_share",
            "ratio",
            ratio(bg as f64, (fg + bg) as f64),
        );
        self.out.put(
            "core.self_us_per_op",
            "us",
            ratio(((fg + bg) as f64 - busy).max(0.0) / 1e3, ops),
        );
        let (d, n) = (&w.d, &w.n);
        self.out.put(
            "core.candidate_reads_per_get",
            "1/get",
            ratio(d.candidate_reads as f64, d.gets as f64),
        );
        let wasted = (n.bloom_fp_reads + n.stale_version_reads) as f64;
        self.out.put(
            "core.candidate_read_yield",
            "ratio",
            if d.candidate_reads == 0 {
                0.0
            } else {
                1.0 - wasted / d.candidate_reads as f64
            },
        );
        self.out.put(
            "core.pbfg_cache_miss_ratio",
            "ratio",
            ratio(
                n.pbfg_cache_misses as f64,
                (n.pbfg_cache_hits + n.pbfg_cache_misses) as f64,
            ),
        );
        self.out.put(
            "core.sg_fill_rate",
            "ratio",
            ratio(n.fill_rate_sum, n.flushes as f64),
        );
        self.out.put(
            "core.writeback_per_flush",
            "count",
            ratio(n.writeback_objects as f64, n.flushes as f64),
        );
        self.out.put(
            "core.sacrificed_per_flush",
            "count",
            ratio(n.sacrificed_objects as f64, n.flushes as f64),
        );
        self.out.put(
            "core.forced_scan_finishes",
            "count",
            n.forced_scan_finishes as f64,
        );
        self.out.put(
            "core.fault_induced_misses",
            "count",
            d.fault_induced_misses as f64,
        );
        self.out.put(
            "bloom.fp_reads_per_get",
            "1/get",
            ratio(n.bloom_fp_reads as f64, d.gets as f64),
        );
    }

    /// The device, from `DeviceStats` over the traced window. Busy time
    /// is measured on `RealFlash` and modeled on `SimFlash`; the two are
    /// reported under different names and never mixed.
    pub fn flash(&mut self, before: &Snapshot, after: &Snapshot, measured: bool) {
        let w = Window::new(before, after);
        let dev = &w.d.device;
        let busy_us_per_op = ratio(dev.busy_time.0 as f64 / 1e3, w.ops());
        let name = if measured {
            "flash.busy_us_per_op"
        } else {
            "flash.model_busy_us_per_op"
        };
        self.out.put(name, "us", busy_us_per_op);
        self.out.put(
            "flash.pages_read_per_get",
            "1/get",
            ratio(dev.pages_read as f64, w.d.gets as f64),
        );
        self.out.put(
            "flash.pages_written_per_put",
            "1/put",
            ratio(dev.pages_written as f64, w.d.puts as f64),
        );
        self.out.put(
            "flash.zone_resets_per_mop",
            "1/Mop",
            ratio(dev.zone_resets as f64 * 1e6, w.ops()),
        );
        self.out
            .put("flash.read_errors", "count", dev.read_errors as f64);
        self.out
            .put("flash.write_errors", "count", dev.write_errors as f64);
        self.out.put(
            "flash.superblock_syncs",
            "count",
            dev.superblock_syncs as f64,
        );
    }

    /// Tracing cost: the traced window's figure against the untraced
    /// one's, as a share (0.05 = 5 % slower when traced).
    pub fn overhead(&mut self, share: f64, spans: usize) {
        self.out.put("trace.overhead_share", "ratio", share);
        self.out.put("trace.spans", "count", spans as f64);
    }
}

/// Spans written per lane (connection or shard); the metrics use all.
const SPANS_WRITTEN_PER_LANE: usize = 100_000;

/// Writes the traced run's spans, one per line, to
/// `.perfbench/spans-<workload>.tsv`: the first
/// [`SPANS_WRITTEN_PER_LANE`] of each lane.
pub fn write_spans(w: Workload, spans: &[&[OpSpan]], log: &[Vec<Sent>]) -> io::Result<()> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut f = BufWriter::new(std::fs::File::create(
        dir.join(format!("spans-{}.tsv", w.name())),
    )?);
    writeln!(f, "layer\tlane\tkey\top\tstart_ns\tend_ns\tbg_ns")?;
    for (conn, entries) in log.iter().enumerate() {
        for s in entries.iter().take(SPANS_WRITTEN_PER_LANE) {
            let op = if s.is_get { "get" } else { "set" };
            writeln!(
                f,
                "client\t{conn}\t{}\t{op}\t{}\t{}\t0",
                s.key, s.send_ns, s.recv_ns
            )?;
        }
    }
    for (shard, list) in spans.iter().enumerate() {
        for s in list.iter().take(SPANS_WRITTEN_PER_LANE) {
            let op = if s.is_get { "get" } else { "put" };
            writeln!(
                f,
                "engine\t{shard}\t{}\t{op}\t{}\t{}\t{}",
                s.key,
                s.start_ns,
                s.start_ns + s.fg_ns,
                s.bg_ns
            )?;
        }
    }
    f.flush()
}
