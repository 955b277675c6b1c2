//! engine-zipf: the merged trace demand-filled straight into one Nemo on
//! modeled `SimFlash` by one caller thread, with no sockets and no shard
//! threads. Virtual time advances by a fixed gap per request, as in
//! `nemo_sim::Replay`; after every call the caller runs the background
//! slice a shard worker would.
//!
//! Throughput and set-up time are taken on the caller thread's CPU clock:
//! the loop never sleeps, so its CPU time is its wall time less any time
//! it was preempted.

use crate::layers::{Layers, Window};
use crate::probe::{Hub, Probe};
use crate::stats::{median, peak_rss_mb, ratio, Outcome};
use crate::sys::thread_cpu_ns;
use crate::workload::{merged_trace, nemo_config, Scale};
use nemo_core::Nemo;
use nemo_engine::CacheEngine;
use nemo_flash::{Nanos, SimFlash};
use nemo_metrics::LatencyHistogram;
use nemo_trace::{RequestKind, TraceGenerator};
use std::collections::HashSet;
use std::io;
use std::time::Instant;

/// Virtual arrival rate of the replay (modeled time only).
const VIRTUAL_RPS: f64 = 50_000.0;
/// Share of `--seconds` each half (untraced, traced) of a traced run takes.
const TRACED_SHARE: f64 = 0.1;

struct Bench {
    probe: Probe<SimFlash>,
    trace: TraceGenerator,
    now: Nanos,
    gap: Nanos,
    /// Keys ever put: a hit on any other key is a wrong answer.
    stored: HashSet<u64>,
    attempted: u64,
    failed: u64,
}

/// What a run of requests measured. Latencies go into fixed-size
/// histograms: a faster engine runs more requests, and that must not
/// show up as more memory.
#[derive(Default)]
struct Run {
    /// Wall time of each get and its background slice.
    get_ns: LatencyHistogram,
    /// The same for the trace's sets (fills are not timed).
    set_ns: LatencyHistogram,
    /// Modeled get latency, `done_at - now`.
    model_get_ns: LatencyHistogram,
    ops: u64,
    secs: f64,
    /// CPU time of the caller thread over the run.
    cpu_secs: f64,
    /// DRAM bits per object, sampled through the run.
    bits: Vec<f64>,
}

impl Bench {
    /// The benchmark's own state around an engine built by `engine`.
    fn new(
        scale: &Scale,
        seed: u64,
        epoch: Instant,
        engine: impl FnOnce() -> Nemo<SimFlash>,
    ) -> Self {
        let catalog =
            nemo_config(scale.engine_flash_mb).geometry.total_bytes() as f64 * scale.catalog_mult;
        let trace = merged_trace(catalog, seed);
        // Sized for the whole catalog up front, so its growth does not
        // depend on how many requests a run gets through.
        let stored = HashSet::with_capacity(trace.total_objects() as usize);
        Self {
            probe: Probe::new(engine(), 0, Hub::new(epoch, 1)),
            stored,
            trace,
            now: Nanos::ZERO,
            gap: Nanos((1e9 / VIRTUAL_RPS) as u64),
            attempted: 0,
            failed: 0,
        }
    }

    fn slice(&mut self) {
        if self.probe.background_pending() {
            self.probe.background_slice(self.now);
        }
    }

    fn put(&mut self, key: u64, size: u32) {
        self.probe.put(key, size, self.now);
        self.stored.insert(key);
        self.slice();
    }

    /// One trace request, demand-filled on a miss. Records its wall time
    /// from `from`.
    fn step(&mut self, from: Instant, run: &mut Run) {
        let r = self.trace.next_request();
        self.now += self.gap;
        self.attempted += 1;
        match r.kind {
            RequestKind::Get => {
                let out = self.probe.get(r.key, self.now);
                self.slice();
                run.get_ns.record(from.elapsed().as_nanos() as u64);
                run.model_get_ns
                    .record(out.done_at.saturating_sub(self.now).0);
                if out.hit && !self.stored.contains(&r.key) {
                    self.failed += 1;
                }
                if !out.hit {
                    self.put(r.key, r.size);
                }
            }
            RequestKind::Put => {
                self.put(r.key, r.size);
                run.set_ns.record(from.elapsed().as_nanos() as u64);
            }
        }
        run.ops += 1;
    }

    /// Closed loop for `secs` of wall time, sampling the engine's memory
    /// every sixty-fourth of it.
    fn closed(&mut self, secs: f64) -> Run {
        let mut run = Run::default();
        let t0 = Instant::now();
        let cpu0 = thread_cpu_ns();
        let mut next_sample = 0.0;
        loop {
            for _ in 0..256 {
                self.step(Instant::now(), &mut run);
            }
            run.secs = t0.elapsed().as_secs_f64();
            if run.secs >= next_sample {
                next_sample += secs / 64.0;
                run.bits.push(self.probe.memory().bits_per_object());
            }
            if run.secs >= secs {
                run.cpu_secs = (thread_cpu_ns() - cpu0) as f64 / 1e9;
                return run;
            }
        }
    }

    /// Pre-fill: puts of keys drawn from the trace until `bytes` were
    /// written, as the wire workloads pre-fill.
    fn prefill(&mut self, bytes: f64) {
        let mut total = 0.0;
        while total < bytes {
            let r = self.trace.next_request();
            self.now += self.gap;
            self.put(r.key, r.size);
            total += f64::from(r.size);
        }
    }
}

/// The `q`-quantile of `h`, µs.
fn us(h: &LatencyHistogram, q: f64) -> f64 {
    h.percentile(q) as f64 / 1e3
}

/// Builds the engine and pre-fills it; returns it with the CPU and wall
/// seconds that took. The benchmark's own tables are allocated before
/// the clocks start.
fn setup(scale: &Scale, seed: u64, epoch: Instant) -> (Bench, f64, f64) {
    let cfg = nemo_config(scale.engine_flash_mb);
    let flash = cfg.geometry.total_bytes() as f64;
    let mut clocks = (Instant::now(), 0);
    let mut b = Bench::new(scale, seed, epoch, || {
        clocks = (Instant::now(), thread_cpu_ns());
        Nemo::new(cfg)
    });
    b.prefill(flash * scale.prefill_mult);
    let cpu = (thread_cpu_ns() - clocks.1) as f64 / 1e9;
    (b, cpu, clocks.0.elapsed().as_secs_f64())
}

pub fn run(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    if trace {
        // The same closed loop untraced, then traced; short, because
        // every call leaves a span in memory.
        let (mut b, _, _) = setup(scale, seed, epoch);
        let plain = b.closed(seconds * TRACED_SHARE);
        let before = b.probe.snapshot();
        b.probe.hub().set_tracing(true);
        let traced = b.closed(seconds * TRACED_SHARE);
        b.probe.hub().set_tracing(false);
        let after = b.probe.snapshot();
        let spans = [b.probe.spans()];
        let per_op = |r: &Run| r.cpu_secs / r.ops as f64;
        let mut l = Layers::new(&mut out);
        l.core_from_spans(&spans, &before, &after, false);
        l.flash(&before, &after, false);
        l.overhead(per_op(&traced) / per_op(&plain) - 1.0, spans[0].len());
        out.put(
            "core.model_get_p99_us",
            "us",
            us(&traced.model_get_ns, 0.99),
        );
        out.note(format!(
            "tracing overhead: {:.0} op/s untraced, {:.0} op/s traced (per CPU second)",
            plain.ops as f64 / plain.cpu_secs,
            traced.ops as f64 / traced.cpu_secs
        ));
        out.attempted = b.attempted;
        out.failed = b.failed;
        crate::layers::write_spans(crate::workload::Workload::EngineZipf, &spans, &[])?;
        return Ok(out);
    }

    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..scale.setup_reps {
        drop(kept.take());
        let (b, cpu, wall) = setup(scale, seed, epoch);
        setups.push(cpu);
        walls.push(wall);
        kept = Some(b);
    }
    let mut b = kept.expect("at least one set-up");
    let before = b.probe.snapshot();
    let closed = b.closed(seconds);
    let after = b.probe.snapshot();

    let win = Window::new(&before, &after);
    out.put("setup_s", "s", median(&setups));
    out.put("get_p50_us", "us", us(&closed.get_ns, 0.5));
    out.put("get_p99_us", "us", us(&closed.get_ns, 0.99));
    out.put("set_p99_us", "us", us(&closed.set_ns, 0.99));
    out.put("ops_per_s", "op/s", closed.ops as f64 / closed.cpu_secs);
    out.put("miss_ratio", "ratio", win.miss_ratio());
    out.put("alwa", "ratio", win.alwa);
    out.put("dram_bits_per_object", "bits", median(&closed.bits));
    out.put("peak_rss_mb", "MB", peak_rss_mb());
    out.note(format!(
        "setup_s per set-up (CPU): {setups:.3?}; wall: {walls:.3?}"
    ));
    out.note(format!(
        "closed loop: {} requests in {:.2} s wall, {:.2} s CPU ({:.0} op/s wall; {} gets, {} timed sets); model_get_p99_us {:.2} (virtual)",
        closed.ops,
        closed.secs,
        closed.cpu_secs,
        closed.ops as f64 / closed.secs,
        closed.get_ns.count(),
        closed.set_ns.count(),
        us(&closed.model_get_ns, 0.99)
    ));
    out.note(format!(
        "window: {} gets, {} puts, {:.1} MB logical, {} SG flushes",
        win.d.gets,
        win.d.puts,
        win.d.logical_bytes as f64 / 1e6,
        win.n.flushes
    ));
    out.put("model_get_p99_us", "us", us(&closed.model_get_ns, 0.99));
    out.put(
        "error_ratio",
        "ratio",
        ratio(b.failed as f64, b.attempted as f64),
    );
    out.note(format!(
        "{} of {} requests hit a never-set key",
        b.failed, b.attempted
    ));
    out.attempted = b.attempted;
    out.failed = b.failed;
    Ok(out)
}
