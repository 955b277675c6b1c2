//! The wire workloads: a 2-shard Nemo fleet on `RealFlash` images behind
//! the memcached-text server, driven over loopback.
//!
//! Set-up time and throughput are taken on CPU clocks, as on engine-zipf:
//! set-up is the process's CPU time, and the server's share of a step is
//! the process's CPU time less that of the generator threads and of the
//! thread that drives them.

use crate::check::{CheckStats, Failure, Kind};
use crate::client::{self, Conn, Req, StepStats};
use crate::layers;
use crate::probe::{Hub, OpSpan, Probe, Snapshot};
use crate::stats::{median, peak_rss_mb, rate_at_slo, ratio, Outcome};
use crate::sys::{process_cpu_ns, thread_cpu_ns};
use crate::workload::{
    conn_of, nemo_config, value_len, Mix, Scale, Workload, LADDER_STEP_SHARE, NOMINAL_SHARE,
};
use nemo_flash::{AnyFlash, RealFlashOptions};
use nemo_proto::{ClockMode, Server, ServerConfig, ServerReport};
use nemo_service::{DeviceBackend, ShardedCacheBuilder};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards and connection workers of the server under test.
pub const SHARDS: usize = 2;
/// Client connections (one generator thread each).
pub const CONNS: usize = 2;
/// The get p99 limit behind `rps_at_slo`, µs.
pub const SLO_US: f64 = 1_000.0;
/// How often the memory of a running step is sampled.
const MEMORY_SAMPLE: Duration = Duration::from_millis(500);

type Engine = Probe<AnyFlash>;

/// A running server with its client connections.
struct Fleet {
    hub: Arc<Hub>,
    server: Server<Engine>,
    conns: Vec<Conn>,
    epoch: Instant,
}

impl Fleet {
    fn start(flash_mb: u32, dir: &Path, epoch: Instant) -> io::Result<Fleet> {
        let hub = Hub::new(epoch, SHARDS);
        // Images live in the run's directory; with barriers off, a disk
        // file behaves like the tmpfs image the design assumes (where an
        // fsync is free), so the device time measured is the I/O path's.
        let backend = DeviceBackend::Real {
            dir: dir.to_path_buf(),
            options: RealFlashOptions {
                sync_on_barrier: false,
                ..RealFlashOptions::default()
            },
        };
        let mut make = nemo_config(flash_mb).factory_on(backend.device_factory("bench"));
        let probe_hub = Arc::clone(&hub);
        let cache = ShardedCacheBuilder::new(SHARDS)
            .inflight(32)
            .spawn(move |shard| Probe::new(make(shard), shard, Arc::clone(&probe_hub)));
        let server = Server::start(
            cache,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                conn_workers: CONNS,
                clock: ClockMode::Wall,
                ..ServerConfig::default()
            },
        )?;
        let conns = (0..CONNS)
            .map(|_| Conn::connect(server.local_addr(), epoch))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Fleet {
            hub,
            server,
            conns,
            epoch,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Fleet counters and memory, read between steps (the connections
    /// are idle and synced, so this is an exact boundary).
    fn snapshot(&self) -> Snapshot {
        snapshot(&self.hub, &self.server)
    }

    /// Pre-fill over the wire: each key goes to its own connection.
    fn prefill(&mut self, sets: &[(u64, u32)]) -> io::Result<()> {
        let mut per_conn = vec![Vec::new(); CONNS];
        for &(key, size) in sets {
            per_conn[conn_of(key, CONNS)].push((key, value_len(key, size)));
        }
        run_conns(&mut self.conns, &per_conn, client::prefill, || {})?;
        Ok(())
    }

    /// Draws `n` requests and splits them over the connections, the
    /// `j`-th scheduled at `j * gap_ns` (offsets; the caller adds the
    /// start time).
    fn schedule(mix: &mut Mix, n: u64, gap_ns: f64) -> Vec<Vec<Req>> {
        let mut per_conn = vec![Vec::new(); CONNS];
        for j in 0..n {
            let (key, size, op) = mix.draw();
            per_conn[conn_of(key, CONNS)].push(Req {
                key,
                vlen: value_len(key, size),
                op,
                sched_ns: (j as f64 * gap_ns) as u64,
            });
        }
        per_conn
    }

    /// One open-loop step at `rps` for `secs`. Also returns the fleet's
    /// DRAM bits per object, sampled every [`MEMORY_SAMPLE`] meanwhile,
    /// and the CPU seconds the server used.
    fn open_step(
        &mut self,
        mix: &mut Mix,
        rps: f64,
        secs: f64,
    ) -> io::Result<(StepStats, Vec<f64>, f64)> {
        let mut work = Self::schedule(mix, (rps * secs) as u64, 1e9 / rps);
        let start = self.now_ns() + 1_000_000;
        let end = start + (secs * 1e9) as u64;
        for reqs in &mut work {
            reqs.iter_mut().for_each(|r| r.sched_ns += start);
        }
        let mut bits = Vec::new();
        let (hub, server) = (&self.hub, &self.server);
        let (process0, driver0) = (process_cpu_ns(), thread_cpu_ns());
        let parts = run_conns(
            &mut self.conns,
            &work,
            |c, reqs| {
                let cpu0 = thread_cpu_ns();
                let st = client::open_loop(c, reqs, start, end)?;
                Ok((st, thread_cpu_ns() - cpu0))
            },
            || bits.push(snapshot(hub, server).memory.bits_per_object()),
        )?;
        let driver_ns = thread_cpu_ns() - driver0;
        let process_ns = process_cpu_ns() - process0;
        let mut st = StepStats::default();
        let mut generator_ns = 0;
        for (p, cpu) in parts {
            st.merge(p);
            generator_ns += cpu;
        }
        let server_ns = process_ns.saturating_sub(driver_ns + generator_ns);
        Ok((st, bits, server_ns as f64 / 1e9))
    }

    fn set_tracing(&mut self, on: bool) {
        self.hub.set_tracing(on);
        for c in &mut self.conns {
            c.tracing = on;
        }
    }

    /// Closes the connections and drains the server.
    fn finish(self) -> (Vec<Conn>, ServerReport<Engine>) {
        // Closing the sockets lets the connection workers exit at once.
        for c in &self.conns {
            c.close();
        }
        (self.conns, self.server.finish())
    }
}

/// Fleet counters and memory, read through every shard's queue.
fn snapshot(hub: &Hub, server: &Server<Engine>) -> Snapshot {
    Snapshot::merge_all(&hub.snapshot(|| {
        let _ = server.engine_stats();
    }))
}

/// Runs `f` on every connection, each in its own thread, calling
/// `between` every [`MEMORY_SAMPLE`] until they are all done.
fn run_conns<I: Sync, T: Send>(
    conns: &mut [Conn],
    work: &[Vec<I>],
    f: impl Fn(&mut Conn, &[I]) -> io::Result<T> + Sync,
    mut between: impl FnMut(),
) -> io::Result<Vec<T>> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(work)
            .map(|(c, items)| s.spawn(move || f(c, items)))
            .collect();
        let mut last = Instant::now();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(10));
            if last.elapsed() >= MEMORY_SAMPLE {
                last = Instant::now();
                between();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// A fresh directory for one run's device images.
fn run_dir(w: Workload) -> PathBuf {
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    crate::out_dir().join(format!("{}-{}-{n}", w.name(), std::process::id()))
}

/// Builds the fleet and pre-fills it; returns the fleet, the request
/// stream positioned after the pre-fill, and the CPU seconds (all
/// threads) and wall seconds it took.
fn setup(
    w: Workload,
    scale: &Scale,
    seed: u64,
    dir: &Path,
    epoch: Instant,
) -> io::Result<(Fleet, Mix, f64, f64)> {
    let (t0, cpu0) = (Instant::now(), process_cpu_ns());
    let flash_bytes = f64::from(scale.wire_flash_mb) * SHARDS as f64 * 1024.0 * 1024.0;
    std::fs::create_dir_all(dir)?;
    let mut fleet = Fleet::start(scale.wire_flash_mb, dir, epoch)?;
    let mut mix = Mix::new(w, flash_bytes * scale.catalog_mult, seed);
    let sets = mix.prefill(flash_bytes * scale.prefill_mult);
    fleet.prefill(&sets)?;
    let cpu = (process_cpu_ns() - cpu0) as f64 / 1e9;
    Ok((fleet, mix, cpu, t0.elapsed().as_secs_f64()))
}

/// Runs a wire workload; `trace` selects the traced per-layer run.
pub fn run(
    w: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let dir = run_dir(w);
    let result = if trace {
        run_traced(w, scale, seed, seconds, &dir, epoch)
    } else {
        run_measured(w, scale, seed, seconds, &dir, epoch)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_measured(
    w: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    dir: &Path,
    epoch: Instant,
) -> io::Result<Outcome> {
    let rates = scale.rates(w);
    let (mut fleet, mut mix, cpu, wall) = setup(w, scale, seed, dir, epoch)?;
    let (mut setups, mut walls) = (vec![cpu], vec![wall]);

    // Latency comes from the nominal step; the counter window spans it
    // and the ladder, whose steps also decide `rps_at_slo`.
    let before = fleet.snapshot();
    let (nominal, bits, server_cpu_s) =
        fleet.open_step(&mut mix, rates.nominal, seconds * NOMINAL_SHARE)?;
    let mut steps = vec![nominal.summary(rates.nominal)];
    for &rps in &rates.ladder {
        steps.push(
            fleet
                .open_step(&mut mix, rps, seconds * LADDER_STEP_SHARE)?
                .0
                .summary(rps),
        );
    }
    let after = fleet.snapshot();
    let (conns, report) = fleet.finish();
    let peak_rss = peak_rss_mb();
    // The other set-ups come after the measurement: memory a torn-down
    // fleet leaves with the allocator would otherwise count in the
    // measured fleet's peak, by a different amount in every run.
    for _ in 1..scale.setup_reps {
        let (fleet, _, cpu, wall) = setup(w, scale, seed, dir, epoch)?;
        setups.push(cpu);
        walls.push(wall);
        drop(fleet.finish());
    }

    let mut out = Outcome::default();
    let win = layers::Window::new(&before, &after);
    out.put("setup_s", "s", median(&setups));
    out.put("get_p50_us", "us", nominal.sliced_us(Kind::Get, 0.5));
    out.put("get_p99_us", "us", nominal.sliced_us(Kind::Get, 0.99));
    out.put("set_p99_us", "us", nominal.sliced_us(Kind::Set, 0.99));
    out.put("rps_at_slo", "req/s", rate_at_slo(&steps, SLO_US));
    out.put(
        "ops_per_s",
        "op/s",
        ratio(nominal.answered as f64, server_cpu_s),
    );
    out.put("miss_ratio", "ratio", win.miss_ratio());
    out.put("alwa", "ratio", win.alwa);
    out.put("dram_bits_per_object", "bits", median(&bits));
    out.put("peak_rss_mb", "MB", peak_rss);

    out.note(format!(
        "setup_s per set-up (CPU): {setups:.3?}; wall: {walls:.3?}"
    ));
    out.note(format!(
        "nominal step: {} gets, {} replied sets; percentiles are medians over groups of >= 1000; server CPU {:.2} s ({:.1} us per answered request)",
        nominal.gets,
        nominal.answered - nominal.gets,
        server_cpu_s,
        ratio(server_cpu_s * 1e6, nominal.answered as f64)
    ));
    for st in &steps {
        out.note(st.line(SLO_US));
    }
    out.note(format!(
        "window: {} gets, {} puts, {:.1} MB logical, {} SG flushes",
        win.d.gets,
        win.d.puts,
        win.d.logical_bytes as f64 / 1e6,
        win.n.flushes
    ));
    finish_checks(&mut out, &conns, &report);
    Ok(out)
}

/// Folds the connections' checkers into the outcome; returns them merged.
fn finish_checks(out: &mut Outcome, conns: &[Conn], report: &ServerReport<Engine>) -> CheckStats {
    let mut checks = CheckStats::default();
    for c in conns {
        checks.merge(&c.checker.stats);
        out.attempted += c.sent;
    }
    out.failed = checks.failed();
    out.put(
        "error_ratio",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.put(
        "value_mismatch_ratio",
        "ratio",
        ratio(checks.value_mismatches as f64, checks.hits as f64),
    );
    out.note(format!(
        "{} of {} requests failed their check{}; {} of {} hits returned bytes other than the last set's",
        out.failed,
        out.attempted,
        Failure::ALL
            .iter()
            .filter(|f| checks.failures[**f as usize] > 0)
            .map(|f| format!("; {} {}", f.label(), checks.failures[*f as usize]))
            .collect::<String>(),
        checks.value_mismatches,
        checks.hits
    ));
    out.note(format!(
        "server: {} commands, {} protocol errors, {} server errors, {} side-table entries",
        report.proto.commands,
        report.proto.protocol_errors,
        report.proto.server_errors,
        report.meta_entries
    ));
    checks
}

fn run_traced(
    w: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    dir: &Path,
    epoch: Instant,
) -> io::Result<Outcome> {
    let rps = scale.rates(w).nominal;
    let (mut fleet, mut mix, _, _) = setup(w, scale, seed, dir, epoch)?;
    // The same step twice: untraced, then traced. Their difference is the
    // tracing overhead.
    let (plain, _, _) = fleet.open_step(&mut mix, rps, seconds * 0.5)?;
    let io_before: u64 = fleet.conns.iter().map(|c| c.io_ns).sum();
    let bytes_before: u64 = fleet.conns.iter().map(|c| c.bytes_in + c.bytes_out).sum();
    let sent_before: u64 = fleet.conns.iter().map(|c| c.sent).sum();
    let before = fleet.snapshot();
    fleet.set_tracing(true);
    let (mut traced, _, _) = fleet.open_step(&mut mix, rps, seconds * 0.5)?;
    fleet.set_tracing(false);
    let after = fleet.snapshot();
    let io_ns: u64 = fleet.conns.iter().map(|c| c.io_ns).sum::<u64>() - io_before;
    let bytes: u64 = fleet
        .conns
        .iter()
        .map(|c| c.bytes_in + c.bytes_out)
        .sum::<u64>()
        - bytes_before;
    let sent: u64 = fleet.conns.iter().map(|c| c.sent).sum::<u64>() - sent_before;
    let (conns, report) = fleet.finish();

    let spans: Vec<&[OpSpan]> = report.report.engines.iter().map(|e| e.spans()).collect();
    let client_log: Vec<_> = conns.iter().map(|c| c.log.clone()).collect();
    let captured: Vec<&[u8]> = conns.iter().map(|c| c.capture.as_slice()).collect();
    let mut out = Outcome::default();
    let mut l = layers::Layers::new(&mut out);
    l.generator(&mut traced, io_ns, sent);
    l.proto(&captured, bytes, sent, &report);
    l.service(&client_log, &spans, &report);
    l.core_from_spans(&spans, &before, &after, true);
    l.flash(&before, &after, true);
    let (p_plain, p_traced) = (
        plain.sliced_us(Kind::Get, 0.5),
        traced.sliced_us(Kind::Get, 0.5),
    );
    let span_count = spans.iter().map(|s| s.len()).sum::<usize>()
        + client_log.iter().map(Vec::len).sum::<usize>();
    l.overhead(ratio(p_traced, p_plain) - 1.0, span_count);
    out.note(format!(
        "tracing overhead: get p50 {p_plain:.1} us untraced, {p_traced:.1} us traced"
    ));
    let checks = finish_checks(&mut out, &conns, &report);
    out.put(
        "check.value_mismatch_ratio",
        "ratio",
        ratio(checks.value_mismatches as f64, checks.hits as f64),
    );
    layers::write_spans(w, &spans, &client_log)?;
    Ok(out)
}
