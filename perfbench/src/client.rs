//! The memcached-text load generator: one thread per connection, each
//! sending and receiving on its own nonblocking socket and sleeping in
//! `ppoll` between scheduled sends.
//!
//! Every request carries the time it was scheduled; latency runs from
//! that time to the read that delivered its last reply byte, so a stall
//! anywhere (server, kernel or generator) is charged to every request it
//! delays. Get misses are filled with `set … noreply`, as a client in
//! front of a backing store would.

use crate::check::{value_bytes, wire_key, Checker, Done, Kind};
use crate::stats::{median, Samples, Step};
use crate::sys;
use nemo_proto::wire::{encode_get, encode_set};
use nemo_proto::{Limits, SetCmd};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a connection waits for outstanding replies after its last
/// scheduled send before counting them unanswered.
const REPLY_GRACE: Duration = Duration::from_secs(10);
/// Keys a connection's checker is sized for up front, so its table does
/// not grow (and move the run's peak RSS) mid-run.
const EXPECTED_KEYS: usize = 1 << 18;

/// A workload request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `get`, filled with a noreply set on a miss.
    Get,
    /// A replied `set`.
    Set,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub key: u64,
    /// Value length of a set (or of the fill after a get miss).
    pub vlen: u32,
    pub op: Op,
    /// Scheduled send time, ns since the run's epoch.
    pub sched_ns: u64,
}

/// A request as sent, for matching against engine spans (traced runs).
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub key: u64,
    pub is_get: bool,
    pub send_ns: u64,
    /// Reply time; 0 for noreply sets.
    pub recv_ns: u64,
}

/// Timing of one request awaiting its reply, in send order.
#[derive(Debug, Clone, Copy)]
struct Meta {
    sched_ns: u64,
    send_ns: u64,
    vlen: u32,
    /// Index into [`Conn::log`] (traced runs), else `u32::MAX`.
    log: u32,
}

/// A completed request.
#[derive(Debug, Clone, Copy)]
pub struct Completed {
    pub done: Done,
    pub sched_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
}

/// One client connection with its reply checker.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    epoch: Instant,
    limits: Limits,
    pub checker: Checker,
    meta: VecDeque<Meta>,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    chunk: Vec<u8>,
    value: Vec<u8>,
    completed: Vec<Completed>,
    done_scratch: Vec<Done>,
    /// Record sent bytes and [`Sent`] entries.
    pub tracing: bool,
    /// Bytes sent while tracing, for replaying the server's parser.
    pub capture: Vec<u8>,
    /// Requests sent while tracing.
    pub log: Vec<Sent>,
    /// Requests sent (gets and sets, fills included).
    pub sent: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Time spent inside socket writes and reads.
    pub io_ns: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr, epoch: Instant) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            epoch,
            limits: Limits::default(),
            checker: Checker::with_keys(EXPECTED_KEYS),
            meta: VecDeque::new(),
            out: Vec::with_capacity(64 * 1024),
            inbuf: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 64 * 1024],
            value: Vec::new(),
            completed: Vec::new(),
            done_scratch: Vec::new(),
            tracing: false,
            capture: Vec::new(),
            log: Vec::new(),
            sent: 0,
            bytes_out: 0,
            bytes_in: 0,
            io_ns: 0,
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Requests awaiting a reply.
    pub fn outstanding(&self) -> usize {
        self.meta.len()
    }

    fn log_sent(&mut self, key: u64, is_get: bool, now: u64) -> u32 {
        if !self.tracing {
            return u32::MAX;
        }
        self.log.push(Sent {
            key,
            is_get,
            send_ns: now,
            recv_ns: 0,
        });
        (self.log.len() - 1) as u32
    }

    fn encode_set(&mut self, key: u64, vlen: u32, noreply: bool) {
        let version = self.checker.record_set(key, vlen);
        self.value.clear();
        value_bytes(key, version, vlen as usize, &mut self.value);
        let kb = wire_key(key);
        let start = self.out.len();
        encode_set(
            &mut self.out,
            &SetCmd {
                key: &kb,
                flags: 0,
                exptime: 0,
                data: &self.value,
                noreply,
            },
        );
        if self.tracing {
            self.capture.extend_from_slice(&self.out[start..]);
        }
        self.sent += 1;
    }

    /// Queues a `set … noreply` (pre-fill and miss fills).
    pub fn fill(&mut self, key: u64, vlen: u32) {
        let now = self.now_ns();
        self.encode_set(key, vlen, true);
        self.log_sent(key, false, now);
    }

    /// Queues a scheduled request; `now` is its send time.
    pub fn send(&mut self, r: &Req, now: u64) {
        let kind = match r.op {
            Op::Get => {
                let kb = wire_key(r.key);
                let start = self.out.len();
                encode_get(&mut self.out, [kb.as_slice()], false);
                if self.tracing {
                    self.capture.extend_from_slice(&self.out[start..]);
                }
                self.sent += 1;
                Kind::Get
            }
            Op::Set => {
                self.encode_set(r.key, r.vlen, false);
                Kind::Set
            }
        };
        self.checker.expect(r.key, kind);
        let log = self.log_sent(r.key, kind == Kind::Get, now);
        self.meta.push_back(Meta {
            sched_ns: r.sched_ns,
            send_ns: now,
            vlen: r.vlen,
            log,
        });
    }

    /// Queues a `version` round trip. Its reply proves that the server
    /// finished every earlier command on this connection, noreply sets
    /// included.
    fn ping(&mut self) {
        self.out.extend_from_slice(b"version\r\n");
        self.checker.expect(0, Kind::Ping);
        let now = self.now_ns();
        self.meta.push_back(Meta {
            sched_ns: now,
            send_ns: now,
            vlen: 0,
            log: u32::MAX,
        });
    }

    /// Writes as much queued output as the socket takes without blocking.
    fn flush(&mut self) -> io::Result<()> {
        let mut off = 0;
        let t0 = Instant::now();
        while off < self.out.len() {
            match self.stream.write(&self.out[off..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.io_ns += t0.elapsed().as_nanos() as u64;
        self.bytes_out += off as u64;
        self.out.drain(..off);
        Ok(())
    }

    /// Sends queued output, waits up to `timeout` for the socket, then
    /// reads and checks every reply that arrived. Completed requests are
    /// left in [`Self::take_completed`]; get misses are queued for fill.
    fn pump(&mut self, timeout: Duration) -> io::Result<()> {
        self.flush()?;
        sys::wait(&self.stream, !self.out.is_empty(), timeout);
        self.flush()?;
        loop {
            let t0 = Instant::now();
            let n = match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.io_ns += t0.elapsed().as_nanos() as u64;
            let recv_ns = self.now_ns();
            self.bytes_in += n as u64;
            self.inbuf.extend_from_slice(&self.chunk[..n]);
            let mut done = std::mem::take(&mut self.done_scratch);
            let used = self.checker.feed(&self.inbuf, &self.limits, &mut done);
            self.inbuf.drain(..used);
            for d in done.drain(..) {
                let m = self
                    .meta
                    .pop_front()
                    .expect("a reply matches a sent request");
                if m.log != u32::MAX {
                    self.log[m.log as usize].recv_ns = recv_ns;
                }
                if d.kind == Kind::Get && d.ok && !d.hit {
                    self.fill(d.key, m.vlen);
                }
                self.completed.push(Completed {
                    done: d,
                    sched_ns: m.sched_ns,
                    send_ns: m.send_ns,
                    recv_ns,
                });
            }
            self.done_scratch = done;
        }
    }

    fn take_completed(&mut self) -> Vec<Completed> {
        std::mem::take(&mut self.completed)
    }

    /// Pings, then waits until every request sent so far is answered
    /// (or the grace period ends, which counts the rest unanswered).
    pub fn sync(&mut self) -> io::Result<()> {
        self.ping();
        let deadline = Instant::now() + REPLY_GRACE;
        while self.outstanding() > 0 {
            if Instant::now() > deadline {
                self.abandon();
                break;
            }
            self.pump(Duration::from_millis(5))?;
        }
        self.completed.clear();
        Ok(())
    }

    /// Closes the socket; the server's connection worker sees EOF.
    pub fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn abandon(&mut self) {
        self.checker.abandon();
        self.meta.clear();
    }
}

/// What one connection measured over one step.
#[derive(Debug, Default)]
pub struct StepStats {
    /// Actual send minus scheduled send, per request.
    pub lateness_ns: Samples,
    /// Requests due but unanswered when the schedule ended.
    pub backlog_end: u64,
    /// Gets and replied sets answered.
    pub answered: u64,
    pub gets: u64,
    /// From the step's start to its last reply, ns.
    pub span_ns: u64,
    /// Latency of gets (`[0]`) and replied sets (`[1]`) per
    /// [`SLICE_NS`] of the schedule, for the median-of-slices
    /// percentiles.
    slices: [Vec<Samples>; 2],
    start_ns: u64,
}

/// Length of one slice of a step's schedule.
const SLICE_NS: u64 = 250_000_000;
/// Fewest samples a percentile is taken over: ten beyond the p99.
const MIN_SAMPLES: usize = 1000;

impl StepStats {
    fn record(&mut self, c: &Completed) {
        let lat = c.recv_ns.saturating_sub(c.sched_ns);
        let kind = match c.done.kind {
            Kind::Get => {
                self.gets += 1;
                0
            }
            Kind::Set => 1,
            Kind::Ping => return,
        };
        let i = (c.sched_ns.saturating_sub(self.start_ns) / SLICE_NS) as usize;
        let slices = &mut self.slices[kind];
        if slices.len() <= i {
            slices.resize_with(i + 1, Samples::default);
        }
        slices[i].push(lat);
        self.answered += 1;
        self.lateness_ns.push(c.send_ns.saturating_sub(c.sched_ns));
    }

    /// The `q`-quantile of `kind`'s latency, µs, as the median over
    /// groups of consecutive slices holding at least [`MIN_SAMPLES`]
    /// each. A host stall lands in one group, so the median shows the
    /// server's behaviour rather than the stall's.
    pub fn sliced_us(&self, kind: Kind, q: f64) -> f64 {
        let slices = &self.slices[(kind == Kind::Set) as usize];
        let mut per_group = Vec::new();
        let mut group = Samples::default();
        for s in slices {
            group.extend(s);
            if group.len() >= MIN_SAMPLES {
                per_group.push(group.quantile_us(q));
                group = Samples::default();
            }
        }
        if per_group.is_empty() {
            per_group.push(group.quantile_us(q));
        }
        median(&per_group)
    }

    /// The step's summary line, at offered rate `offered`.
    pub fn summary(&self, offered: f64) -> Step {
        Step {
            offered,
            answered: self.answered as f64 / (self.span_ns as f64 / 1e9),
            p50_us: self.sliced_us(Kind::Get, 0.5),
            p99_us: self.sliced_us(Kind::Get, 0.99),
            backlog_end: self.backlog_end,
        }
    }

    /// Folds another connection's step into this one.
    pub fn merge(&mut self, other: StepStats) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            if mine.len() < theirs.len() {
                mine.resize_with(theirs.len(), Samples::default);
            }
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.extend(b);
            }
        }
        self.lateness_ns.extend(&other.lateness_ns);
        self.backlog_end += other.backlog_end;
        self.answered += other.answered;
        self.gets += other.gets;
        self.span_ns = self.span_ns.max(other.span_ns);
    }
}

/// Sends `reqs` on their schedule (open loop) from `start_ns` to
/// `end_ns`, then waits for the last replies and syncs.
pub fn open_loop(
    conn: &mut Conn,
    reqs: &[Req],
    start_ns: u64,
    end_ns: u64,
) -> io::Result<StepStats> {
    sys::precise_timers();
    let mut st = StepStats {
        start_ns,
        ..StepStats::default()
    };
    let mut next = 0;
    let mut backlog_taken = false;
    let deadline = end_ns + REPLY_GRACE.as_nanos() as u64;
    loop {
        let now = conn.now_ns();
        while next < reqs.len() && reqs[next].sched_ns <= now {
            conn.send(&reqs[next], now);
            next += 1;
        }
        if !backlog_taken && now >= end_ns {
            backlog_taken = true;
            st.backlog_end = (conn.outstanding() + (reqs.len() - next)) as u64;
        }
        if next == reqs.len() && conn.outstanding() == 0 {
            break;
        }
        if now > deadline {
            conn.abandon();
            break;
        }
        let wait_ns = match reqs.get(next) {
            Some(r) => r.sched_ns.saturating_sub(now),
            None => 5_000_000,
        };
        conn.pump(Duration::from_nanos(wait_ns))?;
        for c in conn.take_completed() {
            st.span_ns = st.span_ns.max(c.recv_ns - start_ns);
            st.record(&c);
        }
    }
    conn.sync()?;
    Ok(st)
}

/// Pre-fill: `set … noreply` for every key in `sets`, pipelined, then a
/// sync so the server has applied them all.
pub fn prefill(conn: &mut Conn, sets: &[(u64, u32)]) -> io::Result<()> {
    for chunk in sets.chunks(256) {
        for &(key, vlen) in chunk {
            conn.fill(key, vlen);
        }
        while conn.out.len() > 256 * 1024 {
            conn.pump(Duration::from_millis(1))?;
        }
        conn.pump(Duration::ZERO)?;
    }
    conn.sync()
}
