//! The reply checker: matches one connection's reply frames to its
//! requests in FIFO order and verifies each against what that
//! connection last stored for the key.
//!
//! Every key is pinned to one connection, so "the last set" of a key is
//! the last set this connection sent before the get, and the server must
//! apply them in that order. A get captures the expected `(version,
//! length)` when it is sent, which keeps later pipelined sets of the same
//! key from changing what its reply must say.

use nemo_proto::wire::{parse_response, Response, ResponseOutcome};
use nemo_proto::Limits;
use std::collections::{HashMap, VecDeque};

/// Why a request failed. Every failure counts toward `error_ratio`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `SERVER_ERROR`: the server refused the request.
    Refused,
    /// A frame the client parser could not read.
    Garbled,
    /// A `VALUE` block echoing a different key.
    WrongKey,
    /// A `VALUE` block whose length differs from the last set's.
    WrongLength,
    /// A hit on a key this connection never set.
    NeverSetHit,
    /// A frame that does not answer the request at the head of the queue.
    Unexpected,
    /// No reply before the run gave up waiting.
    Unanswered,
}

impl Failure {
    pub const ALL: [Failure; 7] = [
        Failure::Refused,
        Failure::Garbled,
        Failure::WrongKey,
        Failure::WrongLength,
        Failure::NeverSetHit,
        Failure::Unexpected,
        Failure::Unanswered,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Failure::Refused => "refused",
            Failure::Garbled => "garbled",
            Failure::WrongKey => "wrong key",
            Failure::WrongLength => "wrong length",
            Failure::NeverSetHit => "hit on a never-set key",
            Failure::Unexpected => "unexpected frame",
            Failure::Unanswered => "unanswered",
        }
    }
}

/// What a request waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `get`: `VALUE`? then `END`.
    Get,
    /// A replied `set`: `STORED`.
    Set,
    /// A `version` round trip, used to wait until earlier noreply sets
    /// were applied.
    Ping,
}

/// A request awaiting its reply.
#[derive(Debug, Clone, Copy)]
struct Pending {
    key: u64,
    kind: Kind,
    /// For a get: the `(version, length)` of the last set sent before it.
    expected: Option<(u32, u32)>,
}

/// A request whose reply arrived, in the order the requests were sent.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub key: u64,
    pub kind: Kind,
    /// A get that returned a `VALUE`.
    pub hit: bool,
    /// The reply passed every check.
    pub ok: bool,
}

/// Counters of one connection's checker.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckStats {
    /// Failed requests by [`Failure`] (indexed as in [`Failure::ALL`]).
    pub failures: [u64; 7],
    /// Get hits.
    pub hits: u64,
    /// Hits whose bytes differ from the bytes of the last set.
    pub value_mismatches: u64,
}

impl CheckStats {
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    pub fn merge(&mut self, other: &CheckStats) {
        for (a, b) in self.failures.iter_mut().zip(other.failures) {
            *a += b;
        }
        self.hits += other.hits;
        self.value_mismatches += other.value_mismatches;
    }
}

/// Canonical decimal wire form of an engine key.
pub fn wire_key(key: u64) -> Vec<u8> {
    key.to_string().into_bytes()
}

/// The value bytes of version `version` of `key`: a pseudo-random
/// pattern, so a reply carrying another version's or another key's bytes
/// differs from it.
pub fn value_bytes(key: u64, version: u32, len: usize, out: &mut Vec<u8>) {
    let end = out.len() + len;
    let mut x = key ^ (u64::from(version) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < end {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(end);
}

/// One connection's reply checker.
#[derive(Debug, Default)]
pub struct Checker {
    queue: VecDeque<Pending>,
    /// `(version, length)` of the last set sent per key.
    last_set: HashMap<u64, (u32, u32)>,
    /// State of the get at the head of the queue.
    head_hit: bool,
    head_failed: Option<Failure>,
    pub stats: CheckStats,
    scratch: Vec<u8>,
}

impl Checker {
    /// A checker with room for `keys` keys.
    pub fn with_keys(keys: usize) -> Self {
        Self {
            last_set: HashMap::with_capacity(keys),
            ..Self::default()
        }
    }

    /// Records a set of `len` value bytes sent for `key`; returns the
    /// version whose bytes the caller must send.
    pub fn record_set(&mut self, key: u64, len: u32) -> u32 {
        let version = self.last_set.get(&key).map_or(0, |&(v, _)| v + 1);
        self.last_set.insert(key, (version, len));
        version
    }

    /// Queues a request that expects a reply.
    pub fn expect(&mut self, key: u64, kind: Kind) {
        let expected = match kind {
            Kind::Get => self.last_set.get(&key).copied(),
            Kind::Set | Kind::Ping => None,
        };
        self.queue.push_back(Pending {
            key,
            kind,
            expected,
        });
    }

    /// Requests still waiting for a reply.
    pub fn outstanding(&self) -> usize {
        self.queue.len()
    }

    /// Gives up on every outstanding request, counting each unanswered.
    pub fn abandon(&mut self) {
        self.stats.failures[Failure::Unanswered as usize] += self.queue.len() as u64;
        self.queue.clear();
        self.head_hit = false;
        self.head_failed = None;
    }

    fn fail(&mut self, f: Failure) {
        self.stats.failures[f as usize] += 1;
    }

    fn complete(&mut self, ok: bool, out: &mut Vec<Done>) {
        let head = self.queue.pop_front().expect("a request was at the head");
        out.push(Done {
            key: head.key,
            kind: head.kind,
            hit: self.head_hit,
            ok,
        });
        self.head_hit = false;
        self.head_failed = None;
    }

    /// Parses every complete reply frame at the front of `buf`, pushing
    /// each finished request onto `out`; returns the bytes consumed.
    pub fn feed(&mut self, buf: &[u8], limits: &Limits, out: &mut Vec<Done>) -> usize {
        let mut off = 0;
        loop {
            match parse_response(&buf[off..], limits) {
                ResponseOutcome::Incomplete => return off,
                ResponseOutcome::Garbled(n) => {
                    off += n;
                    self.fail(Failure::Garbled);
                }
                ResponseOutcome::Resp(resp, n) => {
                    off += n;
                    self.on_response(resp, out);
                }
            }
        }
    }

    fn on_response(&mut self, resp: Response<'_>, out: &mut Vec<Done>) {
        let head = self.queue.front().map(|p| (p.kind, p.key, p.expected));
        match (resp, head) {
            (Response::Value { key, data, .. }, Some((Kind::Get, want, expected)))
                if !self.head_hit =>
            {
                self.head_hit = true;
                self.stats.hits += 1;
                let failure = if key != wire_key(want).as_slice() {
                    Some(Failure::WrongKey)
                } else {
                    match expected {
                        None => Some(Failure::NeverSetHit),
                        Some((_, len)) if data.len() != len as usize => Some(Failure::WrongLength),
                        Some((version, len)) => {
                            self.scratch.clear();
                            value_bytes(want, version, len as usize, &mut self.scratch);
                            if data != self.scratch.as_slice() {
                                self.stats.value_mismatches += 1;
                            }
                            None
                        }
                    }
                };
                self.head_failed = self.head_failed.or(failure);
            }
            (Response::End, Some((Kind::Get, _, _))) => match self.head_failed {
                Some(f) => {
                    self.fail(f);
                    self.complete(false, out);
                }
                None => self.complete(true, out),
            },
            (Response::Stored, Some((Kind::Set, _, _)))
            | (Response::Version(_), Some((Kind::Ping, _, _))) => self.complete(true, out),
            (Response::ServerError(_), Some(_)) => {
                self.fail(Failure::Refused);
                self.complete(false, out);
            }
            // A frame that answers nothing outstanding, or the wrong
            // kind of request: count it, and leave the queue alone.
            _ => self.fail(Failure::Unexpected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_proto::wire::encode_value;

    fn value_of(key: u64, version: u32, len: usize) -> Vec<u8> {
        let mut v = Vec::new();
        value_bytes(key, version, len, &mut v);
        v
    }

    fn run(checker: &mut Checker, reply: &[u8]) -> Vec<Done> {
        let mut out = Vec::new();
        let used = checker.feed(reply, &Limits::default(), &mut out);
        assert_eq!(used, reply.len(), "whole reply consumed");
        out
    }

    #[test]
    fn value_bytes_depend_on_key_and_version() {
        assert_eq!(value_of(7, 0, 13).len(), 13);
        assert_eq!(value_of(7, 0, 13), value_of(7, 0, 13));
        assert_ne!(value_of(7, 0, 13), value_of(7, 1, 13));
        assert_ne!(value_of(7, 0, 13), value_of(8, 0, 13));
        assert_eq!(value_of(7, 0, 20)[..13], value_of(7, 0, 13)[..]);
    }

    #[test]
    fn correct_replies_pass() {
        let mut c = Checker::default();
        let v = c.record_set(42, 5);
        c.expect(42, Kind::Set);
        c.expect(42, Kind::Get);
        c.expect(43, Kind::Get);
        let mut reply = b"STORED\r\n".to_vec();
        encode_value(&mut reply, b"42", 0, None, &value_of(42, v, 5));
        reply.extend_from_slice(b"END\r\nEND\r\n");
        let done = run(&mut c, &reply);
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|d| d.ok));
        assert!(done[1].hit && !done[2].hit);
        assert_eq!(c.stats.failed(), 0);
        assert_eq!(c.stats.value_mismatches, 0);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn corrupted_replies_are_counted() {
        let mut c = Checker::default();
        c.record_set(1, 10);
        c.record_set(2, 10);
        c.expect(1, Kind::Get); // wrong length
        c.expect(2, Kind::Get); // foreign key
        c.expect(3, Kind::Get); // never set, yet a hit
        c.expect(1, Kind::Set); // refused
        let mut reply = Vec::new();
        encode_value(&mut reply, b"1", 0, None, &[0u8; 9]);
        reply.extend_from_slice(b"END\r\n");
        encode_value(&mut reply, b"99", 0, None, &[0u8; 10]);
        reply.extend_from_slice(b"END\r\n");
        encode_value(&mut reply, b"3", 0, None, b"xyz");
        reply.extend_from_slice(b"END\r\n");
        reply.extend_from_slice(b"SERVER_ERROR shard unavailable\r\n");
        reply.extend_from_slice(b"STORED\r\nVALUE\r\n");
        let done = run(&mut c, &reply);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|d| !d.ok));
        let f = |c: &Checker, x: Failure| c.stats.failures[x as usize];
        assert_eq!(f(&c, Failure::WrongLength), 1);
        assert_eq!(f(&c, Failure::WrongKey), 1);
        assert_eq!(f(&c, Failure::NeverSetHit), 1);
        assert_eq!(f(&c, Failure::Refused), 1);
        assert_eq!(f(&c, Failure::Unexpected), 1, "stray STORED");
        assert_eq!(f(&c, Failure::Garbled), 1, "bare VALUE line");
        c.expect(5, Kind::Get);
        c.abandon();
        assert_eq!(f(&c, Failure::Unanswered), 1);
        assert_eq!(c.stats.failed(), 7);
    }

    #[test]
    fn stale_bytes_count_as_mismatch_not_failure() {
        let mut c = Checker::default();
        c.record_set(9, 4);
        c.expect(9, Kind::Get);
        // A later set does not change what the earlier get must return.
        let v1 = c.record_set(9, 6);
        assert_eq!(v1, 1);
        let mut reply = Vec::new();
        encode_value(&mut reply, b"9", 0, None, b"abcd");
        reply.extend_from_slice(b"END\r\n");
        let done = run(&mut c, &reply);
        assert!(done[0].ok && done[0].hit);
        assert_eq!(c.stats.value_mismatches, 1);
        assert_eq!(c.stats.failed(), 0);
    }
}
