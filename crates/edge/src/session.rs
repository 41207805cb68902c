//! Per-connection session state: handshake, streaming frame decode,
//! buffered writes, read-your-writes tracking, and progress timestamps for
//! the slow-client (slowloris) guard.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use gfsl_serve::Reply;
use gfsl_workload::ServeOp;

use crate::proto::{self, DecodeError, Req, Resp};

/// How much a session reads per poll pass, bytes.
const READ_CHUNK: usize = 16 * 1024;

/// Inbound buffer high-water mark: once this much undecoded input is
/// sitting in `rbuf`, the session stops reading the socket and lets TCP
/// backpressure throttle the peer (the kernel buffer fills, the peer's
/// writes stall). Keeps a firehose client from ballooning server memory.
const RBUF_HIGH: usize = 64 * 1024;

/// What one poll pass over a session's socket produced.
#[derive(Debug, Default)]
pub struct SessionIo {
    /// Requests decoded this pass, in wire order.
    pub reqs: Vec<(u64, Req)>,
    /// The connection hit EOF or a fatal socket error.
    pub closed: bool,
    /// The peer broke framing (a typed [`Resp::Proto`] was queued; the
    /// session must be flushed once and then shed).
    pub proto_error: Option<DecodeError>,
}

/// One accepted connection owned by a worker thread.
pub struct Session {
    stream: TcpStream,
    /// Undecoded inbound bytes (at most one partial frame after a pass).
    rbuf: Vec<u8>,
    /// Encoded outbound bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    handshaken: bool,
    /// Set once a protocol violation queued the final `Proto` frame: the
    /// session closes as soon as that frame is flushed (or times out).
    pub dying: bool,
    /// Last instant the connection made byte progress in either direction.
    pub last_progress: Instant,
    /// Requests admitted to the batcher but not yet answered.
    pub inflight: usize,
    /// The session's acknowledged writes: key → value it last wrote
    /// (`None` = deleted). What read-your-writes is checked against.
    last_writes: HashMap<u32, Option<u32>>,
    /// `Get`s whose presence answer differed from this session's last
    /// acknowledged write of the key. A violation only when no other
    /// session writes the key (disjoint per-session namespaces): another
    /// session's `Delete` or `PopMin` in between makes the same count on
    /// a linearizable history (`tests::another_sessions_remove_is_counted`).
    pub ryw_violations: u64,
}

impl Session {
    /// Wrap an accepted stream (worker sets it nonblocking first) and queue
    /// the server hello.
    pub fn new(stream: TcpStream, now: Instant) -> Session {
        let mut wbuf = Vec::with_capacity(1024);
        proto::encode_hello(&mut wbuf);
        Session {
            stream,
            rbuf: Vec::with_capacity(1024),
            wbuf,
            wpos: 0,
            handshaken: false,
            dying: false,
            last_progress: now,
            inflight: 0,
            last_writes: HashMap::new(),
            ryw_violations: 0,
        }
    }

    /// Drain readable bytes (up to the buffer high-water mark) and decode
    /// at most `max_frames` complete frames; surplus input stays buffered
    /// for later passes — and, past the high-water mark, in the kernel's
    /// socket buffer, where TCP backpressure throttles the peer. Never
    /// blocks.
    pub fn poll_read(&mut self, now: Instant, max_frames: usize) -> SessionIo {
        let mut io = SessionIo::default();
        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() < RBUF_HIGH {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    io.closed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_progress = now;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    io.closed = true;
                    break;
                }
            }
        }
        if self.dying {
            // Already poisoned: drop whatever else the peer sends.
            self.rbuf.clear();
            return io;
        }
        if !self.handshaken {
            if self.rbuf.len() < proto::HELLO_LEN {
                return io;
            }
            match proto::check_hello(&self.rbuf) {
                Ok(()) => {
                    self.rbuf.drain(..proto::HELLO_LEN);
                    self.handshaken = true;
                }
                Err(e) => {
                    self.fail_protocol(e, &mut io);
                    return io;
                }
            }
        }
        let mut at = 0;
        while io.reqs.len() < max_frames {
            match proto::decode_req(&self.rbuf[at..]) {
                Ok((id, req, used)) => {
                    io.reqs.push((id, req));
                    at += used;
                }
                Err(DecodeError::Incomplete) => break,
                Err(e) => {
                    self.fail_protocol(e, &mut io);
                    // fail_protocol cleared rbuf; nothing left to drain.
                    return io;
                }
            }
        }
        self.rbuf.drain(..at);
        io
    }

    fn fail_protocol(&mut self, e: DecodeError, io: &mut SessionIo) {
        // One typed error frame, then the connection is shed: a peer that
        // broke framing can never resynchronize, so there is nothing to
        // parse after this point.
        Resp::Proto { code: e.code() }.encode(0, &mut self.wbuf);
        self.dying = true;
        self.rbuf.clear();
        io.proto_error = Some(e);
    }

    /// Queue one response frame.
    pub fn push_resp(&mut self, req_id: u64, resp: &Resp) {
        resp.encode(req_id, &mut self.wbuf);
    }

    /// Record the outcome of one of this session's engine requests: updates
    /// the read-your-writes table on acknowledged writes and checks it on
    /// reads. Must be called in completion order (which the per-session
    /// pipeline guarantees).
    pub fn observe_reply(&mut self, op: ServeOp, reply: &Reply) {
        match (op, reply) {
            (ServeOp::Insert(k, v), Reply::Inserted(true)) => {
                self.last_writes.insert(k, Some(v));
            }
            (ServeOp::Delete(k), Reply::Deleted(true)) => {
                self.last_writes.insert(k, None);
            }
            (ServeOp::PopMin, Reply::Popped(Some((k, _)))) => {
                self.last_writes.insert(*k, None);
            }
            (ServeOp::Get(k), Reply::Got(got)) => {
                if let Some(expect) = self.last_writes.get(&k) {
                    // Presence must match; the value may legitimately have
                    // been rewritten by another session (delete + reinsert),
                    // so only existence contradicts read-your-writes.
                    if expect.is_some() != got.is_some() {
                        self.ryw_violations += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// Flush queued output. Never blocks; returns `false` when the socket
    /// died. Compacts the write buffer once fully drained.
    pub fn poll_write(&mut self, now: Instant) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wpos += n;
                    self.last_progress = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    /// Unflushed output bytes.
    pub fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// True when the peer owes the server bytes (a partial frame sits in
    /// the read buffer) or refuses to take them (unflushed output) — the
    /// states the slow-client timeout applies to. A quiet session with
    /// clean buffers is just an idle client thinking.
    pub fn stalled(&self) -> bool {
        !self.rbuf.is_empty() || self.pending_out() > 0 || !self.handshaken || self.dying
    }

    /// A dying session is dropped once its final error frame went out (or
    /// it cannot accept even that).
    pub fn dead(&self) -> bool {
        self.dying && self.pending_out() == 0 && self.inflight == 0
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use gfsl::history::{check_linearizable, OpAction, OpRecord};

    use super::*;

    /// A session on the accepted end of a loopback pair, and the peer end
    /// that keeps it open.
    fn session() -> (Session, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Session::new(stream, Instant::now()), peer)
    }

    /// The counter fires on a legal history: A inserts `k`, another session
    /// removes it, A reads it absent.
    #[test]
    fn another_sessions_remove_is_counted() {
        let (k, v) = (7, 70);
        for (remove, removed) in [
            (ServeOp::Delete(k), Reply::Deleted(true)),
            (ServeOp::PopMin, Reply::Popped(Some((k, v)))),
        ] {
            let (mut a, _peer_a) = session();
            let (mut b, _peer_b) = session();
            a.observe_reply(ServeOp::Insert(k, v), &Reply::Inserted(true));
            b.observe_reply(remove, &removed);
            a.observe_reply(ServeOp::Get(k), &Reply::Got(None));
            assert_eq!((a.ryw_violations, b.ryw_violations), (1, 0), "{remove:?}");

            let records: Vec<OpRecord> = [
                OpAction::Insert { value: v, ok: true },
                OpAction::Remove { ok: true },
                OpAction::Get { found: None },
            ]
            .into_iter()
            .zip(0u64..)
            .map(|(action, i)| OpRecord { key: k, action, invoke: 2 * i, ret: 2 * i + 1 })
            .collect();
            assert_eq!(check_linearizable(&records, &HashMap::new()), Ok(()));
        }
    }
}
