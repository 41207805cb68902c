//! Blocking edge client: handshake, pipelined request frames, and typed
//! response matching by request id.
//!
//! The client is deliberately simple — it exists for the load generator,
//! the tests, and as the reference implementation of the wire contract.
//! Requests pipeline freely over one socket; responses are matched to
//! request ids, so callers can keep many in flight and consume completions
//! out of order.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::proto::{self, DecodeError, Req, Resp};

/// A connected, handshaken edge client.
pub struct EdgeClient {
    stream: TcpStream,
    /// Encoded frames not yet flushed.
    out: Vec<u8>,
    /// Inbound bytes not yet decoded.
    inbuf: Vec<u8>,
    /// Completions decoded but not yet claimed, in wire order.
    ready: VecDeque<(u64, Resp)>,
    next_id: u64,
}

fn proto_err(e: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

impl EdgeClient {
    /// Connect and exchange hellos. `read_timeout` bounds every blocking
    /// receive (`None` = wait forever).
    pub fn connect(addr: SocketAddr, read_timeout: Option<Duration>) -> io::Result<EdgeClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        let mut hello = Vec::with_capacity(proto::HELLO_LEN);
        proto::encode_hello(&mut hello);
        stream.write_all(&hello)?;
        let mut server_hello = [0u8; proto::HELLO_LEN];
        stream.read_exact(&mut server_hello)?;
        proto::check_hello(&server_hello).map_err(proto_err)?;
        Ok(EdgeClient {
            stream,
            out: Vec::with_capacity(4096),
            inbuf: Vec::with_capacity(4096),
            ready: VecDeque::new(),
            next_id: 1,
        })
    }

    /// Queue one request; returns its id. Nothing hits the socket until
    /// [`EdgeClient::flush`] (or a blocking receive, which flushes first).
    pub fn send(&mut self, req: Req) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        req.encode(id, &mut self.out);
        id
    }

    /// Write all queued frames to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    fn drain_inbuf(&mut self) -> io::Result<()> {
        let mut at = 0;
        loop {
            match proto::decode_resp(&self.inbuf[at..]) {
                Ok((id, resp, used)) => {
                    self.ready.push_back((id, resp));
                    at += used;
                }
                Err(DecodeError::Incomplete) => break,
                Err(e) => return Err(proto_err(e)),
            }
        }
        self.inbuf.drain(..at);
        Ok(())
    }

    /// Block until the response for `id` arrives (flushing queued requests
    /// first). Respects the connect-time read timeout.
    pub fn recv(&mut self, id: u64) -> io::Result<Resp> {
        self.flush()?;
        loop {
            if let Some(at) = self.ready.iter().position(|&(r, _)| r == id) {
                return Ok(self.ready.remove(at).expect("position is in range").1);
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.inbuf.extend_from_slice(&chunk[..n]);
            self.drain_inbuf()?;
        }
    }

    /// Claim the oldest already-decoded completion (wire order) without
    /// touching the socket; `None` when nothing is ready in-process.
    pub fn take_ready(&mut self) -> Option<(u64, Resp)> {
        self.ready.pop_front()
    }

    /// Pull whatever the socket has right now (nonblocking-ish: one read
    /// with the configured timeout treated as "nothing yet"), decode, and
    /// report how many completions are ready.
    pub fn poll(&mut self) -> io::Result<usize> {
        self.flush()?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => {
                self.inbuf.extend_from_slice(&chunk[..n]);
                self.drain_inbuf()?;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        Ok(self.ready.len())
    }

    /// Round-trip one request (send, flush, await its reply).
    pub fn call(&mut self, req: Req) -> io::Result<Resp> {
        let id = self.send(req);
        self.recv(id)
    }

    /// Round-trip a `Get`.
    pub fn get(&mut self, key: u32) -> io::Result<Resp> {
        self.call(Req::Get(key))
    }

    /// Round-trip an `Insert`.
    pub fn insert(&mut self, key: u32, value: u32) -> io::Result<Resp> {
        self.call(Req::Insert(key, value))
    }

    /// Round-trip a `Delete`.
    pub fn delete(&mut self, key: u32) -> io::Result<Resp> {
        self.call(Req::Delete(key))
    }

    /// Round-trip a `PopMin`.
    pub fn pop_min(&mut self) -> io::Result<Resp> {
        self.call(Req::PopMin)
    }

    /// Round-trip a `SnapRange` (version-pinned window count).
    pub fn snap_range(&mut self, lo: u32, hi: u32) -> io::Result<Resp> {
        self.call(Req::SnapRange(lo, hi))
    }

    /// Access the underlying socket (tests use this to misbehave on
    /// purpose — raw writes that violate framing).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A peer that completes the handshake, then writes `ids`' replies in
    /// that order and holds the socket open until the client is done.
    fn scripted_peer(ids: &'static [u64]) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut hello = [0u8; proto::HELLO_LEN];
            s.read_exact(&mut hello).unwrap();
            let mut out = Vec::new();
            proto::encode_hello(&mut out);
            for &id in ids {
                Resp::Got(Some(id as u32)).encode(id, &mut out);
            }
            s.write_all(&out).unwrap();
            // Wait for the client to hang up.
            let _ = s.read(&mut hello);
        });
        (addr, peer)
    }

    #[test]
    fn completions_come_back_in_wire_order_and_recv_finds_any_id() {
        let (addr, peer) = scripted_peer(&[3, 1, 4, 2, 5]);
        let mut c = EdgeClient::connect(addr, Some(Duration::from_secs(5))).unwrap();
        // Out of order: 2 sits behind 3, 1 and 4 on the wire.
        assert_eq!(c.recv(2).unwrap(), Resp::Got(Some(2)));
        while c.ready.len() < 4 {
            c.poll().unwrap();
        }
        let taken: Vec<u64> = std::iter::from_fn(|| c.take_ready()).map(|(id, _)| id).collect();
        assert_eq!(taken, vec![3, 1, 4, 5], "the rest in the order they arrived");
        drop(c);
        peer.join().unwrap();
    }
}
