//! Protocol robustness: the frame decoder must answer arbitrary bytes —
//! truncated, oversized, bit-flipped, or garbage — with a typed
//! [`DecodeError`], never a panic and never unbounded buffering; and the
//! server must shed a misbehaving connection with one typed `Proto` frame.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gfsl::{Gfsl, GfslParams};
use gfsl_cluster::Cluster;
use gfsl_edge::proto::{self, DecodeError, Req, Resp};
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeEngine, EdgeServer};
use proptest::prelude::*;

fn req_strategy() -> impl Strategy<Value = Req> {
    prop_oneof![
        Just(Req::Ping),
        any::<u32>().prop_map(Req::Get),
        (any::<u32>(), any::<u32>()).prop_map(|(k, v)| Req::Insert(k, v)),
        any::<u32>().prop_map(Req::Delete),
        (any::<u32>(), any::<u32>()).prop_map(|(lo, hi)| Req::Range(lo, hi)),
        Just(Req::MinEntry),
        Just(Req::PopMin),
        (any::<u32>(), any::<u32>()).prop_map(|(lo, hi)| Req::SnapRange(lo, hi)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes never panic the request decoder, and consumed
    /// lengths stay inside the buffer.
    #[test]
    fn arbitrary_bytes_never_panic_decode(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        match proto::decode_req(&bytes) {
            Ok((_, _, used)) => prop_assert!(used <= bytes.len()),
            Err(e) => prop_assert!(e.code() <= 8, "typed error, stable code"),
        }
        match proto::decode_resp(&bytes) {
            Ok((_, _, used)) => prop_assert!(used <= bytes.len()),
            Err(e) => prop_assert!(e.code() <= 8),
        }
    }

    /// Every well-formed request round-trips, and every strict prefix of
    /// its encoding reports `Incomplete` — never a false decode.
    #[test]
    fn requests_roundtrip_and_prefixes_are_incomplete(
        req in req_strategy(),
        id in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        req.encode(id, &mut buf);
        let (got_id, got, used) = proto::decode_req(&buf).unwrap();
        prop_assert_eq!((got_id, got, used), (id, req, buf.len()));
        for cut in 0..buf.len() {
            prop_assert_eq!(proto::decode_req(&buf[..cut]).unwrap_err(), DecodeError::Incomplete);
        }
    }

    /// A single flipped bit in a valid frame either still decodes (the
    /// flip landed in a key/value/id payload) or fails typed — and a
    /// corrupted length can never demand more than `MAX_PAYLOAD` bytes.
    #[test]
    fn bit_flips_fail_typed_or_stay_bounded(
        req in req_strategy(),
        id in any::<u64>(),
        flip_byte in 0usize..32,
        flip_bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        req.encode(id, &mut buf);
        let i = flip_byte % buf.len();
        buf[i] ^= 1 << flip_bit;
        match proto::decode_req(&buf) {
            Ok((_, _, used)) => prop_assert!(used <= buf.len()),
            Err(DecodeError::Incomplete) => {
                // The flip enlarged the length field; the claim must stay
                // within the protocol's hard payload bound.
                let claimed = u16::from_le_bytes([buf[0], buf[1]]) as usize;
                prop_assert!(claimed <= proto::MAX_PAYLOAD);
            }
            Err(e) => prop_assert!(e.code() >= 1 && e.code() <= 8),
        }
    }

    /// Oversized length claims are rejected from the header alone.
    #[test]
    fn oversized_lengths_reject_immediately(len in (proto::MAX_PAYLOAD as u16 + 1)..u16::MAX) {
        let bytes = len.to_le_bytes();
        prop_assert_eq!(proto::decode_req(&bytes).unwrap_err(), DecodeError::Oversized(len));
    }
}

/// Feeding the live server garbage after a valid handshake yields one
/// typed `Proto` frame and a close — for a whole gallery of malformations.
#[test]
fn server_sheds_each_malformation_with_a_typed_frame() {
    let engine = EdgeEngine::Single(Arc::new(Gfsl::new(GfslParams::default()).unwrap()));
    let server = EdgeServer::start(engine, EdgeConfig::default()).unwrap();

    let valid = {
        let mut b = Vec::new();
        Req::Get(1).encode(1, &mut b);
        b
    };
    let cases: Vec<(Vec<u8>, u8)> = vec![
        // Oversized length claim.
        (u16::MAX.to_le_bytes().to_vec(), DecodeError::Oversized(u16::MAX).code()),
        // Runt length claim.
        ({
            let mut b = 3u16.to_le_bytes().to_vec();
            b.extend_from_slice(&[0; 3]);
            b
        }, DecodeError::Runt(3).code()),
        // Unknown tag.
        ({
            let mut b = valid.clone();
            b[2] = 0x5A;
            b
        }, DecodeError::BadTag(0x5A).code()),
        // Trailing bytes inside the declared length.
        ({
            let mut b = Vec::new();
            Req::Ping.encode(1, &mut b);
            b[0] = 10;
            b.push(0xFF);
            b
        }, DecodeError::Trailing(0).code()),
    ];

    for (i, (garbage, expect_code)) in cases.into_iter().enumerate() {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut hello = Vec::new();
        proto::encode_hello(&mut hello);
        s.write_all(&hello).unwrap();
        let mut server_hello = [0u8; proto::HELLO_LEN];
        s.read_exact(&mut server_hello).unwrap();
        s.write_all(&garbage).unwrap();

        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("case {i}: expected clean close, got {e}"),
            }
        }
        let (_, resp, used) = proto::decode_resp(&buf).unwrap();
        match resp {
            Resp::Proto { code } => assert_eq!(code, expect_code, "case {i}"),
            other => panic!("case {i}: expected Proto frame, got {other:?}"),
        }
        assert_eq!(used, buf.len(), "case {i}: exactly one final frame");
    }

    // A bad handshake is also a typed shed, before any framing.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"NOPEnope").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("handshake case: expected clean close, got {e}"),
        }
    }
    // Server hello first, then the Proto frame.
    proto::check_hello(&buf[..proto::HELLO_LEN]).unwrap();
    let (_, resp, _) = proto::decode_resp(&buf[proto::HELLO_LEN..]).unwrap();
    assert_eq!(resp, Resp::Proto { code: DecodeError::BadMagic.code() });

    let stats = server.shutdown();
    assert_eq!(stats.proto_errors, 5, "four framing cases + one handshake");
    assert_eq!(stats.ops_ok, 0, "no garbage ever reached the engine");
}

/// Well-formed frames carrying hostile *values* — reserved keys, windows
/// that touch them, inverted windows — reach the engine, and a
/// cluster-backed worker must answer each typed, exactly as a
/// single-structure server does, and still be there afterwards: the
/// cluster's per-op API asserts on every one of these, and a panic would
/// take the worker (and every connection pinned to it) down.
#[test]
fn cluster_server_answers_hostile_values_like_the_single_engine() {
    let edges = [0u32, 1, 5, 9, 1 << 31, u32::MAX - 1, u32::MAX];
    let mut reqs = vec![
        Req::Get(0),
        Req::Get(u32::MAX),
        Req::Insert(0, 1),
        Req::Delete(u32::MAX),
        Req::Range(0, 5),
        Req::Range(9, 3),
        Req::Range(1, u32::MAX),
    ];
    for a in edges {
        reqs.extend([Req::Insert(a, 7), Req::Get(a), Req::MinEntry]);
        for b in edges {
            reqs.extend([Req::Range(a, b), Req::SnapRange(a, b)]);
        }
        reqs.extend([Req::Delete(a), Req::PopMin]);
    }

    let keys = [2u32, 5, 1_500_000_000, 2_500_000_000, 3_500_000_000, u32::MAX - 1];
    let cluster = Cluster::new(GfslParams::default(), 4).unwrap();
    for k in keys {
        cluster.insert(k, k).unwrap();
    }
    let engines = [
        EdgeEngine::Single(Arc::new(Gfsl::prefilled(GfslParams::default(), keys).unwrap())),
        EdgeEngine::Cluster(Arc::new(cluster)),
    ];
    // One request in flight at a time, so each is its own epoch and the
    // two servers execute the same sequence.
    let answers = engines.map(|engine| {
        let server = EdgeServer::start(engine, EdgeConfig::default()).unwrap();
        let mut client = EdgeClient::connect(server.addr(), Some(Duration::from_secs(5))).unwrap();
        let got: Vec<Resp> = reqs
            .iter()
            .map(|&req| client.call(req).expect("the worker answers every frame"))
            .collect();
        assert_eq!(client.call(Req::Ping).unwrap(), Resp::Pong, "worker still serving");
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.proto_errors, 0, "every frame was well-formed");
        got
    });
    assert_eq!(answers[0], answers[1]);
}
