//! Robustness of the NTP exchange a pool server takes part in: what
//! `PoolServer::handle` / `handle_at_rate` parse, and the time answers
//! and KoDs they emit, under truncation at every length, every byte
//! flipped and every mode written into the first byte. The expectation
//! is read off the raw bytes, not off `Packet::parse`: a mutated request
//! is answered exactly when its own first byte says it is a mode-3
//! client request, or not at all — never with a panic.

use netsim::country;
use netsim::time::SimTime;
use ntppool::PoolServer;
use wire::ntp::{Mode, NtpTimestamp, Packet, HEADER_LEN};
use wire::WireError;

const MASKS: [u8; 3] = [0x01, 0x80, 0xff];
const NOW: SimTime = SimTime(1_000);
const CURRENT_RPS: u64 = 2;

fn request() -> [u8; HEADER_LEN] {
    Packet::client_request(NtpTimestamp::from_unix_secs(1_721_500_000)).emit()
}

/// Every truncation of `bytes`, every byte × every mask, then `bytes`
/// with each of the eight modes in its first byte.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len()).flat_map(move |i| {
        MASKS.iter().map(move |mask| {
            let mut bad = bytes.to_vec();
            bad[i] ^= mask;
            bad
        })
    });
    let modes = (0..8u8).map(move |mode| {
        let mut bad = bytes.to_vec();
        bad[0] = (bad[0] & !0b111) | mode;
        bad
    });
    std::iter::once(bytes.to_vec())
        .chain(cuts)
        .chain(flips)
        .chain(modes)
}

/// The mode a well-formed header carries (`None`: too short or a
/// version the server does not speak).
fn header_mode(bytes: &[u8]) -> Option<u8> {
    let b0 = *bytes.first()?;
    let version = (b0 >> 3) & 0b111;
    (bytes.len() >= HEADER_LEN && (1..=4).contains(&version)).then_some(b0 & 0b111)
}

/// Holds one answer to what `req` may be answered with: a time answer
/// (a `RATE` KoD while shedding) for a mode-3 request, else silence.
fn check_answer(req: &[u8], shedding: bool, answer: Option<Vec<u8>>) {
    let ctx = format!("shedding={shedding} req={req:02x?}");
    if header_mode(req) != Some(3) {
        assert_eq!(answer, None, "answered what it must not: {ctx}");
        return;
    }
    let bytes = answer.unwrap_or_else(|| panic!("silent: {ctx}"));
    let rsp = Packet::parse(&bytes).unwrap_or_else(|e| panic!("unparseable answer ({e}): {ctx}"));
    assert_eq!(rsp.mode, Mode::Server, "{ctx}");
    // Time answers and KoDs both echo the client's transmit stamp.
    assert_eq!(rsp.origin_ts.0.to_be_bytes(), req[40..48], "{ctx}");
    assert_eq!(rsp.is_kiss_of_death(), shedding, "{ctx}");
    assert_eq!(rsp.kiss_code(), shedding.then_some("RATE"), "{ctx}");
}

#[test]
fn mutated_requests_are_answered_by_their_own_mode_or_not_at_all() {
    let clean = request();
    let mut modes_seen = [false; 8];
    for req in mutations(&clean) {
        if let Some(mode) = header_mode(&req) {
            modes_seen[usize::from(mode)] = true;
        }
    }
    assert_eq!(modes_seen, [true; 8], "the mutations reach every mode");
    for max_rps in [0, 1] {
        let server = PoolServer {
            max_rps,
            ..PoolServer::background(country::DE)
        };
        let shedding = max_rps > 0 && CURRENT_RPS > max_rps;
        for req in mutations(&clean) {
            check_answer(&req, false, server.handle(&req, NOW));
            check_answer(
                &req,
                shedding,
                server.handle_at_rate(&req, NOW, CURRENT_RPS),
            );
        }
    }
}

/// The server's time answer and its `RATE` KoD — the bytes the
/// collection loop's client parses — under the same mutations.
#[test]
fn mutated_control_and_private_responses_decode_or_fail_typed() {
    let server = PoolServer {
        max_rps: 1,
        ..PoolServer::background(country::DE)
    };
    let time = server.handle(&request(), NOW).expect("a time answer");
    let kod = server
        .handle_at_rate(&request(), NOW, CURRENT_RPS)
        .expect("a RATE KoD");
    for clean in [time, kod] {
        for bytes in mutations(&clean) {
            let pkt = match Packet::parse(&bytes) {
                Ok(pkt) => pkt,
                Err(e) => {
                    let typed = if bytes.len() < HEADER_LEN {
                        WireError::Truncated
                    } else {
                        WireError::UnsupportedVersion
                    };
                    assert_eq!(e, typed, "{bytes:02x?}");
                    assert_eq!(header_mode(&bytes), None, "refused a well-formed header");
                    continue;
                }
            };
            // An accepted header is a value: it re-emits to the bytes it
            // came from, and its kiss code agrees with those bytes.
            assert_eq!(pkt.emit(), bytes[..HEADER_LEN], "{bytes:02x?}");
            let (mode, stratum) = (bytes[0] & 0b111, bytes[1]);
            assert_eq!(
                pkt.kiss_code(),
                (mode == 4 && stratum == 0)
                    .then(|| std::str::from_utf8(&bytes[12..16]).ok())
                    .flatten(),
                "{bytes:02x?}"
            );
        }
    }
}
