//! Robustness of the NTP request side: what `PoolServer::handle` /
//! `handle_at_rate` parse, and the mode-6/7 responses they emit, under
//! truncation at every length and every byte flipped. The expectation
//! is read off the raw bytes, not off `Packet::parse`: a mutated request
//! is answered exactly as its own first byte says it may be, or not at
//! all — never with a panic.

use netsim::country;
use netsim::time::SimTime;
use ntppool::{NtpDaemon, PoolServer};
use wire::ntp::{Mode, NtpTimestamp, Packet, HEADER_LEN};

const DAEMONS: [NtpDaemon; 4] = [
    NtpDaemon::NtpdClassic,
    NtpDaemon::Ntpsec,
    NtpDaemon::Chrony,
    NtpDaemon::Openntpd,
];
const MASKS: [u8; 3] = [0x01, 0x80, 0xff];
const NOW: SimTime = SimTime(1_000);
const CURRENT_RPS: u64 = 2;

fn requests() -> [Vec<u8>; 3] {
    [
        Packet::client_request(NtpTimestamp::from_unix_secs(1_721_500_000)).emit(),
        Packet::control_request(1).emit(),
        Packet::private_request().emit(),
    ]
}

/// Every truncation of `bytes`, then every byte × every mask.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len()).flat_map(move |i| {
        MASKS.iter().map(move |mask| {
            let mut bad = bytes.to_vec();
            bad[i] ^= mask;
            bad
        })
    });
    std::iter::once(bytes.to_vec()).chain(cuts).chain(flips)
}

/// The mode a well-formed request carries (`None`: too short or a
/// version the server does not speak).
fn request_mode(req: &[u8]) -> Option<u8> {
    let b0 = *req.first()?;
    let version = (b0 >> 3) & 0b111;
    (req.len() >= HEADER_LEN && (1..=4).contains(&version)).then_some(b0 & 0b111)
}

/// Holds one answer to what `req` may be answered with.
fn check_answer(server: &PoolServer, req: &[u8], shedding: bool, answer: Option<Vec<u8>>) {
    let ctx = format!("{:?} shedding={shedding} req={req:02x?}", server.daemon);
    let expect_mode = match request_mode(req) {
        Some(3) => Some(Mode::Server),
        Some(6) if server.daemon.answers_mode6() && !shedding => Some(Mode::Control),
        Some(7) if server.daemon.answers_mode7() && !shedding => Some(Mode::Private),
        _ => None,
    };
    let Some(mode) = expect_mode else {
        assert_eq!(answer, None, "answered what it must not: {ctx}");
        return;
    };
    let bytes = answer.unwrap_or_else(|| panic!("silent: {ctx}"));
    let rsp = Packet::parse(&bytes).unwrap_or_else(|e| panic!("unparseable answer ({e}): {ctx}"));
    assert_eq!(rsp.mode, mode, "{ctx}");
    if mode == Mode::Server {
        // Time answers and KoDs both echo the client's transmit stamp.
        assert_eq!(rsp.origin_ts.0.to_be_bytes(), req[40..48], "{ctx}");
        assert_eq!(rsp.is_kiss_of_death(), shedding, "{ctx}");
        assert_eq!(rsp.kiss_code(), shedding.then_some("RATE"), "{ctx}");
        assert_eq!(rsp.daemon_banner(), None, "{ctx}");
    } else {
        assert_eq!(rsp.daemon_banner(), Some(server.daemon.banner()), "{ctx}");
        assert_eq!(rsp.kiss_code(), None, "{ctx}");
    }
}

#[test]
fn mutated_requests_are_answered_by_their_own_mode_or_not_at_all() {
    for daemon in DAEMONS {
        for max_rps in [0, 1] {
            let server = PoolServer {
                max_rps,
                daemon,
                ..PoolServer::background(country::DE)
            };
            let shedding = max_rps > 0 && CURRENT_RPS > max_rps;
            for clean in requests() {
                for req in mutations(&clean) {
                    check_answer(&server, &req, false, server.handle(&req, NOW));
                    check_answer(
                        &server,
                        &req,
                        shedding,
                        server.handle_at_rate(&req, NOW, CURRENT_RPS),
                    );
                }
            }
        }
    }
}

#[test]
fn mutated_control_and_private_responses_decode_or_fail_typed() {
    let [_, control, private] = requests();
    let mut responses = 0;
    for daemon in DAEMONS {
        let server = PoolServer {
            daemon,
            ..PoolServer::background(country::DE)
        };
        for req in [&control, &private] {
            let Some(clean) = server.handle(req, NOW) else {
                continue;
            };
            responses += 1;
            for bytes in mutations(&clean) {
                let Ok(pkt) = Packet::parse(&bytes) else {
                    assert!(
                        request_mode(&bytes).is_none(),
                        "refused a well-formed header: {bytes:02x?}"
                    );
                    continue;
                };
                // An accepted header is a value: it re-emits to the bytes
                // it came from, and both readers agree with those bytes.
                assert_eq!(pkt.emit(), bytes[..HEADER_LEN], "{bytes:02x?}");
                let (mode, stratum) = (bytes[0] & 0b111, bytes[1]);
                let banner: [u8; 4] = bytes[12..16].try_into().unwrap();
                assert_eq!(
                    pkt.daemon_banner(),
                    ((mode == 6 || mode == 7) && stratum != 0).then_some(banner),
                    "{bytes:02x?}"
                );
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
    // ntpd answers both surfaces, NTPsec and chrony mode 6, OpenNTPD none.
    assert_eq!(responses, 4);
}
