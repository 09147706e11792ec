//! Per-protocol probers: build probe bytes, parse response bytes.
//!
//! Each prober is the moral equivalent of a zgrab2 module. Probes carry
//! the study's identification (user agent / client id), per the ethics
//! appendix. The TLS-wrapped probes send `ClientHello || inner-probe` and
//! expect `ServerResponse || inner-response` (see
//! [`netsim::services`] for the framing rationale).

use crate::result::{CertMeta, Protocol, ServiceResult, TlsOutcome};
use netsim::time::SimTime;
use netsim::world::World;
use std::net::Ipv6Addr;
use wire::ssh::{HostKeyReply, Identification};
use wire::tls::{ClientHello, ServerResponse, Version};
use wire::{amqp, coap, http, mqtt};

/// The study's identification string, visible in protocol fields.
pub const SCANNER_ID: &str = "ttscan-research/0.1 (+https://ttscan.example.org)";

/// Builds the probe bytes for a protocol.
///
/// HTTPS is probed without SNI: the scanner targets raw addresses and has
/// no hostname — the exact condition that fails against CDN front-ends
/// (§4.2).
pub fn build_probe(protocol: Protocol) -> Vec<u8> {
    match protocol {
        Protocol::Http => http::Request::scanner_get(SCANNER_ID).emit(),
        Protocol::Https => {
            let mut probe = ClientHello {
                version: Version::Tls13,
                server_name: None,
            }
            .emit();
            probe.extend(http::Request::scanner_get(SCANNER_ID).emit());
            probe
        }
        Protocol::Ssh => Identification::new("TTScan_0.1", Some(SCANNER_ID)).emit(),
        Protocol::Mqtt => mqtt::Connect::anonymous_probe("ttscan-research").emit(),
        Protocol::Mqtts => {
            let mut probe = ClientHello {
                version: Version::Tls13,
                server_name: None,
            }
            .emit();
            probe.extend(mqtt::Connect::anonymous_probe("ttscan-research").emit());
            probe
        }
        Protocol::Amqp => amqp::PROTOCOL_HEADER.to_vec(),
        Protocol::Amqps => {
            let mut probe = ClientHello {
                version: Version::Tls13,
                server_name: None,
            }
            .emit();
            probe.extend(amqp::PROTOCOL_HEADER);
            probe
        }
        Protocol::Coap => coap::Message::get_well_known_core(0x7763, b"tt").emit(),
    }
}

/// Parses a response for a protocol. `None` means the answer was not a
/// valid instance of the protocol (treated as a failed probe).
pub fn parse_response(protocol: Protocol, resp: &[u8]) -> Option<ServiceResult> {
    match protocol {
        Protocol::Http => {
            let r = http::Response::parse(resp).ok()?;
            Some(ServiceResult::Http {
                status: r.status,
                title: r.html_title(),
            })
        }
        Protocol::Https => {
            let (tls, rest) = parse_tls(resp)?;
            match &tls {
                TlsOutcome::Established(_) => {
                    let r = http::Response::parse(rest).ok()?;
                    Some(ServiceResult::Https {
                        tls,
                        status: Some(r.status),
                        title: r.html_title(),
                    })
                }
                TlsOutcome::Failed(_) => Some(ServiceResult::Https {
                    tls,
                    status: None,
                    title: None,
                }),
            }
        }
        Protocol::Ssh => {
            let nl = resp.iter().position(|&b| b == b'\n')?;
            let id = Identification::parse(&resp[..=nl]).ok()?;
            // KEXINIT, then the host key.
            let (_kex, used) = wire::ssh::unframe_packet(&resp[nl + 1..]).ok()?;
            let (key_payload, _) = wire::ssh::unframe_packet(&resp[nl + 1 + used..]).ok()?;
            let key = HostKeyReply::parse(key_payload).ok()?;
            Some(ServiceResult::Ssh {
                software: id.software,
                comment: id.comment,
                fingerprint: key.fingerprint(),
            })
        }
        Protocol::Mqtt => {
            let ack = mqtt::ConnAck::parse(resp).ok()?;
            Some(ServiceResult::Mqtt {
                return_code: ack.return_code,
            })
        }
        Protocol::Mqtts => {
            let (tls, rest) = parse_tls(resp)?;
            let return_code = match &tls {
                TlsOutcome::Established(_) => Some(mqtt::ConnAck::parse(rest).ok()?.return_code),
                TlsOutcome::Failed(_) => None,
            };
            Some(ServiceResult::Mqtts { tls, return_code })
        }
        Protocol::Amqp => match amqp::parse_broker_answer(resp).ok()? {
            amqp::BrokerAnswer::Start(s) => Some(ServiceResult::Amqp {
                mechanisms: s.mechanisms,
                product: s.product,
            }),
            _ => None,
        },
        Protocol::Amqps => {
            let (tls, rest) = parse_tls(resp)?;
            let mechanisms = match &tls {
                TlsOutcome::Established(_) => match amqp::parse_broker_answer(rest).ok()? {
                    amqp::BrokerAnswer::Start(s) => Some(s.mechanisms),
                    _ => return None,
                },
                TlsOutcome::Failed(_) => None,
            };
            Some(ServiceResult::Amqps { tls, mechanisms })
        }
        Protocol::Coap => {
            let msg = coap::Message::parse(resp).ok()?;
            if msg.code != coap::Code::CONTENT {
                return None;
            }
            let payload = std::str::from_utf8(&msg.payload).ok()?;
            let resources = coap::parse_link_format(payload)
                .into_iter()
                .map(|l| l.target)
                .collect();
            Some(ServiceResult::Coap { resources })
        }
    }
}

fn parse_tls(resp: &[u8]) -> Option<(TlsOutcome, &[u8])> {
    if resp.len() < 5 {
        return None;
    }
    let rec_len = 5 + u16::from_be_bytes([resp[3], resp[4]]) as usize;
    if resp.len() < rec_len {
        return None;
    }
    let outcome = match ServerResponse::parse(&resp[..rec_len]).ok()? {
        ServerResponse::Hello {
            version,
            certificate,
        } => TlsOutcome::Established(CertMeta::from_wire(&certificate, version)),
        ServerResponse::Alert(a) => TlsOutcome::Failed(a),
    };
    Some((outcome, &resp[rec_len..]))
}

/// Probes one address for one protocol against the world at time `t`.
pub fn probe(
    world: &World,
    addr: Ipv6Addr,
    protocol: Protocol,
    t: SimTime,
) -> Option<ServiceResult> {
    let bytes = build_probe(protocol);
    let resp = world.respond(addr, protocol.port(), &bytes, t)?;
    parse_response(protocol, &resp)
}

/// HTTPS probe carrying an SNI hostname — the counterfactual to the
/// study's hostname-less scans. Against CDN front-ends this succeeds
/// where the plain scan fails, confirming the paper's explanation for
/// the 356 M failed Cloudfront handshakes ("probably due to our requests
/// missing a hostname").
pub fn probe_https_with_sni(
    world: &World,
    addr: Ipv6Addr,
    server_name: &str,
    t: SimTime,
) -> Option<ServiceResult> {
    let mut bytes = ClientHello {
        version: Version::Tls13,
        server_name: Some(server_name.to_string()),
    }
    .emit();
    bytes.extend(http::Request::scanner_get(SCANNER_ID).emit());
    let resp = world.respond(addr, Protocol::Https.port(), &bytes, t)?;
    parse_response(Protocol::Https, &resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::world::{World, WorldConfig};
    use netsim::DeviceKind;

    fn world() -> World {
        World::generate(WorldConfig::tiny(21))
    }

    #[test]
    fn probe_bytes_identify_the_study() {
        let http = build_probe(Protocol::Http);
        assert!(String::from_utf8_lossy(&http).contains("ttscan-research"));
        let ssh = build_probe(Protocol::Ssh);
        assert!(String::from_utf8_lossy(&ssh).contains("ttscan-research"));
    }

    #[test]
    fn https_probe_has_no_sni() {
        let probe = build_probe(Protocol::Https);
        let rec_len = 5 + u16::from_be_bytes([probe[3], probe[4]]) as usize;
        let hello = ClientHello::parse(&probe[..rec_len]).unwrap();
        assert_eq!(hello.server_name, None);
    }

    #[test]
    fn end_to_end_against_world_devices() {
        let w = world();
        let t = SimTime(1000);
        let mut hits = 0;
        for dev in w.metas() {
            let addr = w.address_of_meta(&dev, t);
            for proto in Protocol::ALL {
                if let Some(result) = probe(&w, addr, proto, t) {
                    hits += 1;
                    // Every TLS result carries a usable outcome.
                    if let Some(tls) = result.tls() {
                        match tls {
                            TlsOutcome::Established(c) => assert!(!c.subject.is_empty()),
                            TlsOutcome::Failed(_) => {}
                        }
                    }
                }
            }
        }
        assert!(hits > 20, "only {hits} successful probes in tiny world");
    }

    #[test]
    fn ssh_probe_parses_raspbian() {
        let w = world();
        let t = SimTime(0);
        let pi = w
            .metas()
            .map(|m| w.device(m.id))
            .find(|d| d.kind == DeviceKind::RaspberryPi && d.services.ssh.is_some())
            .expect("no exposed Pi in tiny world");
        let addr = w.address_of(pi.id, t);
        match probe(&w, addr, Protocol::Ssh, t).expect("pi did not answer") {
            ServiceResult::Ssh {
                software, comment, ..
            } => {
                assert_eq!(software, "OpenSSH_8.4p1");
                assert!(comment.unwrap().starts_with("Raspbian"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cdn_tls_fails_but_http_succeeds() {
        let w = world();
        let region = &w.aliased_regions()[0];
        let addr = region.prefix.host(0x1234);
        match probe(&w, addr, Protocol::Http, SimTime(0)).unwrap() {
            ServiceResult::Http { status, title } => {
                assert_eq!(status, 403);
                assert_eq!(title, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match probe(&w, addr, Protocol::Https, SimTime(0)).unwrap() {
            ServiceResult::Https { tls, status, .. } => {
                assert!(matches!(tls, TlsOutcome::Failed(_)));
                assert_eq!(status, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sni_probe_succeeds_where_bare_scan_fails() {
        let w = world();
        let addr = w.aliased_regions()[0].prefix.host(0xbeef);
        // Bare scan: handshake failure.
        match probe(&w, addr, Protocol::Https, SimTime(0)).unwrap() {
            ServiceResult::Https { tls, .. } => assert!(matches!(tls, TlsOutcome::Failed(_))),
            other => panic!("unexpected {other:?}"),
        }
        // With SNI: established, inner response delivered.
        match probe_https_with_sni(&w, addr, "edgecloud.example", SimTime(0)).unwrap() {
            ServiceResult::Https { tls, status, .. } => {
                assert!(matches!(tls, TlsOutcome::Established(_)));
                assert_eq!(status, Some(403));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_address_is_silent() {
        let w = world();
        let dev = w
            .metas()
            .map(|m| w.device(m.id))
            .find(|d| d.kind == DeviceKind::FritzBox && d.services.http.is_some())
            .expect("no exposed FritzBox");
        let t0 = SimTime(0);
        let addr = w.address_of(dev.id, t0);
        assert!(probe(&w, addr, Protocol::Https, t0).is_some());
        // Two days later the delegated prefix rotated away.
        let later = SimTime(2 * 86_400 + 30);
        assert!(probe(&w, addr, Protocol::Https, later).is_none());
    }

    #[test]
    fn garbage_responses_rejected() {
        for proto in Protocol::ALL {
            assert_eq!(parse_response(proto, b""), None);
            assert_eq!(parse_response(proto, b"\xff\x00garbage!!"), None);
        }
    }
}
