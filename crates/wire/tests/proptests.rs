//! Property-based round-trip and robustness tests for the wire formats.
//!
//! Two invariants hold for every codec:
//! 1. `parse(emit(x)) == x` for all representable messages, and
//! 2. `parse` never panics on arbitrary bytes (it returns an error).

use proptest::prelude::*;
use wire::{amqp, coap, http, mqtt, ntp, ssh, tls};

fn short_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9._-]{0,24}"
}

proptest! {
    // ---- NTP ----

    #[test]
    fn ntp_roundtrip(
        stratum in any::<u8>(), poll in any::<i8>(), precision in any::<i8>(),
        rd in any::<u32>(), rdisp in any::<u32>(), refid in any::<[u8; 4]>(),
        ts in any::<[u64; 4]>(), version in 1u8..=4, mode_bits in 0u8..8, leap in 0u8..4,
    ) {
        let pkt = ntp::Packet {
            leap: match leap { 0 => ntp::LeapIndicator::NoWarning, 1 => ntp::LeapIndicator::LastMinute61, 2 => ntp::LeapIndicator::LastMinute59, _ => ntp::LeapIndicator::Unknown },
            version,
            mode: match mode_bits { 0 => ntp::Mode::Reserved, 1 => ntp::Mode::SymmetricActive, 2 => ntp::Mode::SymmetricPassive, 3 => ntp::Mode::Client, 4 => ntp::Mode::Server, 5 => ntp::Mode::Broadcast, 6 => ntp::Mode::Control, _ => ntp::Mode::Private },
            stratum, poll, precision,
            root_delay: rd, root_dispersion: rdisp, reference_id: refid,
            reference_ts: ntp::NtpTimestamp(ts[0]),
            origin_ts: ntp::NtpTimestamp(ts[1]),
            receive_ts: ntp::NtpTimestamp(ts[2]),
            transmit_ts: ntp::NtpTimestamp(ts[3]),
        };
        prop_assert_eq!(ntp::Packet::parse(&pkt.emit()).unwrap(), pkt);
    }

    #[test]
    fn ntp_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = ntp::Packet::parse(&data);
    }

    // ---- SSH ----

    #[test]
    fn ssh_id_roundtrip(sw in "[a-zA-Z0-9._]{1,20}", comment in proptest::option::of("[a-zA-Z0-9.+_-]{1,30}")) {
        let id = ssh::Identification::new(&sw, comment.as_deref());
        prop_assert_eq!(ssh::Identification::parse(&id.emit()).unwrap(), id);
    }

    #[test]
    fn ssh_framing_roundtrip(payload in proptest::collection::vec(any::<u8>(), 1..2000)) {
        let framed = ssh::frame_packet(&payload);
        let (got, used) = ssh::unframe_packet(&framed).unwrap();
        prop_assert_eq!(got, &payload[..]);
        prop_assert_eq!(used, framed.len());
    }

    #[test]
    fn ssh_unframe_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ssh::unframe_packet(&data);
        let _ = ssh::Identification::parse(&data);
    }

    #[test]
    fn ssh_hostkey_roundtrip(kt in short_string(), blob in proptest::collection::vec(any::<u8>(), 0..128)) {
        let r = ssh::HostKeyReply { key_type: kt, key_blob: blob };
        prop_assert_eq!(ssh::HostKeyReply::parse(&r.emit()).unwrap(), r);
    }

    // ---- TLS ----

    #[test]
    fn tls_client_hello_roundtrip(v in 0u8..4, sni in proptest::option::of(short_string())) {
        let version = [tls::Version::Tls10, tls::Version::Tls11, tls::Version::Tls12, tls::Version::Tls13][v as usize];
        let ch = tls::ClientHello { version, server_name: sni };
        prop_assert_eq!(tls::ClientHello::parse(&ch.emit()).unwrap(), ch);
    }

    #[test]
    fn tls_server_response_roundtrip(
        subject in short_string(), issuer in short_string(), serial in any::<u64>(),
        nb in any::<u64>(), na in any::<u64>(), blob in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let resp = tls::ServerResponse::Hello {
            version: tls::Version::Tls12,
            certificate: tls::Certificate {
                subject, issuer, serial, not_before: nb, not_after: na, key_blob: blob,
            },
        };
        prop_assert_eq!(tls::ServerResponse::parse(&resp.emit()).unwrap(), resp);
    }

    #[test]
    fn tls_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = tls::ClientHello::parse(&data);
        let _ = tls::ServerResponse::parse(&data);
    }

    // ---- MQTT ----

    #[test]
    fn mqtt_connect_roundtrip(
        cid in short_string(), ka in any::<u16>(), clean in any::<bool>(),
        user in proptest::option::of(short_string()),
        pass in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32)),
    ) {
        let c = mqtt::Connect { client_id: cid, keep_alive: ka, username: user, password: pass, clean_session: clean };
        prop_assert_eq!(mqtt::Connect::parse(&c.emit()).unwrap(), c);
    }

    #[test]
    fn mqtt_remaining_length_roundtrip(v in 0usize..268_435_455) {
        let mut buf = Vec::new();
        mqtt::put_remaining_length(&mut buf, v);
        let (got, used) = mqtt::get_remaining_length(&buf).unwrap();
        prop_assert_eq!(got, v);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn mqtt_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = mqtt::Connect::parse(&data);
        let _ = mqtt::ConnAck::parse(&data);
    }

    // ---- AMQP ----

    #[test]
    fn amqp_start_roundtrip(mechs in "[A-Z ]{0,30}", product in short_string()) {
        let s = amqp::ConnectionStart::new(&mechs, &product);
        prop_assert_eq!(amqp::ConnectionStart::parse(&s.emit()).unwrap(), s);
    }

    #[test]
    fn amqp_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = amqp::ConnectionStart::parse(&data);
    }

    // ---- CoAP ----

    #[test]
    fn coap_roundtrip(
        mid in any::<u16>(), token in proptest::collection::vec(any::<u8>(), 0..=8),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        // Sorted unique option numbers with small values.
        opt_numbers in proptest::collection::btree_set(0u16..3000, 0..5),
        code in any::<u8>(),
    ) {
        let options: Vec<coap::Opt> = opt_numbers.into_iter().map(|n| coap::Opt {
            number: n,
            value: vec![n as u8; (n % 7) as usize],
        }).collect();
        let m = coap::Message {
            mtype: coap::MsgType::Confirmable,
            code: coap::Code(code),
            message_id: mid,
            token,
            options,
            payload,
        };
        prop_assert_eq!(coap::Message::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn coap_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = coap::Message::parse(&data);
    }

    #[test]
    fn link_format_roundtrip(paths in proptest::collection::vec("[a-z/]{1,12}", 0..6)) {
        let links: Vec<coap::Link> = paths.iter().map(|p| coap::Link {
            target: format!("/{p}"),
            attributes: vec![],
        }).collect();
        let text = coap::emit_link_format(&links);
        prop_assert_eq!(coap::parse_link_format(&text), links);
    }

    // ---- HTTP ----

    #[test]
    fn http_response_roundtrip(status in 100u16..600, title in "[a-zA-Z0-9 !._-]{0,30}") {
        let resp = http::Response::titled_page(status, &title, Some("sim"));
        let parsed = http::Response::parse(&resp.emit()).unwrap();
        prop_assert_eq!(parsed.status, status);
        let collapsed: String = title.split_whitespace().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(parsed.html_title(), Some(collapsed));
    }

    #[test]
    fn http_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = http::Response::parse(&data);
        let _ = http::Request::parse(&data);
    }
}
