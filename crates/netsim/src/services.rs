//! Per-device service profiles and the byte-level probe responder.
//!
//! Every simulated device carries a [`ServiceSet`] describing which of the
//! study's protocols it answers and how. The responder consumes the exact
//! bytes the scanner emits (built with the [`wire`] crate) and produces the
//! exact bytes a live host would answer, so the scanner's parsers are
//! exercised end-to-end.
//!
//! TLS-wrapped probes (HTTPS, MQTTS, AMQPS) are modelled as a single
//! request/response exchange: the probe is `ClientHello || inner-probe`,
//! the answer `ServerResponse || inner-response` (only if the handshake
//! succeeded). This collapses the TCP round-trips the simulator does not
//! model while preserving all the data the study reads.

use wire::http::{Request, Response};
use wire::ssh::{frame_packet_into, HostKeyReply, Identification, KexInit};
use wire::tls::{Alert, Certificate, ClientHello, ServerResponse, Version};
use wire::{amqp, coap, mqtt};

/// Well-known ports the study scans (Table 2).
pub mod port {
    /// HTTP.
    pub const HTTP: u16 = 80;
    /// HTTPS.
    pub const HTTPS: u16 = 443;
    /// SSH.
    pub const SSH: u16 = 22;
    /// MQTT.
    pub const MQTT: u16 = 1883;
    /// MQTT over TLS.
    pub const MQTTS: u16 = 8883;
    /// AMQP.
    pub const AMQP: u16 = 5672;
    /// AMQP over TLS.
    pub const AMQPS: u16 = 5671;
    /// CoAP (UDP).
    pub const COAP: u16 = 5683;
}

/// A TLS endpoint fronting a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsEndpoint {
    /// Served certificate.
    pub cert: Certificate,
    /// Highest version the endpoint negotiates.
    pub version: Version,
    /// CDN-style front-end that refuses handshakes without SNI — the
    /// behaviour behind the paper's 356 M failed Cloudfront handshakes.
    pub require_sni: bool,
}

impl TlsEndpoint {
    /// Runs the structural handshake against a ClientHello.
    pub fn handshake(&self, hello: &ClientHello) -> ServerResponse {
        if self.require_sni && hello.server_name.is_none() {
            return ServerResponse::Alert(Alert::UnrecognizedName);
        }
        ServerResponse::Hello {
            version: self.version.min(hello.version),
            certificate: self.cert.clone(),
        }
    }
}

/// HTTP service profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpService {
    /// Page title (`None` → page without a `<title>`).
    pub title: Option<String>,
    /// Status code of the landing page.
    pub status: u16,
    /// `Server` response header.
    pub server_header: Option<String>,
    /// Answers plain HTTP on port 80.
    pub plain: bool,
    /// TLS endpoint on port 443.
    pub tls: Option<TlsEndpoint>,
}

impl HttpService {
    fn respond(&self) -> Response {
        match &self.title {
            Some(t) => Response::titled_page(self.status, t, self.server_header.as_deref()),
            None => {
                let mut r = Response::html(self.status, "<html><body></body></html>");
                if let Some(s) = &self.server_header {
                    r.headers.insert(0, ("Server".into(), s.clone()));
                }
                r
            }
        }
    }
}

/// SSH service profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshService {
    /// Software version, e.g. `OpenSSH_9.2p1`.
    pub software: String,
    /// Identification comment, e.g. `Debian-2+deb12u3` (carries distro +
    /// patch level).
    pub comment: Option<String>,
    /// Host-key material; equal blobs ⇒ equal fingerprints ⇒ key reuse.
    pub host_key_blob: Vec<u8>,
}

/// MQTT broker profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MqttService {
    /// Rejects anonymous CONNECTs (access control enabled).
    pub require_auth: bool,
    /// Listens on 1883.
    pub plain: bool,
    /// TLS listener on 8883.
    pub tls: Option<TlsEndpoint>,
}

/// AMQP broker profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmqpService {
    /// Advertised SASL mechanisms; containing `ANONYMOUS` signals a broker
    /// without access control.
    pub mechanisms: String,
    /// Product banner.
    pub product: String,
    /// Listens on 5672.
    pub plain: bool,
    /// TLS listener on 5671.
    pub tls: Option<TlsEndpoint>,
}

/// CoAP endpoint profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapService {
    /// Advertised resources (link-format targets), e.g.
    /// `/castDeviceSearch`.
    pub resources: Vec<String>,
}

impl CoapService {
    fn link_format(&self) -> String {
        let links: Vec<coap::Link> = self
            .resources
            .iter()
            .map(|r| coap::Link {
                target: r.clone(),
                attributes: Vec::new(),
            })
            .collect();
        coap::emit_link_format(&links)
    }
}

/// The full service surface of one device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSet {
    /// HTTP(S).
    pub http: Option<HttpService>,
    /// SSH.
    pub ssh: Option<SshService>,
    /// MQTT(S).
    pub mqtt: Option<MqttService>,
    /// AMQP(S).
    pub amqp: Option<AmqpService>,
    /// CoAP.
    pub coap: Option<CoapService>,
}

impl ServiceSet {
    /// No services at all (a silent host).
    pub fn silent() -> ServiceSet {
        ServiceSet::default()
    }

    /// Does any service listen on `port`?
    pub fn listens_on(&self, p: u16) -> bool {
        match p {
            port::HTTP => self.http.as_ref().is_some_and(|h| h.plain),
            port::HTTPS => self.http.as_ref().is_some_and(|h| h.tls.is_some()),
            port::SSH => self.ssh.is_some(),
            port::MQTT => self.mqtt.as_ref().is_some_and(|m| m.plain),
            port::MQTTS => self.mqtt.as_ref().is_some_and(|m| m.tls.is_some()),
            port::AMQP => self.amqp.as_ref().is_some_and(|a| a.plain),
            port::AMQPS => self.amqp.as_ref().is_some_and(|a| a.tls.is_some()),
            port::COAP => self.coap.is_some(),
            _ => false,
        }
    }

    /// Handles probe bytes arriving on `port`. `None` means the port is
    /// closed (connection refused / no answer); `Some(bytes)` is the
    /// response a live host would send.
    pub fn respond(&self, p: u16, probe: &[u8]) -> Option<Vec<u8>> {
        match p {
            port::HTTP => {
                let http = self.http.as_ref().filter(|h| h.plain)?;
                Request::parse(probe).ok()?;
                Some(http.respond().emit())
            }
            port::HTTPS => {
                let http = self.http.as_ref()?;
                let tls = http.tls.as_ref()?;
                self.tls_wrapped(tls, probe, |inner| {
                    Request::parse(inner).ok()?;
                    Some(http.respond().emit())
                })
            }
            port::SSH => {
                let ssh = self.ssh.as_ref()?;
                // A client must open with its identification string.
                Identification::parse(split_first_line(probe)?).ok()?;
                // One allocation: the whole answer is about 330 bytes.
                let mut out = Vec::with_capacity(512);
                Identification::emit_parts_into(
                    wire::ssh::PROTO_VERSION,
                    &ssh.software,
                    ssh.comment.as_deref(),
                    &mut out,
                );
                let cookie = cookie_from(&ssh.host_key_blob);
                frame_packet_into(&mut out, |b| KexInit::emit_modern_into(&cookie, b));
                frame_packet_into(&mut out, |b| {
                    HostKeyReply::emit_parts_into("ssh-ed25519", &ssh.host_key_blob, b)
                });
                Some(out)
            }
            port::MQTT => {
                let m = self.mqtt.as_ref().filter(|m| m.plain)?;
                Some(Self::mqtt_answer(m, probe)?)
            }
            port::MQTTS => {
                let m = self.mqtt.as_ref()?;
                let tls = m.tls.as_ref()?;
                self.tls_wrapped(tls, probe, |inner| Self::mqtt_answer(m, inner))
            }
            port::AMQP => {
                let a = self.amqp.as_ref().filter(|a| a.plain)?;
                Some(Self::amqp_answer(a, probe)?)
            }
            port::AMQPS => {
                let a = self.amqp.as_ref()?;
                let tls = a.tls.as_ref()?;
                self.tls_wrapped(tls, probe, |inner| Self::amqp_answer(a, inner))
            }
            port::COAP => {
                let c = self.coap.as_ref()?;
                let req = coap::Message::parse(probe).ok()?;
                if !req.code.is_request() {
                    return None;
                }
                let resp = if req.uri_path() == ".well-known/core" {
                    coap::Message::content_response(&req, &c.link_format())
                } else {
                    let mut r = coap::Message::content_response(&req, "");
                    r.code = coap::Code::NOT_FOUND;
                    r.options.clear();
                    r.payload.clear();
                    r
                };
                Some(resp.emit())
            }
            _ => None,
        }
    }

    /// Runs a TLS handshake and, on success, the inner exchange. The
    /// response is `ServerResponse || inner-response`.
    fn tls_wrapped<F>(&self, tls: &TlsEndpoint, probe: &[u8], inner: F) -> Option<Vec<u8>>
    where
        F: FnOnce(&[u8]) -> Option<Vec<u8>>,
    {
        let hello_len = tls_record_len(probe)?;
        let hello = ClientHello::parse(&probe[..hello_len]).ok()?;
        let answer = tls.handshake(&hello);
        let mut out = answer.emit();
        if matches!(answer, ServerResponse::Hello { .. }) {
            out.extend(inner(&probe[hello_len..])?);
        }
        Some(out)
    }

    fn mqtt_answer(m: &MqttService, probe: &[u8]) -> Option<Vec<u8>> {
        let connect = mqtt::Connect::parse(probe).ok()?;
        let authenticated = connect.username.is_some();
        let code = if m.require_auth && !authenticated {
            mqtt::ConnectReturnCode::NotAuthorized
        } else {
            mqtt::ConnectReturnCode::Accepted
        };
        Some(
            mqtt::ConnAck {
                session_present: false,
                return_code: code,
            }
            .emit(),
        )
    }

    fn amqp_answer(a: &AmqpService, probe: &[u8]) -> Option<Vec<u8>> {
        if !probe.starts_with(&amqp::PROTOCOL_HEADER) {
            // Wrong version: echo our own header, per spec.
            return Some(amqp::PROTOCOL_HEADER.to_vec());
        }
        Some(amqp::ConnectionStart::new(&a.mechanisms, &a.product).emit())
    }
}

/// Total TLS record length (header + body) at the front of `buf`.
fn tls_record_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 5 {
        return None;
    }
    let len = u16::from_be_bytes([buf[3], buf[4]]) as usize;
    if buf.len() < 5 + len {
        return None;
    }
    Some(5 + len)
}

/// The first CRLF/LF-terminated line of a byte stream, including the
/// terminator.
fn split_first_line(buf: &[u8]) -> Option<&[u8]> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    Some(&buf[..=nl])
}

/// Derives a deterministic KEXINIT cookie from key material so the
/// server's handshake bytes are stable run to run.
fn cookie_from(blob: &[u8]) -> [u8; 16] {
    let fp = wire::ssh::fingerprint_bytes(blob);
    fp[..16].try_into().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cert(subject: &str) -> Certificate {
        Certificate {
            subject: subject.into(),
            issuer: subject.into(),
            serial: 1,
            not_before: 0,
            not_after: u64::MAX,
            key_blob: subject.as_bytes().to_vec(),
        }
    }

    fn fritzbox() -> ServiceSet {
        ServiceSet {
            http: Some(HttpService {
                title: Some("FRITZ!Box".into()),
                status: 200,
                server_header: None,
                plain: true,
                tls: Some(TlsEndpoint {
                    cert: cert("fritz.box"),
                    version: Version::Tls13,
                    require_sni: false,
                }),
            }),
            ..ServiceSet::default()
        }
    }

    #[test]
    fn listens_on_matrix() {
        let s = fritzbox();
        assert!(s.listens_on(80));
        assert!(s.listens_on(443));
        assert!(!s.listens_on(22));
        assert!(!s.listens_on(1883));
        assert!(!s.listens_on(9999));
        assert!(!ServiceSet::silent().listens_on(80));
    }

    #[test]
    fn http_probe_yields_title() {
        let s = fritzbox();
        let resp = s.respond(80, &Request::scanner_get("test").emit()).unwrap();
        let parsed = Response::parse(&resp).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.html_title().as_deref(), Some("FRITZ!Box"));
    }

    #[test]
    fn https_probe_handshake_and_inner_response() {
        let s = fritzbox();
        let mut probe = ClientHello {
            version: Version::Tls13,
            server_name: None,
        }
        .emit();
        let hello_len = probe.len();
        probe.extend(Request::scanner_get("test").emit());
        let resp = s.respond(443, &probe).unwrap();
        let tls_len = tls_record_len(&resp).unwrap();
        match ServerResponse::parse(&resp[..tls_len]).unwrap() {
            ServerResponse::Hello { certificate, .. } => {
                assert_eq!(certificate.subject, "fritz.box")
            }
            other => panic!("expected hello, got {other:?}"),
        }
        let inner = Response::parse(&resp[tls_len..]).unwrap();
        assert_eq!(inner.html_title().as_deref(), Some("FRITZ!Box"));
        assert!(hello_len < resp.len());
    }

    #[test]
    fn sni_required_cdn_rejects_bare_scan() {
        let mut s = fritzbox();
        s.http.as_mut().unwrap().tls.as_mut().unwrap().require_sni = true;
        let mut probe = ClientHello {
            version: Version::Tls12,
            server_name: None,
        }
        .emit();
        probe.extend(Request::scanner_get("x").emit());
        let resp = s.respond(443, &probe).unwrap();
        assert_eq!(
            ServerResponse::parse(&resp).unwrap(),
            ServerResponse::Alert(Alert::UnrecognizedName)
        );
        // With SNI the handshake succeeds.
        let mut probe = ClientHello {
            version: Version::Tls12,
            server_name: Some("fritz.box".into()),
        }
        .emit();
        probe.extend(Request::scanner_get("x").emit());
        let resp = s.respond(443, &probe).unwrap();
        assert!(matches!(
            ServerResponse::parse(&resp[..tls_record_len(&resp).unwrap()]).unwrap(),
            ServerResponse::Hello { .. }
        ));
    }

    #[test]
    fn ssh_exchange_returns_key() {
        let s = ServiceSet {
            ssh: Some(SshService {
                software: "OpenSSH_9.2p1".into(),
                comment: Some("Debian-2+deb12u3".into()),
                host_key_blob: vec![1, 2, 3],
            }),
            ..ServiceSet::default()
        };
        let probe = Identification::new("TTScan_0.1", None).emit();
        let resp = s.respond(22, &probe).unwrap();
        let nl = resp.iter().position(|&b| b == b'\n').unwrap();
        let id = Identification::parse(&resp[..=nl]).unwrap();
        assert_eq!(id.software, "OpenSSH_9.2p1");
        assert_eq!(id.comment.as_deref(), Some("Debian-2+deb12u3"));
        let (kex, used) = wire::ssh::unframe_packet(&resp[nl + 1..]).unwrap();
        assert!(KexInit::parse(kex).is_ok());
        let (key, _) = wire::ssh::unframe_packet(&resp[nl + 1 + used..]).unwrap();
        assert_eq!(HostKeyReply::parse(key).unwrap().key_blob, vec![1, 2, 3]);
    }

    #[test]
    fn mqtt_access_control() {
        let open = ServiceSet {
            mqtt: Some(MqttService {
                require_auth: false,
                plain: true,
                tls: None,
            }),
            ..ServiceSet::default()
        };
        let probe = mqtt::Connect::anonymous_probe("scan").emit();
        let ack = mqtt::ConnAck::parse(&open.respond(1883, &probe).unwrap()).unwrap();
        assert_eq!(ack.return_code, mqtt::ConnectReturnCode::Accepted);

        let mut locked = open.clone();
        locked.mqtt.as_mut().unwrap().require_auth = true;
        let ack = mqtt::ConnAck::parse(&locked.respond(1883, &probe).unwrap()).unwrap();
        assert!(ack.return_code.indicates_access_control());

        // Authenticated connect is accepted even by a locked broker.
        let auth_probe = mqtt::Connect {
            client_id: "c".into(),
            keep_alive: 10,
            username: Some("u".into()),
            password: Some(b"p".to_vec()),
            clean_session: true,
        }
        .emit();
        let ack = mqtt::ConnAck::parse(&locked.respond(1883, &auth_probe).unwrap()).unwrap();
        assert_eq!(ack.return_code, mqtt::ConnectReturnCode::Accepted);
    }

    #[test]
    fn amqp_mechanisms_and_version_echo() {
        let s = ServiceSet {
            amqp: Some(AmqpService {
                mechanisms: "PLAIN AMQPLAIN".into(),
                product: "RabbitMQ".into(),
                plain: true,
                tls: None,
            }),
            ..ServiceSet::default()
        };
        let resp = s.respond(5672, &amqp::PROTOCOL_HEADER).unwrap();
        let start = amqp::ConnectionStart::parse(&resp).unwrap();
        assert_eq!(start.mechanisms, "PLAIN AMQPLAIN");
        // Wrong header → broker echoes its own.
        let resp = s.respond(5672, b"AMQP\x01\x01\x00\x0a").unwrap();
        assert_eq!(resp, amqp::PROTOCOL_HEADER.to_vec());
    }

    #[test]
    fn coap_well_known_core() {
        let s = ServiceSet {
            coap: Some(CoapService {
                resources: vec!["/castDeviceSearch".into()],
            }),
            ..ServiceSet::default()
        };
        let probe = coap::Message::get_well_known_core(5, &[9]).emit();
        let resp = coap::Message::parse(&s.respond(5683, &probe).unwrap()).unwrap();
        assert_eq!(resp.code, coap::Code::CONTENT);
        let links = coap::parse_link_format(std::str::from_utf8(&resp.payload).unwrap());
        assert_eq!(links[0].target, "/castDeviceSearch");
        // Unknown path → 4.04.
        let mut other = coap::Message::get_well_known_core(6, &[9]);
        other.options[1].value = b"missing".to_vec();
        let resp = coap::Message::parse(&s.respond(5683, &other.emit()).unwrap()).unwrap();
        assert_eq!(resp.code, coap::Code::NOT_FOUND);
    }

    #[test]
    fn closed_ports_and_garbage() {
        let s = fritzbox();
        assert!(s.respond(22, b"SSH-2.0-x\r\n").is_none()); // no SSH service
        assert!(s.respond(80, b"\xff\xfegarbage").is_none()); // unparseable
        assert!(s.respond(443, b"GET / HTTP/1.1\r\n\r\n").is_none()); // not TLS
        assert!(ServiceSet::silent()
            .respond(80, b"GET / HTTP/1.1\r\n\r\n")
            .is_none());
    }
}
