//! Pool servers.

use netsim::country::Country;
use netsim::time::SimTime;
use wire::ntp::{NtpTimestamp, Packet};

/// Who operates a pool server — determines whether (and for whom) client
/// addresses are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// An ordinary community server; does not record addresses.
    Background,
    /// One of the study's 11 collecting servers; `location_index` is the
    /// position in [`netsim::country::COLLECTOR_LOCATIONS`].
    Study {
        /// Index into the study's location list.
        location_index: u8,
    },
    /// A third-party actor's collecting server (§5), keyed by actor.
    Actor {
        /// Actor identifier.
        actor_id: u8,
    },
}

impl Operator {
    /// Does this operator record client addresses?
    pub fn collects(&self) -> bool {
        !matches!(self, Operator::Background)
    }

    /// Is this one of the study's own collecting servers — the ones
    /// whose observations the address collector records?
    pub fn is_study(&self) -> bool {
        matches!(self, Operator::Study { .. })
    }
}

/// The NTP implementation a server runs. Real pool servers are a mix of
/// daemons with observably different mode-6/7 surfaces — the behavior
/// diversity a fingerprinting scanner keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NtpDaemon {
    /// Classic reference ntpd — answers mode 6 and (monlist-era) mode 7.
    NtpdClassic,
    /// NTPsec — answers mode 6, mode 7 removed.
    Ntpsec,
    /// chrony — answers its own control protocol, modelled as mode 6.
    Chrony,
    /// OpenNTPD — answers neither control surface.
    Openntpd,
}

impl NtpDaemon {
    /// Four-byte version banner returned in mode-6/7 responses.
    pub fn banner(&self) -> [u8; 4] {
        match self {
            NtpDaemon::NtpdClassic => *b"NTDC",
            NtpDaemon::Ntpsec => *b"NSEC",
            NtpDaemon::Chrony => *b"CHRN",
            NtpDaemon::Openntpd => *b"OPEN",
        }
    }

    /// Does this daemon answer mode-6 (control) queries?
    pub fn answers_mode6(&self) -> bool {
        !matches!(self, NtpDaemon::Openntpd)
    }

    /// Does this daemon answer mode-7 (private/monlist) queries?
    pub fn answers_mode7(&self) -> bool {
        matches!(self, NtpDaemon::NtpdClassic)
    }

    /// Deterministic daemon choice from a hash draw, weighted roughly
    /// like the public pool: ntpd-classic heavy, chrony common, ntpsec
    /// and openntpd rarer.
    pub fn from_draw(h: u64) -> NtpDaemon {
        match h % 10 {
            0..=4 => NtpDaemon::NtpdClassic,
            5..=7 => NtpDaemon::Chrony,
            8 => NtpDaemon::Ntpsec,
            _ => NtpDaemon::Openntpd,
        }
    }
}

/// One server announced in the pool.
#[derive(Debug, Clone)]
pub struct PoolServer {
    /// Country zone the server is registered in.
    pub country: Country,
    /// Operator-configurable weight ("netspeed"); the pool hands a server
    /// a share of its zone's queries proportional to this.
    pub netspeed: u64,
    /// Operator.
    pub operator: Operator,
    /// Stratum the server answers with.
    pub stratum: u8,
    /// Requests per second above which the server answers with a
    /// Kiss-o'-Death `RATE` packet instead of time (`0` = unlimited). The
    /// study's collecting servers record the client address either way —
    /// a KoD still proves the client exists.
    pub max_rps: u64,
    /// NTP implementation the server runs — determines its mode-6/7
    /// answering surface and version banner.
    pub daemon: NtpDaemon,
}

impl PoolServer {
    /// A community server with the default netspeed.
    pub fn background(country: Country) -> PoolServer {
        PoolServer {
            country,
            netspeed: 1_000,
            operator: Operator::Background,
            stratum: 2,
            max_rps: 0,
            daemon: NtpDaemon::NtpdClassic,
        }
    }

    /// Handles one request at the wire level: parse, validate mode,
    /// answer. Mode-3 client requests get a time answer; mode-6/7
    /// control queries are answered (with the daemon's version banner)
    /// only if the server's daemon exposes that surface.
    pub fn handle(&self, request: &[u8], now: SimTime) -> Option<Vec<u8>> {
        let pkt = Packet::parse(request).ok()?;
        let rx = NtpTimestamp::from_unix_secs(now.to_unix());
        match pkt.mode {
            wire::ntp::Mode::Client => {
                let resp =
                    Packet::server_response(&pkt, self.stratum, *b"\xc6\x33\x64\x0a", rx, rx);
                Some(resp.emit())
            }
            wire::ntp::Mode::Control if self.daemon.answers_mode6() => {
                Some(Packet::control_response(&pkt, self.daemon.banner(), rx).emit())
            }
            wire::ntp::Mode::Private if self.daemon.answers_mode7() => {
                Some(Packet::private_response(self.daemon.banner(), 0, rx).emit())
            }
            _ => None,
        }
    }

    /// Handles a request under load: above `max_rps` the server sheds
    /// load with a `RATE` KoD, as real pool servers do.
    pub fn handle_at_rate(
        &self,
        request: &[u8],
        now: SimTime,
        current_rps: u64,
    ) -> Option<Vec<u8>> {
        if self.max_rps > 0 && current_rps > self.max_rps {
            let pkt = Packet::parse(request).ok()?;
            if pkt.mode != wire::ntp::Mode::Client {
                return None;
            }
            return Some(Packet::kiss_of_death(&pkt, *b"RATE").emit());
        }
        self.handle(request, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::country;
    use wire::ntp::{Mode, NtpTimestamp};

    #[test]
    fn answers_valid_client_request() {
        let s = PoolServer::background(country::DE);
        let req = Packet::client_request(NtpTimestamp::from_unix_secs(1_721_500_000)).emit();
        let resp = s.handle(&req, SimTime(100)).expect("no answer");
        let parsed = Packet::parse(&resp).unwrap();
        assert_eq!(parsed.mode, Mode::Server);
        assert_eq!(parsed.stratum, 2);
        // Origin timestamp echoes the client's transmit time.
        assert_eq!(
            parsed.origin_ts,
            NtpTimestamp::from_unix_secs(1_721_500_000)
        );
    }

    #[test]
    fn ignores_non_client_packets() {
        let s = PoolServer::background(country::DE);
        let req = Packet::client_request(NtpTimestamp::ZERO);
        let resp = Packet::server_response(&req, 2, [0; 4], NtpTimestamp::ZERO, NtpTimestamp::ZERO);
        assert!(s.handle(&resp.emit(), SimTime(0)).is_none());
        assert!(s.handle(b"garbage", SimTime(0)).is_none());
    }

    #[test]
    fn kod_above_rate_limit() {
        let mut s = PoolServer::background(country::DE);
        s.max_rps = 100;
        let req = Packet::client_request(NtpTimestamp::from_unix_secs(1_721_500_000)).emit();
        // Under the limit: normal answer.
        let resp = Packet::parse(&s.handle_at_rate(&req, SimTime(0), 50).unwrap()).unwrap();
        assert!(!resp.is_kiss_of_death());
        // Over the limit: RATE KoD.
        let resp = Packet::parse(&s.handle_at_rate(&req, SimTime(0), 200).unwrap()).unwrap();
        assert!(resp.is_kiss_of_death());
        assert_eq!(resp.kiss_code(), Some("RATE"));
        // Unlimited servers never shed.
        s.max_rps = 0;
        let resp = Packet::parse(&s.handle_at_rate(&req, SimTime(0), u64::MAX).unwrap()).unwrap();
        assert!(!resp.is_kiss_of_death());
        // Garbage still rejected on the KoD path.
        s.max_rps = 1;
        assert!(s.handle_at_rate(b"junk", SimTime(0), 99).is_none());
    }

    #[test]
    fn daemon_surfaces_differ() {
        let mut s = PoolServer::background(country::DE);
        let now = SimTime(50);
        let ctl = Packet::control_request(1).emit();
        let prv = Packet::private_request().emit();

        // Classic ntpd: answers both, banner in the reference-id word.
        s.daemon = NtpDaemon::NtpdClassic;
        let rsp = Packet::parse(&s.handle(&ctl, now).unwrap()).unwrap();
        assert_eq!(rsp.daemon_banner(), Some(*b"NTDC"));
        let rsp = Packet::parse(&s.handle(&prv, now).unwrap()).unwrap();
        assert_eq!(rsp.daemon_banner(), Some(*b"NTDC"));

        // chrony: mode 6 only.
        s.daemon = NtpDaemon::Chrony;
        let rsp = Packet::parse(&s.handle(&ctl, now).unwrap()).unwrap();
        assert_eq!(rsp.daemon_banner(), Some(*b"CHRN"));
        assert!(s.handle(&prv, now).is_none());

        // OpenNTPD: neither.
        s.daemon = NtpDaemon::Openntpd;
        assert!(s.handle(&ctl, now).is_none());
        assert!(s.handle(&prv, now).is_none());

        // Time service is identical regardless of daemon.
        let req = Packet::client_request(NtpTimestamp::from_unix_secs(1)).emit();
        assert!(s.handle(&req, now).is_some());
    }

    #[test]
    fn daemon_draw_covers_all_variants() {
        let mut seen = std::collections::HashSet::new();
        for h in 0..10u64 {
            seen.insert(NtpDaemon::from_draw(h));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn operator_collection_flags() {
        assert!(!Operator::Background.collects());
        assert!(Operator::Study { location_index: 3 }.collects());
        assert!(Operator::Actor { actor_id: 1 }.collects());
    }
}
