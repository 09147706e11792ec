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
        }
    }

    /// Handles one request at the wire level: parse, validate mode,
    /// answer. A mode-3 client request gets a time answer; anything else
    /// gets silence.
    pub fn handle(&self, request: &[u8], now: SimTime) -> Option<Vec<u8>> {
        let pkt = Packet::parse(request).ok()?;
        if pkt.mode != wire::ntp::Mode::Client {
            return None;
        }
        let rx = NtpTimestamp::from_unix_secs(now.to_unix());
        let resp = Packet::server_response(&pkt, self.stratum, *b"\xc6\x33\x64\x0a", rx, rx);
        Some(resp.emit().to_vec())
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
            return Some(Packet::kiss_of_death(&pkt, *b"RATE").emit().to_vec());
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
    fn operator_collection_flags() {
        assert!(!Operator::Background.collects());
        assert!(Operator::Study { location_index: 3 }.collects());
        assert!(Operator::Actor { actor_id: 1 }.collects());
    }
}
