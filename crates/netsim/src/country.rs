//! Countries, continents and client-population weights.
//!
//! The NTP Pool maps clients to servers by *country zone* first, falling
//! back to the continent and global zones (Moura et al., paper reference
//! \[38\]). The per-country client weights below encode the asymmetry the
//! paper's Table 7 exposes: the Indian zone has an enormous IPv6 client
//! population served by very few pool servers, so a single new server
//! there collects orders of magnitude more addresses than one in the
//! Netherlands.

use std::fmt;

/// A continent (NTP Pool continental zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Africa.
    Africa,
    /// Oceania.
    Oceania,
}

/// A country, identified by its ISO 3166-1 alpha-2 code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Country(pub [u8; 2]);

impl Country {
    /// Builds from a 2-letter code.
    pub const fn new(code: &[u8; 2]) -> Country {
        Country(*code)
    }

    /// The alpha-2 code as a string.
    pub fn code(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or("??")
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

macro_rules! countries {
    ($($konst:ident = $code:literal, $name:literal, $continent:ident, $clients:literal, $bg_servers:literal;)*) => {
        $(
            #[doc = concat!($name, ".")]
            pub const $konst: Country = Country::new($code);
        )*

        /// Static data for every country in the simulated world:
        /// `(country, name, continent, relative IPv6 NTP client weight,
        /// background pool servers in the country zone)`.
        pub const COUNTRY_TABLE: &[(Country, &str, Continent, u64, u32)] = &[
            $(($konst, $name, Continent::$continent, $clients, $bg_servers),)*
        ];
    };
}

// Client weights are relative units roughly proportional to the address
// volume per collecting server the paper reports (Table 7); background
// server counts reflect that, e.g., Germany's zone is dense while India's
// is nearly empty — the combination drives per-server collection volume.
countries! {
    IN = b"IN", "India",           Asia,         26000, 2;
    BR = b"BR", "Brazil",          SouthAmerica,  4500, 6;
    JP = b"JP", "Japan",           Asia,          2800, 12;
    ZA = b"ZA", "South Africa",    Africa,         740, 4;
    ES = b"ES", "Spain",           Europe,         660, 10;
    GB = b"GB", "United Kingdom",  Europe,        1300, 40;
    DE = b"DE", "Germany",         Europe,        2100, 80;
    US = b"US", "United States",   NorthAmerica,  2000, 80;
    PL = b"PL", "Poland",          Europe,         390, 18;
    AU = b"AU", "Australia",       Oceania,        410, 16;
    NL = b"NL", "the Netherlands", Europe,         370, 38;
    FR = b"FR", "France",          Europe,        1500, 45;
    CN = b"CN", "China",           Asia,          3000, 8;
    KR = b"KR", "South Korea",     Asia,           700, 9;
    IT = b"IT", "Italy",           Europe,         600, 20;
    CA = b"CA", "Canada",          NorthAmerica,   350, 22;
    MX = b"MX", "Mexico",          NorthAmerica,   420, 5;
    ID = b"ID", "Indonesia",       Asia,           900, 4;
    VN = b"VN", "Vietnam",         Asia,           800, 3;
    TH = b"TH", "Thailand",        Asia,           500, 4;
}

/// The 11 collecting-server locations of the study, in the paper's
/// Table 7 order of appearance (methodology §3.1).
pub const COLLECTOR_LOCATIONS: [Country; 11] = [AU, BR, DE, IN, JP, PL, ZA, ES, NL, GB, US];

/// Looks up the static record for a country.
pub fn info(c: Country) -> Option<&'static (Country, &'static str, Continent, u64, u32)> {
    COUNTRY_TABLE.iter().find(|(cc, ..)| *cc == c)
}

/// The country's full name (code if unknown).
pub fn name(c: Country) -> &'static str {
    info(c).map(|(_, n, ..)| *n).unwrap_or("unknown")
}

/// The country's continent (`None` if unknown).
pub fn continent(c: Country) -> Option<Continent> {
    info(c).map(|(_, _, k, ..)| *k)
}

/// Relative IPv6 NTP client weight (0 if unknown).
pub fn client_weight(c: Country) -> u64 {
    info(c).map(|(_, _, _, w, _)| *w).unwrap_or(0)
}

/// Background (non-study) pool servers in the country zone.
pub fn background_servers(c: Country) -> u32 {
    info(c).map(|(_, _, _, _, s)| *s).unwrap_or(0)
}

/// Total client weight across the world.
pub fn total_client_weight() -> u64 {
    COUNTRY_TABLE.iter().map(|(_, _, _, w, _)| *w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_complete_and_unique() {
        assert_eq!(COUNTRY_TABLE.len(), 20);
        let codes: std::collections::HashSet<_> = COUNTRY_TABLE.iter().map(|(c, ..)| *c).collect();
        assert_eq!(codes.len(), COUNTRY_TABLE.len());
    }

    #[test]
    fn collector_locations_match_paper() {
        assert_eq!(COLLECTOR_LOCATIONS.len(), 11);
        for c in COLLECTOR_LOCATIONS {
            assert!(
                info(c).is_some(),
                "collector location {c} missing from table"
            );
        }
    }

    #[test]
    fn india_dominates_client_weight() {
        // Table 7: India collected ~84% of all addresses. The weight per
        // background-server ratio must dwarf every other collector zone.
        let india = client_weight(IN) as f64 / (background_servers(IN) + 1) as f64;
        for c in COLLECTOR_LOCATIONS {
            if c != IN {
                let other = client_weight(c) as f64 / (background_servers(c) + 1) as f64;
                assert!(india > 5.0 * other, "India ratio not dominant vs {c}");
            }
        }
    }

    #[test]
    fn lookups() {
        assert_eq!(name(DE), "Germany");
        assert_eq!(continent(JP), Some(Continent::Asia));
        assert_eq!(client_weight(Country::new(b"XX")), 0);
        assert_eq!(name(Country::new(b"XX")), "unknown");
        assert_eq!(DE.code(), "DE");
        assert_eq!(DE.to_string(), "DE");
    }

    #[test]
    fn total_weight_positive() {
        assert!(total_client_weight() > 40_000);
    }
}
