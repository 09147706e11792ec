//! Device archetypes: the taxonomy of simulated hosts.
//!
//! Each archetype bundles what the study can observe about a device class:
//! which protocols it answers (and whether it is exposed to the Internet at
//! all), the HTML title / SSH banner / CoAP resources it presents, how it
//! forms addresses (EUI-64 with the vendor's OUI vs privacy extensions vs
//! manual), and whether it queries the NTP Pool.
//!
//! The roster covers every device family the paper names in Tables 3/4/8/9
//! (FRITZ! products, Cisco WAP, D-LINK infrastructure, 3CX servers, Host
//! Europe vhosts, Raspbian/Ubuntu/Debian/FreeBSD SSH hosts, castDeviceSearch
//! and qlink CoAP devices, Efento and Nanoleaf sensors, MQTT/AMQP brokers)
//! plus generic filler populations.

use crate::services::{
    AmqpService, CoapService, HttpService, MqttService, ServiceSet, SshService, TlsEndpoint,
};
use rand::rngs::StdRng;
use rand::Rng;
use wire::tls::{Certificate, Version};

/// Device archetypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum DeviceKind {
    // --- consumer CPE / home-network gear (eyeball population) ---
    FritzBox,
    FritzRepeater,
    FritzPowerline,
    CiscoWap150,
    GenericCpe,
    MyModemCpe,
    UfiRouter,
    // --- LAN clients ---
    AndroidPhone,
    IPhone,
    SmartTv,
    SonosSpeaker,
    EchoSpeaker,
    LaptopPc,
    // --- CoAP IoT ---
    CastDevice,
    QlinkWifi,
    EfentoSensor,
    NanoleafLight,
    // --- home servers / SBCs ---
    RaspberryPi,
    HomeServerDebian,
    HomeServerUbuntu,
    HomeMqttBroker,
    HomeAmqpBroker,
    // --- hosting / infrastructure (hitlist population) ---
    NginxServer,
    ApacheUbuntuServer,
    DebianServer,
    FreeBsdServer,
    PleskServer,
    HostEuropeVhost,
    ThreeCxServer,
    ThreeCxWebclient,
    DlinkInfra,
    GponGateway,
    SynologyNas,
    CoreRouter,
    ManagedMqttBroker,
    ManagedAmqpBroker,
    ManagedCoapBackend,
    EfentoCloudSensor,
    NanoleafShowroom,
}

impl DeviceKind {
    /// Human-readable archetype name.
    pub fn name(&self) -> &'static str {
        use DeviceKind::*;
        match self {
            FritzBox => "AVM FRITZ!Box",
            FritzRepeater => "AVM FRITZ!Repeater",
            FritzPowerline => "AVM FRITZ!Powerline",
            CiscoWap150 => "Cisco WAP150",
            GenericCpe => "generic CPE router",
            MyModemCpe => "My Modem CPE",
            UfiRouter => "UFI pocket router",
            AndroidPhone => "Android phone",
            IPhone => "iPhone",
            SmartTv => "smart TV",
            SonosSpeaker => "Sonos speaker",
            EchoSpeaker => "Amazon Echo",
            LaptopPc => "laptop/PC",
            CastDevice => "cast media device",
            QlinkWifi => "qlink Wi-Fi node",
            EfentoSensor => "Efento sensor",
            NanoleafLight => "Nanoleaf light",
            RaspberryPi => "Raspberry Pi",
            HomeServerDebian => "home Debian server",
            HomeServerUbuntu => "home Ubuntu server",
            HomeMqttBroker => "hobbyist MQTT broker",
            HomeAmqpBroker => "hobbyist AMQP broker",
            NginxServer => "nginx web server",
            ApacheUbuntuServer => "Apache/Ubuntu web server",
            DebianServer => "Debian server",
            FreeBsdServer => "FreeBSD server",
            PleskServer => "Plesk panel server",
            HostEuropeVhost => "Host Europe vhost",
            ThreeCxServer => "3CX phone system",
            ThreeCxWebclient => "3CX webclient",
            DlinkInfra => "D-LINK infrastructure",
            GponGateway => "GPON home gateway",
            SynologyNas => "Synology NAS",
            CoreRouter => "core router",
            ManagedMqttBroker => "managed MQTT broker",
            ManagedAmqpBroker => "managed AMQP broker",
            ManagedCoapBackend => "managed CoAP backend",
            EfentoCloudSensor => "Efento cloud sensor",
            NanoleafShowroom => "Nanoleaf showroom",
        }
    }

    /// Is this archetype part of the eyeball (household) population?
    pub fn is_eyeball(&self) -> bool {
        use DeviceKind::*;
        matches!(
            self,
            FritzBox
                | FritzRepeater
                | FritzPowerline
                | CiscoWap150
                | GenericCpe
                | MyModemCpe
                | UfiRouter
                | AndroidPhone
                | IPhone
                | SmartTv
                | SonosSpeaker
                | EchoSpeaker
                | LaptopPc
                | CastDevice
                | QlinkWifi
                | EfentoSensor
                | NanoleafLight
                | RaspberryPi
                | HomeServerDebian
                | HomeServerUbuntu
                | HomeMqttBroker
                | HomeAmqpBroker
        )
    }

    /// Is this an IoT archetype that, under the SNTP scenario knob
    /// ([`crate::world::WorldConfig::sntp_iot_pct`]), runs a bare SNTP
    /// client with a short *fixed* poll interval instead of a pooled
    /// daemon — the esp32-style firmware pattern whose predictable
    /// cadence measurably changes collection yield.
    pub fn is_sntp_iot(&self) -> bool {
        use DeviceKind::*;
        matches!(
            self,
            QlinkWifi | EfentoSensor | NanoleafLight | CastDevice | SonosSpeaker
        )
    }

    /// Is this a CPE router (member 0 of a household)?
    pub fn is_cpe(&self) -> bool {
        use DeviceKind::*;
        matches!(
            self,
            FritzBox | GenericCpe | MyModemCpe | UfiRouter | GponGateway
        )
    }

    /// The vendor OUI pool for EUI-64 addressing (`None` → the archetype
    /// does not use MAC-derived addresses, or uses a locally administered
    /// or unlisted MAC).
    pub fn vendor_ouis(&self) -> &'static [u32] {
        use DeviceKind::*;
        match self {
            FritzBox => &[0x3CA62F, 0xC80E14, 0x2C3AFD, 0x989BCB, 0xE0286D],
            FritzRepeater | FritzPowerline => &[0x98DED0, 0x5C4979],
            CiscoWap150 => &[0x00562B, 0x4C710C],
            SmartTv => &[0x8C7712, 0xB0A37E, 0x1C6E4C, 0x08E67E, 0x48F97C], // Samsung/Haier/Cultraview/Shiyuan/Fiberhome
            SonosSpeaker => &[0x000E58, 0x347E5C],
            EchoSpeaker => &[0x0C47C9, 0x44650D, 0xF0D2F1],
            AndroidPhone => &[0x8C7712, 0xA02195, 0x50A009, 0x1C77F6, 0x7C1DD9, 0x94652D],
            IPhone => &[0xF0B479, 0x3C2EF9],
            QlinkWifi => &[0x90A8A2, 0xB4430D, 0x98F428], // Ogemray/China Dragon/iComm
            CastDevice => &[0x28FAA0, 0x88D7F6, 0x08EA40, 0x2462AB],
            EfentoSensor | EfentoCloudSensor => &[0x3C6105],
            NanoleafLight | NanoleafShowroom => &[0x00554F],
            RaspberryPi => &[0xB827EB, 0xDCA632, 0xE45F01],
            LaptopPc => &[0x606720, 0x8C8CAA],
            UfiRouter => &[0xC83A35, 0x64B473], // Tenda / Xiaomi
            DlinkInfra => &[0x1C7EE5, 0x14D64D],
            GenericCpe => &[0x00E0FC, 0x48DB50, 0x50C7BF, 0xA42BB0, 0x8C68C8], // Huawei/TP-Link/zte
            MyModemCpe => &[0x8C68C8, 0x00E0FC],
            _ => &[],
        }
    }

    /// Probability that the device derives its address from the MAC
    /// (EUI-64) instead of privacy extensions / manual configuration.
    pub fn eui64_probability(&self) -> f64 {
        use DeviceKind::*;
        match self {
            // AVM CPE gear overwhelmingly uses EUI-64 — the paper's
            // Appendix B finds AVM as the top vendor by far.
            FritzBox | FritzRepeater | FritzPowerline => 0.92,
            CiscoWap150 | DlinkInfra => 0.7,
            SonosSpeaker | EfentoSensor | NanoleafLight => 0.6,
            CastDevice => 0.3,
            QlinkWifi => 0.2,
            SmartTv => 0.12,
            EchoSpeaker => 0.3,
            RaspberryPi => 0.35,
            AndroidPhone => 0.04, // modern phones randomise
            IPhone => 0.0,
            LaptopPc => 0.1,
            UfiRouter => 0.15,
            MyModemCpe | GenericCpe => 0.07,
            _ => 0.0,
        }
    }

    /// Probability that an EUI-64 device embeds a locally administered
    /// (randomised) MAC rather than its burned-in address.
    pub fn local_mac_probability(&self) -> f64 {
        use DeviceKind::*;
        match self {
            AndroidPhone | IPhone | LaptopPc => 0.85,
            SmartTv => 0.15,
            _ => 0.05,
        }
    }

    /// Probability that the device synchronises against the public NTP
    /// Pool (as opposed to vendor/ISP/cloud time sources, or none).
    ///
    /// The asymmetry is load-bearing for the study: consumer gear ships
    /// with pool.ntp.org defaults, while hosting VMs typically use their
    /// provider's or distribution's own time service — which is exactly
    /// why NTP-sourcing surfaces end-user devices and hitlists surface
    /// servers.
    pub fn pool_client_probability(&self) -> f64 {
        use DeviceKind::*;
        match self {
            // ISP-managed gateways sync against the ISP's own servers.
            GponGateway | CoreRouter => 0.0,
            // Hosting: Amazon Time Sync, ntp.ubuntu.com, chrony defaults…
            NginxServer | ApacheUbuntuServer | DebianServer | FreeBsdServer | PleskServer
            | HostEuropeVhost | ThreeCxServer | ThreeCxWebclient | DlinkInfra | SynologyNas
            | ManagedMqttBroker | ManagedAmqpBroker | ManagedCoapBackend | EfentoCloudSensor
            | NanoleafShowroom => 0.015,
            // Consumer devices overwhelmingly use the pool.
            _ => 0.95,
        }
    }
}

/// Latest patch sequence per Debian-derived distribution, used both by the
/// generator (to decide what an up-to-date host runs) and by the analysis
/// (to decide what counts as outdated). `(os, software, comment prefix,
/// latest patch)`.
pub const DISTRO_LATEST: &[(&str, &str, &str, u32)] = &[
    ("Ubuntu", "OpenSSH_8.9p1", "Ubuntu-3ubuntu0.", 13),
    ("Debian", "OpenSSH_9.2p1", "Debian-2+deb12u", 3),
    ("Raspbian", "OpenSSH_8.4p1", "Raspbian-5+deb11u", 3),
];

/// Shared key material pools modelling secret reuse from pre-built images
/// (paper §6 "Certificate and Key Reuse", reference \[19\]).
#[derive(Debug, Clone)]
pub struct KeyPools {
    /// Image keys reused across many eyeball deployments (few, heavily
    /// shared — the paper's most-used key spans 45 k hosts).
    pub eyeball_image_keys: Vec<u64>,
    /// Image keys reused across hosting deployments (many, lightly
    /// shared).
    pub hosting_image_keys: Vec<u64>,
}

impl KeyPools {
    /// Key-pool sizes follow §6: few-but-huge reuse groups on the eyeball
    /// side, many-but-small groups on the hosting side.
    pub fn new(seed: u64) -> KeyPools {
        let gen = |salt: u64, n: usize| -> Vec<u64> {
            (0..n as u64).map(|i| crate::mix2(seed ^ salt, i)).collect()
        };
        KeyPools {
            eyeball_image_keys: gen(0x0eb0, 12),
            hosting_image_keys: gen(0x0451, 160),
        }
    }

    /// Picks the key id for a device: unique per device, unless the
    /// archetype's image-reuse probability fires.
    pub fn key_for(&self, rng: &mut StdRng, device_salt: u64, kind: DeviceKind) -> u64 {
        let (pool, p): (&[u64], f64) = if kind.is_eyeball() {
            // Raspberry Pis and hobby servers are flashed from the same
            // few images.
            match kind {
                DeviceKind::RaspberryPi | DeviceKind::HomeServerDebian => {
                    (&self.eyeball_image_keys, 0.30)
                }
                DeviceKind::HomeServerUbuntu | DeviceKind::HomeMqttBroker => {
                    (&self.eyeball_image_keys, 0.20)
                }
                _ => (&self.eyeball_image_keys, 0.02),
            }
        } else {
            (&self.hosting_image_keys, 0.08)
        };
        if !pool.is_empty() && rng.random_bool(p) {
            // Zipf-ish pick: low indices far more likely, producing the
            // single dominant key the paper observes.
            let r: f64 = rng.random();
            let idx = ((pool.len() as f64).powf(r) - 1.0) as usize;
            pool[idx.min(pool.len() - 1)]
        } else {
            crate::mix2(device_salt, 0x5eed_04e7)
        }
    }
}

/// Context handed to the service builder.
pub struct BuildCtx<'a> {
    /// RNG for per-device sampling.
    pub rng: &'a mut StdRng,
    /// Shared key pools.
    pub pools: &'a KeyPools,
    /// Per-device salt (device id).
    pub salt: u64,
    /// Unix time of world generation (certificate validity anchoring).
    pub now_unix: u64,
}

impl BuildCtx<'_> {
    fn key_blob(&mut self, kind: DeviceKind) -> Vec<u8> {
        self.pools
            .key_for(self.rng, self.salt, kind)
            .to_be_bytes()
            .to_vec()
    }

    fn cert(&mut self, kind: DeviceKind, subject: &str, self_signed: bool) -> Certificate {
        let key_blob = self.key_blob(kind);
        let issued = self
            .now_unix
            .saturating_sub(self.rng.random_range(0..300 * 86_400));
        Certificate {
            subject: subject.to_string(),
            issuer: if self_signed {
                subject.to_string()
            } else {
                "R3".to_string()
            },
            serial: crate::mix2(self.salt, 0xce57),
            not_before: issued,
            not_after: issued + 365 * 86_400,
            key_blob,
        }
    }

    fn tls(&mut self, kind: DeviceKind, subject: &str, self_signed: bool) -> TlsEndpoint {
        TlsEndpoint {
            cert: self.cert(kind, subject, self_signed),
            version: if self.rng.random_bool(0.7) {
                Version::Tls13
            } else {
                Version::Tls12
            },
            require_sni: false,
        }
    }

    /// An SSH service for a distro with the given probability of being
    /// fully patched; outdated hosts lag 1–3 patch levels.
    fn ssh(&mut self, kind: DeviceKind, distro: &str, patched_prob: f64) -> SshService {
        let (software, comment) = match DISTRO_LATEST.iter().find(|(os, ..)| *os == distro) {
            Some((_, software, prefix, latest)) => {
                let level = if self.rng.random_bool(patched_prob) {
                    *latest
                } else {
                    latest.saturating_sub(self.rng.random_range(1..=3))
                };
                (software.to_string(), Some(format!("{prefix}{level}")))
            }
            None if distro == "FreeBSD" => (
                "OpenSSH_9.6".to_string(),
                Some("FreeBSD-20240806".to_string()),
            ),
            None => (
                format!("dropbear_2022.{}", 80 + self.rng.random_range(0..5)),
                None,
            ),
        };
        SshService {
            software,
            comment,
            host_key_blob: self.key_blob(kind),
        }
    }
}

/// Builds the service surface for one device. Returns
/// [`ServiceSet::silent`] (possibly with probability) for devices that are
/// firewalled or have nothing listening — most of the eyeball population,
/// which is what drives the paper's 0.42 ‰ hit rate.
pub fn build_services(kind: DeviceKind, ctx: &mut BuildCtx<'_>) -> ServiceSet {
    use DeviceKind::*;
    let mut set = ServiceSet::silent();
    let coin = |ctx: &mut BuildCtx, p: f64| ctx.rng.random_bool(p);

    match kind {
        FritzBox => {
            // AVM makes remote access ("MyFRITZ!") one click; a sizeable
            // share of boxes answer on 443 (and 80 redirecting).
            if coin(ctx, 0.6) {
                let model = *pick(ctx, &["7590", "7530", "7490", "6690", "7510"]);
                set.http = Some(HttpService {
                    title: Some(format!("FRITZ!Box {model}")),
                    status: 200,
                    server_header: None,
                    plain: coin(ctx, 0.25),
                    tls: Some(ctx.tls(kind, "fritz.box", true)),
                });
            }
        }
        FritzRepeater => {
            if coin(ctx, 0.065) {
                let model = *pick(ctx, &["6000", "3000 AX", "2400", "1200 AX"]);
                set.http = Some(HttpService {
                    title: Some(format!("FRITZ!Repeater {model}")),
                    status: 200,
                    server_header: None,
                    plain: false,
                    tls: Some(ctx.tls(kind, "fritz.repeater", true)),
                });
            }
        }
        FritzPowerline => {
            if coin(ctx, 0.03) {
                let model = *pick(ctx, &["1260", "1240 AX", "540E"]);
                set.http = Some(HttpService {
                    title: Some(format!("FRITZ!Powerline {model}")),
                    status: 200,
                    server_header: None,
                    plain: false,
                    tls: Some(ctx.tls(kind, "fritz.powerline", true)),
                });
            }
        }
        CiscoWap150 => {
            if coin(ctx, 0.25) {
                set.http = Some(HttpService {
                    title: Some("WAP150 Wireless-AC/N Dual Radio Access Point with PoE".into()),
                    status: 200,
                    server_header: None,
                    plain: false,
                    tls: Some(ctx.tls(kind, "wap150.local", true)),
                });
            }
        }
        GenericCpe => {
            // Overwhelmingly firewalled; a few expose a login page, and a
            // few run an exposed dropbear (the "other" SSH population).
            if coin(ctx, 0.03) {
                set.ssh = Some(ctx.ssh(kind, "other", 0.5));
            }
            if coin(ctx, 0.0015) {
                set.http = Some(HttpService {
                    title: Some(
                        pick(ctx, &["Login - Join", "Home", "Common UI", "WebInterface"])
                            .to_string(),
                    ),
                    status: 200,
                    server_header: None,
                    plain: true,
                    tls: coin(ctx, 0.5).then(|| ctx.tls(kind, "router.local", true)),
                });
            }
        }
        MyModemCpe => {
            if coin(ctx, 0.012) {
                set.http = Some(HttpService {
                    title: Some("My Modem".into()),
                    status: 200,
                    server_header: None,
                    plain: true,
                    tls: None,
                });
            }
        }
        UfiRouter => {
            if coin(ctx, 0.012) {
                let fw = *pick(ctx, &["UFI配置管理-ZHXL_V2.0.0", "UFI-JZ_V3.0.0"]);
                set.http = Some(HttpService {
                    title: Some(fw.into()),
                    status: 200,
                    server_header: None,
                    plain: true,
                    tls: None,
                });
            }
        }
        // LAN clients: nothing listens (or the CPE firewall drops inbound).
        AndroidPhone | IPhone | SmartTv | LaptopPc => {}
        SonosSpeaker | EchoSpeaker => {
            // Speakers answer CoAP-adjacent discovery only on the LAN;
            // silent from the Internet.
        }
        CastDevice => {
            if coin(ctx, 0.62) {
                // A couple of firmwares advertise oddball resources — the
                // paper's Appendix D "other" bucket (/maha, /loginid, …).
                let resources = if coin(ctx, 0.02) {
                    vec!["/maha".into(), "/.well-known/core".into()]
                } else if coin(ctx, 0.01) {
                    vec![
                        "/window".into(),
                        "/loginid".into(),
                        "/phonename".into(),
                        "/internet_status".into(),
                    ]
                } else {
                    vec!["/castDeviceSearch".into()]
                };
                set.coap = Some(CoapService { resources });
            }
        }
        QlinkWifi => {
            if coin(ctx, 0.55) {
                set.coap = Some(CoapService {
                    resources: vec![
                        "/qlink/scan".into(),
                        "/qlink/upstream".into(),
                        "/.well-known/core".into(),
                    ],
                });
            }
        }
        EfentoSensor | EfentoCloudSensor => {
            set.coap = Some(CoapService {
                resources: vec!["/efento/m".into(), "/efento/i".into()],
            });
        }
        NanoleafLight | NanoleafShowroom => {
            set.coap = Some(CoapService {
                resources: vec!["/nanoleaf/state".into(), "/.well-known/core".into()],
            });
        }
        RaspberryPi => {
            // The classic: a Pi with SSH port-forwarded/exposed.
            if coin(ctx, 0.35) {
                set.ssh = Some(ctx.ssh(kind, "Raspbian", 0.22));
            }
            if coin(ctx, 0.02) {
                set.http = Some(HttpService {
                    title: Some(pick(ctx, &["OctoPrint Login", "Homebridge", "Home"]).to_string()),
                    status: 200,
                    server_header: Some("nginx".into()),
                    plain: true,
                    tls: None,
                });
            }
        }
        HomeServerDebian => {
            set.ssh = Some(ctx.ssh(kind, "Debian", 0.24));
            if coin(ctx, 0.2) {
                set.http = Some(HttpService {
                    title: coin(ctx, 0.5).then(|| "Nothing Page".to_string()),
                    status: 200,
                    server_header: Some("Apache".into()),
                    plain: true,
                    tls: coin(ctx, 0.4).then(|| ctx.tls(kind, "home.example", true)),
                });
            }
        }
        HomeServerUbuntu => {
            set.ssh = Some(ctx.ssh(kind, "Ubuntu", 0.28));
            if coin(ctx, 0.25) {
                set.http = Some(HttpService {
                    title: Some("Apache2 Ubuntu Default Page: It works".into()),
                    status: 200,
                    server_header: Some("Apache/2.4.52 (Ubuntu)".into()),
                    plain: true,
                    tls: None,
                });
            }
        }
        HomeMqttBroker => {
            // §4.4.2: more than half of NTP-found brokers lack access
            // control; TLS-fronted brokers skip it even more often —
            // operators mistaking transport security for access control
            // (Figure 6's observation).
            let tls = coin(ctx, 0.22).then(|| ctx.tls(kind, "mqtt.home", true));
            set.mqtt = Some(MqttService {
                require_auth: coin(ctx, if tls.is_some() { 0.10 } else { 0.38 }),
                plain: true,
                tls,
            });
            if coin(ctx, 0.5) {
                set.ssh = Some(ctx.ssh(kind, "Debian", 0.24));
            }
        }
        HomeAmqpBroker => {
            set.amqp = Some(AmqpService {
                mechanisms: if coin(ctx, 0.25) {
                    "ANONYMOUS PLAIN".into()
                } else {
                    "PLAIN AMQPLAIN".into()
                },
                product: "RabbitMQ 3.9.13".into(),
                plain: true,
                tls: coin(ctx, 0.02).then(|| ctx.tls(kind, "amqp.home", true)),
            });
        }
        NginxServer => {
            set.http = Some(HttpService {
                title: coin(ctx, 0.6).then(|| "Welcome to nginx!".to_string()),
                status: 200,
                server_header: Some("nginx/1.24.0".into()),
                plain: true,
                tls: coin(ctx, 0.6).then(|| ctx.tls(kind, "www.example.net", false)),
            });
            if coin(ctx, 0.7) {
                set.ssh = Some(ctx.ssh(kind, "Ubuntu", 0.55));
            }
        }
        ApacheUbuntuServer => {
            set.http = Some(HttpService {
                title: Some("Apache2 Ubuntu Default Page: It works".into()),
                status: 200,
                server_header: Some("Apache/2.4.52 (Ubuntu)".into()),
                plain: true,
                tls: coin(ctx, 0.3).then(|| ctx.tls(kind, "www.example.org", false)),
            });
            set.ssh = Some(ctx.ssh(kind, "Ubuntu", 0.55));
        }
        DebianServer => {
            set.ssh = Some(ctx.ssh(kind, "Debian", 0.55));
            if coin(ctx, 0.3) {
                set.http = Some(HttpService {
                    title: coin(ctx, 0.4).then(|| "Index of /pub/".to_string()),
                    status: 200,
                    server_header: Some("Apache".into()),
                    plain: true,
                    tls: coin(ctx, 0.5).then(|| ctx.tls(kind, "deb.example.org", false)),
                });
            }
        }
        FreeBsdServer => {
            set.ssh = Some(ctx.ssh(kind, "FreeBSD", 0.7));
            if coin(ctx, 0.2) {
                set.http = Some(HttpService {
                    title: None,
                    status: 200,
                    server_header: Some("httpd".into()),
                    plain: true,
                    tls: None,
                });
            }
        }
        PleskServer => {
            let v = *pick(ctx, &["18.0.34", "18.0.33", "18.0.31"]);
            set.http = Some(HttpService {
                title: Some(format!("Plesk Obsidian {v}")),
                status: 200,
                server_header: Some("sw-cp-server".into()),
                plain: true,
                tls: Some(ctx.tls(kind, "plesk.example", false)),
            });
            set.ssh = Some(ctx.ssh(kind, "Ubuntu", 0.55));
        }
        HostEuropeVhost => {
            // Parked vhosts; the title embeds the (stable) address.
            let n = ctx.rng.random_range(0..9999u32);
            set.http = Some(HttpService {
                title: Some(format!("Host Europe GmbH \u{2013} vhost{n:04}")),
                status: 200,
                server_header: Some("Apache".into()),
                plain: true,
                tls: Some(ctx.tls(kind, "hosteurope.example", false)),
            });
        }
        ThreeCxServer => {
            set.http = Some(HttpService {
                title: Some("3CX Phone System Management Console".into()),
                status: 200,
                server_header: Some("nginx".into()),
                plain: false,
                tls: Some(ctx.tls(kind, "pbx.example", false)),
            });
            if coin(ctx, 0.5) {
                set.ssh = Some(ctx.ssh(kind, "Debian", 0.55));
            }
        }
        ThreeCxWebclient => {
            set.http = Some(HttpService {
                title: Some("3CX Webclient".into()),
                status: 200,
                server_header: Some("nginx".into()),
                plain: false,
                tls: Some(ctx.tls(kind, "webclient.example", false)),
            });
        }
        DlinkInfra => {
            set.http = Some(HttpService {
                title: Some(
                    pick(ctx, &["D-LINK", "D-LINK SYSTEMS, INC. | WIRELESS ROUTER"]).to_string(),
                ),
                status: 200,
                server_header: Some("lighttpd".into()),
                plain: true,
                tls: Some(ctx.tls(kind, "dlinkrouter.local", true)),
            });
        }
        GponGateway => {
            set.http = Some(HttpService {
                title: Some("GPON Home Gateway".into()),
                status: 200,
                server_header: None,
                plain: true,
                tls: None,
            });
            if coin(ctx, 0.3) {
                set.ssh = Some(ctx.ssh(kind, "other", 0.5));
            }
        }
        SynologyNas => {
            set.http = Some(HttpService {
                title: Some("Hello! Welcome to Synology Web Station!".into()),
                status: 200,
                server_header: Some("nginx".into()),
                plain: true,
                tls: Some(ctx.tls(kind, "nas.example", false)),
            });
            if coin(ctx, 0.4) {
                set.ssh = Some(ctx.ssh(kind, "other", 0.5));
            }
        }
        CoreRouter => {
            // Routers found by traceroute: SSH management plane only, and
            // mostly filtered.
            if coin(ctx, 0.12) {
                set.ssh = Some(ctx.ssh(kind, "FreeBSD", 0.7));
            }
        }
        ManagedMqttBroker => {
            // §4.4.2: ~80 % of hitlist brokers enforce access control,
            // but TLS-fronted ones disable it more often (Figure 6).
            let tls = coin(ctx, 0.15).then(|| ctx.tls(kind, "mqtt.example", false));
            set.mqtt = Some(MqttService {
                require_auth: coin(ctx, if tls.is_some() { 0.35 } else { 0.85 }),
                plain: true,
                tls,
            });
            set.ssh = Some(ctx.ssh(kind, "Ubuntu", 0.55));
        }
        ManagedAmqpBroker => {
            set.amqp = Some(AmqpService {
                mechanisms: if coin(ctx, 0.1) {
                    "ANONYMOUS PLAIN".into()
                } else {
                    "PLAIN AMQPLAIN".into()
                },
                product: "RabbitMQ 3.12.4".into(),
                plain: true,
                tls: coin(ctx, 0.04).then(|| ctx.tls(kind, "amqp.example", false)),
            });
            set.ssh = Some(ctx.ssh(kind, "Ubuntu", 0.55));
        }
        ManagedCoapBackend => {
            // LwM2M-style backends occasionally expose bootstrap /
            // registration resources instead (Appendix D's hitlist-side
            // "other" bucket).
            let resources = if coin(ctx, 0.08) {
                vec!["/bs".into(), "/rd".into(), "/dp".into()]
            } else {
                vec!["/api".into(), "/api/v1".into(), "/.well-known/core".into()]
            };
            set.coap = Some(CoapService { resources });
        }
    }
    set
}

fn pick<'c, T>(ctx: &mut BuildCtx<'_>, items: &'c [T]) -> &'c T {
    &items[ctx.rng.random_range(0..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use v6addr::mac::Oui;

    fn ctx_with<'a>(rng: &'a mut StdRng, pools: &'a KeyPools) -> BuildCtx<'a> {
        BuildCtx {
            rng,
            pools,
            salt: 1234,
            now_unix: 1_721_433_600,
        }
    }

    #[test]
    fn fritzbox_exposure_rate_is_partial() {
        let pools = KeyPools::new(1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut exposed = 0;
        for i in 0..1000 {
            let mut rng2 = StdRng::seed_from_u64(i);
            let mut ctx = BuildCtx {
                rng: &mut rng2,
                pools: &pools,
                salt: i,
                now_unix: 1_721_433_600,
            };
            let s = build_services(DeviceKind::FritzBox, &mut ctx);
            if let Some(http) = &s.http {
                exposed += 1;
                let title = http.title.clone().unwrap();
                assert!(title.starts_with("FRITZ!Box"), "{title}");
            }
        }
        assert!((480..720).contains(&exposed), "exposed = {exposed}");
        let _ = ctx_with(&mut rng, &pools);
    }

    #[test]
    fn phones_are_silent() {
        let pools = KeyPools::new(1);
        for kind in [
            DeviceKind::AndroidPhone,
            DeviceKind::IPhone,
            DeviceKind::LaptopPc,
        ] {
            for seed in 0..50 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ctx = ctx_with(&mut rng, &pools);
                assert_eq!(build_services(kind, &mut ctx), ServiceSet::silent());
            }
        }
    }

    #[test]
    fn raspbian_ssh_banner_shape() {
        let pools = KeyPools::new(1);
        let mut found = false;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ctx = BuildCtx {
                rng: &mut rng,
                pools: &pools,
                salt: seed,
                now_unix: 0,
            };
            if let Some(ssh) = build_services(DeviceKind::RaspberryPi, &mut ctx).ssh {
                found = true;
                assert_eq!(ssh.software, "OpenSSH_8.4p1");
                assert!(ssh.comment.unwrap().starts_with("Raspbian-5+deb11u"));
            }
        }
        assert!(found);
    }

    #[test]
    fn managed_brokers_enforce_auth_more_often() {
        let pools = KeyPools::new(1);
        let mut home_auth = 0;
        let mut managed_auth = 0;
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ctx = BuildCtx {
                rng: &mut rng,
                pools: &pools,
                salt: seed,
                now_unix: 0,
            };
            if build_services(DeviceKind::HomeMqttBroker, &mut ctx)
                .mqtt
                .unwrap()
                .require_auth
            {
                home_auth += 1;
            }
            let mut rng = StdRng::seed_from_u64(seed + 10_000);
            let mut ctx = BuildCtx {
                rng: &mut rng,
                pools: &pools,
                salt: seed,
                now_unix: 0,
            };
            if build_services(DeviceKind::ManagedMqttBroker, &mut ctx)
                .mqtt
                .unwrap()
                .require_auth
            {
                managed_auth += 1;
            }
        }
        assert!(
            managed_auth > home_auth + 80,
            "managed {managed_auth} vs home {home_auth}"
        );
    }

    #[test]
    fn key_reuse_concentrates_on_eyeball_images() {
        let pools = KeyPools::new(7);
        let mut counts: std::collections::HashMap<u64, u32> = Default::default();
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = pools.key_for(&mut rng, seed, DeviceKind::RaspberryPi);
            *counts.entry(k).or_default() += 1;
        }
        let max_share = *counts.values().max().unwrap();
        // ~30 % of 2000 devices land on ~12 image keys with a Zipf skew:
        // the dominant key must cover a large group.
        assert!(max_share > 100, "max reuse group {max_share}");
        // But most devices still have unique keys.
        let unique = counts.values().filter(|&&c| c == 1).count();
        assert!(unique > 1200, "unique {unique}");
    }

    #[test]
    fn vendor_oui_tables_consistent_with_registry() {
        let db = v6addr::OuiDb::builtin();
        for kind in [
            DeviceKind::FritzBox,
            DeviceKind::SonosSpeaker,
            DeviceKind::RaspberryPi,
            DeviceKind::AndroidPhone,
            DeviceKind::CastDevice,
        ] {
            for &oui in kind.vendor_ouis() {
                assert!(
                    db.is_listed(Oui::from_u32(oui)),
                    "{kind:?} OUI {oui:#08x} missing from registry"
                );
            }
        }
    }

    #[test]
    fn distro_latest_covers_paper_distros() {
        let names: Vec<&str> = DISTRO_LATEST.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names, vec!["Ubuntu", "Debian", "Raspbian"]);
    }

    #[test]
    fn eyeball_and_cpe_flags() {
        assert!(DeviceKind::FritzBox.is_eyeball());
        assert!(DeviceKind::FritzBox.is_cpe());
        assert!(DeviceKind::AndroidPhone.is_eyeball());
        assert!(!DeviceKind::AndroidPhone.is_cpe());
        assert!(!DeviceKind::NginxServer.is_eyeball());
        assert_eq!(DeviceKind::CoreRouter.pool_client_probability(), 0.0);
        assert_eq!(DeviceKind::GponGateway.pool_client_probability(), 0.0);
        assert!(DeviceKind::FritzBox.pool_client_probability() > 0.9);
        assert!(DeviceKind::NginxServer.pool_client_probability() < 0.2);
    }
}
