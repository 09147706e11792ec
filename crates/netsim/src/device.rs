//! Device state: addressing modes, dynamic prefixes, NTP client behaviour.
//!
//! A device's IPv6 address is a *function of time*: eyeball ISPs rotate the
//! delegated prefix (daily, typically at night), and hosts using SLAAC
//! privacy extensions regenerate their interface identifier on their own
//! schedule. Both effects together produce the flood of distinct addresses
//! the NTP servers observe (3 B addresses from far fewer devices) and the
//! staleness that makes NTP-sourced hitlists decay (paper §6).

use crate::time::{Duration, SimTime};
use crate::topology::Asn;
use crate::{archetype::DeviceKind, country::Country, mix2, services::ServiceSet};
use std::fmt;
use v6addr::{Eui64, Iid, Mac, Prefix};

/// Dense device identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// How the device forms its 64-bit interface identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addressing {
    /// SLAAC from the hardware address — leaks the MAC (and vendor).
    Eui64(Mac),
    /// SLAAC privacy extensions: a fresh random IID every `regen`.
    Privacy {
        /// Regeneration interval (typically one day).
        regen: Duration,
    },
    /// Manually configured constant IID (servers: `::1`, `::53`, …).
    Structured(u64),
    /// The network's zero address (routers, point-to-point interfaces).
    Zero,
}

/// How the device is attached to the address plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// A member of a household behind an eyeball-ISP CPE: the /48 is
    /// delegated dynamically from the ISP's pool and rotates; `member`
    /// selects the /64 inside the delegated prefix.
    Household {
        /// Household index within the ISP's pool.
        household: u32,
        /// /64 subnet index inside the delegated /48 (0 = the CPE itself).
        member: u8,
    },
    /// A statically numbered host in a fixed /64.
    Static {
        /// The home network.
        net64: Prefix,
    },
}

/// NTP client behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtpClientCfg {
    /// Interval between pool queries. Real clients poll every 64–1024 s;
    /// the simulation uses longer intervals (same observable address set,
    /// far fewer events — dedup makes extra polls invisible to the study).
    pub poll_interval: Duration,
    /// Phase offset so the population's polls spread over time.
    pub phase: Duration,
}

/// One simulated device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Identifier (the device's encoded coordinates, see [`crate::procgen`]).
    pub id: DeviceId,
    /// Archetype.
    pub kind: DeviceKind,
    /// Origin AS.
    pub asn: Asn,
    /// Country (of the AS).
    pub country: Country,
    /// Address-plan attachment.
    pub attachment: Attachment,
    /// IID formation.
    pub addressing: Addressing,
    /// Service surface (empty set = silent host). Exposure decisions are
    /// already baked in at generation time: a firewalled service simply
    /// is not in the set.
    pub services: ServiceSet,
    /// NTP client behaviour (`None`: the device never queries the pool —
    /// it can then only be found via the hitlist).
    pub ntp: Option<NtpClientCfg>,
}

impl Device {
    /// The interface identifier at time `t`.
    pub fn iid_at(&self, t: SimTime) -> Iid {
        iid_at(self.id, self.addressing, t)
    }

    /// The cheap, `Copy` summary of this device (everything except the
    /// service stack).
    pub fn meta(&self) -> DeviceMeta {
        DeviceMeta {
            id: self.id,
            kind: self.kind,
            asn: self.asn,
            country: self.country,
            attachment: self.attachment,
            addressing: self.addressing,
            ntp: self.ntp,
        }
    }
}

/// The addressing-relevant summary of a device: everything except its
/// service stack, all `Copy`. Hot paths (the collection engine, client
/// enumeration) work on metas so the world can derive them on the stack
/// without allocating a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMeta {
    /// Identifier.
    pub id: DeviceId,
    /// Archetype.
    pub kind: DeviceKind,
    /// Origin AS.
    pub asn: Asn,
    /// Country (of the AS).
    pub country: Country,
    /// Address-plan attachment.
    pub attachment: Attachment,
    /// IID formation.
    pub addressing: Addressing,
    /// NTP client behaviour.
    pub ntp: Option<NtpClientCfg>,
}

impl DeviceMeta {
    /// The interface identifier at time `t`.
    pub fn iid_at(&self, t: SimTime) -> Iid {
        iid_at(self.id, self.addressing, t)
    }
}

/// The interface identifier of device `id` with `addressing` at `t`.
pub fn iid_at(id: DeviceId, addressing: Addressing, t: SimTime) -> Iid {
    match addressing {
        Addressing::Eui64(mac) => Iid(Eui64::from_mac(mac).0),
        Addressing::Privacy { regen } => {
            let epoch = t.as_secs() / regen.as_secs().max(1);
            Iid(privacy_iid(id, epoch))
        }
        Addressing::Structured(v) => Iid(v),
        Addressing::Zero => Iid(0),
    }
}

/// A high-entropy privacy IID for `(device, epoch)` that can never be
/// mistaken for an EUI-64 (`ff:fe` marker is destroyed) or a structured
/// IID (a high byte is forced non-zero).
pub fn privacy_iid(id: DeviceId, epoch: u64) -> u64 {
    let mut v = mix2(u64::from(id.0) | 1 << 40, epoch);
    // Destroy any accidental ff:fe marker in bits 24..40.
    if (v >> 24) & 0xffff == 0xfffe {
        v ^= 1 << 30;
    }
    // Force non-trivial high bits so the IID never classifies as
    // zero / low-byte(s).
    if v >> 16 == 0 {
        v |= 0xa5a5 << 48;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::DeviceKind;
    use crate::country;
    use v6addr::{classify_raw, IidClass};

    fn dev(addressing: Addressing) -> Device {
        Device {
            id: DeviceId(7),
            kind: DeviceKind::AndroidPhone,
            asn: Asn(64500),
            country: country::DE,
            attachment: Attachment::Household {
                household: 0,
                member: 1,
            },
            addressing,
            services: ServiceSet::silent(),
            ntp: None,
        }
    }

    #[test]
    fn eui64_iid_is_stable() {
        let mac: Mac = "3c:a6:2f:00:00:01".parse().unwrap();
        let d = dev(Addressing::Eui64(mac));
        let a = d.iid_at(SimTime(0));
        let b = d.iid_at(SimTime(1_000_000));
        assert_eq!(a, b);
        assert_eq!(classify_raw(a), IidClass::Eui64);
    }

    #[test]
    fn privacy_iid_rotates_on_schedule() {
        let d = dev(Addressing::Privacy {
            regen: Duration::days(1),
        });
        let day0 = d.iid_at(SimTime(10));
        let day0_later = d.iid_at(SimTime(80_000));
        let day1 = d.iid_at(SimTime(90_000));
        assert_eq!(day0, day0_later);
        assert_ne!(day0, day1);
        assert_eq!(classify_raw(day0), IidClass::HighEntropy);
    }

    #[test]
    fn privacy_iid_never_structural() {
        let mut high = 0u32;
        let total = 500 * 40;
        for id in 0..500u32 {
            for epoch in 0..40u64 {
                let v = privacy_iid(DeviceId(id), epoch);
                let class = classify_raw(Iid(v));
                // A privacy IID must never look manually configured or
                // MAC-derived; entropy-wise it is almost always High, with
                // a small statistical tail in Medium.
                assert!(
                    matches!(class, IidClass::HighEntropy | IidClass::MediumEntropy),
                    "device {id} epoch {epoch} produced {class:?} ({v:#x})"
                );
                if class == IidClass::HighEntropy {
                    high += 1;
                }
            }
        }
        assert!(
            high as f64 / total as f64 > 0.95,
            "only {high}/{total} high"
        );
    }

    #[test]
    fn structured_and_zero() {
        assert_eq!(dev(Addressing::Structured(0x53)).iid_at(SimTime(5)).0, 0x53);
        assert_eq!(dev(Addressing::Zero).iid_at(SimTime(5)).0, 0);
    }

    #[test]
    fn privacy_iids_differ_between_devices() {
        let a = privacy_iid(DeviceId(1), 0);
        let b = privacy_iid(DeviceId(2), 0);
        assert_ne!(a, b);
    }
}
