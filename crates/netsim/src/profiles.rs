//! Vendor / implementation profiles for the simulated devices.
//!
//! Real scans observe a small number of distinct *implementations*
//! (OpenSSH, dropbear, Cisco, MikroTik, Juniper, FRR, ...) each with its own
//! banner and algorithm-preference fingerprint, while *keys* and *BGP
//! identifiers* vary per device.  Devices therefore reference one of the
//! shared profiles defined here and only own the per-device material (host
//! key, BGP identifier, SNMP engine ID).
//!
//! Keeping profiles shared also mirrors the identifier-uniqueness argument
//! of the paper: the capability fingerprint alone is *not* unique (many
//! devices share it), the host key alone is *almost* unique, and the
//! combination is the identifier.

use alias_wire::bgp::{Capability, CapabilityRef, ParamRef};
use alias_wire::ssh::{Banner, KexInit, NameList};
use serde::{Deserialize, Serialize};

/// A shared SSH implementation profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshProfile {
    /// Short human-readable name of the implementation.
    pub name: &'static str,
    /// The identification banner sent by servers with this profile.
    pub banner: Banner,
    /// The KEXINIT (algorithm preferences) sent by servers with this profile.
    pub kexinit: KexInit,
    /// Relative prevalence weight used when sampling profiles.
    pub weight: u32,
}

/// Index into the global SSH profile table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SshProfileId(pub u16);

/// A shared BGP implementation profile: everything in the OPEN message that
/// is implementation/configuration- rather than device-specific.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpProfile {
    /// Short human-readable name of the implementation.
    pub name: &'static str,
    /// Proposed hold time.
    pub hold_time: u16,
    /// Advertised capabilities in order.
    pub capabilities: Vec<Capability>,
    /// Whether speakers with this profile send an OPEN + NOTIFICATION to
    /// unsolicited peers (true) or close immediately after the handshake
    /// (false).  The paper observes 5.8M speakers closing immediately and
    /// only 364k sending an OPEN.
    pub sends_open: bool,
    /// Relative prevalence weight used when sampling profiles.
    pub weight: u32,
}

/// Index into the global BGP profile table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BgpProfileId(pub u16);

fn openssh_kexinit(order_flip: bool) -> KexInit {
    let mut kex = KexInit::typical_openssh();
    if order_flip {
        kex.encryption_server_to_client = NameList::new([
            "aes128-ctr",
            "chacha20-poly1305@openssh.com",
            "aes256-gcm@openssh.com",
        ]);
        kex.mac_server_to_client = NameList::new([
            "hmac-sha2-256-etm@openssh.com",
            "umac-64-etm@openssh.com",
            "hmac-sha2-512",
        ]);
    }
    kex
}

fn dropbear_kexinit() -> KexInit {
    KexInit {
        cookie: [0u8; 16],
        kex_algorithms: NameList::new([
            "curve25519-sha256",
            "diffie-hellman-group14-sha256",
            "diffie-hellman-group14-sha1",
        ]),
        server_host_key_algorithms: NameList::new(["ssh-ed25519", "rsa-sha2-256", "ssh-rsa"]),
        encryption_client_to_server: NameList::new(["chacha20-poly1305@openssh.com", "aes128-ctr"]),
        encryption_server_to_client: NameList::new(["chacha20-poly1305@openssh.com", "aes128-ctr"]),
        mac_client_to_server: NameList::new(["hmac-sha2-256", "hmac-sha1"]),
        mac_server_to_client: NameList::new(["hmac-sha2-256", "hmac-sha1"]),
        compression_client_to_server: NameList::new(["none"]),
        compression_server_to_client: NameList::new(["none"]),
        languages_client_to_server: NameList::default(),
        languages_server_to_client: NameList::default(),
        first_kex_packet_follows: false,
    }
}

fn cisco_kexinit() -> KexInit {
    KexInit {
        cookie: [0u8; 16],
        kex_algorithms: NameList::new([
            "ecdh-sha2-nistp256",
            "diffie-hellman-group14-sha1",
            "diffie-hellman-group-exchange-sha1",
        ]),
        server_host_key_algorithms: NameList::new(["ssh-rsa"]),
        encryption_client_to_server: NameList::new(["aes128-ctr", "aes192-ctr", "aes256-ctr"]),
        encryption_server_to_client: NameList::new(["aes128-ctr", "aes192-ctr", "aes256-ctr"]),
        mac_client_to_server: NameList::new(["hmac-sha2-256", "hmac-sha1", "hmac-sha1-96"]),
        mac_server_to_client: NameList::new(["hmac-sha2-256", "hmac-sha1", "hmac-sha1-96"]),
        compression_client_to_server: NameList::new(["none"]),
        compression_server_to_client: NameList::new(["none"]),
        languages_client_to_server: NameList::default(),
        languages_server_to_client: NameList::default(),
        first_kex_packet_follows: false,
    }
}

fn mikrotik_kexinit() -> KexInit {
    KexInit {
        cookie: [0u8; 16],
        kex_algorithms: NameList::new([
            "curve25519-sha256",
            "ecdh-sha2-nistp256",
            "diffie-hellman-group14-sha256",
        ]),
        server_host_key_algorithms: NameList::new(["rsa-sha2-256", "ssh-rsa", "ssh-ed25519"]),
        encryption_client_to_server: NameList::new(["aes128-ctr", "aes192-ctr", "aes256-ctr"]),
        encryption_server_to_client: NameList::new(["aes128-ctr", "aes192-ctr", "aes256-ctr"]),
        mac_client_to_server: NameList::new(["hmac-sha2-256", "hmac-sha1"]),
        mac_server_to_client: NameList::new(["hmac-sha2-256", "hmac-sha1"]),
        compression_client_to_server: NameList::new(["none", "zlib"]),
        compression_server_to_client: NameList::new(["none", "zlib"]),
        languages_client_to_server: NameList::default(),
        languages_server_to_client: NameList::default(),
        first_kex_packet_follows: false,
    }
}

/// The table of SSH implementation profiles used by the generator.
///
/// Weights roughly follow what Internet-wide SSH scans report: OpenSSH
/// dominates, dropbear is common on embedded devices, network vendors have a
/// long tail.
pub fn ssh_profiles() -> Vec<SshProfile> {
    let banner = |software: &str, comments: Option<&str>| {
        Banner::new(software, comments).expect("static banners are valid")
    };
    vec![
        SshProfile {
            name: "openssh-8.9-ubuntu",
            banner: banner("OpenSSH_8.9p1", Some("Ubuntu-3ubuntu0.1")),
            kexinit: openssh_kexinit(false),
            weight: 30,
        },
        SshProfile {
            name: "openssh-9.2-debian",
            banner: banner("OpenSSH_9.2p1", Some("Debian-2+deb12u2")),
            kexinit: openssh_kexinit(false),
            weight: 22,
        },
        SshProfile {
            name: "openssh-7.4-centos",
            banner: banner("OpenSSH_7.4", None),
            kexinit: openssh_kexinit(true),
            weight: 14,
        },
        SshProfile {
            name: "openssh-8.4-freebsd",
            banner: banner("OpenSSH_8.4p1", Some("FreeBSD-20210907")),
            kexinit: openssh_kexinit(true),
            weight: 6,
        },
        SshProfile {
            name: "dropbear-2020.81",
            banner: banner("dropbear_2020.81", None),
            kexinit: dropbear_kexinit(),
            weight: 10,
        },
        SshProfile {
            name: "dropbear-2019.78",
            banner: banner("dropbear_2019.78", None),
            kexinit: dropbear_kexinit(),
            weight: 5,
        },
        SshProfile {
            name: "cisco-ios",
            banner: banner("Cisco-1.25", None),
            kexinit: cisco_kexinit(),
            weight: 5,
        },
        SshProfile {
            name: "mikrotik-routeros",
            banner: banner("ROSSSH", None),
            kexinit: mikrotik_kexinit(),
            weight: 6,
        },
        SshProfile {
            name: "juniper-junos",
            banner: banner("OpenSSH_7.5", Some("Junos")),
            kexinit: openssh_kexinit(true),
            weight: 2,
        },
    ]
}

/// The table of BGP implementation profiles used by the generator.
pub fn bgp_profiles() -> Vec<BgpProfile> {
    vec![
        BgpProfile {
            name: "cisco-classic",
            hold_time: 180,
            capabilities: vec![Capability::RouteRefreshCisco, Capability::RouteRefresh],
            sends_open: true,
            weight: 30,
        },
        BgpProfile {
            name: "juniper",
            hold_time: 90,
            capabilities: vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::RouteRefresh,
                Capability::FourOctetAs { asn: 0 }, // ASN filled per device
            ],
            sends_open: true,
            weight: 25,
        },
        BgpProfile {
            name: "frr",
            hold_time: 180,
            capabilities: vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::Multiprotocol { afi: 2, safi: 1 },
                Capability::RouteRefresh,
                Capability::FourOctetAs { asn: 0 },
            ],
            sends_open: true,
            weight: 15,
        },
        BgpProfile {
            name: "silent-close",
            hold_time: 0,
            capabilities: vec![],
            // The overwhelmingly common behaviour: accept the handshake and
            // close without sending anything (5.8M of 6.2M speakers in the
            // paper's scan).
            sends_open: false,
            weight: 30,
        },
    ]
}

/// The optional parameters of a BGP profile, with the per-device ASN
/// substituted into the four-octet-AS capability.
pub fn bgp_capabilities_for(profile: &BgpProfile, asn: u32) -> impl Iterator<Item = ParamRef<'_>> {
    profile.capabilities.iter().map(move |cap| {
        ParamRef::Capability(match cap {
            Capability::FourOctetAs { .. } => CapabilityRef::FourOctetAs { asn },
            other => other.as_ref(),
        })
    })
}

/// Pick an index from `weights` using `roll`, a uniformly random value in
/// `[0, total_weight)`.
pub fn pick_weighted(weights: &[u32], roll: u32) -> usize {
    let total: u32 = weights.iter().sum();
    debug_assert!(total > 0);
    let mut remaining = roll % total.max(1);
    for (idx, &w) in weights.iter().enumerate() {
        if remaining < w {
            return idx;
        }
        remaining -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssh_profiles_have_distinct_fingerprints_per_vendor_family() {
        let profiles = ssh_profiles();
        assert!(profiles.len() >= 8);
        // Distinct vendors must have distinct capability fingerprints so the
        // "capabilities" half of the identifier carries signal.
        let openssh = &profiles[0];
        let dropbear = profiles
            .iter()
            .find(|p| p.name.starts_with("dropbear"))
            .unwrap();
        let cisco = profiles.iter().find(|p| p.name == "cisco-ios").unwrap();
        assert_ne!(
            openssh.kexinit.capability_fingerprint(),
            dropbear.kexinit.capability_fingerprint()
        );
        assert_ne!(
            dropbear.kexinit.capability_fingerprint(),
            cisco.kexinit.capability_fingerprint()
        );
    }

    #[test]
    fn some_ssh_profiles_share_fingerprints() {
        // Two OpenSSH builds with the same configuration share a fingerprint:
        // the key, not the fingerprint, disambiguates them.
        let profiles = ssh_profiles();
        let a = profiles
            .iter()
            .find(|p| p.name == "openssh-8.9-ubuntu")
            .unwrap();
        let b = profiles
            .iter()
            .find(|p| p.name == "openssh-9.2-debian")
            .unwrap();
        assert_eq!(
            a.kexinit.capability_fingerprint(),
            b.kexinit.capability_fingerprint()
        );
        assert_ne!(a.banner, b.banner);
    }

    #[test]
    fn bgp_profiles_include_the_silent_majority() {
        let profiles = bgp_profiles();
        assert!(profiles.iter().any(|p| !p.sends_open));
        assert!(profiles.iter().filter(|p| p.sends_open).count() >= 3);
    }

    #[test]
    fn bgp_capabilities_substitute_asn() {
        let profiles = bgp_profiles();
        let juniper = profiles.iter().find(|p| p.name == "juniper").unwrap();
        let mut params = bgp_capabilities_for(juniper, 64_500);
        assert!(params.any(|p| matches!(
            p,
            ParamRef::Capability(CapabilityRef::FourOctetAs { asn: 64_500 })
        )));
    }

    #[test]
    fn weighted_pick_respects_bounds_and_weights() {
        let weights = [1, 0, 3];
        let picks: Vec<usize> = (0..4).map(|roll| pick_weighted(&weights, roll)).collect();
        assert_eq!(picks, vec![0, 2, 2, 2]);
        // Never out of range, even for large rolls.
        assert!(pick_weighted(&weights, u32::MAX) < weights.len());
    }

    #[test]
    fn banners_are_valid_wire_banners() {
        for profile in ssh_profiles() {
            let bytes = profile.banner.to_bytes();
            let (parsed, _) = Banner::parse(&bytes).unwrap();
            assert_eq!(parsed, profile.banner);
        }
    }
}
