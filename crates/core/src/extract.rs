//! Turning scan observations into protocol identifiers.

use crate::identifier::{
    BgpIdentifier, ProtocolIdentifier, Snmpv3Identifier, SshIdentifier, SshIdentifierPolicy,
    SshProfileIds,
};
use alias_scan::{PayloadRef, ServiceObservation, ServicePayload};

/// Identifier policies.  Only SSH has a choice; BGP identifiers are
/// always every host-wide OPEN field, SNMPv3 identifiers the engine ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionConfig {
    /// SSH identifier policy.
    pub ssh: SshIdentifierPolicy,
}

impl ExtractionConfig {
    /// The paper's configuration: the full SSH identifier.
    pub fn paper() -> Self {
        ExtractionConfig {
            ssh: SshIdentifierPolicy::Full,
        }
    }
}

/// Extracts [`ProtocolIdentifier`]s from observations.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentifierExtractor {
    config: ExtractionConfig,
}

impl IdentifierExtractor {
    /// Create an extractor with the given policies.
    pub fn new(config: ExtractionConfig) -> Self {
        IdentifierExtractor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> ExtractionConfig {
        self.config
    }

    /// Extract the identifier for one observation, or `None` when the
    /// observation does not carry enough material (e.g. an SSH session that
    /// never reached the host key).
    pub fn extract(&self, observation: &ServiceObservation) -> Option<ProtocolIdentifier> {
        self.extract_payload(&observation.payload)
    }

    /// Extract the identifier from a payload alone — the identifier is a
    /// pure function of the application-layer material.  It is the oracle
    /// [`KeyPass::key`] is tested against; nothing on the hot path builds
    /// one.
    pub fn extract_payload(&self, payload: &ServicePayload) -> Option<ProtocolIdentifier> {
        match payload {
            ServicePayload::Ssh(ssh) => {
                SshIdentifier::from_observation(ssh, self.config.ssh).map(ProtocolIdentifier::Ssh)
            }
            ServicePayload::Bgp { open, .. } => {
                Some(ProtocolIdentifier::Bgp(BgpIdentifier::from_open(open)))
            }
            ServicePayload::Snmpv3 { engine_id, .. } => Some(ProtocolIdentifier::Snmpv3(
                Snmpv3Identifier::from_engine_id(engine_id),
            )),
            // Rate-limiting loss counts are correlated, not extracted:
            // the payload carries no device-wide identifier.
            ServicePayload::RateLimit { .. } => None,
        }
    }

    /// Start a keyed pass: the grouping keys of payloads that live at least
    /// as long as `'a`, under this extractor's policies.
    pub fn key_pass<'a>(&self) -> KeyPass<'a> {
        KeyPass {
            config: self.config,
            profiles: SshProfileIds::default(),
            key: Vec::new(),
        }
    }
}

/// The key function of one keyed pass, with the table its SSH keys need:
/// the pass's ids of the SSH profiles it met.
///
/// Within one pass, two payloads get equal keys exactly when
/// [`IdentifierExtractor::extract_payload`] gives them equal identifiers;
/// keys of two passes are not comparable.  Keys are written into one
/// buffer, so keying a row allocates nothing once the buffer and the
/// table have grown.  This is what the grouping loops call per row, on the
/// payload a store view decodes in place; an owned payload lends one
/// through [`ServicePayload::as_ref`].
#[derive(Debug)]
pub struct KeyPass<'a> {
    config: ExtractionConfig,
    profiles: SshProfileIds<'a>,
    key: Vec<u8>,
}

impl<'a> KeyPass<'a> {
    /// The grouping key of `payload`'s identifier; `None` where
    /// [`IdentifierExtractor::extract_payload`] returns `None`.
    #[inline]
    pub fn key(&mut self, payload: PayloadRef<'a>) -> Option<&[u8]> {
        let key = &mut self.key;
        key.clear();
        let keyed = match payload {
            PayloadRef::Ssh(ssh) => {
                SshIdentifier::write_key(ssh, self.config.ssh, &mut self.profiles, key)
            }
            PayloadRef::Bgp { open, .. } => {
                BgpIdentifier::write_key(open, key);
                true
            }
            PayloadRef::Snmpv3 { engine_id, .. } => {
                Snmpv3Identifier::write_key(engine_id, key);
                true
            }
            PayloadRef::RateLimit { .. } => false,
        };
        keyed.then_some(&key[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;
    use alias_scan::DataSource;
    use alias_wire::bgp::OpenMessage;
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};
    use std::net::{IpAddr, Ipv4Addr};

    fn observation(payload: ServicePayload) -> ServiceObservation {
        ServiceObservation {
            addr: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
            port: 22,
            source: DataSource::Active,
            timestamp: SimTime::ZERO,
            asn: Some(64_500),
            payload,
        }
    }

    #[test]
    fn extracts_all_three_protocols() {
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let ssh = observation(ServicePayload::Ssh(SshObservation {
            banner: Banner::new("OpenSSH_9.2p1", None).unwrap(),
            kex_init: Some(KexInit::typical_openssh()),
            host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![5; 32])),
        }));
        let bgp = observation(ServicePayload::Bgp {
            open: OpenMessage {
                version: 4,
                my_as: 64_500,
                hold_time: 90,
                bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                optional_parameters: vec![],
            },
            notification_seen: true,
        });
        let snmp = observation(ServicePayload::Snmpv3 {
            engine_id: EngineId(EngineId::enterprise_mac_bytes(9, [0, 1, 2, 3, 4, 5]).to_vec()),
            engine_boots: 3,
            engine_time: 100,
        });
        assert!(matches!(
            extractor.extract(&ssh).unwrap(),
            ProtocolIdentifier::Ssh(_)
        ));
        assert!(matches!(
            extractor.extract(&bgp).unwrap(),
            ProtocolIdentifier::Bgp(_)
        ));
        assert!(matches!(
            extractor.extract(&snmp).unwrap(),
            ProtocolIdentifier::Snmpv3(_)
        ));
    }

    #[test]
    fn ssh_without_host_key_yields_no_identifier() {
        let extractor = IdentifierExtractor::default();
        let obs = observation(ServicePayload::Ssh(SshObservation {
            banner: Banner::new("OpenSSH_9.2p1", None).unwrap(),
            kex_init: Some(KexInit::typical_openssh()),
            host_key: None,
        }));
        assert!(extractor.extract(&obs).is_none());
    }

    #[test]
    fn default_config_is_the_paper_config() {
        assert_eq!(ExtractionConfig::default(), ExtractionConfig::paper());
    }
}
