//! Turning scan observations into protocol identifiers.

use crate::identifier::{
    BgpIdentifier, BgpIdentifierPolicy, ProtocolIdentifier, Snmpv3Identifier, SshIdentifier,
    SshIdentifierPolicy,
};
use alias_scan::{PayloadRef, ServiceObservation, ServicePayload};
use serde::{Deserialize, Serialize};

/// Identifier policies for all protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExtractionConfig {
    /// SSH identifier policy.
    pub ssh: SshIdentifierPolicy,
    /// BGP identifier policy.
    pub bgp: BgpIdentifierPolicy,
}

impl ExtractionConfig {
    /// The paper's configuration: full identifiers for both protocols.
    pub fn paper() -> Self {
        ExtractionConfig {
            ssh: SshIdentifierPolicy::Full,
            bgp: BgpIdentifierPolicy::FullOpen,
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
    /// [`Self::key_into`] is tested against; nothing on the hot path builds
    /// one.
    pub fn extract_payload(&self, payload: &ServicePayload) -> Option<ProtocolIdentifier> {
        match payload {
            ServicePayload::Ssh(ssh) => {
                SshIdentifier::from_observation(ssh, self.config.ssh).map(ProtocolIdentifier::Ssh)
            }
            ServicePayload::Bgp { open, .. } => Some(ProtocolIdentifier::Bgp(
                BgpIdentifier::from_open(open, self.config.bgp),
            )),
            ServicePayload::Snmpv3 { engine_id, .. } => Some(ProtocolIdentifier::Snmpv3(
                Snmpv3Identifier::from_engine_id(engine_id),
            )),
            // Rate-limiting loss counts are correlated, not extracted:
            // the payload carries no device-wide identifier.
            ServicePayload::RateLimit { .. } => None,
        }
    }

    /// Write the grouping key of `payload`'s identifier into `key`
    /// (cleared first), returning `false` — and leaving `key` empty — when
    /// [`Self::extract_payload`] would return `None`.
    ///
    /// Under one extractor, two payloads get equal keys exactly when
    /// `extract_payload` gives them equal identifiers; the key is written
    /// into the caller's buffer, so keying a row allocates nothing once the
    /// buffer has grown.  This is what the grouping loops call per row,
    /// on the payload a store view decodes in place; an owned payload lends
    /// one through [`ServicePayload::as_ref`].
    #[inline]
    pub fn key_into(&self, payload: PayloadRef<'_>, key: &mut Vec<u8>) -> bool {
        key.clear();
        match payload {
            PayloadRef::Ssh(ssh) => SshIdentifier::write_key(ssh, self.config.ssh, key),
            PayloadRef::Bgp { open, .. } => {
                BgpIdentifier::write_key(open, self.config.bgp, key);
                true
            }
            PayloadRef::Snmpv3 { engine_id, .. } => {
                Snmpv3Identifier::write_key(engine_id, key);
                true
            }
            PayloadRef::RateLimit { .. } => false,
        }
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
            engine_id: EngineId::from_enterprise_mac(9, [0, 1, 2, 3, 4, 5]),
            engine_boots: 3,
            engine_time: 100,
        });
        assert_eq!(extractor.extract(&ssh).unwrap().protocol_name(), "ssh");
        assert_eq!(extractor.extract(&bgp).unwrap().protocol_name(), "bgp");
        assert_eq!(extractor.extract(&snmp).unwrap().protocol_name(), "snmpv3");
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
