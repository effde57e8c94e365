//! The paper's contribution as techniques: alias resolution from
//! application-layer identifiers (SSH host keys + capabilities, BGP OPEN
//! fields, SNMPv3 engine IDs).

use crate::technique::{ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::alias_set::group_view_by_source;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_netsim::ServiceProtocol;
use alias_scan::CampaignData;
use std::sync::Arc;

/// Alias resolution from one protocol's application-layer identifier.
///
/// Runs entirely in id space, over columns: the campaign store's protocol
/// column selects the rows (one byte per observation — payloads are never
/// touched by the filter), and
/// [`alias_core::alias_set::group_view_by_source`] groups them in one keyed
/// pass over the campaign's [`AddrId`](alias_intern::AddrId) column —
/// each row's id is read straight from the store (intern-at-scan), no
/// address hashing.  The result is that pass projected onto every source
/// ([`TechniqueResult::from_groups`]) and keeps it, resolving addresses
/// only at the report boundary.  Identifiers follow the paper's policies
/// ([`ExtractionConfig::paper`]).  Pure — no follow-up probing.
#[derive(Debug, Clone, Copy)]
pub struct IdentifierTechnique {
    protocol: ServiceProtocol,
}

impl IdentifierTechnique {
    /// A technique for one protocol's identifier.
    pub(crate) fn new(protocol: ServiceProtocol) -> Self {
        IdentifierTechnique { protocol }
    }

    /// SSH: banner + capabilities + host key.
    pub fn ssh() -> Self {
        Self::new(ServiceProtocol::Ssh)
    }

    /// BGP: the OPEN message fields.
    pub fn bgp() -> Self {
        Self::new(ServiceProtocol::Bgp)
    }

    /// SNMPv3: the authoritative engine ID.
    pub fn snmpv3() -> Self {
        Self::new(ServiceProtocol::Snmpv3)
    }
}

impl ResolutionTechnique for IdentifierTechnique {
    fn name(&self) -> &'static str {
        self.protocol.name()
    }

    fn resolve(&self, data: &CampaignData, _ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let view = data.store().select_protocol(self.protocol, None);
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        TechniqueResult::from_groups(
            self.name().to_owned(),
            Arc::new(group_view_by_source(&view, &extractor)),
            None,
            data.finished_at,
            data.interner().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeTargets;
    use alias_core::alias_set::group_view_compact;
    use alias_netsim::{InternetBuilder, InternetConfig, VantageKind};
    use alias_scan::campaign::{ActiveCampaign, CampaignConfig};

    #[test]
    fn identifier_technique_matches_a_direct_grouping() {
        // The technique projects a source-tagged pass; read directly, the
        // same rows must give the same sets and testable ids, id for id.
        let internet = InternetBuilder::new(InternetConfig::tiny(11)).build();
        let data = ActiveCampaign::new(CampaignConfig {
            hitlist_coverage: internet.config().visibility.hitlist_coverage,
            ..Default::default()
        })
        .run(&internet);
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        for technique in [
            IdentifierTechnique::ssh(),
            IdentifierTechnique::bgp(),
            IdentifierTechnique::snmpv3(),
        ] {
            let result = technique.resolve(&data, &ctx);
            let view = data.store().select_protocol(technique.protocol, None);
            let direct = group_view_compact(&view, &extractor, 1);
            assert_eq!(result.compact_sets(), direct.sets, "{}", technique.name());
            assert_eq!(result.testable_ids(), direct.testable);
            // The pass it was projected from stays with it.
            let pass = result.groups().expect("identifier results keep their pass");
            assert_eq!(**pass, group_view_by_source(&view, &extractor));
            assert_eq!(result.finished_at, data.finished_at);
            assert_ne!(result.set_count(), 0, "{}", technique.name());
            // The id space is the campaign's, shared — not copied.
            assert!(std::sync::Arc::ptr_eq(result.interner(), data.interner()));
        }
    }

    #[test]
    fn names() {
        assert_eq!(IdentifierTechnique::ssh().name(), "ssh");
        assert_eq!(IdentifierTechnique::bgp().name(), "bgp");
        assert_eq!(IdentifierTechnique::snmpv3().name(), "snmpv3");
    }
}
