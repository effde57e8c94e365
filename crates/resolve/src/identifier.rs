//! The paper's contribution as techniques: alias resolution from
//! application-layer identifiers (SSH host keys + capabilities, BGP OPEN
//! fields, SNMPv3 engine IDs).

use crate::technique::{DataRequirement, ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::alias_set::group_view_compact;
use alias_netsim::ServiceProtocol;
use alias_scan::CampaignData;

/// Alias resolution from one protocol's application-layer identifier.
///
/// Runs entirely in id space, over columns: the campaign store's protocol
/// column selects the rows (one byte per observation — payloads are never
/// touched by the filter), and
/// [`alias_core::alias_set::group_view_compact`] groups them in one keyed
/// pass over the campaign's [`AddrId`](alias_core::intern::AddrId) column —
/// each row's id is read straight from the store (intern-at-scan), no
/// address hashing.  The result keeps the compact sets, resolving
/// addresses only at the report boundary.  Pure — no follow-up probing.
#[derive(Debug, Clone, Copy)]
pub struct IdentifierTechnique {
    protocol: ServiceProtocol,
}

impl IdentifierTechnique {
    /// A technique for one protocol's identifier.
    pub fn new(protocol: ServiceProtocol) -> Self {
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

    /// The protocol this technique extracts identifiers from.
    pub fn protocol(&self) -> ServiceProtocol {
        self.protocol
    }
}

impl ResolutionTechnique for IdentifierTechnique {
    fn name(&self) -> &'static str {
        self.protocol.name()
    }

    fn required_sources(&self) -> Vec<DataRequirement> {
        vec![DataRequirement::Observations(self.protocol)]
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let view = data.store().select_protocol(self.protocol, None);
        let grouped = group_view_compact(&view, ctx.extractor, 1);
        TechniqueResult::from_compact(
            self.name().to_owned(),
            grouped.sets,
            grouped.testable,
            data.finished_at,
            data.interner().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeTargets;
    use alias_core::alias_set::group_view_by_source;
    use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
    use alias_core::intern::{sort_canonical_compact, AddrId};
    use alias_netsim::{InternetBuilder, InternetConfig, VantageKind};
    use alias_scan::campaign::ActiveCampaign;

    #[test]
    fn identifier_technique_matches_the_report_grouping() {
        // The technique and the tables group the same rows through two
        // entry points of one keyed pass; they must agree id for id.
        let internet = InternetBuilder::new(InternetConfig::tiny(11)).build();
        let data = ActiveCampaign::with_defaults(&internet).run(&internet);
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
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
            let pass = group_view_by_source(
                &data.store().select_protocol(technique.protocol(), None),
                &extractor,
            );
            let mut sets = pass.project(None, data.interner()).sets().to_vec();
            sort_canonical_compact(&mut sets, data.interner());
            assert_eq!(result.compact_sets(), sets, "{}", technique.name());
            let mut testable: Vec<AddrId> = pass.members().iter().map(|&(id, _)| id).collect();
            testable.sort_unstable();
            testable.dedup();
            assert_eq!(result.testable_ids(), testable);
            assert_eq!(result.finished_at, data.finished_at);
            assert!(!technique
                .required_sources()
                .contains(&DataRequirement::LiveProbing));
            assert_ne!(result.set_count(), 0, "{}", technique.name());
            // The id space is the campaign's, shared — not copied.
            assert!(std::sync::Arc::ptr_eq(result.interner(), data.interner()));
        }
    }

    #[test]
    fn names_and_requirements() {
        assert_eq!(IdentifierTechnique::ssh().name(), "ssh");
        assert_eq!(IdentifierTechnique::bgp().name(), "bgp");
        assert_eq!(IdentifierTechnique::snmpv3().name(), "snmpv3");
        assert_eq!(
            IdentifierTechnique::ssh().required_sources(),
            vec![DataRequirement::Observations(ServiceProtocol::Ssh)]
        );
    }
}
