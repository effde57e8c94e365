//! What a caller chooses about the synthetic Internet: its seed, its size
//! and the IPv6 hitlist's coverage.
//!
//! Everything else that shapes the population — each archetype's
//! probabilities and address ranges, ACL coverage, identifier anomalies,
//! visibility, IPID mixes, ICMP behaviour and churn — calibrates it to the
//! paper's Table 1 shapes and is a constant of the module that reads it:
//! [`crate::builder`] for generation, [`crate::internet`] for the churn
//! rate and `alias-censys` for the non-standard-port fraction.
//!
//! Scaling note: the paper measures ~24M SSH hosts; the default
//! [`ScalePreset::PaperShape`] population is roughly 1/400 of that for SSH
//! and SNMPv3.  Because the paper's BGP population is two orders of
//! magnitude smaller than its SSH population, uniform scaling would leave
//! too few BGP speakers to compute meaningful distributions, so BGP is
//! scaled by only 1/40.  This preserves every qualitative comparison (SSH
//! dominates, BGP sets are larger and more multi-AS) and is documented in
//! EXPERIMENTS.md.

/// How many ASes of each kind to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AsCounts {
    /// Cloud / hosting providers.
    pub(crate) cloud: usize,
    /// ISPs / telcos.
    pub(crate) isp: usize,
    /// Enterprise / stub networks.
    pub(crate) enterprise: usize,
}

/// How many devices of each archetype to generate (totals across all ASes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCounts {
    /// Single-address cloud VMs (SSH).
    pub(crate) cloud_vms: usize,
    /// Multi-address cloud servers / load balancers (SSH).
    pub(crate) cloud_servers: usize,
    /// Enterprise servers (SSH, mostly single address).
    pub(crate) enterprise_servers: usize,
    /// ISP aggregation/access routers (SNMPv3, some SSH).
    pub(crate) isp_routers: usize,
    /// Border routers (BGP speakers that answer with an OPEN).
    pub(crate) border_routers: usize,
    /// Customer-premises equipment (SNMPv3 / dropbear SSH singletons).
    pub(crate) cpe_devices: usize,
    /// ISP routers with every identifier service disabled (no SSH, BGP or
    /// SNMP; random IPID; per-probed-address ICMP errors) — the population
    /// only the ICMP rate-limiting technique can alias.  Zero in every
    /// preset so existing populations are unchanged; scenarios opt in.
    pub silent_routers: usize,
}

/// What the measurement channels can see that a caller reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilityParams {
    /// Fraction of active IPv6 service addresses present in the IPv6 hitlist.
    pub hitlist_coverage: f64,
}

/// Named size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePreset {
    /// A few hundred devices — unit/integration tests.
    Tiny,
    /// A few thousand devices — fast examples and criterion benches.
    Small,
    /// The default experiment population (~90k devices) reproducing the
    /// paper's shapes at reduced scale.
    PaperShape,
    /// 10× [`Self::PaperShape`] (~930k devices) — scaling studies.
    Large,
    /// 100× [`Self::PaperShape`] (~9.3M devices) — the stress tier; still
    /// far below the real routed space but large enough that per-probe
    /// overhead dominates wall-clock.
    Huge,
}

/// Complete generation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetConfig {
    /// RNG seed; every derived structure is deterministic in this seed.
    pub(crate) seed: u64,
    /// AS population.
    pub(crate) as_counts: AsCounts,
    /// Device population.
    pub devices: DeviceCounts,
    /// Measurement-channel visibility: the IPv6 hitlist's coverage.
    pub visibility: VisibilityParams,
}

impl InternetConfig {
    /// Build the configuration for a named preset with the given seed.
    pub fn preset(preset: ScalePreset, seed: u64) -> Self {
        let devices = match preset {
            ScalePreset::Tiny => DeviceCounts {
                cloud_vms: 120,
                cloud_servers: 40,
                enterprise_servers: 30,
                isp_routers: 40,
                border_routers: 25,
                cpe_devices: 100,
                silent_routers: 0,
            },
            ScalePreset::Small => DeviceCounts {
                cloud_vms: 2_500,
                cloud_servers: 300,
                enterprise_servers: 400,
                isp_routers: 250,
                border_routers: 120,
                cpe_devices: 2_500,
                silent_routers: 0,
            },
            ScalePreset::PaperShape => DeviceCounts {
                cloud_vms: 40_000,
                cloud_servers: 2_400,
                enterprise_servers: 6_000,
                isp_routers: 2_000,
                border_routers: 900,
                cpe_devices: 42_000,
                silent_routers: 0,
            },
            ScalePreset::Large => DeviceCounts {
                cloud_vms: 400_000,
                cloud_servers: 24_000,
                enterprise_servers: 60_000,
                isp_routers: 20_000,
                border_routers: 9_000,
                cpe_devices: 420_000,
                silent_routers: 0,
            },
            ScalePreset::Huge => DeviceCounts {
                cloud_vms: 4_000_000,
                cloud_servers: 240_000,
                enterprise_servers: 600_000,
                isp_routers: 200_000,
                border_routers: 90_000,
                cpe_devices: 4_200_000,
                silent_routers: 0,
            },
        };
        let as_counts = match preset {
            ScalePreset::Tiny => AsCounts {
                cloud: 4,
                isp: 6,
                enterprise: 5,
            },
            ScalePreset::Small => AsCounts {
                cloud: 12,
                isp: 25,
                enterprise: 20,
            },
            ScalePreset::PaperShape => AsCounts {
                cloud: 40,
                isp: 220,
                enterprise: 120,
            },
            // The larger tiers grow the AS population sub-linearly (×4 and
            // ×10 for ×10 and ×100 devices): real growth densifies networks
            // more than it mints ASes, and denser ASes are what stress the
            // routed-space sweep.
            ScalePreset::Large => AsCounts {
                cloud: 160,
                isp: 880,
                enterprise: 480,
            },
            ScalePreset::Huge => AsCounts {
                cloud: 400,
                isp: 2_200,
                enterprise: 1_200,
            },
        };
        InternetConfig {
            seed,
            as_counts,
            devices,
            visibility: VisibilityParams {
                hitlist_coverage: 0.72,
            },
        }
    }

    /// The tiny preset used by unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self::preset(ScalePreset::Tiny, seed)
    }

    /// The small preset used by examples and benches.
    pub fn small(seed: u64) -> Self {
        Self::preset(ScalePreset::Small, seed)
    }

    /// Total number of devices that will be generated.
    pub(crate) fn total_devices(&self) -> usize {
        let d = &self.devices;
        d.cloud_vms
            + d.cloud_servers
            + d.enterprise_servers
            + d.isp_routers
            + d.border_routers
            + d.cpe_devices
            + d.silent_routers
    }

    /// Sanity-check what a caller sets; returns the offending field names
    /// (empty when the configuration is valid).
    pub(crate) fn validate(&self) -> Vec<&'static str> {
        let mut bad = Vec::new();
        // The builder draws ASes of every kind by weight, so each kind
        // needs at least one.
        let counts = &self.as_counts;
        for (name, count) in [
            ("as_counts.cloud", counts.cloud),
            ("as_counts.isp", counts.isp),
            ("as_counts.enterprise", counts.enterprise),
        ] {
            if count == 0 {
                bad.push(name);
            }
        }
        if !(0.0..=1.0).contains(&self.visibility.hitlist_coverage) {
            bad.push("visibility.hitlist_coverage");
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for preset in [
            ScalePreset::Tiny,
            ScalePreset::Small,
            ScalePreset::PaperShape,
            ScalePreset::Large,
            ScalePreset::Huge,
        ] {
            let config = InternetConfig::preset(preset, 1);
            assert!(
                config.validate().is_empty(),
                "{preset:?}: {:?}",
                config.validate()
            );
            assert!(config.total_devices() > 0);
        }
    }

    #[test]
    fn preset_sizes_are_ordered() {
        let tiny = InternetConfig::tiny(1).total_devices();
        let small = InternetConfig::small(1).total_devices();
        let paper = InternetConfig::preset(ScalePreset::PaperShape, 1).total_devices();
        let large = InternetConfig::preset(ScalePreset::Large, 1).total_devices();
        let huge = InternetConfig::preset(ScalePreset::Huge, 1).total_devices();
        assert!(tiny < small && small < paper && paper < large && large < huge);
        // The scaling tiers track their 10×/100× contract on device count.
        assert_eq!(large, paper * 10);
        assert_eq!(huge, paper * 100);
    }

    #[test]
    fn validation_catches_a_bad_hitlist_coverage() {
        let mut config = InternetConfig::tiny(1);
        config.visibility.hitlist_coverage = 1.5;
        assert_eq!(config.validate(), ["visibility.hitlist_coverage"]);
    }

    #[test]
    fn validation_names_each_as_kind_left_empty() {
        for (name, clear) in [
            (
                "as_counts.cloud",
                (|c: &mut AsCounts| c.cloud = 0) as fn(&mut AsCounts),
            ),
            ("as_counts.isp", |c: &mut AsCounts| c.isp = 0),
            ("as_counts.enterprise", |c: &mut AsCounts| c.enterprise = 0),
        ] {
            let mut config = InternetConfig::tiny(1);
            clear(&mut config.as_counts);
            assert_eq!(config.validate(), [name]);
        }
    }

    #[test]
    fn silent_routers_count_into_the_total() {
        let mut config = InternetConfig::tiny(1);
        let base = config.total_devices();
        config.devices.silent_routers = 12;
        assert_eq!(config.total_devices(), base + 12);
    }

    #[test]
    fn clone_and_compare() {
        let config = InternetConfig::tiny(7);
        let copy = config.clone();
        assert_eq!(config, copy);
        let mut other = config.clone();
        other.seed = 8;
        assert_ne!(config, other);
    }
}
