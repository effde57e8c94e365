//! # alias-scan
//!
//! Scanning machinery that turns the simulated Internet into measurement
//! data, mirroring the two-phase methodology of the paper:
//!
//! 1. an Internet-wide, stateless TCP SYN scan on the service ports
//!    (ZMap-style, [`zmap`]),
//! 2. a stateful application-layer scan of the responsive addresses that
//!    completes the TCP handshake and records the server's unsolicited
//!    protocol messages (ZGrab2-style, [`zgrab`]),
//!
//! plus the auxiliary data paths the paper relies on: an IPv6 hitlist
//! (`hitlist`), an SNMPv3 engine-discovery scan ([`snmp`]), the IPID
//! probing scheduler used by the MIDAR/Ally baselines ([`ipid_probe`]),
//! and the escalating-rate ICMP burst prober behind the rate-limiting
//! technique ([`rate_probe`]).
//!
//! The [`campaign`] module bundles all of the above into the "active
//! measurement" dataset used throughout the evaluation.
//!
//! Every probing phase is a module function — [`zmap::scan_ipv4`] /
//! `zmap::scan_ipv6_list`, [`zgrab::grab`], `snmp::scan` /
//! [`snmp::scan_routed_space`], [`rate_probe::discover_targets`] /
//! [`rate_probe::probe`] — taking a `threads` count and returning what the
//! campaign absorbs: SYN hit lists, or per-shard [`ShardColumns`] in shard
//! order.  One thread is one shard; the output is byte-identical for any
//! thread count.  Rates, ports and the rate-probe ladder are constants of
//! the module that uses them.

pub mod campaign;
mod exec;
mod hitlist;
pub mod ipid_probe;
mod permute;
mod rate;
pub mod rate_probe;
pub mod snmp;
pub mod zgrab;
pub mod zmap;

pub use alias_netsim::ServiceProtocol;
pub use alias_store::{
    BgpOpenRef, DataSource, ObservationStore, ObservationView, PayloadRef, ServiceObservation,
    ServicePayload, ShardColumns, SshRef,
};
pub use campaign::{ActiveCampaign, CampaignConfig, CampaignData};
/// The scan layer's one thread knob: `ALIAS_THREADS`, or every hardware
/// thread when unset.  Re-exported so the layers above (which run on the
/// calling thread) can pass the default on without depending on the pool.
pub use exec::threads_from_env;
pub use hitlist::Ipv6Hitlist;
pub use rate_probe::RateProbeConfig;

/// Splice a phase's shard chunks into a fresh store, in shard order: how
/// the scanner tests read what an entry point returned.
#[cfg(test)]
pub(crate) fn store_of(shards: Vec<ShardColumns>) -> ObservationStore {
    let mut store = ObservationStore::new();
    for shard in shards {
        store.absorb_shard(shard);
    }
    store
}
