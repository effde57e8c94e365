//! The columnar observation store.
//!
//! [`ObservationStore`] keeps a campaign's observations as column vectors —
//! one `Vec` per scalar field ([`AddrId`], `ServiceProtocol`, [`DataSource`],
//! port, timestamp, ASN) plus one byte arena of payload records — instead
//! of one row-oriented `Vec<ServiceObservation>`.  The row type interleaves
//! multi-hundred-byte payloads with the handful of scalar bytes every
//! technique actually filters on, so a protocol pass over rows drags the
//! whole campaign through cache; over columns it reads one byte per row.
//! And a row's payload is a dozen heap blocks where its record is a run of
//! bytes in a chunk many rows — and every store the rows were copied to —
//! share: copying a store copies the scalar columns and shares the chunks,
//! dropping the last store that holds a chunk frees it.
//!
//! Addresses are interned **at scan time**: the sharded probe loops push
//! straight into per-shard [`ShardColumns`] (shard-local interner, no
//! global contention), and [`ObservationStore::absorb_shard`] remaps each
//! shard's dense local ids onto the store's id space — one hash lookup per
//! *distinct* address per shard instead of the one-per-observation post-hoc
//! interning pass a row campaign needs.
//!
//! Reading is zero-copy: [`ObservationStore::select`] scans the two
//! one-byte filter columns and yields an [`ObservationView`] whose accessors
//! return column values and [`PayloadRef`]s decoded in place, without
//! materialising rows; rows come back only through `to_observations`, the
//! test oracle.

use crate::payload::{PayloadArena, PayloadRef};
use crate::records::{DataSource, ServiceObservation};
use alias_intern::{AddrId, AddrInterner};
use alias_netsim::{ServiceProtocol, SimTime};
use alias_obs::{DeterminismClass, LazyCounter};
use std::net::IpAddr;
use std::sync::Arc;

/// Rows spliced onto campaign stores by [`ObservationStore::absorb_shard`].
/// Every scanned row is absorbed exactly once no matter how the campaign
/// was sharded, so the total is thread-count-invariant.
static ROWS_ABSORBED: LazyCounter = LazyCounter::new(
    "store.rows_absorbed",
    DeterminismClass::Deterministic,
    "rows",
    "store",
);

/// Payload record bytes spliced onto campaign stores by
/// [`ObservationStore::absorb_shard`]: with `store.rows_absorbed`, the mean
/// record size; with the span around a phase, its ingest rate in bytes.  A
/// row's record is a function of its payload alone, so the total is
/// thread-count-invariant.
static PAYLOAD_BYTES: LazyCounter = LazyCounter::new(
    "store.payload_bytes",
    DeterminismClass::Deterministic,
    "bytes",
    "store",
);

/// Distinct-address remap lookups performed while splicing shards (and a
/// crawl's columns) onto stores.  An address observed by k shards is
/// remapped k times, so the total depends on the shard decomposition:
/// timing class.
static ADDR_REMAPS: LazyCounter = LazyCounter::new(
    "store.addr_remaps",
    DeterminismClass::Timing,
    "lookups",
    "store",
);

/// Columnar storage for a batch of observations, with every observed
/// address interned to a dense [`AddrId`] in first-observation order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservationStore {
    addrs: Vec<AddrId>,
    protocols: Vec<ServiceProtocol>,
    sources: Vec<DataSource>,
    ports: Vec<u16>,
    timestamps: Vec<SimTime>,
    asns: Vec<Option<u32>>,
    payloads: PayloadArena,
    interner: Arc<AddrInterner>,
}

impl ObservationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from row observations, in order: the door for rows
    /// somebody already owns (a row export re-imported); scans and crawls
    /// use [`ShardColumns`].  Each row's payload is encoded into the arena
    /// and freed here.
    pub fn from_observations<I>(observations: I) -> Self
    where
        I: IntoIterator<Item = ServiceObservation>,
    {
        let mut store = ObservationStore::new();
        let interner = Arc::make_mut(&mut store.interner);
        for observation in observations {
            store.addrs.push(interner.intern(observation.addr));
            store.protocols.push(observation.payload.protocol());
            store.sources.push(observation.source);
            store.ports.push(observation.port);
            store.timestamps.push(observation.timestamp);
            store.asns.push(observation.asn);
            store.payloads.push(observation.payload.as_ref());
        }
        store
    }

    /// Splice a scan shard onto the store and count its rows and payload
    /// bytes as the campaign's: the shard's dense local ids are remapped
    /// through one hash lookup per *distinct* shard address, then every
    /// column is moved over — the payload arena's chunks as they are, no
    /// record copied.  Absorbing shards in shard order reproduces the serial
    /// first-observation id order and the serial rows, which is what keeps a
    /// sharded campaign equal to a serial one.
    pub fn absorb_shard(&mut self, shard: ShardColumns) {
        ROWS_ABSORBED.add(shard.len() as u64);
        PAYLOAD_BYTES.add(shard.payload_bytes() as u64);
        self.splice(shard);
    }

    fn splice(&mut self, shard: ShardColumns) {
        let ShardColumns {
            interner: local,
            addrs,
            protocols,
            sources,
            ports,
            timestamps,
            asns,
            payloads,
        } = shard;
        let global = Arc::make_mut(&mut self.interner);
        let remap: Vec<AddrId> = local.addrs().iter().map(|&a| global.intern(a)).collect();
        ADDR_REMAPS.add(remap.len() as u64);
        self.addrs
            .extend(addrs.into_iter().map(|id| remap[id.index()]));
        self.protocols.extend(protocols);
        self.sources.extend(sources);
        self.ports.extend(ports);
        self.timestamps.extend(timestamps);
        self.asns.extend(asns);
        self.payloads.append(payloads);
    }

    /// Append every row of another store, re-interning addresses into this
    /// store's id space (used to build union datasets).  The scalar columns
    /// are copied; the payload records are shared with `other`, not copied.
    pub fn extend_from(&mut self, other: &ObservationStore) {
        let global = Arc::make_mut(&mut self.interner);
        let remap: Vec<AddrId> = other
            .interner
            .addrs()
            .iter()
            .map(|&a| global.intern(a))
            .collect();
        self.addrs
            .extend(other.addrs.iter().map(|id| remap[id.index()]));
        self.protocols.extend_from_slice(&other.protocols);
        self.sources.extend_from_slice(&other.sources);
        self.ports.extend_from_slice(&other.ports);
        self.timestamps.extend_from_slice(&other.timestamps);
        self.asns.extend_from_slice(&other.asns);
        self.payloads.extend_from(&other.payloads);
    }

    /// Number of stored observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the store holds no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The store's address interner: every observed address mapped to a
    /// dense [`AddrId`] in first-observation order, shared behind an `Arc`
    /// so techniques and reports can reference the id space without copying
    /// it.
    #[inline]
    pub fn interner(&self) -> &Arc<AddrInterner> {
        &self.interner
    }

    /// The dense id of an observed address (`None` if never observed).
    #[inline]
    pub fn addr_id(&self, addr: IpAddr) -> Option<AddrId> {
        self.interner.get(addr)
    }

    /// The address-id column (one entry per observation, in campaign order).
    #[inline]
    pub fn addr_ids(&self) -> &[AddrId] {
        &self.addrs
    }

    /// The protocol column (one byte per row).
    #[inline]
    pub fn protocols(&self) -> &[ServiceProtocol] {
        &self.protocols
    }

    /// The data-source column (one byte per row).
    #[inline]
    pub fn sources(&self) -> &[DataSource] {
        &self.sources
    }

    /// The probed-port column.
    #[inline]
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// The timestamp column.
    #[inline]
    pub fn timestamps(&self) -> &[SimTime] {
        &self.timestamps
    }

    /// The origin-AS column.
    #[inline]
    pub fn asns(&self) -> &[Option<u32>] {
        &self.asns
    }

    /// Total bytes of payload records in the store's arena.  Stored apart
    /// from the scalar columns, so filter passes never pull them through
    /// cache.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.payloads.byte_len()
    }

    /// The payload of row `row`, decoded in place.
    #[inline]
    pub fn payload_at(&self, row: usize) -> PayloadRef<'_> {
        self.payloads.get(row, self.protocols[row])
    }

    /// The address of row `row` (resolved through the interner).
    #[inline]
    pub fn addr_at(&self, row: usize) -> IpAddr {
        self.interner.addr(self.addrs[row])
    }

    /// A borrowed view of row `row`.
    #[inline]
    pub fn get(&self, row: usize) -> ObservationRef<'_> {
        ObservationRef {
            addr_id: self.addrs[row],
            addr: self.interner.addr(self.addrs[row]),
            port: self.ports[row],
            source: self.sources[row],
            timestamp: self.timestamps[row],
            asn: self.asns[row],
            payload: self.payload_at(row),
        }
    }

    /// The row count as the `u32` views index with; loud rather than
    /// silently truncating should a store ever exceed `u32::MAX` rows.
    fn row_range(&self) -> std::ops::Range<u32> {
        let len = u32::try_from(self.len()).expect("observation store exceeds u32 rows");
        0..len
    }

    /// Select the rows matching a protocol and/or source filter (`None` =
    /// no constraint).  The pass reads only the two one-byte filter
    /// columns; the returned view borrows the store, copying nothing.
    pub fn select(
        &self,
        protocol: Option<ServiceProtocol>,
        source: Option<DataSource>,
    ) -> ObservationView<'_> {
        let rows = self
            .row_range()
            .filter(|&row| {
                let row = row as usize;
                protocol.is_none_or(|p| self.protocols[row] == p)
                    && source.is_none_or(|s| self.sources[row] == s)
            })
            .collect();
        ObservationView { store: self, rows }
    }

    /// [`Self::select`] on one protocol.
    pub fn select_protocol(
        &self,
        protocol: ServiceProtocol,
        source: Option<DataSource>,
    ) -> ObservationView<'_> {
        self.select(Some(protocol), source)
    }

    /// Materialise every row (the test oracle; payloads are copied out).
    pub fn to_observations(&self) -> Vec<ServiceObservation> {
        (0..self.len())
            .map(|row| self.get(row).to_observation())
            .collect()
    }

    /// Check the store's structural invariants: every column the same
    /// length, the payload arena's chunk table listing each chunk at the row
    /// the ones before it end on, every chunk's end offsets non-decreasing
    /// and closing on its last byte, every record a well-formed one of its
    /// row's protocol tag, every address id inside the interner's dense range,
    /// and the interner's own id ⇄ address bijection intact.
    ///
    /// The runtime twin of the static `det-hash-iter`/`id-space` lints:
    /// those catch sources of nondeterminism in the text, this catches a
    /// store whose columns have drifted apart at the point of use (the
    /// parity proptests call it after `absorb_shard` splices).
    pub fn validate(&self) -> Result<(), String> {
        let rows = self.addrs.len();
        let widths = [
            ("protocols", self.protocols.len()),
            ("sources", self.sources.len()),
            ("ports", self.ports.len()),
            ("timestamps", self.timestamps.len()),
            ("asns", self.asns.len()),
            ("payloads", self.payloads.len()),
        ];
        for (name, len) in widths {
            if len != rows {
                return Err(format!(
                    "column drift: {name} has {len} rows but addrs has {rows}"
                ));
            }
        }
        self.payloads.validate(&self.protocols)?;
        let ids = self.interner.len();
        for (row, id) in self.addrs.iter().enumerate() {
            if id.index() >= ids {
                return Err(format!(
                    "dangling address id at row {row}: id {} outside interner range 0..{ids}",
                    id.0
                ));
            }
        }
        self.interner.validate()
    }

    /// Number of distinct addresses observed with `protocol`.
    pub fn address_count(&self, protocol: ServiceProtocol) -> usize {
        let mut seen = vec![false; self.interner.len()];
        let mut count = 0usize;
        for (row, &p) in self.protocols.iter().enumerate() {
            if p == protocol && !std::mem::replace(&mut seen[self.addrs[row].index()], true) {
                count += 1;
            }
        }
        count
    }
}

/// Columns somebody other than a campaign filled (a Censys crawl), as a
/// store of their own: the splice of [`ObservationStore::absorb_shard`]
/// without its `store.rows_absorbed` / `store.payload_bytes` counts, which
/// are the campaign's.
impl From<ShardColumns> for ObservationStore {
    fn from(columns: ShardColumns) -> Self {
        let mut store = ObservationStore::new();
        store.splice(columns);
        store
    }
}

/// Per-shard append builder: the scan loops push observation fields
/// straight into shard-local columns, interning addresses against a
/// shard-local [`AddrInterner`] (no cross-shard contention, no row structs).
/// [`ObservationStore::absorb_shard`] splices shards onto the campaign
/// store in shard order.
#[derive(Debug, Clone, Default)]
pub struct ShardColumns {
    interner: AddrInterner,
    addrs: Vec<AddrId>,
    protocols: Vec<ServiceProtocol>,
    sources: Vec<DataSource>,
    ports: Vec<u16>,
    timestamps: Vec<SimTime>,
    asns: Vec<Option<u32>>,
    payloads: PayloadArena,
}

impl ShardColumns {
    /// An empty shard builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shard builder with room for `rows` observations, so a scan
    /// loop that knows its target count pays one allocation per column
    /// instead of the doubling ladder.
    pub fn with_capacity(rows: usize) -> Self {
        ShardColumns {
            interner: AddrInterner::default(),
            addrs: Vec::with_capacity(rows),
            protocols: Vec::with_capacity(rows),
            sources: Vec::with_capacity(rows),
            ports: Vec::with_capacity(rows),
            timestamps: Vec::with_capacity(rows),
            asns: Vec::with_capacity(rows),
            payloads: PayloadArena::with_capacity(rows),
        }
    }

    /// Append one observation from its fields, interning the address
    /// shard-locally and encoding the payload into the shard's arena.
    pub fn push(
        &mut self,
        addr: IpAddr,
        port: u16,
        source: DataSource,
        timestamp: SimTime,
        asn: Option<u32>,
        payload: PayloadRef<'_>,
    ) {
        let id = self.interner.intern(addr);
        self.addrs.push(id);
        self.protocols.push(payload.protocol());
        self.sources.push(source);
        self.ports.push(port);
        self.timestamps.push(timestamp);
        self.asns.push(asn);
        self.payloads.push(payload);
    }

    /// Number of rows in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the shard holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Total bytes of payload records in the shard's arena.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.payloads.byte_len()
    }

    /// Timestamp of the shard's last row, if any.
    pub fn last_timestamp(&self) -> Option<SimTime> {
        self.timestamps.last().copied()
    }
}

/// A zero-copy selection over an [`ObservationStore`]: the row indices that
/// matched a filter, plus column accessors resolving through the store.
#[derive(Debug, Clone)]
pub struct ObservationView<'a> {
    store: &'a ObservationStore,
    rows: Vec<u32>,
}

impl<'a> ObservationView<'a> {
    /// The store the view borrows from.
    #[inline]
    pub fn store(&self) -> &'a ObservationStore {
        self.store
    }

    /// The selected row indices, in campaign order.
    #[inline]
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of selected rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the selection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The [`AddrId`] of the `i`-th selected row — read straight from the
    /// id column, no address hashing.
    #[inline]
    pub fn addr_id_at(&self, i: usize) -> AddrId {
        self.store.addrs[self.rows[i] as usize]
    }

    /// The address of the `i`-th selected row.
    #[inline]
    pub fn addr_at(&self, i: usize) -> IpAddr {
        self.store.addr_at(self.rows[i] as usize)
    }

    /// The payload of the `i`-th selected row, decoded in place.
    #[inline]
    pub fn payload_at(&self, i: usize) -> PayloadRef<'a> {
        self.store.payload_at(self.rows[i] as usize)
    }

    /// The origin AS of the `i`-th selected row.
    #[inline]
    pub fn asn_at(&self, i: usize) -> Option<u32> {
        self.store.asns[self.rows[i] as usize]
    }

    /// The data source of the `i`-th selected row.
    #[inline]
    pub fn source_at(&self, i: usize) -> DataSource {
        self.store.sources[self.rows[i] as usize]
    }

    /// A borrowed view of the `i`-th selected row.
    #[inline]
    pub fn get(&self, i: usize) -> ObservationRef<'a> {
        self.store.get(self.rows[i] as usize)
    }

    /// Iterator over the selected rows as [`ObservationRef`]s.
    pub fn iter(&self) -> impl Iterator<Item = ObservationRef<'a>> + '_ {
        self.rows.iter().map(|&row| self.store.get(row as usize))
    }

    /// Materialise the selected rows (the test oracle).
    pub fn to_observations(&self) -> Vec<ServiceObservation> {
        self.iter().map(|r| r.to_observation()).collect()
    }
}

/// A borrowed observation row: every scalar by value, the payload
/// decoded in place.
#[derive(Debug, Clone, Copy)]
pub struct ObservationRef<'a> {
    /// Dense id of the observed address in the store's interner.
    pub addr_id: AddrId,
    /// The observed address.
    pub addr: IpAddr,
    /// The probed port.
    pub port: u16,
    /// Data source.
    pub source: DataSource,
    /// Observation time.
    pub timestamp: SimTime,
    /// Origin AS.
    pub asn: Option<u32>,
    /// The parsed payload, borrowed from the store's arena.
    pub payload: PayloadRef<'a>,
}

impl ObservationRef<'_> {
    /// The protocol of the observation.
    #[inline]
    pub fn protocol(&self) -> ServiceProtocol {
        self.payload.protocol()
    }

    /// Whether the observed address is IPv6.
    #[inline]
    pub fn is_ipv6(&self) -> bool {
        self.addr.is_ipv6()
    }

    /// Whether the observation is on the protocol's default port.
    #[inline]
    pub fn is_default_port(&self) -> bool {
        self.port == self.protocol().default_port()
    }

    /// Copy the row into an owned observation.
    fn to_observation(self) -> ServiceObservation {
        ServiceObservation {
            addr: self.addr,
            port: self.port,
            source: self.source,
            timestamp: self.timestamp,
            asn: self.asn,
            payload: self.payload.to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServicePayload;
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};

    fn ssh_obs(addr: &str, key_byte: u8, source: DataSource) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 22,
            source,
            timestamp: SimTime::from_secs(key_byte as u64),
            asn: Some(100 + key_byte as u32),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
            }),
        }
    }

    fn snmp_obs(addr: &str, engine_byte: u8) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 161,
            source: DataSource::Active,
            timestamp: SimTime::from_secs(900),
            asn: None,
            payload: ServicePayload::Snmpv3 {
                engine_id: EngineId::from_enterprise_mac(9, [engine_byte; 6]),
                engine_boots: 2,
                engine_time: 1_000,
            },
        }
    }

    fn sample_rows() -> Vec<ServiceObservation> {
        vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Censys),
            snmp_obs("10.0.0.1", 7),
            ssh_obs("2001:db8::1", 2, DataSource::Active),
            snmp_obs("10.0.0.9", 8),
        ]
    }

    #[test]
    fn store_round_trips_rows_and_interns_in_first_observation_order() {
        let rows = sample_rows();
        let store = ObservationStore::from_observations(rows.clone());
        assert_eq!(store.len(), rows.len());
        assert!(!store.is_empty());
        assert_eq!(store.to_observations(), rows);
        // First-observation id order, duplicates collapsed.
        assert_eq!(store.interner().len(), 4);
        assert_eq!(store.addr_id("10.0.0.1".parse().unwrap()), Some(AddrId(0)));
        assert_eq!(store.addr_ids()[2], AddrId(0), "repeat address reuses id");
        assert_eq!(store.addr_at(3), "2001:db8::1".parse::<IpAddr>().unwrap());
        assert_eq!(store.protocols()[2], ServiceProtocol::Snmpv3);
        assert_eq!(store.sources()[1], DataSource::Censys);
        // The filter columns stay one byte per row.
        assert_eq!(std::mem::size_of::<ServiceProtocol>(), 1);
        assert_eq!(std::mem::size_of::<DataSource>(), 1);
        assert_eq!(store.ports()[2], 161);
        assert_eq!(store.asns()[0], Some(101));
        assert_eq!(store.timestamps()[4], SimTime::from_secs(900));
        let decoded: Vec<ServicePayload> = (0..store.len())
            .map(|row| store.payload_at(row).to_owned())
            .collect();
        let pushed: Vec<&ServicePayload> = rows.iter().map(|o| &o.payload).collect();
        assert_eq!(decoded.iter().collect::<Vec<_>>(), pushed);
        assert!(store.payload_bytes() > rows.len());
        assert_eq!(store.address_count(ServiceProtocol::Ssh), 3);
        assert_eq!(store.address_count(ServiceProtocol::Snmpv3), 2);
        assert_eq!(store.address_count(ServiceProtocol::Bgp), 0);
    }

    #[test]
    fn select_filters_by_protocol_and_source() {
        let rows = sample_rows();
        let store = ObservationStore::from_observations(rows.clone());
        let ssh = store.select(Some(ServiceProtocol::Ssh), None);
        assert_eq!(ssh.len(), 3);
        assert_eq!(ssh.rows(), &[0, 1, 3]);
        assert!(ssh.iter().all(|r| r.protocol() == ServiceProtocol::Ssh));
        let ssh_active = store.select_protocol(ServiceProtocol::Ssh, Some(DataSource::Active));
        assert_eq!(ssh_active.len(), 2);
        assert_eq!(
            ssh_active.to_observations(),
            vec![rows[0].clone(), rows[3].clone()]
        );
        let everything = store.select(None, None);
        assert_eq!(everything.len(), rows.len());
        assert_eq!(everything.rows(), &[0, 1, 2, 3, 4]);
        let none = store.select(Some(ServiceProtocol::Bgp), None);
        assert!(none.is_empty());
        // Positional accessors resolve through the columns.
        assert_eq!(ssh.addr_id_at(2), store.addr_ids()[3]);
        assert_eq!(ssh.addr_at(0), "10.0.0.1".parse::<IpAddr>().unwrap());
        assert_eq!(ssh.asn_at(1), Some(101));
        assert_eq!(ssh.payload_at(0).to_owned(), rows[0].payload);
        assert_eq!(ssh.get(1).to_observation(), rows[1]);
        assert_eq!(ssh.store().len(), store.len());
    }

    #[test]
    fn absorbing_shards_in_order_matches_the_serial_store() {
        let rows = sample_rows();
        let serial = ObservationStore::from_observations(rows.clone());
        for chunk in [1usize, 2, 3] {
            let mut store = ObservationStore::new();
            for shard_rows in rows.chunks(chunk) {
                assert!(ShardColumns::new().is_empty());
                let shard = shard_of(shard_rows);
                assert_eq!(shard.len(), shard_rows.len());
                assert_eq!(
                    shard.last_timestamp(),
                    shard_rows.last().map(|o| o.timestamp)
                );
                store.absorb_shard(shard);
            }
            assert_eq!(store, serial, "chunk={chunk}");
        }
    }

    fn shard_of(rows: &[ServiceObservation]) -> ShardColumns {
        let mut shard = ShardColumns::new();
        for o in rows {
            shard.push(
                o.addr,
                o.port,
                o.source,
                o.timestamp,
                o.asn,
                o.payload.as_ref(),
            );
        }
        shard
    }

    #[test]
    fn stores_chunked_differently_are_equal_and_sharing_leaves_each_side_whole() {
        let rows = sample_rows();
        let serial = ObservationStore::from_observations(rows.clone());
        // One shard; a shard per phase; a clone with more rows spliced on.
        let one = ObservationStore::from(shard_of(&rows));
        let mut phased = ObservationStore::new();
        for phase in [&rows[..1], &rows[1..1], &rows[1..4], &rows[4..]] {
            phased.absorb_shard(shard_of(phase));
        }
        let head = ObservationStore::from(shard_of(&rows[..3]));
        let head_bytes = head.payload_bytes();
        let mut grown = head.clone();
        grown.absorb_shard(shard_of(&rows[3..]));
        for store in [&one, &phased, &grown] {
            assert_eq!(store.validate(), Ok(()));
            assert_eq!(store, &serial);
            assert_eq!(store.payload_bytes(), serial.payload_bytes());
        }
        // Growing the clone left the store it was cloned from alone.
        assert_eq!(head.to_observations(), rows[..3]);
        assert_eq!(head.payload_bytes(), head_bytes);
        assert_eq!(head.validate(), Ok(()));

        // A union shares both sides' records; either side outlives the other.
        let mut union = head.clone();
        union.extend_from(&grown);
        let expected = [&rows[..3], &rows[..]].concat();
        assert_eq!(union.payload_bytes(), head_bytes + serial.payload_bytes());
        drop(head);
        drop(grown);
        assert_eq!(union.validate(), Ok(()));
        assert_eq!(union.to_observations(), expected);
        let mut again = one.clone();
        again.extend_from(&phased);
        drop(again);
        assert_eq!(one.to_observations(), rows);
        assert_eq!(phased.to_observations(), rows);
    }

    #[test]
    fn extend_from_reinterns_the_other_id_space() {
        let left_rows = vec![
            ssh_obs("10.0.0.5", 3, DataSource::Active),
            ssh_obs("10.0.0.1", 3, DataSource::Active),
        ];
        let right_rows = sample_rows();
        let mut union = ObservationStore::from_observations(left_rows.clone());
        let right = ObservationStore::from_observations(right_rows.clone());
        union.extend_from(&right);
        let mut expected_rows = left_rows;
        expected_rows.extend(right_rows);
        assert_eq!(union.to_observations(), expected_rows);
        assert_eq!(
            union,
            ObservationStore::from_observations(union.to_observations())
        );
        // 10.0.0.1 keeps the id it got from the left store.
        assert_eq!(union.addr_id("10.0.0.1".parse().unwrap()), Some(AddrId(1)));
    }

    #[test]
    fn validate_accepts_empty_single_shard_and_grown_stores() {
        assert_eq!(ObservationStore::new().validate(), Ok(()));
        let rows = sample_rows();
        let mut store = ObservationStore::new();
        store.absorb_shard(shard_of(&rows));
        assert_eq!(store.validate(), Ok(()));
        let other = ObservationStore::from_observations(rows);
        assert_eq!(other.validate(), Ok(()));
        store.extend_from(&other);
        assert_eq!(store.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_column_and_tag_drift() {
        let mut store = ObservationStore::from_observations(sample_rows());
        store.ports.pop();
        let err = store.validate().unwrap_err();
        assert!(err.contains("column drift"), "{err}");

        let mut store = ObservationStore::from_observations(sample_rows());
        store.protocols[2] = ServiceProtocol::Bgp;
        let err = store.validate().unwrap_err();
        assert!(err.contains("tag/payload drift at row 2"), "{err}");

        let mut store = ObservationStore::from_observations(sample_rows());
        store.addrs[0] = AddrId(u32::MAX);
        let err = store.validate().unwrap_err();
        assert!(err.contains("dangling address id at row 0"), "{err}");
    }

    #[test]
    fn observation_ref_helpers() {
        let store = ObservationStore::from_observations(sample_rows());
        let row = store.get(3);
        assert!(row.is_ipv6());
        assert!(row.is_default_port());
        assert_eq!(row.protocol(), ServiceProtocol::Ssh);
        let snmp = store.get(2);
        assert!(!snmp.is_ipv6());
        assert_eq!(snmp.addr_id, AddrId(0));
    }
}
