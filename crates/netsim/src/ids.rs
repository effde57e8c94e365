//! Small identifier newtypes used throughout the simulator.

use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Index of a device inside the simulated Internet: ground truth, named
/// only by scoring ([`GroundTruth`](crate::GroundTruth)) and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) u32);

impl DeviceId {
    /// The device's position in the device table.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// An interface as the IP index resolved it
/// ([`Internet::route`](crate::Internet::route)): the handle every probe
/// takes, so a sweep pays for the index once per address.
///
/// A route has no equality, order or hash, and its fields are private: a
/// measurement sends probes along routes but cannot tell whether two of
/// them reach one device, which is what alias resolution infers and only
/// ground truth knows.  Its `Debug` form is for diagnostics.
///
/// ```compile_fail
/// fn same(a: alias_netsim::Route, b: alias_netsim::Route) -> bool { a == b }
/// ```
///
/// ```compile_fail
/// use std::collections::BTreeMap;
/// fn keyed(route: alias_netsim::Route) -> BTreeMap<alias_netsim::Route, u32> {
///     BTreeMap::from([(route, 1)])
/// }
/// ```
#[derive(Clone, Copy)]
pub struct Route {
    pub(crate) device: DeviceId,
    pub(crate) iface: u32,
}

/// A `(DeviceId, usize)` pair: the form the pinned Internet digests read.
impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let iface = self.iface as usize;
        f.debug_tuple("").field(&self.device).field(&iface).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Asn(14061).to_string(), "AS14061");
        assert_eq!(DeviceId(7).to_string(), "dev7");
        assert_eq!(DeviceId(7).index(), 7);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Asn(5) < Asn(10));
        assert!(DeviceId(1) < DeviceId(2));
    }

    #[test]
    fn a_route_prints_as_the_device_and_interface_pair() {
        let route = Route {
            device: DeviceId(5),
            iface: 3,
        };
        assert_eq!(
            format!("{:?}", Some(route)),
            format!("{:?}", Some((DeviceId(5), 3usize)))
        );
    }
}
