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

/// Index of a device inside the simulated Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

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
}
