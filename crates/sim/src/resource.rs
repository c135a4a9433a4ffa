//! Execution resources of the simulated platform.
//!
//! A [`Resource`] is anything that can execute at most one task at a time:
//! a CPU hardware thread, one of the NearPM execution units of a device, the
//! PCIe control path used to issue commands, or the dispatcher front-end of a
//! device. Task durations already account for bandwidth sharing on the data
//! path, so the PM media itself is not modeled as an exclusive resource.

use std::fmt;

/// An exclusive execution resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// A CPU hardware thread (the paper's host runs the application here).
    Cpu(usize),
    /// One NearPM execution unit.
    NdpUnit {
        /// Device the unit belongs to.
        device: usize,
        /// Unit index within the device.
        unit: usize,
    },
    /// The dispatcher front-end of a NearPM device. Only the short *decode*
    /// stage serializes here; translation and conflict checks run on the
    /// per-unit issue queues so the dispatcher frees as soon as decode
    /// retires.
    Dispatcher(usize),
    /// An extra decode lane of a device whose front-end has more than one
    /// decode stage (`lane >= 1`; lane 0 is the classic
    /// [`Resource::Dispatcher`], so single-lane devices are untouched).
    DispatcherLane {
        /// Device the lane belongs to.
        device: usize,
        /// Lane index within the device's front-end (always `>= 1`).
        lane: usize,
    },
    /// The issue queue feeding one NearPM execution unit: the decoded
    /// request's translate/conflict-check stage runs here, overlapping with
    /// the execution of requests on sibling units.
    IssueQueue {
        /// Device the queue belongs to.
        device: usize,
        /// Unit the queue feeds.
        unit: usize,
    },
    /// The memory-mapped control path between the host and the devices.
    ControlPath,
}

impl Resource {
    /// True if this resource belongs to a NearPM device (unit, dispatcher,
    /// or issue queue).
    pub fn is_ndp(&self) -> bool {
        matches!(
            self,
            Resource::NdpUnit { .. }
                | Resource::Dispatcher(_)
                | Resource::DispatcherLane { .. }
                | Resource::IssueQueue { .. }
        )
    }

    /// True if this resource is a CPU hardware thread.
    pub fn is_cpu(&self) -> bool {
        matches!(self, Resource::Cpu(_))
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Cpu(i) => write!(f, "cpu{i}"),
            Resource::NdpUnit { device, unit } => write!(f, "dev{device}.unit{unit}"),
            Resource::IssueQueue { device, unit } => write!(f, "dev{device}.iq{unit}"),
            Resource::Dispatcher(d) => write!(f, "dev{d}.dispatcher"),
            Resource::DispatcherLane { device, lane } => {
                write!(f, "dev{device}.dispatcher{lane}")
            }
            Resource::ControlPath => write!(f, "control-path"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_classification() {
        assert!(Resource::Cpu(0).is_cpu());
        assert!(!Resource::Cpu(0).is_ndp());
        assert!(Resource::NdpUnit { device: 1, unit: 2 }.is_ndp());
        assert!(Resource::Dispatcher(0).is_ndp());
        assert!(Resource::DispatcherLane { device: 0, lane: 1 }.is_ndp());
        assert!(Resource::IssueQueue { device: 0, unit: 1 }.is_ndp());
        assert!(!Resource::IssueQueue { device: 0, unit: 1 }.is_cpu());
        assert!(!Resource::ControlPath.is_ndp());
        assert!(!Resource::ControlPath.is_cpu());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Resource::Cpu(3).to_string(), "cpu3");
        assert_eq!(
            Resource::NdpUnit { device: 1, unit: 0 }.to_string(),
            "dev1.unit0"
        );
        assert_eq!(Resource::Dispatcher(0).to_string(), "dev0.dispatcher");
        assert_eq!(
            Resource::DispatcherLane { device: 0, lane: 1 }.to_string(),
            "dev0.dispatcher1"
        );
        assert_eq!(
            Resource::IssueQueue { device: 1, unit: 3 }.to_string(),
            "dev1.iq3"
        );
        assert_eq!(Resource::ControlPath.to_string(), "control-path");
    }
}
