//! CPI accounting: the breakdowns plotted in Figures 7-11.
//!
//! The paper reports cycles-per-instruction split into *busy* (useful
//! computation), *L1-to-L1* transfers, *L2* hits (loads and instruction
//! fetches), *off-chip* accesses, *other* (store latency, front-end stalls),
//! and R-NUCA's *re-classification* overhead. Figures 8-10 further split the
//! L2 component by access class and by whether a coherence indirection was
//! involved. [`DetailedCpi`] carries all of those at once.

use rnuca_types::access::AccessClass;
use std::fmt;

/// The top-level CPI components of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpiComponent {
    /// Useful computation.
    Busy,
    /// Dirty data forwarded from a remote L1.
    L1ToL1,
    /// L2 loads and instruction fetches serviced on chip.
    L2,
    /// Requests serviced by main memory.
    OffChip,
    /// Store latency and other stalls.
    Other,
    /// R-NUCA page re-classification overhead.
    Reclassification,
}

impl CpiComponent {
    /// All components in the order the paper's stacked bars use.
    pub const ALL: [CpiComponent; 6] = [
        CpiComponent::Busy,
        CpiComponent::L1ToL1,
        CpiComponent::L2,
        CpiComponent::OffChip,
        CpiComponent::Other,
        CpiComponent::Reclassification,
    ];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CpiComponent::Busy => "Busy",
            CpiComponent::L1ToL1 => "L1-to-L1",
            CpiComponent::L2 => "L2",
            CpiComponent::OffChip => "Off-chip",
            CpiComponent::Other => "Other",
            CpiComponent::Reclassification => "Re-class",
        }
    }
}

impl fmt::Display for CpiComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A CPI breakdown over the six top-level components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpiBreakdown {
    /// Useful computation.
    pub busy: f64,
    /// Dirty data forwarded from a remote L1.
    pub l1_to_l1: f64,
    /// On-chip L2 loads and instruction fetches.
    pub l2: f64,
    /// Off-chip accesses.
    pub off_chip: f64,
    /// Store latency and other stalls.
    pub other: f64,
    /// R-NUCA page re-classification overhead.
    pub reclassification: f64,
}

impl CpiBreakdown {
    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.busy + self.l1_to_l1 + self.l2 + self.off_chip + self.other + self.reclassification
    }

    /// The value of one component.
    pub fn component(&self, c: CpiComponent) -> f64 {
        match c {
            CpiComponent::Busy => self.busy,
            CpiComponent::L1ToL1 => self.l1_to_l1,
            CpiComponent::L2 => self.l2,
            CpiComponent::OffChip => self.off_chip,
            CpiComponent::Other => self.other,
            CpiComponent::Reclassification => self.reclassification,
        }
    }

    /// Adds a value to one component.
    pub fn add(&mut self, c: CpiComponent, value: f64) {
        match c {
            CpiComponent::Busy => self.busy += value,
            CpiComponent::L1ToL1 => self.l1_to_l1 += value,
            CpiComponent::L2 => self.l2 += value,
            CpiComponent::OffChip => self.off_chip += value,
            CpiComponent::Other => self.other += value,
            CpiComponent::Reclassification => self.reclassification += value,
        }
    }

    /// Returns this breakdown with every component divided by `denominator`.
    pub fn scaled(&self, denominator: f64) -> CpiBreakdown {
        assert!(
            denominator > 0.0,
            "cannot normalise by a non-positive denominator"
        );
        CpiBreakdown {
            busy: self.busy / denominator,
            l1_to_l1: self.l1_to_l1 / denominator,
            l2: self.l2 / denominator,
            off_chip: self.off_chip / denominator,
            other: self.other / denominator,
            reclassification: self.reclassification / denominator,
        }
    }
}

/// The full CPI detail needed to regenerate Figures 7-11.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetailedCpi {
    /// The top-level breakdown (Figure 7).
    pub breakdown: CpiBreakdown,
    /// L2 CPI contributed by private-data loads (Figure 9).
    pub l2_private_data: f64,
    /// L2 CPI contributed by instruction fetches (Figure 10).
    pub l2_instructions: f64,
    /// L2 CPI contributed by shared-data loads serviced without a coherence
    /// indirection (Figure 8, "L2 shared load").
    pub l2_shared_load: f64,
    /// L2 CPI contributed by shared-data loads that needed a coherence
    /// indirection to a remote slice (Figure 8, "L2 shared load coherence";
    /// only the private and ASR designs have this component).
    pub l2_shared_coherence: f64,
    /// Off-chip CPI contributed by instruction fetches (Figure 11's off-chip component).
    pub off_chip_instructions: f64,
}

impl DetailedCpi {
    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.breakdown.total()
    }

    /// Adds L2 CPI to both the top-level breakdown and the per-class detail.
    pub fn add_l2(&mut self, class: AccessClass, coherence_indirection: bool, cpi: f64) {
        self.breakdown.add(CpiComponent::L2, cpi);
        match class {
            AccessClass::PrivateData => self.l2_private_data += cpi,
            AccessClass::Instruction => self.l2_instructions += cpi,
            AccessClass::SharedData => {
                if coherence_indirection {
                    self.l2_shared_coherence += cpi;
                } else {
                    self.l2_shared_load += cpi;
                }
            }
        }
    }

    /// Adds off-chip CPI, tracking the instruction share separately.
    pub fn add_off_chip(&mut self, class: AccessClass, cpi: f64) {
        self.breakdown.add(CpiComponent::OffChip, cpi);
        if class == AccessClass::Instruction {
            self.off_chip_instructions += cpi;
        }
    }

    /// Returns this detail with every field divided by `denominator`
    /// (used to convert accumulated cycles into per-instruction values).
    pub fn scaled(&self, denominator: f64) -> DetailedCpi {
        assert!(
            denominator > 0.0,
            "cannot normalise by a non-positive denominator"
        );
        DetailedCpi {
            breakdown: self.breakdown.scaled(denominator),
            l2_private_data: self.l2_private_data / denominator,
            l2_instructions: self.l2_instructions / denominator,
            l2_shared_load: self.l2_shared_load / denominator,
            l2_shared_coherence: self.l2_shared_coherence / denominator,
            off_chip_instructions: self.off_chip_instructions / denominator,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_component_access() {
        let mut b = CpiBreakdown::default();
        b.add(CpiComponent::Busy, 1.0);
        b.add(CpiComponent::L2, 0.4);
        b.add(CpiComponent::OffChip, 0.3);
        b.add(CpiComponent::Other, 0.1);
        assert!((b.total() - 1.8).abs() < 1e-12);
        assert_eq!(b.component(CpiComponent::L2), 0.4);
        assert_eq!(b.component(CpiComponent::Reclassification), 0.0);
    }

    #[test]
    fn scaling_divides_every_component() {
        let mut b = CpiBreakdown::default();
        b.add(CpiComponent::L1ToL1, 10.0);
        b.add(CpiComponent::Reclassification, 4.0);
        let s = b.scaled(2.0);
        assert_eq!(s.l1_to_l1, 5.0);
        assert_eq!(s.reclassification, 2.0);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn scaling_by_zero_panics() {
        CpiBreakdown::default().scaled(0.0);
    }

    #[test]
    fn detailed_split_by_class_and_coherence() {
        let mut d = DetailedCpi::default();
        d.add_l2(AccessClass::PrivateData, false, 0.2);
        d.add_l2(AccessClass::Instruction, false, 0.3);
        d.add_l2(AccessClass::SharedData, false, 0.1);
        d.add_l2(AccessClass::SharedData, true, 0.25);
        d.add_off_chip(AccessClass::Instruction, 0.5);
        d.add_off_chip(AccessClass::PrivateData, 0.4);
        assert!((d.breakdown.l2 - 0.85).abs() < 1e-12);
        assert!((d.l2_private_data - 0.2).abs() < 1e-12);
        assert!((d.l2_instructions - 0.3).abs() < 1e-12);
        assert!((d.l2_shared_load - 0.1).abs() < 1e-12);
        assert!((d.l2_shared_coherence - 0.25).abs() < 1e-12);
        assert!((d.breakdown.off_chip - 0.9).abs() < 1e-12);
        assert!((d.off_chip_instructions - 0.5).abs() < 1e-12);
    }

    #[test]
    fn component_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            CpiComponent::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), CpiComponent::ALL.len());
        assert_eq!(CpiComponent::L1ToL1.to_string(), "L1-to-L1");
    }
}
