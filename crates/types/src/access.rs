//! Memory-access records and the three-way access classification of the paper.
//!
//! Section 3 of the paper classifies L2 references into **instructions**,
//! **private data**, and **shared data**, and shows each class is amenable to
//! a different placement policy. The workload generators emit
//! [`MemoryAccess`] records tagged with the *ground-truth* class; the OS
//! layer independently classifies pages at TLB-miss time, which lets the
//! simulator measure classification accuracy (Section 5.2).

use crate::addr::PhysAddr;
use crate::ids::CoreId;
use std::fmt;

/// The access class a block/page belongs to (ground truth from the workload model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessClass {
    /// Instruction fetches: read-only, typically shared by all cores in server
    /// workloads. R-NUCA replicates these at cluster granularity.
    Instruction,
    /// Data accessed by exactly one core (stack, thread-local storage).
    /// R-NUCA places these in the local L2 slice.
    PrivateData,
    /// Data accessed by multiple cores, predominantly read-write.
    /// R-NUCA address-interleaves these across all tiles.
    SharedData,
}

impl AccessClass {
    /// All classes, in the order used by the paper's figures.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::Instruction,
        AccessClass::PrivateData,
        AccessClass::SharedData,
    ];

    /// Short label used in reports ("Instr", "Private", "Shared").
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Instruction => "Instr",
            AccessClass::PrivateData => "Private",
            AccessClass::SharedData => "Shared",
        }
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether an access reads or writes the referenced location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An instruction fetch (always a read; distinguished so that requests
    /// from the L1-I can be classified immediately, as in Section 4.3).
    InstrFetch,
    /// A data load.
    Read,
    /// A data store.
    Write,
}

impl AccessKind {
    /// Returns `true` for stores.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Returns `true` for instruction fetches.
    pub fn is_instr_fetch(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::InstrFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(s)
    }
}

/// One memory reference issued by a core.
///
/// This is the unit of work consumed by the trace-driven simulator. The
/// `class` field carries the workload generator's ground truth and is used
/// only for characterization figures and for measuring the OS classifier's
/// accuracy — the placement policies never look at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// The core issuing the reference.
    pub core: CoreId,
    /// The physical address referenced.
    pub addr: PhysAddr,
    /// Fetch / read / write.
    pub kind: AccessKind,
    /// Ground-truth access class from the workload model.
    pub class: AccessClass,
}

impl MemoryAccess {
    /// Convenience constructor.
    pub fn new(core: CoreId, addr: PhysAddr, kind: AccessKind, class: AccessClass) -> Self {
        MemoryAccess {
            core,
            addr,
            kind,
            class,
        }
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} [{}]",
            self.core, self.kind, self.addr, self.class
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CoreId;

    #[test]
    fn class_labels_and_order() {
        assert_eq!(AccessClass::ALL.len(), 3);
        assert_eq!(AccessClass::Instruction.label(), "Instr");
        assert_eq!(AccessClass::PrivateData.to_string(), "Private");
        assert_eq!(AccessClass::SharedData.to_string(), "Shared");
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::InstrFetch.is_instr_fetch());
        assert!(!AccessKind::Write.is_instr_fetch());
    }

    #[test]
    fn access_display_mentions_all_parts() {
        let a = MemoryAccess::new(
            CoreId::new(2),
            PhysAddr::new(0x1000),
            AccessKind::Read,
            AccessClass::SharedData,
        );
        let s = a.to_string();
        assert!(s.contains("P2"));
        assert!(s.contains("read"));
        assert!(s.contains("Shared"));
    }
}
