//! Operating-system cooperation layer for R-NUCA.
//!
//! R-NUCA relies on the OS rather than on hardware heuristics (Section 4.3 of
//! the paper): memory accesses are classified **at page granularity at
//! TLB-miss time**. The OS page table carries, per page, a Private bit and
//! the core ID (CID) of the last accessor. The OS also assigns each tile a
//! rotational ID (RID) used by rotational interleaving (Section 4.1).
//!
//! This crate provides that machinery:
//!
//! * [`PageTable`] / [`PageInfo`] — per-page classification state,
//! * [`Tlb`] — a per-core TLB caching classifications,
//! * [`OsClassifier`] — the TLB-miss state machine that decides when a page
//!   stays private or is re-classified as shared, and reports which tile
//!   must be shot down,
//! * [`rid_assignment`] — the rotational-ID assignment of Section 4.1.
//!
//! # Example
//!
//! ```
//! use rnuca_os::{OsClassifier, PageClass, ClassificationEvent};
//! use rnuca_types::addr::PageAddr;
//! use rnuca_types::ids::CoreId;
//!
//! let mut os = OsClassifier::new(16, 64);
//! let page = PageAddr::from_page_number(10);
//! // First touch: the page becomes private to core 0.
//! let e0 = os.access(page, CoreId::new(0), false);
//! assert_eq!(e0.class, PageClass::Private);
//! // A second core touches the same page: re-classification to shared,
//! // with a shoot-down of core 0's cached copies.
//! let e1 = os.access(page, CoreId::new(3), false);
//! assert_eq!(e1.class, PageClass::Shared);
//! assert_eq!(e1.event, ClassificationEvent::Reclassified { previous_owner: CoreId::new(0) });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classifier;
pub mod page_table;
pub mod rid;
pub mod tlb;

pub use classifier::{ClassificationEvent, ClassificationOutcome, OsClassifier, OsStats};
pub use page_table::{PageClass, PageInfo, PageTable, PageUpdate};
pub use rid::{rid_assignment, rid_for_tile};
pub use tlb::Tlb;
