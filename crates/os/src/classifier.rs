//! The TLB-miss classification state machine of Section 4.3.
//!
//! Every data access consults the requesting core's TLB. On a miss the OS is
//! invoked: a first touch marks the page private to the accessor; a later
//! touch by a different core re-classifies the page as shared, shooting down
//! the previous owner's TLB entry and cached blocks. Instruction fetches are
//! classified immediately as instructions.
//!
//! The paper's OS may instead let a private page follow a thread the
//! scheduler migrated. The trace-driven workloads never migrate a thread, so
//! that path is not modelled: every owner mismatch is genuine sharing.

use crate::page_table::{PageClass, PageTable, PageUpdate};
use crate::tlb::Tlb;
use rnuca_types::addr::PageAddr;
use rnuca_types::ids::CoreId;

/// What happened on an access, from the OS's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassificationEvent {
    /// The core's TLB already had the classification; no OS involvement.
    TlbHit,
    /// First touch of the page; it becomes private to the accessor
    /// (or an instruction page for instruction fetches).
    FirstTouch,
    /// TLB miss, but the page table entry was already consistent with the
    /// accessor (same owner, or an already-shared/instruction page).
    PageTableHit,
    /// The page was private to another core and is now re-classified as
    /// shared. The previous owner's TLB entry and cached blocks must be shot
    /// down.
    Reclassified {
        /// The core that previously owned the page.
        previous_owner: CoreId,
    },
}

/// The classification returned to the requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassificationOutcome {
    /// The page's classification after this access.
    pub class: PageClass,
    /// What the OS had to do to produce it.
    pub event: ClassificationEvent,
}

/// Counters accumulated by the OS layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Accesses satisfied by the requesting core's TLB.
    pub tlb_hits: u64,
    /// Accesses that trapped to the OS.
    pub tlb_misses: u64,
    /// Private-to-shared re-classifications performed.
    pub reclassifications: u64,
}

/// The OS classification machinery: a page table plus one TLB per core.
#[derive(Debug, Clone)]
pub struct OsClassifier {
    page_table: PageTable,
    tlbs: Vec<Tlb>,
    stats: OsStats,
}

impl OsClassifier {
    /// Creates the classifier for `num_cores` cores with `tlb_entries`-entry TLBs.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or `tlb_entries` is zero.
    pub fn new(num_cores: usize, tlb_entries: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        OsClassifier {
            page_table: PageTable::new(),
            tlbs: (0..num_cores).map(|_| Tlb::new(tlb_entries)).collect(),
            stats: OsStats::default(),
        }
    }

    /// Number of cores (and TLBs).
    pub fn num_cores(&self) -> usize {
        self.tlbs.len()
    }

    /// Read access to the page table (for accuracy measurements and reports).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Accumulated OS counters.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Hints the CPU to pull the state an [`OsClassifier::access`] by `core`
    /// to `page` will touch — the core's TLB-map slot and the page-table
    /// slot — into cache. Performance hint only: it reads no classifier
    /// state, so it never stalls on the misses it exists to hide. The
    /// simulator's batch drivers call it for upcoming references.
    #[inline]
    pub fn prefetch(&self, page: PageAddr, core: CoreId) {
        self.tlbs[core.index()].prefetch(page);
        self.page_table.prefetch(page);
    }

    /// Classifies an access by `core` to `page`.
    ///
    /// `is_instruction` marks requests originating from the L1 instruction
    /// cache, which Section 4.3 classifies immediately as instruction
    /// accesses.
    pub fn access(
        &mut self,
        page: PageAddr,
        core: CoreId,
        is_instruction: bool,
    ) -> ClassificationOutcome {
        assert!(core.index() < self.tlbs.len(), "core {core} out of range");

        // 1. TLB lookup.
        if let Some(class) = self.tlbs[core.index()].lookup(page) {
            self.stats.tlb_hits += 1;
            return ClassificationOutcome {
                class,
                event: ClassificationEvent::TlbHit,
            };
        }
        self.stats.tlb_misses += 1;

        // 2. Trap to the OS: one page-table probe performs the whole
        // touch/classify/update transition (the trace-driven model completes
        // a re-classification's shoot-down atomically within the access).
        let outcome = match self
            .page_table
            .classify_and_update(page, core, is_instruction)
        {
            PageUpdate::FirstTouch(class) => ClassificationOutcome {
                class,
                event: ClassificationEvent::FirstTouch,
            },
            PageUpdate::Consistent(class) => ClassificationOutcome {
                class,
                event: ClassificationEvent::PageTableHit,
            },
            PageUpdate::Reclassified { previous_owner } => {
                self.stats.reclassifications += 1;
                self.tlbs[previous_owner.index()].shootdown(page);
                ClassificationOutcome {
                    class: PageClass::Shared,
                    event: ClassificationEvent::Reclassified { previous_owner },
                }
            }
        };
        self.tlbs[core.index()].fill(page, outcome.class);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageAddr {
        PageAddr::from_page_number(n)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn first_touch_makes_page_private() {
        let mut os = OsClassifier::new(4, 16);
        let out = os.access(p(1), c(0), false);
        assert_eq!(out.class, PageClass::Private);
        assert_eq!(out.event, ClassificationEvent::FirstTouch);
        assert_eq!(os.stats().tlb_misses, 1);
    }

    #[test]
    fn repeated_access_by_owner_hits_tlb() {
        let mut os = OsClassifier::new(4, 16);
        os.access(p(1), c(0), false);
        let out = os.access(p(1), c(0), false);
        assert_eq!(out.event, ClassificationEvent::TlbHit);
        assert_eq!(out.class, PageClass::Private);
        assert_eq!(os.stats().tlb_hits, 1);
    }

    #[test]
    fn second_core_triggers_reclassification() {
        let mut os = OsClassifier::new(4, 16);
        os.access(p(1), c(0), false);
        let out = os.access(p(1), c(2), false);
        assert_eq!(out.class, PageClass::Shared);
        assert_eq!(
            out.event,
            ClassificationEvent::Reclassified {
                previous_owner: c(0)
            }
        );
        assert_eq!(os.stats().reclassifications, 1);
        // Page table now says shared for everyone, including the original owner.
        assert_eq!(
            os.page_table().get(p(1)).map(|info| info.class),
            Some(PageClass::Shared)
        );
        // The previous owner's next access misses its TLB (it was shot down)
        // but the page table says shared.
        let again = os.access(p(1), c(0), false);
        assert_eq!(again.class, PageClass::Shared);
        assert_eq!(again.event, ClassificationEvent::PageTableHit);
    }

    #[test]
    fn third_core_sees_shared_without_further_reclassification() {
        let mut os = OsClassifier::new(4, 16);
        os.access(p(1), c(0), false);
        os.access(p(1), c(1), false);
        let out = os.access(p(1), c(3), false);
        assert_eq!(out.class, PageClass::Shared);
        assert_eq!(out.event, ClassificationEvent::PageTableHit);
        assert_eq!(os.stats().reclassifications, 1);
    }

    #[test]
    fn instruction_fetch_classifies_page_as_instruction() {
        let mut os = OsClassifier::new(4, 16);
        let out = os.access(p(9), c(1), true);
        assert_eq!(out.class, PageClass::Instruction);
        // Other cores see the same classification.
        let out2 = os.access(p(9), c(2), true);
        assert_eq!(out2.class, PageClass::Instruction);
        assert_eq!(out2.event, ClassificationEvent::PageTableHit);
    }

    #[test]
    fn stats_track_tlb_misses() {
        let mut os = OsClassifier::new(2, 4);
        os.access(p(1), c(0), false);
        os.access(p(2), c(0), false);
        os.access(p(1), c(0), false);
        assert_eq!(os.stats().tlb_misses, 2);
        assert_eq!(os.stats().tlb_hits, 1);
        assert_eq!(os.page_table().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        OsClassifier::new(2, 4).access(p(0), c(5), false);
    }
}
