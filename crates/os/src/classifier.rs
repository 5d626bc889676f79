//! The TLB-miss classification state machine of Section 4.3.
//!
//! Every data access consults the requesting core's TLB. On a miss the OS is
//! invoked: a first touch marks the page private to the accessor; a later
//! touch by a different core either follows a migrated thread (the page stays
//! private, ownership moves) or re-classifies the page as shared, poisoning
//! the page while the previous owner's TLB entry and cached blocks are shot
//! down. Instruction fetches are classified immediately as instructions.

use crate::page_table::{PageClass, PageTable, PageUpdate};
use crate::tlb::Tlb;
use rnuca_types::addr::PageAddr;
use rnuca_types::ids::CoreId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// What happened on an access, from the OS's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// down (the page is poisoned for the duration).
    Reclassified {
        /// The core that previously owned the page.
        previous_owner: CoreId,
    },
    /// The page was private to another core, but the OS determined the owning
    /// thread migrated; the page stays private and ownership moves. The
    /// previous core's cached blocks must still be invalidated.
    OwnerMigrated {
        /// The core that previously owned the page.
        previous_owner: CoreId,
    },
}

/// The classification returned to the requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassificationOutcome {
    /// The page's classification after this access.
    pub class: PageClass,
    /// What the OS had to do to produce it.
    pub event: ClassificationEvent,
}

/// Counters accumulated by the OS layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OsStats {
    /// Accesses satisfied by the requesting core's TLB.
    pub tlb_hits: u64,
    /// Accesses that trapped to the OS.
    pub tlb_misses: u64,
    /// Pages touched for the first time.
    pub first_touches: u64,
    /// Private-to-shared re-classifications performed.
    pub reclassifications: u64,
    /// Private-page ownership migrations performed.
    pub owner_migrations: u64,
    /// TLB shoot-downs issued to previous owners.
    pub shootdowns: u64,
}

/// The OS classification machinery: a page table plus one TLB per core.
#[derive(Debug, Clone, PartialEq)]
pub struct OsClassifier {
    page_table: PageTable,
    tlbs: Vec<Tlb>,
    /// Thread migrations the scheduler has told us about: `(from, to)` pairs.
    /// A private-page owner mismatch matching one of these is treated as a
    /// migration rather than as sharing.
    pending_migrations: HashSet<(CoreId, CoreId)>,
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
            pending_migrations: HashSet::new(),
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

    /// Read access to a core's TLB.
    pub fn tlb(&self, core: CoreId) -> &Tlb {
        &self.tlbs[core.index()]
    }

    /// Accumulated OS counters.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Tells the classifier that the scheduler moved a thread from one core to
    /// another. Subsequent private-page owner mismatches matching this pair
    /// are treated as migrations (the page stays private).
    pub fn note_thread_migration(&mut self, from: CoreId, to: CoreId) {
        self.pending_migrations.insert((from, to));
    }

    /// Current classification of a page, if it has ever been touched.
    pub fn classification_of(&self, page: PageAddr) -> Option<PageClass> {
        self.page_table.get(page).map(|i| i.class)
    }

    /// Hints the CPU to pull the state an [`OsClassifier::access`] for
    /// `page` will touch — the page-table entry — into cache. Performance
    /// hint only; the simulator's batch drivers call it for upcoming
    /// references.
    #[inline]
    pub fn prefetch(&self, page: PageAddr) {
        self.page_table.prefetch(page);
    }

    /// Read-only peek at the class an [`OsClassifier::access`] by `core`
    /// would see: the core's TLB first (small and hot), the page table on a
    /// TLB miss. No state transition, fill, or statistic is touched, so the
    /// answer can be stale with respect to the access that eventually runs —
    /// callers use it speculatively (prefetch hints computing a likely home
    /// slice). The page-table probe a TLB miss performs here touches the
    /// same entry the later trap would, absorbing its cache miss early.
    pub fn peek_class(&self, page: PageAddr, core: CoreId) -> Option<PageClass> {
        self.tlbs[core.index()]
            .peek(page)
            .or_else(|| self.page_table.get(page).map(|i| i.class))
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
        // touch/classify/update transition (the poison window of Section 4.3
        // opens and closes inside it — the trace-driven model completes the
        // shoot-down atomically within the access).
        let migrations = &self.pending_migrations;
        let update = self
            .page_table
            .classify_and_update(page, core, is_instruction, |prev| {
                migrations.contains(&(prev, core))
            });
        let (outcome, shootdown_target) = match update {
            PageUpdate::FirstTouch(info) => {
                self.stats.first_touches += 1;
                let outcome = ClassificationOutcome {
                    class: info.class,
                    event: ClassificationEvent::FirstTouch,
                };
                (outcome, None)
            }
            PageUpdate::Consistent(info) => {
                let outcome = ClassificationOutcome {
                    class: info.class,
                    event: ClassificationEvent::PageTableHit,
                };
                (outcome, None)
            }
            PageUpdate::OwnerMigrated {
                previous_owner,
                info,
            } => {
                // Thread migration: the page stays private, ownership moves.
                self.stats.owner_migrations += 1;
                let outcome = ClassificationOutcome {
                    class: info.class,
                    event: ClassificationEvent::OwnerMigrated { previous_owner },
                };
                (outcome, Some(previous_owner))
            }
            PageUpdate::Reclassified {
                previous_owner,
                info,
            } => {
                // Genuine sharing: re-classified as shared.
                self.stats.reclassifications += 1;
                let outcome = ClassificationOutcome {
                    class: info.class,
                    event: ClassificationEvent::Reclassified { previous_owner },
                };
                (outcome, Some(previous_owner))
            }
        };
        if let Some(previous_owner) = shootdown_target {
            if self.tlbs[previous_owner.index()].shootdown(page) {
                self.stats.shootdowns += 1;
            }
        }
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
        assert_eq!(os.stats().first_touches, 1);
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
        assert_eq!(os.stats().shootdowns, 1);
        // Page table now says shared for everyone, including the original owner.
        assert_eq!(os.classification_of(p(1)), Some(PageClass::Shared));
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
    fn thread_migration_keeps_page_private() {
        let mut os = OsClassifier::new(4, 16);
        os.access(p(5), c(0), false);
        os.note_thread_migration(c(0), c(3));
        let out = os.access(p(5), c(3), false);
        assert_eq!(out.class, PageClass::Private);
        assert_eq!(
            out.event,
            ClassificationEvent::OwnerMigrated {
                previous_owner: c(0)
            }
        );
        assert_eq!(os.stats().owner_migrations, 1);
        assert_eq!(os.stats().reclassifications, 0);
        // The new owner now hits in its TLB.
        assert_eq!(
            os.access(p(5), c(3), false).event,
            ClassificationEvent::TlbHit
        );
    }

    #[test]
    fn migration_of_unrelated_core_still_reclassifies() {
        let mut os = OsClassifier::new(4, 16);
        os.access(p(5), c(0), false);
        os.note_thread_migration(c(1), c(2));
        let out = os.access(p(5), c(2), false);
        assert_eq!(out.class, PageClass::Shared);
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
