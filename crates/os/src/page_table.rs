//! The OS page table extended with R-NUCA classification state.
//!
//! Section 4.3: "the operating system extends the page table entries with a
//! bit that denotes the current classification, and a field to record the CID
//! of the last core to access the page", plus a Poisoned state used during
//! private-to-shared re-classification.
//!
//! The table is consulted on every TLB miss, which makes it part of the
//! simulator's critical path: entries live in an open-addressed
//! [`U64Map`] keyed by the page number, and the whole
//! touch-classify-update transition of an access is a single probe
//! ([`PageTable::classify_and_update`]) instead of the get-then-insert
//! double lookup the `HashMap`-backed version performed.

use rnuca_types::addr::PageAddr;
use rnuca_types::ids::CoreId;
use rnuca_types::index_map::U64Map;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pages the table pre-sizes for; past this it grows by doubling.
const INITIAL_PAGE_CAPACITY: usize = 4_096;

/// The classification recorded for a data page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageClass {
    /// Accessed by a single core; placed in that core's local L2 slice.
    Private,
    /// Accessed by multiple cores; address-interleaved across all tiles.
    Shared,
    /// An instruction page; placed with rotational interleaving over a
    /// fixed-center cluster. Instruction requests are classified immediately
    /// from the requesting L1-I, but the page table still records the class so
    /// that characterization and accuracy measurements can see it.
    Instruction,
}

impl fmt::Display for PageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageClass::Private => "private",
            PageClass::Shared => "shared",
            PageClass::Instruction => "instruction",
        };
        f.write_str(s)
    }
}

/// Per-page state kept by the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageInfo {
    /// Current classification.
    pub class: PageClass,
    /// The CID of the last core to access the page (meaningful for private pages).
    pub owner: CoreId,
    /// Set while a re-classification is in flight; TLB misses to a poisoned
    /// page stall until it clears.
    pub poisoned: bool,
}

/// The page-table transition performed by one access, reported by
/// [`PageTable::classify_and_update`]. Each variant carries the entry's
/// state *after* the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageUpdate {
    /// First touch: the entry was created (private to the accessor, or an
    /// instruction page for instruction fetches).
    FirstTouch(PageInfo),
    /// The entry was already consistent with the accessor: a shared or
    /// instruction page, or a private page owned by the accessor.
    Consistent(PageInfo),
    /// A private page whose owning thread migrated: ownership moved to the
    /// accessor, the class stays private.
    OwnerMigrated {
        /// The core that previously owned the page.
        previous_owner: CoreId,
        /// The entry after the migration.
        info: PageInfo,
    },
    /// A private page touched by a genuinely different thread: re-classified
    /// as shared (the poison window opens and closes within the access).
    Reclassified {
        /// The core that previously owned the page.
        previous_owner: CoreId,
        /// The entry after the re-classification.
        info: PageInfo,
    },
}

/// The page table: a map from page number to classification state.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTable {
    entries: U64Map<PageInfo>,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            entries: U64Map::with_capacity(INITIAL_PAGE_CAPACITY),
        }
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages with an entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no pages have been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a page.
    pub fn get(&self, page: PageAddr) -> Option<&PageInfo> {
        self.entries.get(page.page_number())
    }

    /// Hints the CPU to pull the page's entry into cache ahead of a lookup
    /// (see [`U64Map::prefetch`]). Performance hint only.
    #[inline]
    pub fn prefetch(&self, page: PageAddr) {
        self.entries.prefetch(page.page_number());
    }

    /// Looks up a page mutably.
    pub fn get_mut(&mut self, page: PageAddr) -> Option<&mut PageInfo> {
        self.entries.get_mut(page.page_number())
    }

    /// Inserts or replaces the entry for a page.
    pub fn insert(&mut self, page: PageAddr, info: PageInfo) {
        self.entries.insert(page.page_number(), info);
    }

    /// Records a first touch: the page becomes private to `owner`
    /// (or an instruction page if `instruction` is set).
    pub fn first_touch(&mut self, page: PageAddr, owner: CoreId, instruction: bool) -> PageInfo {
        let info = PageInfo {
            class: if instruction {
                PageClass::Instruction
            } else {
                PageClass::Private
            },
            owner,
            poisoned: false,
        };
        self.entries.insert(page.page_number(), info);
        info
    }

    /// Performs the whole classification transition of one access in a
    /// single probe: first touch, consistency check, thread migration, or
    /// private-to-shared re-classification.
    ///
    /// `thread_migrated` is consulted only when a private page is touched by
    /// a non-owner; it decides (from the scheduler's migration notices)
    /// whether ownership follows the thread or the page becomes shared. The
    /// poison bit of Section 4.3 opens and closes within the access — the
    /// trace-driven model completes the shoot-down atomically — so the
    /// returned entry is never poisoned.
    pub fn classify_and_update(
        &mut self,
        page: PageAddr,
        accessor: CoreId,
        instruction: bool,
        thread_migrated: impl FnOnce(CoreId) -> bool,
    ) -> PageUpdate {
        let (info, inserted) = self
            .entries
            .get_or_insert_with(page.page_number(), || PageInfo {
                class: if instruction {
                    PageClass::Instruction
                } else {
                    PageClass::Private
                },
                owner: accessor,
                poisoned: false,
            });
        if inserted {
            return PageUpdate::FirstTouch(*info);
        }
        match info.class {
            PageClass::Shared | PageClass::Instruction => PageUpdate::Consistent(*info),
            PageClass::Private if info.owner == accessor => PageUpdate::Consistent(*info),
            PageClass::Private => {
                let previous_owner = info.owner;
                if thread_migrated(previous_owner) {
                    info.owner = accessor;
                    info.poisoned = false;
                    PageUpdate::OwnerMigrated {
                        previous_owner,
                        info: *info,
                    }
                } else {
                    info.class = PageClass::Shared;
                    info.poisoned = false;
                    PageUpdate::Reclassified {
                        previous_owner,
                        info: *info,
                    }
                }
            }
        }
    }

    /// Marks a page poisoned (re-classification in flight).
    ///
    /// # Panics
    ///
    /// Panics if the page has no entry.
    pub fn poison(&mut self, page: PageAddr) {
        self.entries
            .get_mut(page.page_number())
            .expect("cannot poison a page that has never been touched")
            .poisoned = true;
    }

    /// Completes a re-classification: clears the poison bit and sets the class to shared.
    ///
    /// # Panics
    ///
    /// Panics if the page has no entry.
    pub fn complete_reclassification(&mut self, page: PageAddr) {
        let info = self
            .entries
            .get_mut(page.page_number())
            .expect("cannot complete re-classification of an untouched page");
        info.class = PageClass::Shared;
        info.poisoned = false;
    }

    /// Transfers private ownership of a page to a new core (thread migration, Section 4.3).
    ///
    /// # Panics
    ///
    /// Panics if the page has no entry.
    pub fn migrate_owner(&mut self, page: PageAddr, new_owner: CoreId) {
        let info = self
            .entries
            .get_mut(page.page_number())
            .expect("cannot migrate an untouched page");
        info.owner = new_owner;
        info.poisoned = false;
    }

    /// Iterates over all entries (slot order — deterministic for a given
    /// operation history, but not sorted).
    pub fn iter(&self) -> impl Iterator<Item = (PageAddr, &PageInfo)> {
        self.entries
            .iter()
            .map(|(page_number, info)| (PageAddr::from_page_number(page_number), info))
    }

    /// Counts pages per class.
    pub fn class_histogram(&self) -> (usize, usize, usize) {
        let mut private = 0;
        let mut shared = 0;
        let mut instr = 0;
        for info in self.entries.values() {
            match info.class {
                PageClass::Private => private += 1,
                PageClass::Shared => shared += 1,
                PageClass::Instruction => instr += 1,
            }
        }
        (private, shared, instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageAddr {
        PageAddr::from_page_number(n)
    }

    #[test]
    fn first_touch_creates_private_entry() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        let info = pt.first_touch(p(1), CoreId::new(4), false);
        assert_eq!(info.class, PageClass::Private);
        assert_eq!(info.owner, CoreId::new(4));
        assert!(!info.poisoned);
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.get(p(1)), Some(&info));
    }

    #[test]
    fn first_touch_instruction_page() {
        let mut pt = PageTable::new();
        let info = pt.first_touch(p(2), CoreId::new(0), true);
        assert_eq!(info.class, PageClass::Instruction);
    }

    #[test]
    fn poison_then_reclassify() {
        let mut pt = PageTable::new();
        pt.first_touch(p(3), CoreId::new(1), false);
        pt.poison(p(3));
        assert!(pt.get(p(3)).unwrap().poisoned);
        pt.complete_reclassification(p(3));
        let info = pt.get(p(3)).unwrap();
        assert_eq!(info.class, PageClass::Shared);
        assert!(!info.poisoned);
    }

    #[test]
    fn migrate_owner_keeps_private_class() {
        let mut pt = PageTable::new();
        pt.first_touch(p(4), CoreId::new(1), false);
        pt.migrate_owner(p(4), CoreId::new(9));
        let info = pt.get(p(4)).unwrap();
        assert_eq!(info.class, PageClass::Private);
        assert_eq!(info.owner, CoreId::new(9));
    }

    #[test]
    fn class_histogram_counts() {
        let mut pt = PageTable::new();
        pt.first_touch(p(1), CoreId::new(0), false);
        pt.first_touch(p(2), CoreId::new(0), true);
        pt.first_touch(p(3), CoreId::new(0), false);
        pt.poison(p(3));
        pt.complete_reclassification(p(3));
        assert_eq!(pt.class_histogram(), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "never been touched")]
    fn poisoning_unknown_page_panics() {
        PageTable::new().poison(p(99));
    }

    #[test]
    fn page_class_display() {
        assert_eq!(PageClass::Private.to_string(), "private");
        assert_eq!(PageClass::Shared.to_string(), "shared");
        assert_eq!(PageClass::Instruction.to_string(), "instruction");
    }

    #[test]
    fn classify_and_update_first_touch_then_consistent() {
        let mut pt = PageTable::new();
        let up = pt.classify_and_update(p(1), CoreId::new(2), false, |_| false);
        let PageUpdate::FirstTouch(info) = up else {
            panic!("expected first touch, got {up:?}")
        };
        assert_eq!(info.class, PageClass::Private);
        assert_eq!(info.owner, CoreId::new(2));
        let up = pt.classify_and_update(p(1), CoreId::new(2), false, |_| false);
        assert!(matches!(up, PageUpdate::Consistent(i) if i.class == PageClass::Private));
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn classify_and_update_reclassifies_on_second_core() {
        let mut pt = PageTable::new();
        pt.classify_and_update(p(5), CoreId::new(0), false, |_| false);
        let up = pt.classify_and_update(p(5), CoreId::new(3), false, |_| false);
        let PageUpdate::Reclassified {
            previous_owner,
            info,
        } = up
        else {
            panic!("expected reclassification, got {up:?}")
        };
        assert_eq!(previous_owner, CoreId::new(0));
        assert_eq!(info.class, PageClass::Shared);
        assert!(!info.poisoned);
        // A third core sees a consistent shared page.
        let up = pt.classify_and_update(p(5), CoreId::new(7), false, |_| false);
        assert!(matches!(up, PageUpdate::Consistent(i) if i.class == PageClass::Shared));
    }

    #[test]
    fn classify_and_update_honours_thread_migration() {
        let mut pt = PageTable::new();
        pt.classify_and_update(p(6), CoreId::new(0), false, |_| false);
        let up = pt.classify_and_update(p(6), CoreId::new(4), false, |prev| {
            assert_eq!(prev, CoreId::new(0));
            true
        });
        let PageUpdate::OwnerMigrated {
            previous_owner,
            info,
        } = up
        else {
            panic!("expected migration, got {up:?}")
        };
        assert_eq!(previous_owner, CoreId::new(0));
        assert_eq!(info.class, PageClass::Private);
        assert_eq!(info.owner, CoreId::new(4));
    }

    #[test]
    fn classify_and_update_instruction_pages() {
        let mut pt = PageTable::new();
        let up = pt.classify_and_update(p(9), CoreId::new(1), true, |_| false);
        assert!(matches!(up, PageUpdate::FirstTouch(i) if i.class == PageClass::Instruction));
        // Another core: instruction pages are consistent for everyone, the
        // migration predicate must not even be consulted.
        let up = pt.classify_and_update(p(9), CoreId::new(2), true, |_| {
            panic!("instruction pages never consult the migration predicate")
        });
        assert!(matches!(up, PageUpdate::Consistent(i) if i.class == PageClass::Instruction));
    }

    #[test]
    fn iter_yields_every_touched_page() {
        let mut pt = PageTable::new();
        for n in 0..50 {
            pt.first_touch(p(n), CoreId::new(0), n % 2 == 0);
        }
        let mut pages: Vec<u64> = pt.iter().map(|(page, _)| page.page_number()).collect();
        pages.sort_unstable();
        assert_eq!(pages, (0..50).collect::<Vec<u64>>());
    }
}
