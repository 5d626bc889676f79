//! The OS page table extended with R-NUCA classification state.
//!
//! Section 4.3: "the operating system extends the page table entries with a
//! bit that denotes the current classification, and a field to record the CID
//! of the last core to access the page". The paper also poisons a page while
//! its re-classification is in flight; the trace-driven model completes a
//! re-classification within the access that triggers it, so no access ever
//! observes that state and the entry does not store it.
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
use std::fmt;

/// Pages the table pre-sizes for; past this it grows by doubling.
const INITIAL_PAGE_CAPACITY: usize = 4_096;

/// The classification recorded for a data page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Current classification.
    pub class: PageClass,
    /// The CID of the last core to access the page (meaningful for private pages).
    pub owner: CoreId,
}

/// The page-table transition performed by one access, reported by
/// [`PageTable::classify_and_update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageUpdate {
    /// First touch: the entry was created with this class (private to the
    /// accessor, or an instruction page for instruction fetches).
    FirstTouch(PageClass),
    /// The entry, of this class, was already consistent with the accessor:
    /// a shared or instruction page, or a private page owned by the accessor.
    Consistent(PageClass),
    /// A private page touched by a different core: re-classified as shared.
    Reclassified {
        /// The core that previously owned the page.
        previous_owner: CoreId,
    },
}

/// The page table: a map from page number to classification state.
#[derive(Debug, Clone)]
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

    /// Performs the whole classification transition of one access in a
    /// single probe: first touch, consistency check, or private-to-shared
    /// re-classification.
    pub fn classify_and_update(
        &mut self,
        page: PageAddr,
        accessor: CoreId,
        instruction: bool,
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
            });
        if inserted {
            return PageUpdate::FirstTouch(info.class);
        }
        match info.class {
            PageClass::Private if info.owner != accessor => {
                info.class = PageClass::Shared;
                PageUpdate::Reclassified {
                    previous_owner: info.owner,
                }
            }
            class => PageUpdate::Consistent(class),
        }
    }

    /// Iterates over all entries (slot order — deterministic for a given
    /// operation history, but not sorted).
    pub fn iter(&self) -> impl Iterator<Item = (PageAddr, &PageInfo)> {
        self.entries
            .iter()
            .map(|(page_number, info)| (PageAddr::from_page_number(page_number), info))
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
        let up = pt.classify_and_update(p(1), CoreId::new(4), false);
        assert_eq!(up, PageUpdate::FirstTouch(PageClass::Private));
        assert_eq!(pt.len(), 1);
        assert_eq!(
            pt.get(p(1)),
            Some(&PageInfo {
                class: PageClass::Private,
                owner: CoreId::new(4),
            })
        );
    }

    #[test]
    fn first_touch_instruction_page() {
        let mut pt = PageTable::new();
        let up = pt.classify_and_update(p(2), CoreId::new(0), true);
        assert_eq!(up, PageUpdate::FirstTouch(PageClass::Instruction));
        assert_eq!(pt.get(p(2)).unwrap().class, PageClass::Instruction);
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
        let up = pt.classify_and_update(p(1), CoreId::new(2), false);
        assert_eq!(up, PageUpdate::FirstTouch(PageClass::Private));
        assert_eq!(pt.get(p(1)).unwrap().owner, CoreId::new(2));
        let up = pt.classify_and_update(p(1), CoreId::new(2), false);
        assert_eq!(up, PageUpdate::Consistent(PageClass::Private));
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn classify_and_update_reclassifies_on_second_core() {
        let mut pt = PageTable::new();
        pt.classify_and_update(p(5), CoreId::new(0), false);
        let up = pt.classify_and_update(p(5), CoreId::new(3), false);
        assert_eq!(
            up,
            PageUpdate::Reclassified {
                previous_owner: CoreId::new(0)
            }
        );
        assert_eq!(pt.get(p(5)).unwrap().class, PageClass::Shared);
        // A third core sees a consistent shared page.
        let up = pt.classify_and_update(p(5), CoreId::new(7), false);
        assert_eq!(up, PageUpdate::Consistent(PageClass::Shared));
    }

    #[test]
    fn classify_and_update_instruction_pages() {
        let mut pt = PageTable::new();
        let up = pt.classify_and_update(p(9), CoreId::new(1), true);
        assert_eq!(up, PageUpdate::FirstTouch(PageClass::Instruction));
        // Another core: instruction pages are consistent for everyone and
        // are never re-classified.
        let up = pt.classify_and_update(p(9), CoreId::new(2), true);
        assert_eq!(up, PageUpdate::Consistent(PageClass::Instruction));
    }

    #[test]
    fn iter_yields_every_touched_page() {
        let mut pt = PageTable::new();
        for n in 0..50 {
            pt.classify_and_update(p(n), CoreId::new(0), n % 2 == 0);
        }
        let mut pages: Vec<u64> = pt.iter().map(|(page, _)| page.page_number()).collect();
        pages.sort_unstable();
        assert_eq!(pages, (0..50).collect::<Vec<u64>>());
    }
}
