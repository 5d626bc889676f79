//! Address-space layout: where each access class lives in physical memory.
//!
//! The generator needs disjoint, page-aligned regions per class so that (a)
//! the OS page classifier sees clean pages (Section 5.2 reports that fewer
//! than 0.75% of accesses go to pages holding more than one dominant class)
//! and (b) the ground-truth class of any address can be recovered for
//! characterization and accuracy measurements.
//!
//! The layout places the (chip-wide) instruction region first, the shared
//! region second, and one private region per core after that, each aligned to
//! a large power-of-two boundary so regions never interleave.

use rnuca_types::access::AccessClass;
use rnuca_types::addr::{BlockAddr, PageAddr, PhysAddr};
use rnuca_types::ids::CoreId;

/// Alignment (and maximum size) of each class region: 1 GiB.
const REGION_STRIDE: u64 = 1 << 30;

/// The address-space layout of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressLayout {
    block_bytes: usize,
    page_bytes: usize,
    num_cores: usize,
    instr_blocks: u64,
    shared_blocks: u64,
    private_blocks_per_core: u64,
}

impl AddressLayout {
    /// Builds a layout for footprints given in KB.
    ///
    /// # Panics
    ///
    /// Panics if any footprint exceeds the 1 GiB region stride or if the
    /// geometry parameters are zero / not powers of two.
    pub fn new(
        block_bytes: usize,
        page_bytes: usize,
        num_cores: usize,
        instr_footprint_kb: u64,
        shared_footprint_kb: u64,
        private_footprint_kb_per_core: u64,
    ) -> Self {
        assert!(block_bytes.is_power_of_two() && page_bytes.is_power_of_two());
        assert!(num_cores > 0, "need at least one core");
        for kb in [
            instr_footprint_kb,
            shared_footprint_kb,
            private_footprint_kb_per_core,
        ] {
            assert!(
                kb * 1024 < REGION_STRIDE,
                "footprint {kb} KB exceeds the region stride"
            );
        }
        let to_blocks = |kb: u64| (kb * 1024 / block_bytes as u64).max(1);
        AddressLayout {
            block_bytes,
            page_bytes,
            num_cores,
            instr_blocks: to_blocks(instr_footprint_kb),
            shared_blocks: to_blocks(shared_footprint_kb),
            private_blocks_per_core: to_blocks(private_footprint_kb_per_core),
        }
    }

    /// Cache-block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// OS page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of cores with private regions.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of distinct blocks in the instruction region.
    pub fn instr_blocks(&self) -> u64 {
        self.instr_blocks
    }

    /// Number of distinct blocks in the shared region.
    pub fn shared_blocks(&self) -> u64 {
        self.shared_blocks
    }

    /// Number of distinct blocks in each core's private region.
    pub fn private_blocks_per_core(&self) -> u64 {
        self.private_blocks_per_core
    }

    fn region_base(&self, region_index: u64) -> u64 {
        // Region 0 is left unused so that address 0 never appears in traces.
        (region_index + 1) * REGION_STRIDE
    }

    /// The `index`-th block of the instruction region (wraps modulo the footprint).
    pub fn instr_block(&self, index: u64) -> BlockAddr {
        let idx = index % self.instr_blocks;
        PhysAddr::new(self.region_base(0) + idx * self.block_bytes as u64).block(self.block_bytes)
    }

    /// The `index`-th block of the shared region (wraps modulo the footprint).
    pub fn shared_block(&self, index: u64) -> BlockAddr {
        let idx = index % self.shared_blocks;
        PhysAddr::new(self.region_base(1) + idx * self.block_bytes as u64).block(self.block_bytes)
    }

    /// The `index`-th block of `core`'s private region (wraps modulo the footprint).
    pub fn private_block(&self, core: CoreId, index: u64) -> BlockAddr {
        assert!(
            core.index() < self.num_cores,
            "core {core} has no private region"
        );
        let idx = index % self.private_blocks_per_core;
        let base = self.region_base(2 + core.index() as u64);
        PhysAddr::new(base + idx * self.block_bytes as u64).block(self.block_bytes)
    }

    /// The ground-truth class of an address, or `None` if it falls outside every region.
    pub fn class_of(&self, addr: PhysAddr) -> Option<AccessClass> {
        let region = addr.value() / REGION_STRIDE;
        match region {
            0 => None,
            1 => Some(AccessClass::Instruction),
            2 => Some(AccessClass::SharedData),
            r if (r - 3) < self.num_cores as u64 => Some(AccessClass::PrivateData),
            _ => None,
        }
    }

    /// The owning core of a private address, or `None` if the address is not private.
    pub fn private_owner(&self, addr: PhysAddr) -> Option<CoreId> {
        match self.class_of(addr) {
            Some(AccessClass::PrivateData) => {
                Some(CoreId::new((addr.value() / REGION_STRIDE - 3) as usize))
            }
            _ => None,
        }
    }

    /// The ground-truth class of a page (all blocks of a page share one class by construction).
    pub fn class_of_page(&self, page: PageAddr) -> Option<AccessClass> {
        self.class_of(page.base_addr(self.page_bytes))
    }

    /// Total footprint of a class in blocks (chip-wide; private sums all cores).
    pub fn footprint_blocks(&self, class: AccessClass) -> u64 {
        match class {
            AccessClass::Instruction => self.instr_blocks,
            AccessClass::SharedData => self.shared_blocks,
            AccessClass::PrivateData => self.private_blocks_per_core * self.num_cores as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> AddressLayout {
        AddressLayout::new(64, 8192, 16, 320, 24_576, 384)
    }

    #[test]
    fn footprints_convert_to_block_counts() {
        let l = layout();
        assert_eq!(l.instr_blocks(), 320 * 1024 / 64);
        assert_eq!(l.shared_blocks(), 24_576 * 1024 / 64);
        assert_eq!(l.private_blocks_per_core(), 384 * 1024 / 64);
        assert_eq!(
            l.footprint_blocks(AccessClass::PrivateData),
            16 * l.private_blocks_per_core()
        );
    }

    #[test]
    fn regions_are_disjoint_and_classified_correctly() {
        let l = layout();
        let instr = l.instr_block(5).base_addr(64);
        let shared = l.shared_block(5).base_addr(64);
        let private = l.private_block(CoreId::new(3), 5).base_addr(64);
        assert_eq!(l.class_of(instr), Some(AccessClass::Instruction));
        assert_eq!(l.class_of(shared), Some(AccessClass::SharedData));
        assert_eq!(l.class_of(private), Some(AccessClass::PrivateData));
        assert_eq!(l.private_owner(private), Some(CoreId::new(3)));
        assert_eq!(l.private_owner(shared), None);
        assert_eq!(l.class_of(PhysAddr::new(0x100)), None);
    }

    #[test]
    fn block_indices_wrap_around_the_footprint() {
        let l = layout();
        assert_eq!(l.instr_block(0), l.instr_block(l.instr_blocks()));
        assert_eq!(l.shared_block(7), l.shared_block(7 + l.shared_blocks()));
        let c = CoreId::new(1);
        assert_eq!(
            l.private_block(c, 3),
            l.private_block(c, 3 + l.private_blocks_per_core())
        );
    }

    #[test]
    fn different_cores_have_disjoint_private_regions() {
        let l = layout();
        let a = l.private_block(CoreId::new(0), 0);
        let b = l.private_block(CoreId::new(1), 0);
        assert_ne!(a, b);
        assert_eq!(l.private_owner(a.base_addr(64)), Some(CoreId::new(0)));
        assert_eq!(l.private_owner(b.base_addr(64)), Some(CoreId::new(1)));
    }

    #[test]
    fn pages_have_a_single_class() {
        let l = layout();
        let block = l.shared_block(100);
        let page = block.page(64, 8192);
        assert_eq!(l.class_of_page(page), Some(AccessClass::SharedData));
    }

    #[test]
    fn tiny_footprints_round_up_to_one_block() {
        let l = AddressLayout::new(64, 8192, 2, 0, 0, 0);
        assert_eq!(l.instr_blocks(), 1);
        assert_eq!(l.shared_blocks(), 1);
        assert_eq!(l.private_blocks_per_core(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the region stride")]
    fn oversized_footprint_panics() {
        AddressLayout::new(64, 8192, 16, 2 * 1024 * 1024, 0, 0);
    }

    #[test]
    #[should_panic(expected = "no private region")]
    fn out_of_range_core_panics() {
        layout().private_block(CoreId::new(16), 0);
    }
}
