//! Physical addresses and the block/page views used throughout the simulator.
//!
//! The paper models a 42-bit physical address space, 64-byte cache blocks and
//! 8 KB pages (Table 1). The helpers here extract block and page numbers and
//! the interleaving bits used by the placement policies: standard address
//! interleaving selects an L2 slice from the bits immediately above the
//! set-index bits, and rotational interleaving uses the same bits combined
//! with the tile's rotational ID (Section 4.1).

use std::fmt;

/// Width of the simulated physical address space in bits (Table 1).
pub const PHYS_ADDR_BITS: u32 = 42;

/// A physical byte address.
///
/// # Example
///
/// ```
/// use rnuca_types::addr::PhysAddr;
/// let a = PhysAddr::new(0x1_2345_6789);
/// assert_eq!(a.block(64).block_number(), 0x1_2345_6789 / 64);
/// assert_eq!(a.page(8192).page_number(), 0x1_2345_6789 / 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address, masking it to the modelled address width.
    pub fn new(addr: u64) -> Self {
        PhysAddr(addr & ((1u64 << PHYS_ADDR_BITS) - 1))
    }

    /// Returns the raw address value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the cache-block view of this address for the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn block(self, block_bytes: usize) -> BlockAddr {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        BlockAddr(self.0 >> block_bytes.trailing_zeros())
    }

    /// Returns the page view of this address for the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn page(self, page_bytes: usize) -> PageAddr {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two, got {page_bytes}"
        );
        PageAddr(self.0 >> page_bytes.trailing_zeros())
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr::new(v)
    }
}

/// A cache-block (line) number: the physical address shifted right by the block-offset bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address directly from a block number.
    pub fn from_block_number(n: u64) -> Self {
        BlockAddr(n)
    }

    /// Returns the block number.
    pub fn block_number(self) -> u64 {
        self.0
    }

    /// Reconstructs the physical address of the first byte of this block.
    pub fn base_addr(self, block_bytes: usize) -> PhysAddr {
        PhysAddr::new(self.0 << block_bytes.trailing_zeros())
    }

    /// Returns the set index for a cache with `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two.
    pub fn set_index(self, num_sets: usize) -> usize {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        (self.0 as usize) & (num_sets - 1)
    }

    /// Returns the tag for a cache with `num_sets` sets.
    pub fn tag(self, num_sets: usize) -> u64 {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        self.0 >> num_sets.trailing_zeros()
    }

    /// Returns the `bits`-wide interleaving field located immediately above the
    /// set-index bits of a cache with `num_sets` sets per slice.
    ///
    /// This is the field the paper calls `Addr[k + log2(n) - 1 : k]` in the
    /// rotational-interleaving indexing function, where `k` is the offset of
    /// the first bit above the set index.
    pub fn interleave_bits(self, num_sets: usize, bits: u32) -> u64 {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        (self.0 >> num_sets.trailing_zeros()) & ((1u64 << bits) - 1)
    }

    /// Returns the page this block belongs to, given block and page sizes.
    pub fn page(self, block_bytes: usize, page_bytes: usize) -> PageAddr {
        self.base_addr(block_bytes).page(page_bytes)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

/// A page number: the physical address shifted right by the page-offset bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address directly from a page number.
    pub fn from_page_number(n: u64) -> Self {
        PageAddr(n)
    }

    /// Returns the page number.
    pub fn page_number(self) -> u64 {
        self.0
    }

    /// Reconstructs the physical address of the first byte of this page.
    pub fn base_addr(self, page_bytes: usize) -> PhysAddr {
        PhysAddr::new(self.0 << page_bytes.trailing_zeros())
    }

    /// Iterates over the block addresses contained in this page.
    pub fn blocks(self, block_bytes: usize, page_bytes: usize) -> impl Iterator<Item = BlockAddr> {
        let blocks_per_page = (page_bytes / block_bytes) as u64;
        let first = self.0 * blocks_per_page;
        (first..first + blocks_per_page).map(BlockAddr::from_block_number)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pg{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_is_masked_to_42_bits() {
        let a = PhysAddr::new(u64::MAX);
        assert_eq!(a.value(), (1u64 << 42) - 1);
    }

    #[test]
    fn block_and_page_extraction() {
        let a = PhysAddr::new(0x12345678);
        assert_eq!(a.block(64).block_number(), 0x12345678 >> 6);
        assert_eq!(a.page(8192).page_number(), 0x12345678 >> 13);
    }

    #[test]
    fn block_base_addr_roundtrip() {
        let b = BlockAddr::from_block_number(0xABCDE);
        assert_eq!(b.base_addr(64).block(64), b);
    }

    #[test]
    fn set_index_and_tag_partition_the_block_number() {
        let b = BlockAddr::from_block_number(0b1011_0110_1101);
        let sets = 256;
        let set = b.set_index(sets);
        let tag = b.tag(sets);
        assert_eq!((tag << 8) | set as u64, b.block_number());
    }

    #[test]
    fn interleave_bits_sit_above_set_index() {
        // block number = tag | interleave | set-index
        let sets = 16usize; // 4 set-index bits
        let b = BlockAddr::from_block_number(0b1101_1010);
        assert_eq!(b.set_index(sets), 0b1010);
        assert_eq!(b.interleave_bits(sets, 2), 0b01);
        assert_eq!(b.interleave_bits(sets, 4), 0b1101);
    }

    #[test]
    fn page_blocks_iteration() {
        let page = PageAddr::from_page_number(3);
        let blocks: Vec<_> = page.blocks(64, 8192).collect();
        assert_eq!(blocks.len(), 128);
        assert_eq!(blocks[0].block_number(), 3 * 128);
        assert_eq!(blocks[127].block_number(), 3 * 128 + 127);
        // Every block maps back to the same page.
        for b in blocks {
            assert_eq!(b.page(64, 8192), page);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_size_panics() {
        PhysAddr::new(0).block(48);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PhysAddr::new(0x40).to_string(), "0x0000000040");
        assert_eq!(BlockAddr::from_block_number(0x40).to_string(), "B0x40");
        assert_eq!(PageAddr::from_page_number(0x2).to_string(), "Pg0x2");
    }
}
