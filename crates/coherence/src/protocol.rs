//! MOSI protocol vocabulary: block states and the outcomes of directory transactions.

use crate::sharers::SharerSet;
use rnuca_types::ids::TileId;
use std::fmt;

/// The four stable states of the MOSI protocol (modelled after Piranha, per Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosiState {
    /// The only copy on chip, dirty with respect to memory.
    Modified,
    /// A dirty copy that other tiles may share read-only; this tile must
    /// supply data and eventually write back.
    Owned,
    /// A clean, possibly replicated, read-only copy.
    Shared,
    /// No valid copy.
    Invalid,
}

impl MosiState {
    /// Returns `true` if the state carries a valid copy of the data.
    pub fn is_valid(self) -> bool {
        !matches!(self, MosiState::Invalid)
    }

    /// Returns `true` if the copy is dirty with respect to memory.
    pub fn is_dirty(self) -> bool {
        matches!(self, MosiState::Modified | MosiState::Owned)
    }

    /// Returns `true` if the holder may write without further coherence actions.
    pub fn is_writable(self) -> bool {
        matches!(self, MosiState::Modified)
    }
}

impl fmt::Display for MosiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MosiState::Modified => "M",
            MosiState::Owned => "O",
            MosiState::Shared => "S",
            MosiState::Invalid => "I",
        };
        f.write_str(s)
    }
}

/// Where the data for a read request comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// No on-chip copy existed; the block is fetched from main memory.
    Memory,
    /// The request already had a valid copy (hit at the requester; no transaction needed).
    AlreadyPresent,
    /// The data is forwarded from the cache of another tile (the owner or a sharer).
    Cache(TileId),
}

/// The directory's answer to a read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Where the data comes from.
    pub source: ReadSource,
    /// Whether the supplying tile had the block in a dirty state (M or O), in
    /// which case the protocol performs an ownership transfer / sharing
    /// downgrade rather than a plain copy.
    pub downgraded_owner: bool,
    /// The requester's resulting state.
    pub new_state: MosiState,
}

/// The directory's answer to a write (or upgrade) request.
///
/// The invalidation set is a [`SharerSet`] bit-mask rather than a
/// `Vec<TileId>`: directory writes happen on every store the private/ASR
/// designs simulate, and a heap allocation per store was the single
/// per-access allocation left on the simulator's hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Where the data comes from (memory, a remote cache, or already present
    /// if the requester only needed an upgrade).
    pub source: ReadSource,
    /// Tiles whose copies must be invalidated before the write can proceed.
    pub invalidations: SharerSet,
    /// The requester's resulting state (always [`MosiState::Modified`]).
    pub new_state: MosiState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(MosiState::Modified.is_valid());
        assert!(MosiState::Owned.is_dirty());
        assert!(!MosiState::Shared.is_dirty());
        assert!(!MosiState::Invalid.is_valid());
        assert!(MosiState::Modified.is_writable());
        assert!(!MosiState::Owned.is_writable());
        assert!(!MosiState::Shared.is_writable());
    }

    #[test]
    fn state_display() {
        assert_eq!(MosiState::Modified.to_string(), "M");
        assert_eq!(MosiState::Owned.to_string(), "O");
        assert_eq!(MosiState::Shared.to_string(), "S");
        assert_eq!(MosiState::Invalid.to_string(), "I");
    }
}
