//! Line states for the two coherence domains.
//!
//! The global (inter-node) protocol is the paper's four-state
//! invalidation-based protocol over attraction-memory lines; the intra-node
//! domain keeps the private SLCs coherent with MSI under the AM.

use std::fmt;

/// Attraction-memory line state (paper §3.1).
///
/// Invariant maintained by the protocol: every live line has **exactly one**
/// `Exclusive` or `Owner` copy in the whole machine; any number of `Shared`
/// copies may exist alongside an `Owner`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum AmState {
    /// No valid data (usable slot for incoming lines).
    #[default]
    Invalid,
    /// A replica; the responsible copy lives in another node. May be
    /// dropped silently on replacement.
    Shared,
    /// The responsible copy of data that has (or had) replicas elsewhere.
    /// Must be relocated (injected) on replacement.
    Owner,
    /// The only copy in the machine, writable without bus traffic.
    /// Must be relocated on replacement.
    Exclusive,
}

impl AmState {
    /// Valid data present?
    #[inline]
    pub fn is_valid(self) -> bool {
        self != AmState::Invalid
    }

    /// Is this node responsible for the line's survival? Owner and
    /// Exclusive copies may not be dropped; they must be injected.
    #[inline]
    pub fn is_responsible(self) -> bool {
        matches!(self, AmState::Owner | AmState::Exclusive)
    }
}

impl fmt::Display for AmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AmState::Invalid => "I",
            AmState::Shared => "S",
            AmState::Owner => "O",
            AmState::Exclusive => "E",
        };
        f.write_str(s)
    }
}

/// Second-level (private) cache line state: MSI under the node's AM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SlcState {
    #[default]
    Invalid,
    /// Clean copy; other SLCs in the node or other nodes may also hold it.
    Shared,
    /// Dirty copy, exclusive within the node; implies the node's AM holds
    /// the line in `Exclusive`.
    Modified,
}

impl SlcState {
    #[inline]
    pub fn is_valid(self) -> bool {
        self != SlcState::Invalid
    }
}

impl fmt::Display for SlcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SlcState::Invalid => "I",
            SlcState::Shared => "S",
            SlcState::Modified => "M",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn am_state_predicates() {
        assert!(!AmState::Invalid.is_valid());
        assert!(AmState::Shared.is_valid());
        assert!(!AmState::Shared.is_responsible());
        assert!(AmState::Owner.is_responsible());
        assert!(AmState::Exclusive.is_responsible());
    }

    #[test]
    fn slc_state_predicates() {
        assert!(!SlcState::Invalid.is_valid());
        assert!(SlcState::Shared.is_valid());
    }

    #[test]
    fn display_single_letters() {
        assert_eq!(AmState::Owner.to_string(), "O");
        assert_eq!(SlcState::Modified.to_string(), "M");
    }
}
