//! Replacement-policy knobs for the attraction memory.
//!
//! The paper's protocol (§3.1) fixes both policies: victims are chosen
//! Shared-first (replicas are cheap to drop; responsible copies must be
//! injected), and injection receivers are chosen Invalid-slot-first
//! (overwriting a replica shrinks global replication). Both are exposed as
//! enums so the benches can ablate the design choices.

/// How a full AM set chooses the entry to displace for an incoming line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VictimPolicy {
    /// Paper default: prefer the LRU `Shared` entry; only displace an
    /// `Owner`/`Exclusive` entry (forcing an injection) if no Shared
    /// replica exists in the set.
    #[default]
    SharedFirst,
    /// Ablation: strict LRU regardless of state (injects far more often).
    StrictLru,
}

/// How a node decides whether to accept an injected (relocated) line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AcceptPolicy {
    /// Paper default: nodes with an Invalid slot in the home set win the
    /// snoop arbitration; nodes that would overwrite a Shared replica are
    /// second choice; otherwise the injection fails.
    #[default]
    InvalidThenShared,
    /// Ablation: overwrite replicas before using free slots (destroys
    /// replication early; used to quantify the accept heuristic).
    SharedThenInvalid,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(VictimPolicy::default(), VictimPolicy::SharedFirst);
        assert_eq!(AcceptPolicy::default(), AcceptPolicy::InvalidThenShared);
    }
}
