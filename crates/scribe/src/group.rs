//! Group identity and per-group tree state.

use std::collections::BTreeSet;

use vbundle_pastry::{Id, NodeHandle};

/// Identifies a Scribe group: a pseudo-random Pastry key, usually the hash
/// of the group's textual name (optionally concatenated with its creator,
/// as the paper describes).
pub type GroupId = Id;

/// Derives a group id from a textual name.
///
/// ```
/// use vbundle_scribe::group_id;
/// assert_eq!(group_id("BW_Demand"), group_id("BW_Demand"));
/// assert_ne!(group_id("BW_Demand"), group_id("BW_Capacity"));
/// ```
pub fn group_id(name: &str) -> GroupId {
    Id::from_name(name)
}

/// Derives a group id from a name and its creator, matching the paper's
/// `hash(name ++ creator)` convention.
pub fn group_id_with_creator(name: &str, creator: &str) -> GroupId {
    Id::from_name(&format!("{name}\u{1f}{creator}"))
}

/// One node's state for one group tree.
///
/// The child set is an insertion-ordered `Vec` plus an id index. The order
/// is load-bearing: it is the Disseminate fan-out order, the anycast tie
/// order and the detector evaluation order, and so fixes the engine's
/// sequence numbers. The index answers membership in `O(log k)`, so a
/// rendezvous root with thousands of children never rescans them per event.
/// Both are private and change only together: through
/// [`GroupState::add_child`], [`GroupState::remove_child`] and, on restart,
/// `take_children`.
#[derive(Debug, Clone, Default)]
pub struct GroupState {
    /// The node's parent in the tree (`None` at the root or while joining).
    pub parent: Option<NodeHandle>,
    /// Children grafted below this node, in graft order.
    children: Vec<NodeHandle>,
    /// Ids of `children`.
    child_ids: BTreeSet<u128>,
    /// Whether the local node subscribed to the group (vs. acting as a
    /// pure forwarder on other members' join routes).
    pub member: bool,
    /// Whether the local node is the group's rendezvous root.
    pub root: bool,
    /// Root-only: sequence number of the next multicast published.
    pub next_seq: u64,
    /// Member-only: `(root id, seq)` of the last multicast delivered —
    /// duplicates (e.g. after transient double-grafting during repair)
    /// are suppressed; the window resets when the rendezvous root moves.
    pub last_delivered: Option<(u128, u64)>,
}

impl GroupState {
    /// True if the node participates in the tree at all.
    pub fn in_tree(&self) -> bool {
        self.member || self.root || self.parent.is_some() || !self.children.is_empty()
    }

    /// Children grafted below this node, in graft order.
    pub fn children(&self) -> &[NodeHandle] {
        &self.children
    }

    /// Whether a child with this id is grafted below this node.
    pub fn has_child(&self, id: Id) -> bool {
        self.child_ids.contains(&id.as_u128())
    }

    /// Adds `child` if no child with its id is present. Returns `true` if
    /// added.
    pub fn add_child(&mut self, child: NodeHandle) -> bool {
        let added = self.child_ids.insert(child.id.as_u128());
        if added {
            self.children.push(child);
        }
        added
    }

    /// Removes `child`. Returns `true` if it was present.
    pub fn remove_child(&mut self, id: Id) -> bool {
        let removed = self.child_ids.remove(&id.as_u128());
        if removed {
            let pos = self
                .children
                .iter()
                .position(|c| c.id == id)
                .expect("indexed child is listed");
            self.children.remove(pos);
        }
        removed
    }

    /// Removes and returns every child, in graft order.
    pub(crate) fn take_children(&mut self) -> Vec<NodeHandle> {
        self.child_ids.clear();
        std::mem::take(&mut self.children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vbundle_sim::ActorId;

    fn h(v: u128) -> NodeHandle {
        NodeHandle::new(Id::from_u128(v), ActorId::new(v as u32))
    }

    #[test]
    fn group_ids_stable_and_distinct() {
        assert_eq!(group_id("less-loaded"), group_id("less-loaded"));
        assert_ne!(
            group_id_with_creator("g", "alice"),
            group_id_with_creator("g", "bob")
        );
        // Separator prevents ambiguity between (name, creator) splits.
        assert_ne!(
            group_id_with_creator("ab", "c"),
            group_id_with_creator("a", "bc")
        );
    }

    #[test]
    fn children_are_a_set() {
        let mut st = GroupState::default();
        assert!(!st.in_tree());
        assert!(st.add_child(h(1)));
        assert!(!st.add_child(h(1)));
        assert!(st.in_tree());
        assert!(st.remove_child(Id::from_u128(1)));
        assert!(!st.remove_child(Id::from_u128(1)));
        assert!(!st.in_tree());
    }

    #[test]
    fn membership_marks_in_tree() {
        let st = GroupState {
            member: true,
            ..GroupState::default()
        };
        assert!(st.in_tree());
        let st = GroupState {
            root: true,
            ..GroupState::default()
        };
        assert!(st.in_tree());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model-based check: the ordered `Vec` plus id index behaves
        /// exactly like the plain `Vec` with linear scans it replaced —
        /// same return values, same order, and an index that agrees with
        /// the list after every operation. Ids come from a small range so
        /// duplicates, re-adds under a new actor and removals of absent
        /// ids are all common.
        #[test]
        fn prop_children_match_plain_vec_model(
            ops in proptest::collection::vec((0u8..10, 0u128..12, 0u32..4), 0..120),
        ) {
            let mut st = GroupState::default();
            let mut model: Vec<NodeHandle> = Vec::new();
            for (op, v, actor) in ops {
                match op {
                    0..=5 => {
                        let c = NodeHandle::new(Id::from_u128(v), ActorId::new(actor));
                        let want = !model.iter().any(|m| m.id == c.id);
                        if want {
                            model.push(c);
                        }
                        prop_assert_eq!(st.add_child(c), want);
                    }
                    6..=8 => {
                        let before = model.len();
                        model.retain(|m| m.id != Id::from_u128(v));
                        prop_assert_eq!(st.remove_child(Id::from_u128(v)), before != model.len());
                    }
                    _ => prop_assert_eq!(st.take_children(), std::mem::take(&mut model)),
                }
                prop_assert_eq!(st.children(), &model[..]);
                prop_assert_eq!(st.child_ids.len(), model.len());
                for probe in 0..12u128 {
                    prop_assert_eq!(
                        st.has_child(Id::from_u128(probe)),
                        model.iter().any(|m| m.id.as_u128() == probe)
                    );
                }
                prop_assert_eq!(st.in_tree(), !model.is_empty());
            }
        }
    }
}
