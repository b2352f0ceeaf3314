//! Pastry routing state: leaf set, routing table and neighbor set (§II.A
//! of the v-Bundle paper, after Rowstron & Druschel).

use std::sync::Arc;

use vbundle_dcn::Topology;
use vbundle_sim::ActorId;

use crate::id::{DIGIT_BASE, NUM_DIGITS};
use crate::{Key, NodeHandle, NodeId};

/// Capacity of each node's physically-closest neighbor set (`|M|` = 16,
/// the Pastry paper's and FreePastry's deployment value).
const NEIGHBOR_CAPACITY: usize = 16;

/// The leaf set: the `L/2` numerically closest nodes clockwise and
/// counter-clockwise of the local node. It completes the last routing hop
/// and anchors repair after failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSet {
    self_id: NodeId,
    half: usize,
    /// Sorted by clockwise distance from `self_id`, ascending.
    cw: Vec<NodeHandle>,
    /// Sorted by counter-clockwise distance from `self_id`, ascending.
    ccw: Vec<NodeHandle>,
}

impl LeafSet {
    /// Creates an empty leaf set for a node with id `self_id` holding up to
    /// `half` entries per side (`L = 2 × half`).
    ///
    /// # Panics
    ///
    /// Panics if `half` is zero.
    pub fn new(self_id: NodeId, half: usize) -> Self {
        assert!(half > 0, "leaf set half-size must be positive");
        LeafSet {
            self_id,
            half,
            cw: Vec::with_capacity(half),
            ccw: Vec::with_capacity(half),
        }
    }

    /// Entries per side.
    pub fn half(&self) -> usize {
        self.half
    }

    /// Offers a handle; it is kept if it ranks among the `half` closest on
    /// either side. Returns `true` if the set changed.
    pub fn insert(&mut self, h: NodeHandle) -> bool {
        if h.id == self.self_id {
            return false;
        }
        let mut changed = false;
        let cw_key = self.self_id.cw_distance(h.id);
        changed |= Self::insert_side(
            &mut self.cw,
            h,
            cw_key,
            self.half,
            |s, x| s.cw_distance(x),
            self.self_id,
        );
        let ccw_key = h.id.cw_distance(self.self_id);
        changed |= Self::insert_side(
            &mut self.ccw,
            h,
            ccw_key,
            self.half,
            |s, x| x.cw_distance(s),
            self.self_id,
        );
        changed
    }

    fn insert_side(
        side: &mut Vec<NodeHandle>,
        h: NodeHandle,
        key: u128,
        half: usize,
        dist: impl Fn(NodeId, NodeId) -> u128,
        self_id: NodeId,
    ) -> bool {
        if side.iter().any(|e| e.id == h.id) {
            return false;
        }
        let pos = side
            .binary_search_by(|e| dist(self_id, e.id).cmp(&key))
            .unwrap_or_else(|p| p);
        if pos >= half {
            return false;
        }
        side.insert(pos, h);
        side.truncate(half);
        true
    }

    /// Removes a (failed) node from both sides. Returns `true` if present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let before = self.cw.len() + self.ccw.len();
        self.cw.retain(|e| e.id != id);
        self.ccw.retain(|e| e.id != id);
        before != self.cw.len() + self.ccw.len()
    }

    /// True if `id` is in the leaf set.
    pub fn contains(&self, id: NodeId) -> bool {
        self.cw.iter().chain(self.ccw.iter()).any(|e| e.id == id)
    }

    /// All distinct members (a node may sit on both sides in small rings).
    pub fn members(&self) -> Vec<NodeHandle> {
        let mut out: Vec<NodeHandle> = Vec::with_capacity(self.cw.len() + self.ccw.len());
        for e in self.cw.iter().chain(self.ccw.iter()) {
            if !out.iter().any(|o| o.id == e.id) {
                out.push(*e);
            }
        }
        out
    }

    /// Number of distinct members.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// True if no members are known.
    pub fn is_empty(&self) -> bool {
        self.cw.is_empty() && self.ccw.is_empty()
    }

    /// The farthest member clockwise, if any.
    pub fn cw_extreme(&self) -> Option<NodeHandle> {
        self.cw.last().copied()
    }

    /// The farthest member counter-clockwise, if any.
    pub fn ccw_extreme(&self) -> Option<NodeHandle> {
        self.ccw.last().copied()
    }

    /// True if `key` falls within the leaf-set range, i.e. between the
    /// counter-clockwise and clockwise extremes (through the local node).
    /// A side that is not yet full means the node knows its entire
    /// neighborhood on that side, so coverage extends to everything.
    pub fn covers(&self, key: Key) -> bool {
        if self.cw.len() < self.half || self.ccw.len() < self.half {
            return true;
        }
        let lo = self.ccw.last().expect("side full").id;
        let hi = self.cw.last().expect("side full").id;
        // If the local id is not on the clockwise arc lo -> hi, the two
        // sides have wrapped past each other: the leaf set spans the whole
        // ring and covers every key.
        if !self.self_id.in_cw_arc(lo, hi) {
            return true;
        }
        key == lo || key.in_cw_arc(lo, hi)
    }

    /// The member (or the local node, represented by `self_handle`)
    /// numerically closest to `key`.
    pub fn closest(&self, key: Key, self_handle: NodeHandle) -> NodeHandle {
        debug_assert_eq!(self_handle.id, self.self_id);
        let mut best = self_handle;
        for e in self.cw.iter().chain(self.ccw.iter()) {
            if key.closer_of(e.id, best.id) == e.id && e.id != best.id {
                best = *e;
            }
        }
        best
    }
}

/// The prefix-routing table: row `r` holds nodes sharing exactly `r` digits
/// with the local id, indexed by their digit at position `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    self_id: NodeId,
    rows: Vec<[Option<NodeHandle>; DIGIT_BASE]>,
    /// One past the deepest non-empty row. Rows from here on are empty, so
    /// scans stop here: in an `n`-node ring only about `log16 n` of the 32
    /// rows ever fill.
    depth: usize,
}

impl RoutingTable {
    /// Creates an empty table for `self_id`.
    pub fn new(self_id: NodeId) -> Self {
        RoutingTable {
            self_id,
            rows: vec![[None; DIGIT_BASE]; NUM_DIGITS],
            depth: 0,
        }
    }

    /// Offers a handle; it lands in the row given by its shared prefix with
    /// the local id. An occupied slot is replaced only by a physically
    /// closer node (`proximity` = smaller is closer), which is how Pastry
    /// builds locality-aware tables. Returns `true` if the table changed.
    pub fn insert(&mut self, h: NodeHandle, proximity: impl Fn(&NodeHandle) -> u32) -> bool {
        if h.id == self.self_id {
            return false;
        }
        let row = self.self_id.shared_prefix_len(h.id);
        debug_assert!(row < NUM_DIGITS);
        let col = h.id.digit(row);
        match &mut self.rows[row][col] {
            slot @ None => {
                *slot = Some(h);
                self.depth = self.depth.max(row + 1);
                true
            }
            Some(existing) if existing.id == h.id => false,
            Some(existing) => {
                if proximity(&h) < proximity(existing) {
                    *existing = h;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The entry at (`row`, `col`), if any.
    ///
    /// # Panics
    ///
    /// Panics if `row >= NUM_DIGITS` or `col >= 16`.
    pub fn entry(&self, row: usize, col: usize) -> Option<NodeHandle> {
        self.rows[row][col]
    }

    /// The next hop the prefix rule proposes for `key`, if the slot is
    /// filled.
    pub fn next_hop(&self, key: Key) -> Option<NodeHandle> {
        let row = self.self_id.shared_prefix_len(key);
        if row >= NUM_DIGITS {
            return None; // key == self id
        }
        self.rows[row][key.digit(row)]
    }

    /// The only slot `id` can occupy: its id fixes both row and column.
    fn slot_of(&self, id: NodeId) -> Option<(usize, usize)> {
        let row = self.self_id.shared_prefix_len(id);
        (row < NUM_DIGITS).then(|| (row, id.digit(row)))
    }

    /// True if `id` holds a slot.
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.slot_of(id)
            .is_some_and(|(row, col)| self.rows[row][col].is_some_and(|h| h.id == id))
    }

    /// Removes a (failed) node. Returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let Some((row, col)) = self.slot_of(id) else {
            return false;
        };
        if self.rows[row][col].is_none_or(|h| h.id != id) {
            return false;
        }
        self.rows[row][col] = None;
        while self.depth > 0 && self.rows[self.depth - 1].iter().all(Option::is_none) {
            self.depth -= 1;
        }
        true
    }

    /// All filled entries, row by row.
    pub fn entries(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.rows[..self.depth].iter().flatten().filter_map(|s| *s)
    }

    /// The contents of row `row` (used by the join protocol, where each
    /// node along the join route contributes one row).
    pub fn row(&self, row: usize) -> Vec<NodeHandle> {
        self.rows[row].iter().filter_map(|s| *s).collect()
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// True if no slots are filled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The neighbor set `M`: the physically closest nodes regardless of id —
/// the set v-Bundle's placement algorithm walks when the target server
/// cannot host a new VM (§II.B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborSet {
    capacity: usize,
    /// Sorted by (proximity, ring distance to owner), ascending.
    items: Vec<(u32, NodeHandle)>,
    self_id: NodeId,
}

impl NeighborSet {
    /// Creates an empty neighbor set holding up to `capacity` nodes.
    pub fn new(self_id: NodeId, capacity: usize) -> Self {
        NeighborSet {
            capacity,
            items: Vec::with_capacity(capacity),
            self_id,
        }
    }

    /// Offers a handle with the given physical proximity (smaller =
    /// closer). Returns `true` if the set changed.
    pub fn insert(&mut self, h: NodeHandle, proximity: u32) -> bool {
        if h.id == self.self_id || self.items.iter().any(|(_, e)| e.id == h.id) {
            return false;
        }
        let sort_key = (proximity, self.self_id.ring_distance(h.id));
        let pos = self
            .items
            .binary_search_by(|(p, e)| (*p, self.self_id.ring_distance(e.id)).cmp(&sort_key))
            .unwrap_or_else(|p| p);
        if pos >= self.capacity {
            return false;
        }
        self.items.insert(pos, (proximity, h));
        self.items.truncate(self.capacity);
        true
    }

    /// The `(proximity, ring distance)` key a newcomer must not exceed to
    /// get in: the worst member's once the set is full, `None` while it
    /// has room. Inserting nodes only makes it stricter.
    pub(crate) fn admission_bound(&self) -> Option<(u32, u128)> {
        let &(prox, worst) = self.items.last()?;
        (self.items.len() >= self.capacity).then(|| (prox, self.self_id.ring_distance(worst.id)))
    }

    /// Removes a (failed) node. Returns `true` if present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let before = self.items.len();
        self.items.retain(|(_, e)| e.id != id);
        before != self.items.len()
    }

    /// Members, physically closest first.
    pub fn members(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.items.iter().map(|(_, h)| *h)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if there are no members.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Physical distance between two actors under `topo`, `u32::MAX` when
/// either actor lies outside the server range.
fn prox_between(topo: &Topology, a: ActorId, b: ActorId) -> u32 {
    if a.index() < topo.num_servers() && b.index() < topo.num_servers() {
        topo.distance(topo.server(a.index()), topo.server(b.index()))
    } else {
        u32::MAX
    }
}

/// Where a routed message should go next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The local node is (as far as it knows) numerically closest: deliver.
    DeliverHere,
    /// Forward to this node.
    Forward(NodeHandle),
}

/// The complete routing state of one Pastry node.
#[derive(Debug, Clone)]
pub struct PastryState {
    handle: NodeHandle,
    leaf_set: LeafSet,
    routing_table: RoutingTable,
    neighbor_set: NeighborSet,
    topology: Arc<Topology>,
}

impl PastryState {
    /// Creates empty state for a node.
    pub fn new(handle: NodeHandle, topology: Arc<Topology>, leaf_half: usize) -> Self {
        PastryState {
            handle,
            leaf_set: LeafSet::new(handle.id, leaf_half),
            routing_table: RoutingTable::new(handle.id),
            neighbor_set: NeighborSet::new(handle.id, NEIGHBOR_CAPACITY),
            topology,
        }
    }

    /// This node's own handle.
    pub fn handle(&self) -> NodeHandle {
        self.handle
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.handle.id
    }

    /// The shared datacenter topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The leaf set.
    pub fn leaf_set(&self) -> &LeafSet {
        &self.leaf_set
    }

    /// The routing table.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.routing_table
    }

    /// The neighbor set.
    pub fn neighbor_set(&self) -> &NeighborSet {
        &self.neighbor_set
    }

    /// Physical distance from this node to another actor (0 same server …
    /// 3 cross-pod; `u32::MAX` for actors outside the topology).
    pub fn proximity(&self, actor: ActorId) -> u32 {
        prox_between(&self.topology, self.handle.actor, actor)
    }

    /// Learns about a node: offered to the leaf set, routing table and
    /// neighbor set. Returns `true` if any structure changed.
    pub fn learn(&mut self, h: NodeHandle) -> bool {
        if h.id == self.handle.id {
            return false;
        }
        let prox = self.proximity(h.actor);
        let mut changed = self.leaf_set.insert(h);
        let topo = Arc::clone(&self.topology);
        let my_actor = self.handle.actor;
        changed |= self
            .routing_table
            .insert(h, move |c| prox_between(&topo, my_actor, c.actor));
        changed |= self.neighbor_set.insert(h, prox);
        changed
    }

    /// Forgets a (failed) node everywhere. Returns `true` if it was known.
    pub fn forget(&mut self, id: NodeId) -> bool {
        let a = self.leaf_set.remove(id);
        let b = self.routing_table.remove(id);
        let c = self.neighbor_set.remove(id);
        a || b || c
    }

    /// Every distinct node this state knows about: leaf-set members, then
    /// routing-table entries, then neighbor-set members, each id once, at
    /// its first appearance.
    pub fn known_nodes(&self) -> Vec<NodeHandle> {
        // Routing-table entries are distinct, as are neighbor-set members,
        // so a later structure only needs checking against earlier ones.
        let leaves = &self.leaf_set;
        let table = &self.routing_table;
        let mut out = leaves.members();
        out.extend(table.entries().filter(|h| !leaves.contains(h.id)));
        out.extend(
            self.neighbor_set
                .members()
                .filter(|h| !leaves.contains(h.id) && !table.contains(h.id)),
        );
        out
    }

    /// The Pastry routing rule (§II.A): leaf set if the key is in range,
    /// else the routing-table prefix rule, else any known node that is both
    /// no worse in prefix length and numerically closer ("rare case").
    pub fn route_decision(&self, key: Key) -> RouteDecision {
        if key == self.handle.id {
            return RouteDecision::DeliverHere;
        }
        // (1) Leaf-set rule.
        if self.leaf_set.covers(key) {
            let closest = self.leaf_set.closest(key, self.handle);
            return if closest.id == self.handle.id {
                RouteDecision::DeliverHere
            } else {
                RouteDecision::Forward(closest)
            };
        }
        // (2) Prefix rule.
        if let Some(next) = self.routing_table.next_hop(key) {
            return RouteDecision::Forward(next);
        }
        // (3) Rare case: improve numerically without losing prefix length.
        let own_prefix = self.handle.id.shared_prefix_len(key);
        let own_dist = self.handle.id.ring_distance(key);
        let mut best: Option<(usize, u128, NodeHandle)> = None;
        for h in self.known_nodes() {
            let p = h.id.shared_prefix_len(key);
            let d = h.id.ring_distance(key);
            if p >= own_prefix && d < own_dist {
                let candidate = (p, d, h);
                let better = match &best {
                    None => true,
                    Some((bp, bd, _)) => (p, std::cmp::Reverse(d)) > (*bp, std::cmp::Reverse(*bd)),
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        match best {
            Some((_, _, h)) => RouteDecision::Forward(h),
            None => RouteDecision::DeliverHere,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Id;

    fn h(v: u128, actor: u32) -> NodeHandle {
        NodeHandle::new(Id::from_u128(v), ActorId::new(actor))
    }

    mod leaf_set {
        use super::*;

        #[test]
        fn keeps_closest_per_side() {
            let mut ls = LeafSet::new(Id::from_u128(100), 2);
            for (v, a) in [(110, 1), (120, 2), (130, 3), (90, 4), (80, 5), (70, 6)] {
                ls.insert(h(v, a));
            }
            assert_eq!(ls.cw_extreme().unwrap().id, Id::from_u128(120));
            assert_eq!(ls.ccw_extreme().unwrap().id, Id::from_u128(80));
            assert!(ls.contains(Id::from_u128(110)));
            assert!(!ls.contains(Id::from_u128(130)));
            assert!(!ls.contains(Id::from_u128(70)));
        }

        #[test]
        fn rejects_self_and_duplicates() {
            let mut ls = LeafSet::new(Id::from_u128(100), 2);
            assert!(!ls.insert(h(100, 0)));
            assert!(ls.insert(h(110, 1)));
            assert!(!ls.insert(h(110, 1)));
            assert_eq!(ls.len(), 1);
        }

        #[test]
        fn wrap_around_distances() {
            let mut ls = LeafSet::new(Id::from_u128(5), 1);
            ls.insert(h(u128::MAX - 2, 1)); // 8 counter-clockwise of 5
            ls.insert(h(2, 2)); // 3 counter-clockwise
            ls.insert(h(10, 3)); // 5 clockwise
                                 // The wrap-around id at distance 8 loses the single ccw slot to
                                 // the id at distance 3; the cw slot goes to the nearest cw id.
            assert_eq!(ls.ccw_extreme().unwrap().id, Id::from_u128(2));
            assert_eq!(ls.cw_extreme().unwrap().id, Id::from_u128(10));
        }

        #[test]
        fn small_ring_node_on_both_sides() {
            let mut ls = LeafSet::new(Id::from_u128(100), 4);
            ls.insert(h(200, 1));
            // Only two nodes in the ring: 200 is both cw and ccw neighbor.
            assert_eq!(ls.members().len(), 1);
            assert!(ls.covers(Id::from_u128(u128::MAX)));
        }

        #[test]
        fn coverage_when_full() {
            let mut ls = LeafSet::new(Id::from_u128(100), 1);
            ls.insert(h(120, 1));
            ls.insert(h(80, 2));
            assert!(ls.covers(Id::from_u128(100)));
            assert!(ls.covers(Id::from_u128(80)));
            assert!(ls.covers(Id::from_u128(120)));
            assert!(ls.covers(Id::from_u128(95)));
            assert!(!ls.covers(Id::from_u128(121)));
            assert!(!ls.covers(Id::from_u128(79)));
        }

        #[test]
        fn closest_prefers_nearest() {
            let self_h = h(100, 0);
            let mut ls = LeafSet::new(self_h.id, 2);
            ls.insert(h(120, 1));
            ls.insert(h(80, 2));
            assert_eq!(
                ls.closest(Id::from_u128(118), self_h).id,
                Id::from_u128(120)
            );
            assert_eq!(
                ls.closest(Id::from_u128(101), self_h).id,
                Id::from_u128(100)
            );
            assert_eq!(ls.closest(Id::from_u128(82), self_h).id, Id::from_u128(80));
        }

        #[test]
        fn remove_both_sides() {
            let mut ls = LeafSet::new(Id::from_u128(100), 4);
            ls.insert(h(110, 1));
            assert!(ls.remove(Id::from_u128(110)));
            assert!(ls.is_empty());
            assert!(!ls.remove(Id::from_u128(110)));
        }
    }

    mod routing_table {
        use super::*;

        #[test]
        fn places_by_prefix_row() {
            let self_id = Id::from_u128(0x1234 << 112);
            let mut rt = RoutingTable::new(self_id);
            // Shares 0 digits: row 0, col = first digit.
            let far = h(0xF000 << 112, 1);
            assert!(rt.insert(far, |_| 3));
            assert_eq!(rt.entry(0, 0xF), Some(far));
            // Shares 2 digits (0x12..): row 2, col 7.
            let near = h(0x127F << 112, 2);
            assert!(rt.insert(near, |_| 3));
            assert_eq!(rt.entry(2, 7), Some(near));
            assert_eq!(rt.len(), 2);
        }

        #[test]
        fn keeps_physically_closer_on_conflict() {
            let self_id = Id::from_u128(0);
            let mut rt = RoutingTable::new(self_id);
            let a = h(0xF000 << 112, 1);
            let b = h(0xF111 << 112, 2);
            assert!(rt.insert(a, |_| 3));
            // Same slot (row 0, col F), b is closer -> replaces.
            assert!(rt.insert(b, |x| if x.actor.index() == 2 { 1 } else { 3 }));
            assert_eq!(rt.entry(0, 0xF), Some(b));
            // a is farther -> rejected.
            assert!(!rt.insert(a, |x| if x.actor.index() == 2 { 1 } else { 3 }));
        }

        #[test]
        fn next_hop_follows_prefix() {
            let self_id = Id::from_u128(0x1000 << 112);
            let mut rt = RoutingTable::new(self_id);
            let target = h(0x1200 << 112, 1);
            rt.insert(target, |_| 0);
            let key = Id::from_u128(0x12FF << 112);
            assert_eq!(rt.next_hop(key), Some(target));
            assert_eq!(rt.next_hop(self_id), None);
        }

        #[test]
        fn remove_clears_all_occurrences() {
            let mut rt = RoutingTable::new(Id::from_u128(0));
            let a = h(0xF000 << 112, 1);
            rt.insert(a, |_| 0);
            assert!(rt.remove(a.id));
            assert!(rt.is_empty());
            assert!(!rt.remove(a.id));
        }

        /// An id sharing exactly `row` leading digits with `self_v`.
        fn id_in_row(self_v: u128, row: usize, digit: u128, rest: u128) -> u128 {
            let shift = 128 - 4 * (row as u32 + 1);
            let own = (self_v >> shift) & 0xF;
            let digit = if digit & 0xF == own {
                (own + 1) & 0xF
            } else {
                digit & 0xF
            };
            let prefix = self_v & !(u128::MAX >> (4 * row as u32));
            prefix | (digit << shift) | (rest & ((1u128 << shift) - 1))
        }

        /// The oracle: every slot of all 32 rows, row by row.
        fn full_scan(rt: &RoutingTable) -> Vec<NodeHandle> {
            (0..NUM_DIGITS)
                .flat_map(|r| (0..DIGIT_BASE).filter_map(move |c| rt.entry(r, c)))
                .collect()
        }

        #[test]
        fn emptying_the_deepest_row_shrinks_the_scan() {
            let self_v = 0x1234_5678u128 << 96;
            let mut rt = RoutingTable::new(Id::from_u128(self_v));
            let shallow = h(id_in_row(self_v, 0, 9, 1), 1);
            let deep = h(id_in_row(self_v, 5, 0, 2), 2);
            let deeper = h(id_in_row(self_v, 7, 0, 3), 3);
            for x in [shallow, deep, deeper] {
                assert!(rt.insert(x, |_| 0));
            }
            assert_eq!(rt.depth, 8);
            assert!(rt.remove(deeper.id));
            assert_eq!(rt.depth, 6);
            assert_eq!(rt.entries().collect::<Vec<_>>(), vec![shallow, deep]);
            assert!(rt.remove(deep.id));
            assert_eq!(rt.depth, 1);
            assert!(!rt.remove(deep.id));
            assert!(!rt.remove(rt.self_id));
            assert!(rt.remove(shallow.id));
            assert_eq!(rt.depth, 0);
            assert!(rt.is_empty());
            assert!(rt.insert(deep, |_| 0));
            assert_eq!(rt.entries().collect::<Vec<_>>(), full_scan(&rt));
        }

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

            /// `entries()` (which stops at the deepest non-empty row),
            /// `contains` and `remove` agree with a scan of all 32 rows
            /// after every step of a random insert/remove sequence. The
            /// pool is concentrated in a few rows so rows, the deepest
            /// included, fill and empty again.
            #[test]
            fn prop_entries_match_full_scan(
                self_v in proptest::prelude::any::<u128>(),
                pool in proptest::collection::vec((0usize..7, 0u128..3, proptest::prelude::any::<u128>()), 1..14),
                ops in proptest::collection::vec((proptest::prelude::any::<bool>(), 0usize..14, 0u32..4), 0..80),
            ) {
                let mut rt = RoutingTable::new(Id::from_u128(self_v));
                let pool: Vec<NodeHandle> = pool
                    .iter()
                    .enumerate()
                    .map(|(i, &(row, digit, rest))| h(id_in_row(self_v, row, digit, rest), i as u32))
                    .collect();
                for (insert, pick, prox) in ops {
                    let x = pool[pick % pool.len()];
                    let before = full_scan(&rt);
                    if insert {
                        rt.insert(x, |c| (c.actor.index() as u32 + prox) % 4);
                    } else {
                        let present = before.iter().any(|e| e.id == x.id);
                        proptest::prop_assert_eq!(rt.remove(x.id), present);
                    }
                    let scan = full_scan(&rt);
                    proptest::prop_assert_eq!(rt.entries().collect::<Vec<_>>(), scan.clone());
                    proptest::prop_assert_eq!(rt.len(), scan.len());
                    for e in &pool {
                        proptest::prop_assert_eq!(rt.contains(e.id), scan.iter().any(|s| s.id == e.id));
                    }
                }
            }
        }

        #[test]
        fn row_lists_entries() {
            let mut rt = RoutingTable::new(Id::from_u128(0));
            rt.insert(h(0x1000 << 112, 1), |_| 0);
            rt.insert(h(0x2000 << 112, 2), |_| 0);
            assert_eq!(rt.row(0).len(), 2);
            assert!(rt.row(1).is_empty());
        }
    }

    mod neighbor_set {
        use super::*;

        #[test]
        fn orders_by_proximity() {
            let mut ns = NeighborSet::new(Id::from_u128(0), 2);
            assert!(ns.insert(h(1, 1), 3));
            assert!(ns.insert(h(2, 2), 1));
            assert!(ns.insert(h(3, 3), 2));
            let members: Vec<_> = ns.members().collect();
            assert_eq!(members.len(), 2);
            assert_eq!(members[0].id, Id::from_u128(2));
            assert_eq!(members[1].id, Id::from_u128(3));
            // Farther node rejected when full.
            assert!(!ns.insert(h(4, 4), 5));
        }

        #[test]
        fn remove_and_duplicates() {
            let mut ns = NeighborSet::new(Id::from_u128(0), 4);
            ns.insert(h(1, 1), 1);
            assert!(!ns.insert(h(1, 1), 1));
            assert!(ns.remove(Id::from_u128(1)));
            assert!(ns.is_empty());
        }
    }

    mod decisions {
        use super::*;

        fn state_with(
            topology: Arc<Topology>,
            self_v: u128,
            others: &[(u128, u32)],
        ) -> PastryState {
            let mut st = PastryState::new(h(self_v, 0), topology, 2);
            for &(v, a) in others {
                st.learn(h(v, a));
            }
            st
        }

        fn topo4() -> Arc<Topology> {
            Arc::new(
                Topology::builder()
                    .pods(1)
                    .racks_per_pod(2)
                    .servers_per_rack(2)
                    .build(),
            )
        }

        #[test]
        fn delivers_own_key() {
            let st = state_with(topo4(), 100, &[(200, 1)]);
            assert_eq!(
                st.route_decision(Id::from_u128(100)),
                RouteDecision::DeliverHere
            );
        }

        #[test]
        fn leaf_set_rule_delivers_or_forwards() {
            let st = state_with(topo4(), 100, &[(140, 1), (60, 2)]);
            // Leaf set not full -> covers everything; closest wins.
            assert_eq!(
                st.route_decision(Id::from_u128(110)),
                RouteDecision::DeliverHere
            );
            match st.route_decision(Id::from_u128(135)) {
                RouteDecision::Forward(n) => assert_eq!(n.id, Id::from_u128(140)),
                other => panic!("expected forward, got {other:?}"),
            }
        }

        #[test]
        fn prefix_rule_fires_outside_leaf_range() {
            let topo = Arc::new(
                Topology::builder()
                    .pods(1)
                    .racks_per_pod(4)
                    .servers_per_rack(4)
                    .build(),
            );
            // Fill the leaf set (half=2) with near ids so distant keys are
            // out of range, then verify the routing table proposes the hop.
            let self_v = 0x8000_0000_0000_0000_0000_0000_0000_0000u128;
            let near = [
                (self_v + 1, 1),
                (self_v + 2, 2),
                (self_v - 1, 3),
                (self_v - 2, 4),
            ];
            let mut st = PastryState::new(h(self_v, 0), topo, 2);
            for (v, a) in near {
                st.learn(h(v, a));
            }
            let far = h(0x1000_0000_0000_0000_0000_0000_0000_0000, 5);
            st.learn(far);
            let key = Id::from_u128(0x1FFF_0000_0000_0000_0000_0000_0000_0000);
            assert_eq!(st.route_decision(key), RouteDecision::Forward(far));
        }

        #[test]
        fn rare_case_moves_numerically_closer() {
            let topo = topo4();
            let self_v = 0x8000_0000_0000_0000_0000_0000_0000_0000u128;
            let mut st = PastryState::new(h(self_v, 0), topo, 1);
            // Fill leaf set with immediate neighbors so coverage is tight.
            st.learn(h(self_v + 1, 1));
            st.learn(h(self_v - 1, 2));
            // A node numerically closer to the key but whose routing-table
            // slot collides with an existing entry is still reachable via
            // the rare-case scan.
            let key = Id::from_u128(0x9000_0000_0000_0000_0000_0000_0000_0000);
            let closer = h(0x8FFF_0000_0000_0000_0000_0000_0000_0000, 3);
            st.learn(closer);
            match st.route_decision(key) {
                RouteDecision::Forward(n) => assert_eq!(n.id, closer.id),
                other => panic!("expected forward, got {other:?}"),
            }
        }

        #[test]
        fn isolated_node_delivers_everything() {
            let st = state_with(topo4(), 100, &[]);
            assert_eq!(
                st.route_decision(Id::from_u128(u128::MAX)),
                RouteDecision::DeliverHere
            );
        }

        #[test]
        fn forget_purges_everywhere() {
            let mut st = state_with(topo4(), 100, &[(140, 1), (60, 2)]);
            assert!(st.forget(Id::from_u128(140)));
            assert!(!st.forget(Id::from_u128(140)));
            assert!(st.known_nodes().iter().all(|n| n.id != Id::from_u128(140)));
        }

        /// The dedup `known_nodes` did before it asked the structures
        /// themselves: a linear scan of everything collected so far.
        fn known_nodes_by_scan(st: &PastryState) -> Vec<NodeHandle> {
            let mut out = st.leaf_set().members();
            for h in st
                .routing_table()
                .entries()
                .chain(st.neighbor_set().members())
            {
                if !out.iter().any(|o| o.id == h.id) {
                    out.push(h);
                }
            }
            out
        }

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

            /// `known_nodes` keeps the scan-based dedup's order and set
            /// through random learn/forget sequences. Ids cluster under a
            /// few prefixes so one node often sits in two or three
            /// structures at once.
            #[test]
            fn prop_known_nodes_match_scan_dedup(
                self_v in proptest::prelude::any::<u128>(),
                leaf_half in 1usize..4,
                pool in proptest::collection::vec((0u128..4, proptest::prelude::any::<u64>(), 0u32..20), 1..40),
                ops in proptest::collection::vec((0u8..4, 0usize..40), 0..60),
            ) {
                let topo = Arc::new(
                    Topology::builder()
                        .pods(1)
                        .racks_per_pod(4)
                        .servers_per_rack(4)
                        .build(),
                );
                let mut st = PastryState::new(h(self_v, 0), topo, leaf_half);
                let pool: Vec<NodeHandle> = pool
                    .iter()
                    .map(|&(top, low, actor)| h((self_v & !(u128::MAX >> 8)) ^ (top << 120) | low as u128, actor))
                    .collect();
                for (op, pick) in ops {
                    let x = pool[pick % pool.len()];
                    if op == 0 {
                        st.forget(x.id);
                    } else {
                        st.learn(x);
                    }
                    proptest::prop_assert_eq!(st.known_nodes(), known_nodes_by_scan(&st));
                }
            }
        }

        #[test]
        fn learn_feeds_all_structures() {
            let mut st = state_with(topo4(), 0x8000 << 112, &[]);
            assert!(st.learn(h(0xF000 << 112, 1)));
            assert!(!st.learn(h(0x8000 << 112, 0))); // self
            assert_eq!(st.known_nodes().len(), 1);
            assert_eq!(st.leaf_set().len(), 1);
            assert_eq!(st.routing_table().len(), 1);
            assert_eq!(st.neighbor_set().len(), 1);
        }

        #[test]
        fn proximity_uses_topology() {
            let st = state_with(topo4(), 100, &[]);
            assert_eq!(st.proximity(ActorId::new(0)), 0);
            assert_eq!(st.proximity(ActorId::new(1)), 1);
            assert_eq!(st.proximity(ActorId::new(2)), 2);
            assert_eq!(st.proximity(ActorId::new(99)), u32::MAX);
        }
    }
}
