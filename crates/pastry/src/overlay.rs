//! Overlay assembly: id assignment policies, bulk state construction and a
//! one-call launcher.
//!
//! The paper's placement algorithm (§II.B) relies on a *centralized
//! certificate authority* that assigns nodeIds "to reflect the physical
//! proximity": numerically adjacent ids belong to physically close servers.
//! [`topology_aware_ids`] implements that policy; [`random_ids`] provides
//! the conventional uniformly random assignment for ablation comparisons.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_dcn::{ProximityLevel, ServerId, Topology};
use vbundle_sim::{ActorId, Engine, LatencyModel, SimDuration};

use crate::id::{DIGIT_BASE, NUM_DIGITS};
use crate::message::PastryMsg;
use crate::node::{PastryApp, PastryNode};
use crate::state::PastryState;
use crate::{NodeHandle, NodeId, PastryConfig};

/// How node ids are assigned to servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdAssignment {
    /// The paper's certificate-authority policy: ids mirror physical
    /// position, so numeric neighbors are rack neighbors.
    TopologyAware,
    /// Uniformly random ids (classic Pastry; used as an ablation baseline).
    Random {
        /// Seed for the id draw.
        seed: u64,
    },
}

/// Assigns each server an id that reflects its physical position.
///
/// The ring is split into one equal arc per rack; a rack's servers are
/// spread over the *middle half* of its arc. The quarter-arc gaps at the
/// boundaries keep servers of adjacent racks from being numerically
/// adjacent — the paper notes that "adjacent servers across racks will be
/// assigned remote nodeIds" so that one customer's VMs do not accidentally
/// straddle two racks.
///
/// ```
/// use vbundle_dcn::Topology;
/// use vbundle_pastry::overlay::topology_aware_ids;
///
/// let topo = Topology::paper_testbed();
/// let ids = topology_aware_ids(&topo);
/// assert_eq!(ids.len(), 15);
/// // Same-rack servers are numerically adjacent...
/// let d_same = ids[0].ring_distance(ids[1]);
/// // ...while rack boundaries are separated by the inter-arc gap.
/// let d_cross = ids[3].ring_distance(ids[4]);
/// assert!(d_same < d_cross);
/// ```
pub fn topology_aware_ids(topo: &Topology) -> Vec<NodeId> {
    let num_racks = topo.num_racks() as u128;
    let arc = u128::MAX / num_racks;
    let mut ids = vec![NodeId::ZERO; topo.num_servers()];
    for rack in topo.racks() {
        let size = topo.rack_size(rack) as u128;
        let arc_start = arc * rack.index() as u128;
        let span = arc / 2; // middle half of the arc
        let span_start = arc_start + arc / 4;
        let spacing = span / size;
        for (slot, server) in topo.servers_in_rack(rack).enumerate() {
            ids[server.index()] =
                NodeId::from_u128(span_start + spacing * slot as u128 + spacing / 2);
        }
    }
    ids
}

/// Assigns `n` distinct uniformly random ids.
pub fn random_ids(n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(n);
    let mut seen = HashSet::with_capacity(n);
    while ids.len() < n {
        let id = NodeId::from_u128(rng.gen());
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Resolves an [`IdAssignment`] against a topology.
pub fn assign_ids(topo: &Topology, policy: IdAssignment) -> Vec<NodeId> {
    match policy {
        IdAssignment::TopologyAware => topology_aware_ids(topo),
        IdAssignment::Random { seed } => random_ids(topo.num_servers(), seed),
    }
}

/// Pairs each id with its server's actor address (`actor i` = server `i`).
pub fn handles_for(ids: &[NodeId]) -> Vec<NodeHandle> {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| NodeHandle::new(id, ActorId::new(i as u32)))
        .collect()
}

/// Builds fully populated routing state for every node at once — the
/// certificate-authority bootstrap the paper assumes. Every node ends up
/// with the leaf set, routing table and neighbor set it would converge to
/// after joining.
///
/// Each node's state is exactly what [`PastryState::learn`]ing its ring
/// neighbors (`cw1, ccw1, cw2, ccw2, …`) and then every other node in
/// ascending id order produces. After the ring neighbors only a few nodes
/// can still change the state, so only those are replayed, in the same
/// order: every node left out is a no-op, or a routing-table entry that a
/// replayed node replaces anyway. With topology-aware ids and the default
/// leaf set a node replays tens of nodes, not `n` (see DESIGN.md, "Bulk
/// bootstrap").
///
/// # Panics
///
/// Panics if `handles` is empty or contains duplicate ids.
pub fn build_states(
    topo: &Arc<Topology>,
    handles: &[NodeHandle],
    config: &PastryConfig,
) -> Vec<PastryState> {
    assert!(!handles.is_empty(), "overlay needs at least one node");
    let mut by_id: Vec<NodeHandle> = handles.to_vec();
    by_id.sort_by_key(|h| h.id);
    for w in by_id.windows(2) {
        assert!(w[0].id != w[1].id, "duplicate node id {:?}", w[0].id);
    }
    let n = by_id.len();
    let tiers = proximity_tiers(topo, &by_id);
    let mut replay = Vec::new();
    handles
        .iter()
        .map(|&me| {
            let mut st = PastryState::new(me, Arc::clone(topo), config.leaf_half);
            let pos = by_id
                .binary_search_by_key(&me.id, |h| h.id)
                .expect("own handle present");
            // Ring neighbors: leaf_half on each side (wrapping).
            for step in 1..=config.leaf_half.min(n - 1) {
                st.learn(by_id[(pos + step) % n]);
                st.learn(by_id[(pos + n - step) % n]);
            }
            // `(bound, group)`: the positions within proximity `bound` of
            // this node, for ascending bounds; the last group is everyone.
            let near = tiers.each_ref().map(|t| (t.bound, t.group(pos)));
            replay.clear();
            neighbor_candidates(&st, &by_id, pos, &near, &mut replay);
            routing_candidates(&by_id, pos, &near, &mut replay);
            replay.sort_unstable();
            replay.dedup();
            for &other in &replay {
                st.learn(by_id[other]);
            }
            st
        })
        .collect()
}

/// The nodes grouped by how close they sit to each other: one tier per
/// [`ProximityLevel`] (same server, rack, pod, topology) plus a last tier
/// holding every node, actors outside the topology included. Every
/// proximity is one of the tier bounds, so within any set of nodes the
/// physically closest are the members of the first tier's group that
/// has any.
struct ProximityTier {
    /// Members of a node's group are exactly the nodes within this
    /// proximity of it.
    bound: u32,
    /// Group of each `by_id` position; `None` for actors outside the
    /// topology, which are within no finite bound of anyone.
    group_of: Vec<Option<usize>>,
    /// Each group's positions, ascending.
    members: Vec<Vec<usize>>,
}

impl ProximityTier {
    fn new(bound: u32, groups: usize, group_of: Vec<Option<usize>>) -> Self {
        let mut members = vec![Vec::new(); groups];
        for (pos, &g) in group_of.iter().enumerate() {
            if let Some(g) = g {
                members[g].push(pos);
            }
        }
        ProximityTier {
            bound,
            group_of,
            members,
        }
    }

    /// The positions in the same group as `pos`, ascending.
    fn group(&self, pos: usize) -> &[usize] {
        self.group_of[pos].map_or(&[], |g| &self.members[g])
    }
}

fn proximity_tiers(topo: &Topology, by_id: &[NodeHandle]) -> [ProximityTier; 5] {
    let servers: Vec<Option<ServerId>> = by_id
        .iter()
        .map(|h| (h.actor.index() < topo.num_servers()).then(|| topo.server(h.actor.index())))
        .collect();
    let tier = |level: ProximityLevel, groups: usize, key: fn(&Topology, ServerId) -> usize| {
        let group_of = servers.iter().map(|s| s.map(|s| key(topo, s))).collect();
        ProximityTier::new(level as u32, groups, group_of)
    };
    [
        tier(ProximityLevel::SameServer, topo.num_servers(), |_, s| {
            s.index()
        }),
        tier(ProximityLevel::SameRack, topo.num_racks(), |t, s| {
            t.rack_of(s).index()
        }),
        tier(ProximityLevel::SamePod, topo.num_pods(), |t, s| {
            t.pod_of(s).index()
        }),
        tier(ProximityLevel::CrossPod, 1, |_, _| 0),
        ProximityTier::new(u32::MAX, 1, vec![Some(0); by_id.len()]),
    ]
}

/// Pushes every node that could still enter `st`'s neighbor set: one
/// whose `(proximity, ring distance)` is at most the current worst
/// member's. The worst only shrinks, so these are the nodes physically
/// closer than the worst plus the id arc within its ring distance. While
/// the set has room the bound is infinite and that arc is the whole ring.
fn neighbor_candidates(
    st: &PastryState,
    by_id: &[NodeHandle],
    pos: usize,
    near: &[(u32, &[usize])],
    out: &mut Vec<usize>,
) {
    let (p_max, d_max) = st
        .neighbor_set()
        .admission_bound()
        .unwrap_or((u32::MAX, u128::MAX));
    if let Some(&(_, closer)) = near.iter().rev().find(|(bound, _)| *bound < p_max) {
        out.extend_from_slice(closer);
    }
    let n = by_id.len();
    let me = by_id[pos].id;
    let cw = (1..n)
        .take_while(|step| me.cw_distance(by_id[(pos + step) % n].id) <= d_max)
        .count();
    let ccw = (1..n - cw)
        .take_while(|step| by_id[(pos + n - step) % n].id.cw_distance(me) <= d_max)
        .count();
    out.extend((1..=cw).map(|step| (pos + step) % n));
    out.extend((1..=ccw).map(|step| (pos + n - step) % n));
}

/// Pushes the final winner of every routing-table slot of the node at
/// `pos`. Slot `(row, col)` holds the first node in learn order among
/// those at the smallest proximity; its candidates are the contiguous
/// `by_id` range sharing this node's first `row` digits followed by
/// `col`, so the winner is the first member of that range in the closest
/// proximity group that has one. If a ring neighbor ties it, replaying
/// the winner is a no-op.
fn routing_candidates(
    by_id: &[NodeHandle],
    pos: usize,
    near: &[(u32, &[usize])],
    out: &mut Vec<usize>,
) {
    let me = by_id[pos].id;
    // `lo..hi`: the positions sharing this node's first `row` digits.
    let (mut lo, mut hi) = (0, by_id.len());
    for row in 0..NUM_DIGITS {
        if hi - lo == 1 {
            break; // only this node is left: every deeper row is empty
        }
        let mine = me.digit(row);
        let mut start = lo;
        let mut next = (lo, hi);
        for col in 0..DIGIT_BASE {
            let end = lo + by_id[lo..hi].partition_point(|h| h.id.digit(row) <= col);
            if col == mine {
                next = (start, end);
            } else if start < end {
                let winner = near.iter().find_map(|&(_, group)| {
                    let i = group.partition_point(|&p| p < start);
                    group.get(i).copied().filter(|&p| p < end)
                });
                out.extend(winner);
            }
            start = end;
        }
        (lo, hi) = next;
    }
}

/// A started overlay: the engine plus the node handles (indexed by
/// server), as returned by [`launch`] and [`launch_null`].
pub type LaunchedOverlay<A> = (
    Engine<PastryMsg<<A as PastryApp>::Msg>, PastryNode<A>>,
    Vec<NodeHandle>,
);

/// Builds a complete overlay: pre-built states, one [`PastryNode`] per
/// server, engine started. Returns the engine and the node handles (indexed
/// by server).
///
/// `app_factory` is called once per server with `(server index, handle)`.
pub fn launch<A: PastryApp>(
    topo: &Arc<Topology>,
    policy: IdAssignment,
    config: PastryConfig,
    seed: u64,
    latency: Box<dyn LatencyModel>,
    mut app_factory: impl FnMut(usize, NodeHandle) -> A,
) -> LaunchedOverlay<A> {
    let ids = assign_ids(topo, policy);
    let handles = handles_for(&ids);
    let states = build_states(topo, &handles, &config);
    let mut engine = Engine::new(latency, seed);
    for (i, state) in states.into_iter().enumerate() {
        let app = app_factory(i, handles[i]);
        engine.add_actor(PastryNode::with_state(state, app, config.clone()));
    }
    engine.start();
    (engine, handles)
}

/// A do-nothing application, useful for tests and benchmarks that only
/// exercise the overlay itself.
#[derive(Debug, Default, Clone)]
pub struct NullApp {
    /// Keys delivered to this node (most recent last).
    pub delivered: Vec<crate::Key>,
}

/// A minimal routable probe payload for overlay-only tests — the shared
/// sequence-numbered probe from the failure-detection substrate.
pub use vbundle_fdetect::Probe;

impl PastryApp for NullApp {
    type Msg = Probe;

    fn deliver(
        &mut self,
        _ctx: &mut crate::AppCtx<'_, '_, Probe>,
        key: crate::Key,
        _msg: Probe,
        _origin: NodeHandle,
    ) {
        self.delivered.push(key);
    }
}

/// Convenience: launch a [`NullApp`] overlay with zero latency — the
/// standard fixture for routing tests.
pub fn launch_null(
    topo: &Arc<Topology>,
    policy: IdAssignment,
    config: PastryConfig,
    seed: u64,
) -> LaunchedOverlay<NullApp> {
    launch(
        topo,
        policy,
        config,
        seed,
        Box::new(vbundle_sim::ConstantLatency(SimDuration::from_micros(100))),
        |_, _| NullApp::default(),
    )
}
