//! Overlay assembly: id assignment policies, bulk state construction and a
//! one-call launcher.
//!
//! The paper's placement algorithm (§II.B) relies on a *centralized
//! certificate authority* that assigns nodeIds "to reflect the physical
//! proximity": numerically adjacent ids belong to physically close servers.
//! [`topology_aware_ids`] implements that policy; [`random_ids`] provides
//! the conventional uniformly random assignment for ablation comparisons.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_dcn::Topology;
use vbundle_sim::{ActorId, Engine, LatencyModel, SimDuration};

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
    while ids.len() < n {
        let id = NodeId::from_u128(rng.gen());
        if !ids.contains(&id) {
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
/// # Panics
///
/// Panics if `handles` is empty or contains duplicate ids.
pub fn build_states(
    topo: &Arc<Topology>,
    handles: &[NodeHandle],
    config: &PastryConfig,
) -> Vec<PastryState> {
    assert!(!handles.is_empty(), "overlay needs at least one node");
    // Sort once by id so each node learns ring neighbors first (cheap leaf
    // sets) and the rest for routing tables / neighbor sets.
    let mut by_id: Vec<NodeHandle> = handles.to_vec();
    by_id.sort_by_key(|h| h.id);
    for w in by_id.windows(2) {
        assert!(w[0].id != w[1].id, "duplicate node id {:?}", w[0].id);
    }
    let n = by_id.len();
    handles
        .iter()
        .map(|&me| {
            let mut st = PastryState::new(me, Arc::clone(topo), config.leaf_half);
            let pos = by_id
                .binary_search_by_key(&me.id, |h| h.id)
                .expect("own handle present");
            // Ring neighbors: leaf_half on each side (wrapping).
            for step in 1..=config.leaf_half.min(n.saturating_sub(1)) {
                st.learn(by_id[(pos + step) % n]);
                st.learn(by_id[(pos + n - step) % n]);
            }
            // Everyone else fills routing table + neighbor set slots.
            for &other in &by_id {
                if other.id != me.id {
                    st.learn(other);
                }
            }
            st
        })
        .collect()
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
