//! Differential tests of the bulk bootstrap: `overlay::build_states` must
//! give every node exactly the state the all-pairs construction gives it —
//! leaf-set order per side, routing-table slots and neighbor-set order
//! included. The all-pairs construction lives here, as the test oracle.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_dcn::Topology;
use vbundle_pastry::overlay::{self, IdAssignment};
use vbundle_pastry::{Id, NodeHandle, PastryConfig, PastryState};
use vbundle_sim::ActorId;

const LEAF_HALVES: [usize; 4] = [1, 4, 8, 12];

fn policies() -> [IdAssignment; 2] {
    [
        IdAssignment::TopologyAware,
        IdAssignment::Random { seed: 11 },
    ]
}

fn regular(pods: u32, racks_per_pod: u32, servers_per_rack: u32) -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(pods)
            .racks_per_pod(racks_per_pod)
            .servers_per_rack(servers_per_rack)
            .build(),
    )
}

fn config(leaf_half: usize) -> PastryConfig {
    PastryConfig::default().with_leaf_half(leaf_half)
}

/// The all-pairs construction: learn the ring neighbors `cw1, ccw1, cw2,
/// ccw2, …`, then every other node in ascending id order. `by_id` is the
/// overlay sorted by id.
fn reference_state(
    topo: &Arc<Topology>,
    by_id: &[NodeHandle],
    me: NodeHandle,
    config: &PastryConfig,
) -> PastryState {
    let n = by_id.len();
    let mut st = PastryState::new(me, Arc::clone(topo), config.leaf_half);
    let pos = by_id
        .binary_search_by_key(&me.id, |h| h.id)
        .expect("own handle present");
    for step in 1..=config.leaf_half.min(n - 1) {
        st.learn(by_id[(pos + step) % n]);
        st.learn(by_id[(pos + n - step) % n]);
    }
    for &other in by_id {
        if other.id != me.id {
            st.learn(other);
        }
    }
    st
}

fn assert_same_state(got: &PastryState, want: &PastryState, what: &str) {
    assert_eq!(got.handle(), want.handle(), "{what}: handle");
    assert_eq!(got.leaf_set(), want.leaf_set(), "{what}: leaf set");
    assert_eq!(
        got.routing_table(),
        want.routing_table(),
        "{what}: routing table"
    );
    assert_eq!(
        got.neighbor_set(),
        want.neighbor_set(),
        "{what}: neighbor set"
    );
}

/// Compares every `stride`-th node of `build_states` against the oracle.
fn assert_matches_reference(
    topo: &Arc<Topology>,
    handles: &[NodeHandle],
    config: &PastryConfig,
    stride: usize,
    case: &str,
) {
    let got = overlay::build_states(topo, handles, config);
    assert_eq!(got.len(), handles.len(), "{case}: node count");
    let mut by_id = handles.to_vec();
    by_id.sort_by_key(|h| h.id);
    for i in (0..handles.len()).step_by(stride) {
        let want = reference_state(topo, &by_id, handles[i], config);
        assert_same_state(&got[i], &want, &format!("{case}, node {i}"));
    }
}

/// Every id policy and each of `leaf_halves` on one topology.
fn assert_topology_matches(topo: &Arc<Topology>, leaf_halves: &[usize], stride: usize, case: &str) {
    for policy in policies() {
        let handles = overlay::handles_for(&overlay::assign_ids(topo, policy));
        for &leaf_half in leaf_halves {
            assert_matches_reference(
                topo,
                &handles,
                &config(leaf_half),
                stride,
                &format!("{case}, {policy:?}, leaf_half {leaf_half}"),
            );
        }
    }
}

#[test]
fn small_rings_match_reference() {
    for n in 1..=17u32 {
        // Racks of three in one pod, the last one partial.
        let sizes: Vec<u32> = (0..n.div_ceil(3)).map(|r| (n - 3 * r).min(3)).collect();
        let topo = Arc::new(Topology::builder().rack_sizes(&sizes).build());
        assert_topology_matches(&topo, &LEAF_HALVES, 1, &format!("{n} servers"));
    }
}

#[test]
fn thirteen_racks_of_seven_match_reference() {
    assert_topology_matches(&regular(13, 1, 7), &LEAF_HALVES, 1, "13 pods x 1 rack x 7");
    assert_topology_matches(&regular(1, 13, 7), &LEAF_HALVES, 1, "1 pod x 13 racks x 7");
}

#[test]
fn single_pod_matches_reference() {
    assert_topology_matches(&regular(1, 9, 11), &LEAF_HALVES, 1, "1 pod x 9 racks x 11");
}

#[test]
fn hundred_racks_of_twenty_match_reference() {
    // Leaf sets of 16 or more fill the neighbor set from the ring alone,
    // so only these take the candidate-replay path at this size; smaller
    // ones replay every node, which the rings above cover. Every 13th
    // node: 13 is coprime to the rack size, so the sample walks through
    // every rack slot, rack and pod edges included.
    assert_topology_matches(&regular(5, 20, 20), &[8, 12], 13, "5 pods x 20 racks x 20");
}

#[test]
fn handle_subsets_match_reference() {
    let topo = regular(3, 4, 6);
    for policy in policies() {
        let handles = overlay::handles_for(&overlay::assign_ids(&topo, policy));
        let strided: Vec<NodeHandle> = handles.iter().copied().step_by(3).collect();
        for leaf_half in LEAF_HALVES {
            let config = config(leaf_half);
            assert_matches_reference(&topo, &handles[..8], &config, 1, "first 8");
            assert_matches_reference(&topo, &strided, &config, 1, "every third");
        }
    }
}

#[test]
fn actors_outside_the_topology_match_reference() {
    // 24 servers, 40 nodes: actors 24..40 have no server, so every
    // proximity involving them is off-topology.
    let topo = regular(2, 3, 4);
    let ids = overlay::random_ids(40, 5);
    let handles = overlay::handles_for(&ids);
    // The same, with the in-topology nodes keeping topology-aware ids.
    let mut mixed = overlay::topology_aware_ids(&topo);
    mixed.extend(overlay::random_ids(16, 9));
    let mixed = overlay::handles_for(&mixed);
    for leaf_half in LEAF_HALVES {
        let config = config(leaf_half);
        assert_matches_reference(&topo, &handles, &config, 1, "random ids");
        assert_matches_reference(&topo, &mixed, &config, 1, "topology-aware + extra");
    }
}

#[test]
fn nodes_sharing_a_server_match_reference() {
    // Two nodes per server: the co-located one sits at proximity 0.
    let topo = regular(2, 3, 5);
    let ids = overlay::random_ids(2 * topo.num_servers(), 3);
    let handles: Vec<NodeHandle> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| NodeHandle::new(id, ActorId::new((i % topo.num_servers()) as u32)))
        .collect();
    for leaf_half in LEAF_HALVES {
        assert_matches_reference(&topo, &handles, &config(leaf_half), 1, "shared servers");
    }
}

fn handles_at(ids_and_actors: &[(u128, u32)]) -> Vec<NodeHandle> {
    ids_and_actors
        .iter()
        .map(|&(id, actor)| NodeHandle::new(Id::from_u128(id), ActorId::new(actor)))
        .collect()
}

#[test]
fn neighbor_set_boundary_ties_match_reference() {
    // One rack, so every proximity ties and ring distance decides. Around
    // `x` the ring neighbors are 1..=8 on one side and 2, 4, …, 14, 20 on
    // the other, which fill the set with the node at 20 as its worst. The
    // node at 20 on the first side ties it exactly and, learned later in
    // id order, displaces it. A node earlier in id order in its routing
    // slot wins that slot, so only the neighbor-set bound (inclusive at
    // the worst's distance) makes it a candidate.
    let topo = regular(1, 1, 20);
    let tie = |x: u128, side: fn(u128, u128) -> u128, other: fn(u128, u128) -> u128| {
        let mut nodes = vec![(x, 0)];
        nodes.extend((1..=8).map(|d| (side(x, d), d as u32)));
        nodes.extend([2, 4, 6, 8, 10, 12, 14, 20].map(|d| (other(x, d), 8 + d as u32 / 2)));
        nodes.push((side(x, 20), 17));
        nodes
    };
    // Clockwise: `x + 20` shares slot (28, 1) with `x + 8`.
    let cw = tie(
        (0x7 << 124) | 0x0FF8,
        u128::wrapping_add,
        u128::wrapping_sub,
    );
    assert_matches_reference(
        &topo,
        &handles_at(&cw),
        &PastryConfig::default(),
        1,
        "cw tie",
    );
    // Counter-clockwise: the ring wraps between `x` and `x - 20`, so the
    // tie comes last in id order; the node `2^124` below `x` takes its
    // slot (0, 0xF).
    let mut ccw = tie(10, u128::wrapping_sub, u128::wrapping_add);
    ccw.push((10u128.wrapping_sub(1 << 124), 18));
    assert_matches_reference(
        &topo,
        &handles_at(&ccw),
        &PastryConfig::default(),
        1,
        "ccw tie",
    );
}

#[test]
fn co_located_node_wins_routing_slot_past_the_neighbor_set() {
    // Node 10 of a 21-node cluster on server 0 fills its neighbor set with
    // co-located ring neighbors, so the set admits nobody farther. Slot
    // (0, 0xA) holds server 1's node first in id order and server 0's
    // node after it; the co-located one must win.
    let base = 0x5u128 << 124;
    let far = 0xAu128 << 124;
    let mut nodes: Vec<(u128, u32)> = (0..=20).map(|k| (base + k, 0)).collect();
    nodes.extend([(far + 1, 1), (far + 5, 0)]);
    let topo = regular(1, 1, 2);
    assert_matches_reference(
        &topo,
        &handles_at(&nodes),
        &PastryConfig::default(),
        1,
        "co-located",
    );
}

/// Tier-1 scale tripwire: a topology-aware 8,000-server overlay builds in
/// seconds even unoptimized, where an all-pairs construction would take
/// minutes; 64 evenly spaced nodes are checked against the oracle.
#[test]
fn eight_thousand_servers_spot_check_against_reference() {
    let topo = regular(8, 25, 40);
    let handles = overlay::handles_for(&overlay::topology_aware_ids(&topo));
    let stride = handles.len() / 64;
    assert_matches_reference(&topo, &handles, &PastryConfig::default(), stride, "8k");
}

#[test]
fn random_ids_keep_the_draw_order() {
    let (n, seed) = (2_000, 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut want: Vec<Id> = Vec::with_capacity(n);
    while want.len() < n {
        let id = Id::from_u128(rng.gen());
        if !want.contains(&id) {
            want.push(id);
        }
    }
    assert_eq!(overlay::random_ids(n, seed), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_build_states_matches_reference(
        seed in any::<u64>(),
        pods in 1u32..4,
        racks in 1u32..6,
        servers_per_rack in 1u32..10,
        leaf_half in 1usize..13,
        random in any::<bool>(),
    ) {
        let topo = regular(pods, racks, servers_per_rack);
        let policy = if random {
            IdAssignment::Random { seed }
        } else {
            IdAssignment::TopologyAware
        };
        let handles = overlay::handles_for(&overlay::assign_ids(&topo, policy));
        assert_matches_reference(&topo, &handles, &config(leaf_half), 1, &format!("{policy:?}"));
    }
}
