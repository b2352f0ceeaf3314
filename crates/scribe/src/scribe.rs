//! The Scribe layer: a [`PastryApp`] that maintains per-group multicast
//! trees and offers multicast + anycast to a [`ScribeClient`].
//!
//! Trees are built exactly as published: a JOIN is routed toward the group
//! id, and every node on the route grafts the previous hop as a child,
//! becoming a forwarder if it was not already in the tree. The node whose
//! id is numerically closest to the group id is the rendezvous root.
//! Anycast performs a depth-first search of the tree, preferring
//! topologically close children — the property v-Bundle's Less-Loaded tree
//! relies on to find *nearby* load receivers (§III.C).

use std::collections::BTreeMap;

use vbundle_fdetect::{DedupWindow, FailureDetection, FailureDetector, Verdict};
use vbundle_obs::{Counter, FlightRecorder, Registry, Subsystem};
use vbundle_pastry::{AppCtx, Id, Key, NodeHandle, PastryApp, RouteDecision};
use vbundle_sim::{ActorId, Message, SimDuration, SimTime};

use crate::message::{AnycastEnvelope, ScribeMsg};
use crate::{GroupId, GroupState};

/// Timer tags at or above this value (and below the Pastry tag base) are
/// reserved for Scribe; clients must schedule with smaller tags.
pub const SCRIBE_TAG_BASE: u64 = 1 << 62;

const PROBE_TAG: u64 = SCRIBE_TAG_BASE + 1;

/// Tree-depth guard for multicast dissemination (64 levels): Scribe trees
/// are about `log16 N` deep, so only a forwarding loop ever reaches it.
const DISSEMINATE_TTL: u32 = 64;

/// Tunables of the Scribe layer.
#[derive(Debug, Clone)]
pub struct ScribeConfig {
    /// Anycast DFS step budget before the search reports failure.
    pub anycast_ttl: u32,
    /// If set, every in-tree node probes its parent at this interval; a
    /// bounce (dead parent) or a nack (parent pruned its state) triggers a
    /// re-join. This is Scribe's tree-repair mechanism driven from the
    /// child side. `None` disables probing — repair then relies on bounced
    /// application traffic alone.
    pub probe_interval: Option<SimDuration>,
    /// How parent-side child-link liveness is decided. The default,
    /// phi-accrual, adapts to each link's observed probe cadence and sends
    /// the child a [`ScribeMsg::ChildProbe`] before dropping the graft;
    /// [`FailureDetection::FixedInterval`] restores the legacy rule (drop
    /// after three silent probe rounds).
    pub child_detection: FailureDetection,
}

impl Default for ScribeConfig {
    fn default() -> Self {
        ScribeConfig {
            anycast_ttl: 4096,
            probe_interval: None,
            child_detection: FailureDetection::default(),
        }
    }
}

impl ScribeConfig {
    /// Enables child→parent tree probing at `interval`.
    pub fn with_probe_interval(mut self, interval: SimDuration) -> Self {
        self.probe_interval = Some(interval);
        self
    }
}

/// An application layered over Scribe (for v-Bundle: the aggregation
/// service and the resource-shuffling controller).
pub trait ScribeClient: Sized {
    /// The client's message type.
    type Msg: Message + Clone;

    /// The node started.
    fn on_start(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>) {
        let _ = ctx;
    }

    /// The hosting node was revived after a crash. Client state survived
    /// but all pending timers were purged; re-arm periodic timers here.
    /// Defaults to [`ScribeClient::on_start`].
    fn on_restart(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>) {
        self.on_start(ctx);
    }

    /// Screens an inbound client payload before Scribe processes it — the
    /// poison gate: called on direct client messages (the aggregation
    /// tree's upward reports), on Publishes reaching a root, and on
    /// Disseminates before they are delivered locally or forwarded to
    /// children. Returning `false` drops the message at the Scribe layer,
    /// so a poisoned report is neither combined upward nor fanned out
    /// downward. The default accepts everything.
    fn validate_payload(&mut self, msg: &Self::Msg) -> bool {
        let _ = msg;
        true
    }

    /// A multicast published to a group this node subscribes to arrived.
    fn deliver_multicast(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        msg: Self::Msg,
    );

    /// An anycast reached this group member. Return `true` to accept it
    /// (ending the search — the client is responsible for any reply to
    /// `origin`), `false` to pass it on.
    fn anycast_accept(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        msg: &Self::Msg,
        origin: NodeHandle,
    ) -> bool {
        let _ = (ctx, group, msg, origin);
        false
    }

    /// An anycast this node issued exhausted the tree without an acceptor.
    fn anycast_failed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, group, msg);
    }

    /// A direct client message arrived.
    fn on_direct(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        from: NodeHandle,
        msg: Self::Msg,
    ) {
        let _ = (ctx, from, msg);
    }

    /// A routed client message (sent with [`ScribeCtx::route_client`])
    /// arrived at this node — the one numerically closest to `key`.
    fn deliver_routed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        key: vbundle_pastry::Key,
        msg: Self::Msg,
        origin: NodeHandle,
    ) {
        let _ = (ctx, key, msg, origin);
    }

    /// A client timer fired.
    fn on_timer(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// The overlay declared a node dead.
    fn on_node_failed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        failed: NodeHandle,
    ) {
        let _ = (ctx, failed);
    }

    /// A direct client message could not be delivered.
    fn on_send_failure(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        to: ActorId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, to, msg);
    }

    /// A child was grafted below this node in `group`'s tree.
    fn on_child_added(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        child: NodeHandle,
    ) {
        let _ = (ctx, group, child);
    }

    /// A child was removed from `group`'s tree below this node.
    fn on_child_removed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        child: NodeHandle,
    ) {
        let _ = (ctx, group, child);
    }
}

enum Command<M> {
    Join(GroupId),
    Leave(GroupId),
    Multicast(GroupId, M),
    Anycast(GroupId, M),
}

/// Capabilities handed to [`ScribeClient`] upcalls.
///
/// Group mutations (join/leave/multicast/anycast) are queued and applied
/// after the upcall returns; reads reflect the state at upcall time.
pub struct ScribeCtx<'a, 'b, 'c, 'd, M: Message + Clone> {
    pastry: &'a mut AppCtx<'b, 'c, ScribeMsg<M>>,
    groups: &'a BTreeMap<u128, GroupState>,
    commands: &'d mut Vec<Command<M>>,
}

impl<'a, 'b, 'c, 'd, M: Message + Clone> ScribeCtx<'a, 'b, 'c, 'd, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.pastry.now()
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.pastry.rng()
    }

    /// The local node's handle.
    pub fn self_handle(&self) -> NodeHandle {
        self.pastry.self_handle()
    }

    /// Read access to the local Pastry routing state.
    pub fn pastry_state(&self) -> &vbundle_pastry::PastryState {
        self.pastry.state()
    }

    /// Physical proximity to another node (smaller = closer).
    pub fn proximity(&self, h: &NodeHandle) -> u32 {
        self.pastry.proximity(h)
    }

    /// Subscribes the local node to `group` (building tree state as
    /// needed).
    pub fn join(&mut self, group: GroupId) {
        self.commands.push(Command::Join(group));
    }

    /// Unsubscribes from `group`; pure forwarders prune themselves.
    pub fn leave(&mut self, group: GroupId) {
        self.commands.push(Command::Leave(group));
    }

    /// Multicasts `msg` to all members of `group`.
    pub fn multicast(&mut self, group: GroupId, msg: M) {
        self.commands.push(Command::Multicast(group, msg));
    }

    /// Anycasts `msg` into `group`: a DFS of the tree that stops at the
    /// first member accepting it, preferring physically close members.
    pub fn anycast(&mut self, group: GroupId, msg: M) {
        self.commands.push(Command::Anycast(group, msg));
    }

    /// Sends a direct client message to a known node.
    pub fn send_client(&mut self, to: NodeHandle, msg: M) {
        self.pastry.send_direct(to, ScribeMsg::Client(msg));
    }

    /// Routes a client message toward `key` through Pastry; it is
    /// delivered via [`ScribeClient::deliver_routed`] at the node
    /// numerically closest to the key. This is how v-Bundle's VM boot
    /// queries reach `hash(customer)` (§II.B).
    pub fn route_client(&mut self, key: vbundle_pastry::Key, msg: M) {
        self.pastry.route(key, ScribeMsg::Client(msg));
    }

    /// Sends a direct client message after an extra local delay (modelling
    /// per-node processing time, e.g. the 1–2 ms aggregation cost of
    /// Fig. 14).
    pub fn send_client_after(&mut self, to: NodeHandle, msg: M, extra: SimDuration) {
        self.pastry
            .send_direct_after(to, ScribeMsg::Client(msg), extra);
    }

    /// Arms a client timer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` collides with the reserved Scribe/Pastry tag space.
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        assert!(tag < SCRIBE_TAG_BASE, "timer tag collides with Scribe");
        self.pastry.schedule(delay, tag);
    }

    /// Whether the local node subscribed to `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.groups.get(&group.as_u128()).is_some_and(|g| g.member)
    }

    /// Whether the local node is `group`'s rendezvous root.
    pub fn is_root(&self, group: GroupId) -> bool {
        self.groups.get(&group.as_u128()).is_some_and(|g| g.root)
    }

    /// The local node's parent in `group`'s tree, if any.
    pub fn parent(&self, group: GroupId) -> Option<NodeHandle> {
        self.groups.get(&group.as_u128()).and_then(|g| g.parent)
    }

    /// Whether a child with id `child` is grafted below the local node in
    /// `group`'s tree.
    pub fn has_child(&self, group: GroupId, child: Id) -> bool {
        self.groups
            .get(&group.as_u128())
            .is_some_and(|g| g.has_child(child))
    }

    /// Whether the local node participates in `group`'s tree at all.
    pub fn in_tree(&self, group: GroupId) -> bool {
        self.groups
            .get(&group.as_u128())
            .is_some_and(|g| g.in_tree())
    }
}

/// The Scribe layer hosting a client of type `C`.
pub struct Scribe<C: ScribeClient> {
    groups: BTreeMap<u128, GroupState>,
    /// When each `(group, child id)` link last proved itself alive (a Join,
    /// re-Join or ParentProbe from the child). Links silent for three probe
    /// rounds are dropped, so a child that re-parented elsewhere (or died
    /// without a Leave) cannot stay grafted under a stale parent. Written
    /// only in [`FailureDetection::FixedInterval`] mode, the one that reads
    /// it.
    child_heard: BTreeMap<(u128, u128), SimTime>,
    /// Phi-accrual detector over `(group, child id)` links. `None` in
    /// [`FailureDetection::FixedInterval`] mode, where the three-round
    /// expiry over `child_heard` decides.
    child_detector: Option<FailureDetector<(u128, u128)>>,
    /// `(origin, nonce)` pairs of Publishes already disseminated by this
    /// root: a Publish duplicated in flight must not fan out twice under
    /// two sequence numbers.
    pub_seen: DedupWindow<(u128, u64)>,
    /// Nonce for the next Publish this node sends toward a root.
    next_pub_nonce: u64,
    /// Tree links dropped by parent-side expiry. An obs shard: detached by
    /// default, summed across nodes under `scribe/children_expired` once
    /// [`Scribe::attach_obs`] is called.
    children_expired: Counter,
    /// Flight-recorder handle for expiry events (disabled by default).
    flight: FlightRecorder,
    client: C,
    config: ScribeConfig,
}

/// Root-side memory of recently disseminated Publish nonces.
const PUB_DEDUP_WINDOW: usize = 128;

impl<C: ScribeClient> Scribe<C> {
    /// Creates a Scribe layer around `client`.
    pub fn new(client: C) -> Self {
        Scribe::with_config(client, ScribeConfig::default())
    }

    /// Creates a Scribe layer with explicit tunables.
    pub fn with_config(client: C, config: ScribeConfig) -> Self {
        let child_detector = match &config.child_detection {
            FailureDetection::FixedInterval => None,
            FailureDetection::PhiAccrual => Some(FailureDetector::new()),
        };
        Scribe {
            groups: BTreeMap::new(),
            child_heard: BTreeMap::new(),
            child_detector,
            pub_seen: DedupWindow::new(PUB_DEDUP_WINDOW),
            next_pub_nonce: 0,
            children_expired: Counter::default(),
            flight: FlightRecorder::disabled(),
            client,
            config,
        }
    }

    /// Attaches this layer to the shared observability planes: the expiry
    /// tally becomes a shard of `scribe/children_expired` in `registry`
    /// (summed across nodes on export) and expiry events are recorded on
    /// `flight`.
    pub fn attach_obs(&mut self, registry: &Registry, flight: &FlightRecorder) {
        self.children_expired = registry.scope("scribe").counter("children_expired");
        self.flight = flight.clone();
    }

    /// Tree links this node has dropped by parent-side expiry so far.
    pub fn children_expired(&self) -> u64 {
        self.children_expired.get()
    }

    /// Records proof of life for a `(group, child)` tree link.
    fn child_alive(&mut self, group: u128, child: u128, now: SimTime) {
        match self.child_detector.as_mut() {
            Some(det) => det.heartbeat((group, child), now),
            None => {
                self.child_heard.insert((group, child), now);
            }
        }
    }

    /// Drops all liveness state for a `(group, child)` tree link.
    fn child_gone(&mut self, group: u128, child: u128) {
        self.child_heard.remove(&(group, child));
        if let Some(det) = self.child_detector.as_mut() {
            det.forget(&(group, child));
        }
    }

    /// The hosted client.
    pub fn client(&self) -> &C {
        &self.client
    }

    /// Mutable access to the hosted client (prefer
    /// [`Scribe::client_call`] when it needs to send).
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.client
    }

    /// This node's state for `group`, if it participates in the tree.
    pub fn group(&self, group: GroupId) -> Option<&GroupState> {
        self.groups.get(&group.as_u128())
    }

    /// Ids of all groups this node holds state for.
    pub fn group_ids(&self) -> Vec<GroupId> {
        let mut ids: Vec<GroupId> = self.groups.keys().map(|&k| GroupId::from_u128(k)).collect();
        ids.sort();
        ids
    }

    /// Runs `f` against the client with a full [`ScribeCtx`] — the harness
    /// entry point (e.g. "subscribe this server to BW_Demand").
    pub fn client_call<R>(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        f: impl FnOnce(&mut C, &mut ScribeCtx<'_, '_, '_, '_, C::Msg>) -> R,
    ) -> R {
        let mut commands = Vec::new();
        let out = {
            let mut ctx = ScribeCtx {
                pastry,
                groups: &self.groups,
                commands: &mut commands,
            };
            f(&mut self.client, &mut ctx)
        };
        self.apply_all(pastry, commands);
        out
    }

    fn with_client<R>(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        f: impl FnOnce(&mut C, &mut ScribeCtx<'_, '_, '_, '_, C::Msg>) -> R,
    ) -> R {
        self.client_call(pastry, f)
    }

    fn apply_all(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        commands: Vec<Command<C::Msg>>,
    ) {
        for cmd in commands {
            match cmd {
                Command::Join(g) => self.apply_join(pastry, g),
                Command::Leave(g) => self.apply_leave(pastry, g),
                Command::Multicast(g, m) => self.apply_multicast(pastry, g, m),
                Command::Anycast(g, m) => self.apply_anycast(pastry, g, m),
            }
        }
    }

    fn apply_join(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let me = pastry.self_handle();
        let st = self.groups.entry(g.as_u128()).or_default();
        if st.member {
            return;
        }
        st.member = true;
        if st.root || st.parent.is_some() || !st.children().is_empty() {
            return; // already grafted as root or forwarder
        }
        pastry.route(
            g,
            ScribeMsg::Join {
                group: g,
                child: me,
            },
        );
    }

    fn apply_leave(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let Some(st) = self.groups.get_mut(&g.as_u128()) else {
            return;
        };
        if !st.member {
            return;
        }
        st.member = false;
        self.prune(pastry, g);
    }

    /// Drops tree state (telling the parent) if the node is a childless
    /// non-member non-root.
    fn prune(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let me = pastry.self_handle();
        let Some(st) = self.groups.get(&g.as_u128()) else {
            return;
        };
        if st.member || st.root || !st.children().is_empty() {
            return;
        }
        let parent = st.parent;
        self.groups.remove(&g.as_u128());
        self.child_heard.retain(|&(gk, _), _| gk != g.as_u128());
        if let Some(det) = self.child_detector.as_mut() {
            det.retain(|&(gk, _)| gk != g.as_u128());
        }
        if let Some(p) = parent {
            pastry.send_direct(
                p,
                ScribeMsg::Leave {
                    group: g,
                    child: me,
                },
            );
        }
    }

    fn apply_multicast(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        msg: C::Msg,
    ) {
        if self.groups.get(&g.as_u128()).is_some_and(|st| st.root) {
            // A node that became root while the true root was down is
            // superseded once the true root returns: routing then points
            // away from us. Demote instead of publishing a second stream
            // of sequence numbers under our own name.
            if self.is_stale_root(pastry, g) {
                self.demote_stale_root(pastry, g);
            } else {
                self.disseminate_as_root(pastry, g, msg);
                return;
            }
        }
        let origin = pastry.self_handle().id.as_u128();
        let nonce = self.next_pub_nonce;
        self.next_pub_nonce += 1;
        pastry.route(
            g,
            ScribeMsg::Publish {
                group: g,
                payload: msg,
                origin,
                nonce,
            },
        );
    }

    /// Whether this node holds root state for `g` although routing now
    /// resolves the group id to a different node.
    fn is_stale_root(&self, pastry: &AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) -> bool {
        self.groups.get(&g.as_u128()).is_some_and(|st| st.root)
            && matches!(pastry.state().route_decision(g), RouteDecision::Forward(_))
    }

    /// Steps down as root: re-enter the tree as an ordinary node (keeping
    /// any children, so the whole subtree reconnects through us) or prune
    /// if nothing keeps us in the group.
    fn demote_stale_root(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let me = pastry.self_handle();
        let mut rejoin = false;
        if let Some(st) = self.groups.get_mut(&g.as_u128()) {
            st.root = false;
            st.parent = None;
            rejoin = st.member || !st.children().is_empty();
        }
        if rejoin {
            pastry.route(
                g,
                ScribeMsg::Join {
                    group: g,
                    child: me,
                },
            );
        } else {
            self.prune(pastry, g);
        }
    }

    /// Root-side entry: stamp the next sequence number and fan out.
    fn disseminate_as_root(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        msg: C::Msg,
    ) {
        let me = pastry.self_handle().id.as_u128();
        let seq = {
            let st = self.groups.entry(g.as_u128()).or_default();
            st.root = true;
            let seq = st.next_seq;
            st.next_seq += 1;
            seq
        };
        self.handle_disseminate(pastry, g, msg, DISSEMINATE_TTL, seq, me);
    }

    fn apply_anycast(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        msg: C::Msg,
    ) {
        let me = pastry.self_handle();
        let env = AnycastEnvelope {
            group: g,
            payload: msg,
            origin: me,
            visited: Vec::new(),
            offered: Vec::new(),
            ttl: self.config.anycast_ttl,
        };
        if self.groups.get(&g.as_u128()).is_some_and(|st| st.in_tree()) {
            self.anycast_step(pastry, env);
        } else {
            pastry.route(g, ScribeMsg::Anycast(env));
        }
    }

    fn handle_disseminate(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        payload: C::Msg,
        ttl: u32,
        seq: u64,
        root: u128,
    ) {
        // Screen before delivering *or* forwarding: a Disseminate poisoned
        // on the link above us must not propagate to the whole subtree.
        if !self.client.validate_payload(&payload) {
            return;
        }
        let Some(st) = self.groups.get_mut(&g.as_u128()) else {
            return; // stale: we pruned since
        };
        // Duplicate suppression: repair can transiently double-graft a
        // node; sequence numbers are scoped to the publishing root.
        let duplicate = matches!(st.last_delivered, Some((r, s)) if r == root && s >= seq);
        if duplicate {
            return;
        }
        st.last_delivered = Some((root, seq));
        let member = st.member;
        if ttl > 0 {
            for &child in st.children() {
                pastry.send_direct(
                    child,
                    ScribeMsg::Disseminate {
                        group: g,
                        payload: payload.clone(),
                        ttl: ttl - 1,
                        seq,
                        root,
                    },
                );
            }
        }
        if member {
            self.with_client(pastry, |c, ctx| c.deliver_multicast(ctx, g, payload));
        }
    }

    fn anycast_step(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        mut env: AnycastEnvelope<C::Msg>,
    ) {
        let me = pastry.self_handle();
        let g = env.group;
        let Some(st) = self.groups.get(&g.as_u128()) else {
            // We pruned since the sender saw us; re-enter through routing.
            if env.ttl == 0 {
                self.anycast_fail(pastry, env);
                return;
            }
            env.ttl -= 1;
            pastry.route(g, ScribeMsg::Anycast(env));
            return;
        };
        if env.ttl == 0 {
            self.anycast_fail(pastry, env);
            return;
        }
        // Candidates at this node: the local member (if eligible) competes
        // with unvisited child subtrees, ordered by physical distance to
        // the *origin* — the paper's "prefers topologically closest
        // candidates among the target candidates", which keeps receivers
        // near the shedder and thus preserves the placement's locality.
        let topo = pastry.state().topology().clone();
        let origin_actor = env.origin.actor;
        let dist_to_origin = |actor: ActorId| -> u32 {
            if actor.index() < topo.num_servers() && origin_actor.index() < topo.num_servers() {
                topo.distance(
                    topo.server(actor.index()),
                    topo.server(origin_actor.index()),
                )
            } else {
                u32::MAX
            }
        };
        let already_visited = env.visited.contains(&me.actor);
        let self_eligible = st.member && !env.offered.contains(&me.actor) && me.id != env.origin.id;
        let (offer_local, next_child) = anycast_pick(
            self_eligible.then(|| dist_to_origin(me.actor)),
            st.children()
                .iter()
                .filter(|c| !env.visited.contains(&c.actor))
                .map(|&c| {
                    (
                        (dist_to_origin(c.actor), c.id.ring_distance(me.id).max(1)),
                        c,
                    )
                }),
        );
        if !already_visited {
            env.visited.push(me.actor);
        }
        if offer_local {
            let origin = env.origin;
            env.offered.push(me.actor);
            let accepted = self.with_client(pastry, |c, ctx| {
                c.anycast_accept(ctx, g, &env.payload, origin)
            });
            if accepted {
                return;
            }
            // Declined: fall through to the closest child subtree.
        }
        if let Some(c) = next_child {
            env.ttl -= 1;
            pastry.send_direct(c, ScribeMsg::AnycastStep(env));
            return;
        }
        // Exhausted here: backtrack to the parent, which scans its
        // remaining branches.
        let st = self.groups.get(&g.as_u128()).expect("state still present");
        match st.parent {
            Some(p) => {
                env.ttl -= 1;
                pastry.send_direct(p, ScribeMsg::AnycastStep(env));
            }
            None => self.anycast_fail(pastry, env),
        }
    }

    fn anycast_fail(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        env: AnycastEnvelope<C::Msg>,
    ) {
        let me = pastry.self_handle();
        if env.origin.id == me.id {
            self.with_client(pastry, |c, ctx| {
                c.anycast_failed(ctx, env.group, env.payload)
            });
        } else {
            pastry.send_direct(
                env.origin,
                ScribeMsg::AnycastFail {
                    group: env.group,
                    payload: env.payload,
                },
            );
        }
    }

    /// Drops every reference to a dead node and repairs trees: children are
    /// removed; a lost parent triggers a re-join for nodes still in the
    /// tree.
    fn repair_after_failure(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        failed_actor: ActorId,
    ) {
        let me = pastry.self_handle();
        let group_keys: Vec<u128> = self.groups.keys().copied().collect();
        for key in group_keys {
            let g = GroupId::from_u128(key);
            let mut removed_children = Vec::new();
            let mut lost_parent = false;
            {
                let st = self.groups.get_mut(&key).expect("group present");
                if st.parent.is_some_and(|p| p.actor == failed_actor) {
                    st.parent = None;
                    lost_parent = true;
                }
                let dead: Vec<NodeHandle> = st
                    .children()
                    .iter()
                    .copied()
                    .filter(|c| c.actor == failed_actor)
                    .collect();
                for d in dead {
                    st.remove_child(d.id);
                    removed_children.push(d);
                }
            }
            for d in removed_children {
                self.child_gone(key, d.id.as_u128());
                self.with_client(pastry, |c, ctx| c.on_child_removed(ctx, g, d));
            }
            if lost_parent {
                let st = self.groups.get(&key).expect("group present");
                if st.member || !st.children().is_empty() {
                    pastry.route(
                        g,
                        ScribeMsg::Join {
                            group: g,
                            child: me,
                        },
                    );
                } else {
                    self.prune(pastry, g);
                }
            }
        }
    }
}

impl<C: ScribeClient> PastryApp for Scribe<C> {
    type Msg = ScribeMsg<C::Msg>;

    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        if let Some(interval) = self.config.probe_interval {
            ctx.schedule(interval, PROBE_TAG);
        }
        self.with_client(ctx, |c, sctx| c.on_start(sctx));
    }

    fn on_joined(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        // Re-issue joins for groups subscribed before the overlay join
        // completed.
        let me = ctx.self_handle();
        for (&key, st) in &self.groups {
            if st.member && st.parent.is_none() && !st.root {
                let g = GroupId::from_u128(key);
                ctx.route(
                    g,
                    ScribeMsg::Join {
                        group: g,
                        child: me,
                    },
                );
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        if let Some(interval) = self.config.probe_interval {
            ctx.schedule(interval, PROBE_TAG);
        }
        // While we were down our parents pruned us and our children
        // re-parented elsewhere; both ends of every remembered tree link
        // are untrustworthy. Drop all children (live ones re-graft through
        // their own probes or re-joins), forget the parent, and re-join
        // every group we subscribe to; forwarder-only state is surrendered
        // with a Leave. Root state is kept: if another node took over as
        // root in the meantime, the stale-root check demotes whichever of
        // the two routing no longer favors.
        let me = ctx.self_handle();
        let mut dropped = Vec::new();
        let mut rejoins = Vec::new();
        let mut leaves = Vec::new();
        let mut gone = Vec::new();
        for (&key, st) in &mut self.groups {
            let g = GroupId::from_u128(key);
            dropped.extend(st.take_children().into_iter().map(|child| (g, child)));
            let parent = st.parent.take();
            if st.root {
                continue;
            }
            if st.member {
                rejoins.push(g);
            } else {
                if let Some(p) = parent {
                    leaves.push((p, g));
                }
                gone.push(key);
            }
        }
        for key in gone {
            self.groups.remove(&key);
        }
        self.child_heard.clear();
        if let Some(det) = self.child_detector.as_mut() {
            det.clear();
        }
        for (g, child) in dropped {
            self.with_client(ctx, |c, sctx| c.on_child_removed(sctx, g, child));
        }
        for (p, g) in leaves {
            ctx.send_direct(
                p,
                ScribeMsg::Leave {
                    group: g,
                    child: me,
                },
            );
        }
        for g in rejoins {
            ctx.route(
                g,
                ScribeMsg::Join {
                    group: g,
                    child: me,
                },
            );
        }
        self.with_client(ctx, |c, sctx| c.on_restart(sctx));
    }

    fn deliver(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        key: Key,
        msg: Self::Msg,
        origin: NodeHandle,
    ) {
        match msg {
            ScribeMsg::Join { group, child } => {
                debug_assert_eq!(key, group);
                // We are (numerically closest to) the rendezvous point.
                let me = ctx.self_handle();
                let now = ctx.now();
                let st = self.groups.entry(group.as_u128()).or_default();
                st.root = true;
                st.parent = None;
                if child.id != me.id {
                    let added = st.add_child(child);
                    self.child_alive(group.as_u128(), child.id.as_u128(), now);
                    if added {
                        self.with_client(ctx, |c, sctx| c.on_child_added(sctx, group, child));
                    }
                }
            }
            ScribeMsg::Publish {
                group,
                payload,
                origin,
                nonce,
            } => {
                // A Publish duplicated in flight must not fan out twice
                // under two root-assigned sequence numbers. Poisoned
                // payloads are dropped before they can fan out at all.
                if self.client.validate_payload(&payload) && self.pub_seen.remember((origin, nonce))
                {
                    self.disseminate_as_root(ctx, group, payload);
                }
            }
            ScribeMsg::Anycast(env) => self.anycast_step(ctx, env),
            ScribeMsg::Client(m) => {
                if self.client.validate_payload(&m) {
                    self.with_client(ctx, |c, sctx| c.deliver_routed(sctx, key, m, origin));
                }
            }
            // Direct-only variants should never arrive through routing.
            other => debug_assert!(false, "unexpected routed Scribe message: {other:?}"),
        }
    }

    fn forward(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        _key: Key,
        msg: Self::Msg,
        next: NodeHandle,
    ) -> Option<Self::Msg> {
        match msg {
            ScribeMsg::Join { group, child } => {
                let me = ctx.self_handle();
                if child.id == me.id {
                    // Our own join passing through: remember the parent.
                    let st = self.groups.entry(group.as_u128()).or_default();
                    st.parent = Some(next);
                    return Some(ScribeMsg::Join { group, child });
                }
                let now = ctx.now();
                let st = self.groups.entry(group.as_u128()).or_default();
                if st.in_tree() {
                    // Already grafted: adopt the child and stop the join.
                    let added = st.add_child(child);
                    self.child_alive(group.as_u128(), child.id.as_u128(), now);
                    if added {
                        self.with_client(ctx, |c, sctx| c.on_child_added(sctx, group, child));
                    }
                    None
                } else {
                    // Become a forwarder: adopt the child, keep joining
                    // toward the root under our own name.
                    st.parent = Some(next);
                    st.add_child(child);
                    self.child_alive(group.as_u128(), child.id.as_u128(), now);
                    self.with_client(ctx, |c, sctx| c.on_child_added(sctx, group, child));
                    Some(ScribeMsg::Join { group, child: me })
                }
            }
            ScribeMsg::Anycast(env) => {
                if self
                    .groups
                    .get(&env.group.as_u128())
                    .is_some_and(|st| st.in_tree())
                {
                    // First tree node on the route: start the DFS here.
                    self.anycast_step(ctx, env);
                    None
                } else {
                    Some(ScribeMsg::Anycast(env))
                }
            }
            other => Some(other),
        }
    }

    fn on_direct(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, from: NodeHandle, msg: Self::Msg) {
        match msg {
            ScribeMsg::Leave { group, child } => {
                let Some(st) = self.groups.get_mut(&group.as_u128()) else {
                    return;
                };
                if st.remove_child(child.id) {
                    self.child_gone(group.as_u128(), child.id.as_u128());
                    self.with_client(ctx, |c, sctx| c.on_child_removed(sctx, group, child));
                    self.prune(ctx, group);
                }
            }
            ScribeMsg::Disseminate {
                group,
                payload,
                ttl,
                seq,
                root,
            } => self.handle_disseminate(ctx, group, payload, ttl, seq, root),
            ScribeMsg::AnycastStep(env) => self.anycast_step(ctx, env),
            ScribeMsg::AnycastFail { group, payload } => {
                self.with_client(ctx, |c, sctx| c.anycast_failed(sctx, group, payload));
            }
            ScribeMsg::Client(m) => {
                if self.client.validate_payload(&m) {
                    self.with_client(ctx, |c, sctx| c.on_direct(sctx, from, m));
                }
            }
            ScribeMsg::ParentProbe { group, child } => {
                let in_tree = matches!(self.groups.get(&group.as_u128()), Some(st) if st.in_tree());
                if in_tree {
                    // Refresh the child link (it may have been dropped by
                    // an over-eager repair) and the liveness stamp that
                    // guards parent-side expiry.
                    let now = ctx.now();
                    let added = self
                        .groups
                        .get_mut(&group.as_u128())
                        .expect("group present")
                        .add_child(child);
                    self.child_alive(group.as_u128(), child.id.as_u128(), now);
                    if added {
                        self.with_client(ctx, |c, sctx| c.on_child_added(sctx, group, child));
                    }
                } else {
                    ctx.send_direct(child, ScribeMsg::ProbeNack { group });
                }
            }
            ScribeMsg::ProbeNack { group } => {
                // Our supposed parent has no tree state: re-join.
                let me = ctx.self_handle();
                let mut action = None;
                if let Some(st) = self.groups.get_mut(&group.as_u128()) {
                    if st.parent.is_some_and(|p| p.actor == from.actor) {
                        st.parent = None;
                        action = Some(st.member || !st.children().is_empty());
                    }
                }
                match action {
                    Some(true) => ctx.route(group, ScribeMsg::Join { group, child: me }),
                    Some(false) => self.prune(ctx, group),
                    None => {}
                }
            }
            ScribeMsg::ChildProbe { group } => {
                // Our parent's detector suspects us. If we still consider
                // the sender our parent, refute with an immediate probe;
                // otherwise confirm the graft is stale with a Leave.
                let me = ctx.self_handle();
                let still_child = self
                    .groups
                    .get(&group.as_u128())
                    .is_some_and(|st| st.parent.is_some_and(|p| p.actor == from.actor));
                if still_child {
                    ctx.send_direct(from, ScribeMsg::ParentProbe { group, child: me });
                } else {
                    ctx.send_direct(from, ScribeMsg::Leave { group, child: me });
                }
            }
            other => debug_assert!(false, "unexpected direct Scribe message: {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, tag: u64) {
        if tag < SCRIBE_TAG_BASE {
            self.with_client(ctx, |c, sctx| c.on_timer(sctx, tag));
        } else if tag == PROBE_TAG {
            let me = ctx.self_handle();
            for (&key, st) in &self.groups {
                if let Some(parent) = st.parent {
                    ctx.send_direct(
                        parent,
                        ScribeMsg::ParentProbe {
                            group: GroupId::from_u128(key),
                            child: me,
                        },
                    );
                }
            }
            // Parent-side expiry: a child that re-parented elsewhere (or
            // died without a Leave) stops probing us; drop the link so no
            // node stays grafted under two parents. Phi mode adapts to the
            // link's observed probe cadence and double-checks with a direct
            // ChildProbe before dropping; fixed mode expires after three
            // silent rounds.
            if let Some(interval) = self.config.probe_interval {
                let now = ctx.now();
                let mut expired: Vec<(GroupId, NodeHandle)> = Vec::new();
                if let Some(det) = self.child_detector.as_mut() {
                    for (&key, st) in &self.groups {
                        for &child in st.children() {
                            let link = (key, child.id.as_u128());
                            let estimate = interval + ctx.rtt_to(&child);
                            match det.evaluate_with_estimate(link, now, estimate) {
                                Verdict::Alive | Verdict::Suspect => {}
                                Verdict::NewlySuspect => ctx.send_direct(
                                    child,
                                    ScribeMsg::ChildProbe {
                                        group: GroupId::from_u128(key),
                                    },
                                ),
                                Verdict::Dead => expired.push((GroupId::from_u128(key), child)),
                            }
                        }
                    }
                    // Stop tracking links that disappeared without passing
                    // through child_gone (e.g. bulk drops on restart).
                    let groups = &self.groups;
                    det.retain(|&(g, c)| {
                        groups
                            .get(&g)
                            .is_some_and(|st| st.has_child(Id::from_u128(c)))
                    });
                } else {
                    let expiry = interval * 3;
                    let groups = &self.groups;
                    let child_heard = &mut self.child_heard;
                    for (&key, st) in groups {
                        for &child in st.children() {
                            let heard = child_heard.entry((key, child.id.as_u128())).or_insert(now);
                            if now.saturating_since(*heard) > expiry {
                                expired.push((GroupId::from_u128(key), child));
                            }
                        }
                    }
                }
                for (g, child) in expired {
                    let removed = self
                        .groups
                        .get_mut(&g.as_u128())
                        .is_some_and(|st| st.remove_child(child.id));
                    if removed {
                        self.children_expired.inc();
                        self.flight.event_with(
                            ctx.now().as_micros(),
                            ctx.self_handle().actor.index() as u32,
                            Subsystem::Scribe,
                            "child-expired",
                            || format!("group {g} child {}", child.id),
                        );
                        self.child_gone(g.as_u128(), child.id.as_u128());
                        self.with_client(ctx, |c, sctx| c.on_child_removed(sctx, g, child));
                        self.prune(ctx, g);
                    }
                }
            }
            // A root superseded while it was down may never multicast again
            // on its own; the probe round also retires stale roots so their
            // orphaned subtrees reconnect to the live tree.
            let stale: Vec<GroupId> = self
                .groups
                .keys()
                .map(|&k| GroupId::from_u128(k))
                .filter(|&g| self.is_stale_root(ctx, g))
                .collect();
            for g in stale {
                self.demote_stale_root(ctx, g);
            }
            if let Some(interval) = self.config.probe_interval {
                ctx.schedule(interval, PROBE_TAG);
            }
        }
    }

    fn on_node_failed(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, failed: NodeHandle) {
        self.repair_after_failure(ctx, failed.actor);
        self.with_client(ctx, |c, sctx| c.on_node_failed(sctx, failed));
    }

    fn on_send_failure(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        to: ActorId,
        msg: Self::Msg,
    ) {
        self.repair_after_failure(ctx, to);
        match msg {
            ScribeMsg::AnycastStep(mut env) => {
                // Resume the DFS from here, skipping the dead node.
                if !env.visited.contains(&to) {
                    env.visited.push(to);
                }
                self.anycast_step(ctx, env);
            }
            ScribeMsg::Client(m) => {
                self.with_client(ctx, |c, sctx| c.on_send_failure(sctx, to, m));
            }
            // Disseminate/Leave/AnycastFail to a dead node: repair above
            // already detached it; nothing further to do.
            _ => {}
        }
    }
}

/// One anycast DFS step's choice at a node: whether to offer the payload
/// to the local member, and which child subtree to descend into (right
/// away, or after the local member declines).
///
/// `local` is the local member's distance to the origin when it is
/// eligible; `children` yields each unvisited child with its `(distance to
/// origin, ring-distance tie)` key, ties at least 1. The local member ranks
/// as `(distance, 0)`, so it wins distance ties, and is offered only if it
/// ranks before the best child. Among children the first minimum wins.
fn anycast_pick<T>(
    local: Option<u32>,
    children: impl IntoIterator<Item = ((u32, u128), T)>,
) -> (bool, Option<T>) {
    let best = children.into_iter().min_by_key(|&(key, _)| key);
    let offer_local = match (local, &best) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(d), Some((key, _))) => (d, 0) < *key,
    };
    (offer_local, best.map(|(_, c)| c))
}

impl<C: ScribeClient> std::fmt::Debug for Scribe<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scribe")
            .field("groups", &self.groups.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selection `anycast_step` made before [`anycast_pick`]: collect
    /// every candidate, stable-sort by key, then walk the list — the local
    /// member is offered (and, here, declines) until the first child ends
    /// the step.
    fn sort_based_pick(
        local: Option<u32>,
        children: &[((u32, u128), usize)],
    ) -> (bool, Option<usize>) {
        #[derive(Clone, Copy)]
        enum Candidate {
            Local,
            Child(usize),
        }
        let mut candidates: Vec<(u32, u128, Candidate)> = Vec::new();
        if let Some(d) = local {
            candidates.push((d, 0, Candidate::Local));
        }
        for &((d, tie), c) in children {
            candidates.push((d, tie, Candidate::Child(c)));
        }
        candidates.sort_by_key(|&(d, tie, _)| (d, tie));
        let mut offered = false;
        for (_, _, cand) in candidates {
            match cand {
                Candidate::Local => offered = true,
                Candidate::Child(c) => return (offered, Some(c)),
            }
        }
        (offered, None)
    }

    #[test]
    fn local_member_wins_distance_ties() {
        assert_eq!(anycast_pick(Some(2), [((2, 1), 'a')]), (true, Some('a')));
        assert_eq!(anycast_pick(Some(3), [((2, 9), 'a')]), (false, Some('a')));
        assert_eq!(
            anycast_pick(Some(3), Vec::<((u32, u128), char)>::new()),
            (true, None)
        );
        assert_eq!(
            anycast_pick(None, [((1, 5), 'a'), ((1, 5), 'b')]),
            (false, Some('a'))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass pick agrees with the sort-based selection it
        /// replaced, ties included (small key ranges make them common).
        #[test]
        fn prop_anycast_pick_matches_sort_based_selection(
            local in 0u32..6,
            local_eligible in any::<bool>(),
            keys in proptest::collection::vec((0u32..4, 1u128..4), 0..24),
        ) {
            let local = local_eligible.then_some(local);
            let children: Vec<((u32, u128), usize)> =
                keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
            prop_assert_eq!(
                anycast_pick(local, children.iter().copied()),
                sort_based_pick(local, &children)
            );
        }
    }
}
