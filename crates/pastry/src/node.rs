//! The Pastry node actor and the application upcall interface.

use std::collections::HashMap;

use vbundle_fdetect::{backoff_rounds, FailureDetection, FailureDetector, Verdict};
use vbundle_obs::{Counter, FlightRecorder, Registry, Subsystem};
use vbundle_sim::{Actor, ActorId, Context as SimContext, Message, SimDuration, SimTime};

use crate::message::{PastryMsg, RouteEnvelope};
use crate::state::{PastryState, RouteDecision};
use crate::{Key, NodeHandle, PastryConfig};

/// Timer tags at or above this value are reserved for Pastry's own use;
/// applications must schedule with smaller tags.
pub const PASTRY_TAG_BASE: u64 = 1 << 63;

const HEARTBEAT_TAG: u64 = PASTRY_TAG_BASE;
const MAINTENANCE_TAG: u64 = PASTRY_TAG_BASE + 1;

/// Resurrection-probe budget per graveyard entry (see [`PastryNode`]'s
/// `departed` field). Probes back off exponentially (gaps of 1, 2, 2, …
/// maintenance rounds), so the budget covers a long healing horizon with
/// few messages.
const RESURRECTION_PROBES: u32 = 10;
/// Backoff cap exponent for resurrection probes: gaps saturate at
/// `2^RESURRECTION_BACKOFF_EXP` maintenance rounds.
const RESURRECTION_BACKOFF_EXP: u32 = 1;
/// Upper bound on remembered departed nodes (oldest evicted first).
const GRAVEYARD_CAP: usize = 32;
/// Routing loop guard (64 hops): a message past it is delivered where it
/// is. Prefix routing needs about `log16 N` hops, so only a corrupt
/// routing state ever reaches it.
const MAX_HOPS: u32 = 64;
/// Heartbeat rounds of silence after which the fixed-interval detector
/// declares a leaf-set peer dead (3): the legacy deadline kept as the
/// ablation baseline.
const FAILURE_MULTIPLIER: u32 = 3;
/// Intermediaries asked to ping a newly suspected leaf-set peer (SWIM's
/// `k` = 3): one lossy relay path cannot then evict a live peer.
const INDIRECT_PROBES: usize = 3;

/// An application layered over a Pastry node (for v-Bundle: Scribe).
///
/// The upcall set mirrors the published Pastry API: `deliver` fires at the
/// key's root, `forward` fires at every intermediate node (and may consume
/// or rewrite the message — Scribe builds its trees in exactly this hook).
pub trait PastryApp: Sized {
    /// The application's message type, carried opaquely by the overlay.
    type Msg: Message + Clone;

    /// The node started (state may still be empty if the node is joining).
    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        let _ = ctx;
    }

    /// The node completed a protocol join. (Nodes created with pre-built
    /// state are born joined and never receive this.)
    fn on_joined(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        let _ = ctx;
    }

    /// The hosting node was revived after a crash
    /// ([`Engine::restart`](vbundle_sim::Engine::restart)). State survived
    /// but all pending timers were purged; implementations should re-arm
    /// periodic timers and repair any protocol state that peers may have
    /// evolved past during the outage. Defaults to [`PastryApp::on_start`].
    fn on_restart(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        self.on_start(ctx);
    }

    /// A routed message reached the node responsible for `key`.
    fn deliver(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        key: Key,
        msg: Self::Msg,
        origin: NodeHandle,
    );

    /// A routed message is about to be forwarded to `next`. Return
    /// `Some(msg)` (possibly rewritten) to let it continue, or `None` to
    /// consume it here.
    fn forward(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        key: Key,
        msg: Self::Msg,
        next: NodeHandle,
    ) -> Option<Self::Msg> {
        let _ = (ctx, key, &next);
        Some(msg)
    }

    /// A direct (un-routed) message from a peer application.
    fn on_direct(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, from: NodeHandle, msg: Self::Msg) {
        let _ = (ctx, from, msg);
    }

    /// An application timer (scheduled with [`AppCtx::schedule`]) fired.
    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// The overlay declared `failed` dead (missed heartbeats or bounced
    /// sends). The application should drop any state referencing it.
    fn on_node_failed(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, failed: NodeHandle) {
        let _ = (ctx, failed);
    }

    /// A direct application message could not be delivered because the
    /// target actor failed.
    fn on_send_failure(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        to: ActorId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, to, msg);
    }
}

/// Capabilities handed to [`PastryApp`] upcalls: routing, direct sends,
/// timers and read access to the local routing state.
pub struct AppCtx<'a, 'b, M: Message + Clone> {
    sim: &'a mut SimContext<'b, PastryMsg<M>>,
    state: &'a PastryState,
}

impl<'a, 'b, M: Message + Clone> AppCtx<'a, 'b, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.sim.rng()
    }

    /// The local node's handle.
    pub fn self_handle(&self) -> NodeHandle {
        self.state.handle()
    }

    /// Read access to the local Pastry state (leaf set, routing table,
    /// neighbor set).
    pub fn state(&self) -> &PastryState {
        self.state
    }

    /// Physical proximity to another node (smaller = closer).
    pub fn proximity(&self, h: &NodeHandle) -> u32 {
        self.state.proximity(h.actor)
    }

    /// Estimated round-trip time to `h` under the installed latency model
    /// — seeds failure-detector cadence expectations.
    pub fn rtt_to(&self, h: &NodeHandle) -> SimDuration {
        self.sim.rtt_to(h.actor)
    }

    /// Routes `msg` toward `key` through the overlay, starting at the
    /// local node. Processing begins after a loopback delay, exactly as if
    /// the node had routed a received message.
    pub fn route(&mut self, key: Key, msg: M) {
        let env = RouteEnvelope {
            key,
            payload: msg,
            hops: 0,
            origin: self.state.handle(),
        };
        let me = self.state.handle().actor;
        self.sim.send(me, PastryMsg::Route(env));
    }

    /// Sends `msg` directly to a known node, bypassing routing.
    pub fn send_direct(&mut self, to: NodeHandle, msg: M) {
        self.send_direct_after(to, msg, SimDuration::ZERO);
    }

    /// Sends `msg` directly to a known node after an extra local delay
    /// (modelling per-node processing time) on top of network latency.
    pub fn send_direct_after(&mut self, to: NodeHandle, msg: M, extra: SimDuration) {
        let from = self.state.handle();
        self.sim
            .send_after(to.actor, PastryMsg::Direct { from, msg }, extra);
    }

    /// Arms an application timer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` collides with the reserved Pastry tag space
    /// (`tag >= PASTRY_TAG_BASE`).
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        assert!(tag < PASTRY_TAG_BASE, "timer tag collides with Pastry");
        self.sim.schedule(delay, tag);
    }
}

/// A Pastry overlay node hosting an application of type `A`.
///
/// Implements [`Actor`] for the simulation engine; see
/// [`overlay::launch`](crate::overlay::launch) for assembling a whole
/// overlay.
pub struct PastryNode<A: PastryApp> {
    state: PastryState,
    app: A,
    config: PastryConfig,
    joined: bool,
    bootstrap: Option<ActorId>,
    last_ack: HashMap<u128, SimTime>,
    /// Phi-accrual detector over leaf-set peers, keyed by node id. `None`
    /// in [`FailureDetection::FixedInterval`] mode, where the legacy
    /// `failure_multiplier × heartbeat` deadline over `last_ack` decides.
    detector: Option<FailureDetector<u128>>,
    /// Peers evicted by this node's own failure detector (either mode).
    /// Bounced-send evictions are not counted: under a lossy or partitioned
    /// network every detector eviction is a false positive, which is what
    /// the chaos harness measures. An obs shard: detached by default,
    /// summed across nodes under `pastry/evictions` once
    /// [`PastryNode::attach_obs`] is called.
    evictions: Counter,
    /// Flight-recorder handle for eviction events (disabled by default).
    flight: FlightRecorder,
    /// Recently-forgotten nodes as `(handle, probes_sent, rounds_to_next)`.
    /// A node declared dead because a partition swallowed its traffic is
    /// still running; maintenance rounds keep sending it leaf-set requests
    /// (with exponential backoff) so the rings re-merge once the network
    /// heals.
    departed: Vec<(NodeHandle, u32, u32)>,
}

impl<A: PastryApp> PastryNode<A> {
    /// Creates a node with pre-built routing state (the paper's
    /// "centralized certificate authority" mode, §II.B): the node is born
    /// joined.
    pub fn with_state(state: PastryState, app: A, config: PastryConfig) -> Self {
        let detector = Self::make_detector(&config);
        PastryNode {
            state,
            app,
            config,
            joined: true,
            bootstrap: None,
            last_ack: HashMap::new(),
            detector,
            evictions: Counter::default(),
            flight: FlightRecorder::disabled(),
            departed: Vec::new(),
        }
    }

    /// Creates a node with empty state that will join through `bootstrap`
    /// (a physically nearby, already-joined node) when started.
    pub fn joining(state: PastryState, bootstrap: ActorId, app: A, config: PastryConfig) -> Self {
        let detector = Self::make_detector(&config);
        PastryNode {
            state,
            app,
            config,
            joined: false,
            bootstrap: Some(bootstrap),
            last_ack: HashMap::new(),
            detector,
            evictions: Counter::default(),
            flight: FlightRecorder::disabled(),
            departed: Vec::new(),
        }
    }

    /// Attaches this node to the shared observability planes: the eviction
    /// tally becomes a shard of `pastry/evictions` in `registry` (summed
    /// across nodes on export; [`PastryNode::detector_evictions`] still
    /// reads this node's own share) and eviction events are recorded on
    /// `flight`.
    pub fn attach_obs(&mut self, registry: &Registry, flight: &FlightRecorder) {
        self.evictions = registry.scope("pastry").counter("evictions");
        self.flight = flight.clone();
    }

    fn make_detector(config: &PastryConfig) -> Option<FailureDetector<u128>> {
        match &config.failure_detection {
            FailureDetection::FixedInterval => None,
            FailureDetection::PhiAccrual => Some(FailureDetector::new()),
        }
    }

    /// How many peers this node's failure detector has evicted so far.
    /// Bounced sends (the engine telling us the target actor is dead) do
    /// not count: under lossy links or partitions, where no actor has
    /// actually crashed, this is exactly the false-positive eviction count.
    pub fn detector_evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// The node's routing state.
    pub fn state(&self) -> &PastryState {
        &self.state
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the hosted application. Prefer
    /// [`PastryNode::app_call`] when the application needs to send
    /// messages.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Whether the node has completed its join.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Announces this node's graceful departure to every peer it knows:
    /// they evict it immediately instead of waiting for failure
    /// detection. Call right before failing the actor.
    pub fn announce_departure(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>) {
        let me = self.state.handle();
        for peer in self.state.known_nodes() {
            ctx.send(peer.actor, PastryMsg::Depart(me));
        }
    }

    /// Runs `f` against the application with a full [`AppCtx`] — the
    /// harness entry point for injecting work (e.g. "boot this VM").
    pub fn app_call<R>(
        &mut self,
        ctx: &mut SimContext<'_, PastryMsg<A::Msg>>,
        f: impl FnOnce(&mut A, &mut AppCtx<'_, '_, A::Msg>) -> R,
    ) -> R {
        let mut app_ctx = AppCtx {
            sim: ctx,
            state: &self.state,
        };
        f(&mut self.app, &mut app_ctx)
    }

    fn handle_route(
        &mut self,
        ctx: &mut SimContext<'_, PastryMsg<A::Msg>>,
        mut env: RouteEnvelope<A::Msg>,
    ) {
        env.hops += 1;
        self.learn_firsthand(env.origin);
        let decision = if env.hops > MAX_HOPS {
            RouteDecision::DeliverHere
        } else {
            self.state.route_decision(env.key)
        };
        match decision {
            RouteDecision::DeliverHere => {
                let mut app_ctx = AppCtx {
                    sim: ctx,
                    state: &self.state,
                };
                self.app
                    .deliver(&mut app_ctx, env.key, env.payload, env.origin);
            }
            RouteDecision::Forward(next) => {
                let mut app_ctx = AppCtx {
                    sim: ctx,
                    state: &self.state,
                };
                if let Some(payload) = self.app.forward(&mut app_ctx, env.key, env.payload, next) {
                    env.payload = payload;
                    ctx.send(next.actor, PastryMsg::Route(env));
                }
            }
        }
    }

    fn handle_join(
        &mut self,
        ctx: &mut SimContext<'_, PastryMsg<A::Msg>>,
        newcomer: NodeHandle,
        hops: u32,
    ) {
        // Decide before learning the newcomer, or we would route to it.
        let decision = if hops >= MAX_HOPS {
            RouteDecision::DeliverHere
        } else {
            self.state.route_decision(newcomer.id)
        };
        let is_destination = matches!(decision, RouteDecision::DeliverHere)
            || matches!(decision, RouteDecision::Forward(h) if h.id == newcomer.id);
        // Contribute the routing rows the newcomer shares with us, plus our
        // neighbor set (physical locality) and, at the destination, our
        // leaf set (numeric locality).
        let mut contacts: Vec<NodeHandle> = Vec::new();
        let shared = self.state.id().shared_prefix_len(newcomer.id);
        for row in 0..=shared.min(crate::id::NUM_DIGITS - 1) {
            contacts.extend(self.state.routing_table().row(row));
        }
        contacts.extend(self.state.neighbor_set().members());
        if is_destination {
            contacts.extend(self.state.leaf_set().members());
        }
        contacts.retain(|c| c.id != newcomer.id);
        contacts.dedup_by_key(|c| c.id);
        ctx.send(
            newcomer.actor,
            PastryMsg::JoinState {
                from: self.state.handle(),
                contacts,
                is_destination,
            },
        );
        self.learn_firsthand(newcomer);
        if let RouteDecision::Forward(next) = decision {
            if next.id != newcomer.id {
                ctx.send(
                    next.actor,
                    PastryMsg::Join {
                        newcomer,
                        hops: hops + 1,
                    },
                );
            }
        }
    }

    fn complete_join(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>) {
        if self.joined {
            return;
        }
        self.joined = true;
        let me = self.state.handle();
        for peer in self.state.known_nodes() {
            ctx.send(peer.actor, PastryMsg::Announce(me));
        }
        let mut app_ctx = AppCtx {
            sim: ctx,
            state: &self.state,
        };
        self.app.on_joined(&mut app_ctx);
    }

    /// Learns `h` from a message `h` itself authored — firsthand proof of
    /// life, which also clears any tombstone so a resurrected or healed
    /// node is trusted again.
    fn learn_firsthand(&mut self, h: NodeHandle) {
        self.departed.retain(|(d, ..)| d.id != h.id);
        self.state.learn(h);
    }

    /// Learns `h` from another node's contact list. Secondhand mentions of
    /// a node we recently declared dead are ignored: peers with stale
    /// state would otherwise gossip the corpse back into our leaf set
    /// faster than heartbeats can evict it.
    fn learn_gossip(&mut self, h: NodeHandle) {
        if self.departed.iter().any(|(d, ..)| d.id == h.id) {
            return;
        }
        self.state.learn(h);
    }

    fn fail_node(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>, failed: NodeHandle) {
        if !self.state.forget(failed.id) {
            return;
        }
        self.last_ack.remove(&failed.id.as_u128());
        if let Some(det) = self.detector.as_mut() {
            det.forget(&failed.id.as_u128());
        }
        // Remember the departed for a while: if it was only unreachable (a
        // partition, not a crash), resurrection probes from the maintenance
        // loop will re-merge the rings once the network heals. The first
        // probe goes out on the next maintenance round.
        self.departed.retain(|(h, ..)| h.id != failed.id);
        self.departed.push((failed, 0, 1));
        if self.departed.len() > GRAVEYARD_CAP {
            self.departed.remove(0);
        }
        // Leaf-set repair: pull the leaf sets of the surviving extremes.
        let me = self.state.handle();
        for extreme in [
            self.state.leaf_set().cw_extreme(),
            self.state.leaf_set().ccw_extreme(),
        ]
        .into_iter()
        .flatten()
        {
            ctx.send(extreme.actor, PastryMsg::LeafSetRequest(me));
        }
        let mut app_ctx = AppCtx {
            sim: ctx,
            state: &self.state,
        };
        self.app.on_node_failed(&mut app_ctx, failed);
    }

    /// One routing-table maintenance round: ask a random known peer for
    /// the routing-table row corresponding to our shared prefix (the row
    /// most useful to us), as in Pastry's published maintenance task.
    fn maintenance_round(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>) {
        let Some(interval) = self.config.maintenance else {
            return;
        };
        let known = self.state.known_nodes();
        if !known.is_empty() {
            use rand::Rng;
            let peer = known[ctx.rng().gen_range(0..known.len())];
            let row = self.state.id().shared_prefix_len(peer.id) as u8;
            let me = self.state.handle();
            ctx.send(peer.actor, PastryMsg::RowRequest { from: me, row });
        }
        // Resurrection probes: leaf-set requests to recently-departed
        // nodes. A healed partition answers (re-merging the two rings); a
        // truly dead node bounces harmlessly. Probes back off exponentially
        // and each entry gets a finite budget so the graveyard drains.
        let me = self.state.handle();
        let mut departed = std::mem::take(&mut self.departed);
        departed.retain(|(h, ..)| !known.iter().any(|k| k.id == h.id));
        for (h, sent, cooldown) in &mut departed {
            if *cooldown > 1 {
                *cooldown -= 1;
                continue;
            }
            ctx.send(h.actor, PastryMsg::LeafSetRequest(me));
            *sent += 1;
            *cooldown = backoff_rounds(*sent, RESURRECTION_BACKOFF_EXP) as u32;
        }
        departed.retain(|&(_, sent, _)| sent < RESURRECTION_PROBES);
        self.departed = departed;
        ctx.schedule(interval, MAINTENANCE_TAG);
    }

    fn heartbeat_round(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>) {
        let Some(interval) = self.config.heartbeat else {
            return;
        };
        let now = ctx.now();
        let me = self.state.handle();
        let members = self.state.leaf_set().members();
        let mut dead = Vec::new();
        if let Some(detector) = self.detector.as_mut() {
            // Phi-accrual mode: suspicion adapts to each peer's observed
            // ack cadence; a suspect gets a SWIM-style indirect-probe round
            // and a confirmation grace before eviction.
            for member in &members {
                let key = member.id.as_u128();
                // Expected ack cadence: one ack per probe round, arriving
                // an RTT after the probe.
                let estimate = interval + ctx.rtt_to(member.actor);
                match detector.evaluate_with_estimate(key, now, estimate) {
                    Verdict::Alive | Verdict::Suspect => {
                        ctx.send(member.actor, PastryMsg::Heartbeat(me));
                    }
                    Verdict::NewlySuspect => {
                        ctx.send(member.actor, PastryMsg::Heartbeat(me));
                        // Ask the k leaf peers numerically closest to the
                        // suspect to ping it on our behalf: their paths may
                        // be up even if ours is lossy.
                        let mut relays: Vec<&NodeHandle> =
                            members.iter().filter(|h| h.id != member.id).collect();
                        relays.sort_by_key(|h| h.id.ring_distance(member.id));
                        for relay in relays.into_iter().take(INDIRECT_PROBES) {
                            ctx.send(
                                relay.actor,
                                PastryMsg::PingReq {
                                    origin: me,
                                    subject: *member,
                                },
                            );
                        }
                    }
                    Verdict::Dead => dead.push(*member),
                }
            }
            // Stop tracking peers that left the leaf set without an
            // explicit eviction (displaced by closer nodes).
            detector.retain(|key| members.iter().any(|h| h.id.as_u128() == *key));
        } else {
            // Legacy fixed-interval mode: a peer silent for
            // `FAILURE_MULTIPLIER` rounds is declared dead outright.
            let deadline = interval * FAILURE_MULTIPLIER as u64;
            for member in &members {
                let seen = *self.last_ack.entry(member.id.as_u128()).or_insert(now);
                if now.saturating_since(seen) > deadline {
                    dead.push(*member);
                } else {
                    ctx.send(member.actor, PastryMsg::Heartbeat(me));
                }
            }
        }
        for d in dead {
            self.evictions.inc();
            self.flight.event_with(
                ctx.now().as_micros(),
                ctx.self_id().index() as u32,
                Subsystem::Pastry,
                "evict",
                || format!("peer {}", d.id),
            );
            self.fail_node(ctx, d);
        }
        ctx.schedule(interval, HEARTBEAT_TAG);
    }
}

impl<A: PastryApp> Actor<PastryMsg<A::Msg>> for PastryNode<A> {
    fn on_start(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>) {
        if let Some(interval) = self.config.heartbeat {
            ctx.schedule(interval, HEARTBEAT_TAG);
        }
        if let Some(interval) = self.config.maintenance {
            ctx.schedule(interval, MAINTENANCE_TAG);
        }
        if let Some(bootstrap) = self.bootstrap {
            ctx.send(
                bootstrap,
                PastryMsg::Join {
                    newcomer: self.state.handle(),
                    hops: 0,
                },
            );
        }
        let mut app_ctx = AppCtx {
            sim: ctx,
            state: &self.state,
        };
        self.app.on_start(&mut app_ctx);
    }

    fn on_restart(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>) {
        // The crash purged our timers; re-arm both protocol loops.
        if let Some(interval) = self.config.heartbeat {
            ctx.schedule(interval, HEARTBEAT_TAG);
        }
        if let Some(interval) = self.config.maintenance {
            ctx.schedule(interval, MAINTENANCE_TAG);
        }
        // Acks recorded before the outage would read as ancient on the next
        // heartbeat round and trigger false failure verdicts; start fresh.
        self.last_ack.clear();
        if let Some(det) = self.detector.as_mut() {
            det.clear();
        }
        // Peers that declared us dead evicted us from their state; announce
        // ourselves so they re-learn us, and pull fresh leaf sets from the
        // extremes to pick up any membership change we slept through.
        let me = self.state.handle();
        for peer in self.state.known_nodes() {
            ctx.send(peer.actor, PastryMsg::Announce(me));
        }
        for extreme in [
            self.state.leaf_set().cw_extreme(),
            self.state.leaf_set().ccw_extreme(),
        ]
        .into_iter()
        .flatten()
        {
            ctx.send(extreme.actor, PastryMsg::LeafSetRequest(me));
        }
        let mut app_ctx = AppCtx {
            sim: ctx,
            state: &self.state,
        };
        self.app.on_restart(&mut app_ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut SimContext<'_, PastryMsg<A::Msg>>,
        _from: ActorId,
        msg: PastryMsg<A::Msg>,
    ) {
        match msg {
            PastryMsg::Route(env) => self.handle_route(ctx, env),
            PastryMsg::Direct { from, msg } => {
                self.learn_firsthand(from);
                let mut app_ctx = AppCtx {
                    sim: ctx,
                    state: &self.state,
                };
                self.app.on_direct(&mut app_ctx, from, msg);
            }
            PastryMsg::Join { newcomer, hops } => self.handle_join(ctx, newcomer, hops),
            PastryMsg::JoinState {
                from,
                contacts,
                is_destination,
            } => {
                self.learn_firsthand(from);
                for c in contacts {
                    self.learn_gossip(c);
                }
                if is_destination {
                    self.complete_join(ctx);
                }
            }
            PastryMsg::Announce(h) => {
                self.learn_firsthand(h);
            }
            PastryMsg::Heartbeat(h) => {
                self.learn_firsthand(h);
                let me = self.state.handle();
                ctx.send(h.actor, PastryMsg::HeartbeatAck(me));
            }
            PastryMsg::HeartbeatAck(h) => {
                self.departed.retain(|(d, ..)| d.id != h.id);
                self.last_ack.insert(h.id.as_u128(), ctx.now());
                if let Some(det) = self.detector.as_mut() {
                    det.heartbeat(h.id.as_u128(), ctx.now());
                }
            }
            PastryMsg::LeafSetRequest(h) => {
                self.learn_firsthand(h);
                let mut reply = self.state.leaf_set().members();
                reply.push(self.state.handle());
                ctx.send(h.actor, PastryMsg::LeafSetReply(reply));
            }
            PastryMsg::LeafSetReply(contacts) => {
                for c in contacts {
                    self.learn_gossip(c);
                }
            }
            PastryMsg::Depart(h) => {
                // A graceful goodbye: evict immediately and repair.
                self.fail_node(ctx, h);
            }
            PastryMsg::PingReq { origin, subject } => {
                // Relay the suspicion probe: if our path to the subject is
                // up, it will refute directly to the suspecting origin. If
                // the subject really is dead, our relayed ping bounces and
                // we evict it too.
                self.learn_firsthand(origin);
                ctx.send(subject.actor, PastryMsg::RelayPing { origin });
            }
            PastryMsg::RelayPing { origin } => {
                // We are the suspect: refute the suspicion at its source.
                let me = self.state.handle();
                ctx.send(origin.actor, PastryMsg::HeartbeatAck(me));
            }
            PastryMsg::RowRequest { from, row } => {
                self.learn_firsthand(from);
                let mut reply = self.state.routing_table().row(row as usize);
                reply.push(self.state.handle());
                ctx.send(from.actor, PastryMsg::RowReply(reply));
            }
            PastryMsg::RowReply(contacts) => {
                for c in contacts {
                    self.learn_gossip(c);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut SimContext<'_, PastryMsg<A::Msg>>, tag: u64) {
        if tag >= PASTRY_TAG_BASE {
            if tag == HEARTBEAT_TAG {
                self.heartbeat_round(ctx);
            } else if tag == MAINTENANCE_TAG {
                self.maintenance_round(ctx);
            }
        } else {
            let mut app_ctx = AppCtx {
                sim: ctx,
                state: &self.state,
            };
            self.app.on_timer(&mut app_ctx, tag);
        }
    }

    fn on_delivery_failure(
        &mut self,
        ctx: &mut SimContext<'_, PastryMsg<A::Msg>>,
        to: ActorId,
        msg: PastryMsg<A::Msg>,
    ) {
        // One node per actor: evict whatever we knew at that address.
        let dead: Vec<NodeHandle> = self
            .state
            .known_nodes()
            .into_iter()
            .filter(|h| h.actor == to)
            .collect();
        for d in dead {
            self.fail_node(ctx, d);
        }
        match msg {
            // Retry the payload along a (now repaired) alternative path.
            PastryMsg::Route(env) => self.handle_route(ctx, env),
            PastryMsg::Join { newcomer, hops } => {
                if newcomer.id != self.state.id() {
                    self.handle_join(ctx, newcomer, hops);
                } else if let Some(bootstrap) = self.bootstrap {
                    // Our own join bounced off a dead bootstrap; retry.
                    if bootstrap != to {
                        ctx.send(bootstrap, PastryMsg::Join { newcomer, hops: 0 });
                    }
                }
            }
            PastryMsg::Direct { msg, .. } => {
                let mut app_ctx = AppCtx {
                    sim: ctx,
                    state: &self.state,
                };
                self.app.on_send_failure(&mut app_ctx, to, msg);
            }
            _ => {}
        }
    }
}

impl<A: PastryApp> std::fmt::Debug for PastryNode<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PastryNode")
            .field("id", &self.state.id())
            .field("joined", &self.joined)
            .field("known", &self.state.known_nodes().len())
            .finish()
    }
}
