//! What every workload measures once its simulated span has run: the
//! outcome digest, the shared end-to-end metrics, the layer counters and
//! the correctness checks common to all workloads.

use std::collections::BTreeMap;
use std::sync::Arc;

use vbundle_chaos::{check_capacity, check_vm_conservation};
use vbundle_core::{metrics, Cluster, VmId};
use vbundle_dcn::Topology;
use vbundle_obs::HotSection;
use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
use vbundle_sim::ActorId;

use crate::meter::Timing;
use crate::trace::Tracer;

/// Named metric values of one repetition.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one repetition of a workload produced.
#[derive(Default)]
pub struct Rep {
    /// Host time from topology to a started, seeded cluster.
    pub setup: Timing,
    /// Host time for the fixed simulated span.
    pub run: Timing,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Gate violations and coverage-guard misses; any entry fails the run.
    pub problems: Vec<String>,
    /// FNV-1a digest of the modelled outcome.
    pub digest: u64,
    /// Simulated end-to-end metrics (deterministic per seed).
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layer: Metrics,
    /// Controller counters summed over the cluster.
    pub counts: Counts,
}

impl Rep {
    /// Records a problem unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// 64-bit FNV-1a over the outcome's canonical byte stream.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A 20-servers-per-rack fabric with `racks` racks, at most ten racks to
/// a pod — the shape `vbundle_sim` builds for a given server count.
pub fn fabric(racks: u32) -> Arc<Topology> {
    let pods = racks.div_ceil(10).max(1);
    Arc::new(
        Topology::builder()
            .pods(pods)
            .racks_per_pod(racks.div_ceil(pods))
            .servers_per_rack(20)
            .build(),
    )
}

fn alive(cluster: &Cluster, server: usize) -> bool {
    cluster.engine.is_alive(ActorId::new(server as u32))
}

/// Share of `part` in `whole`, as a percentage (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Ratio `a / b` (0 when `b` is 0).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Lowest per-tenant ratio of `now` to `base` satisfied demand, as a
/// percentage; tenants with no baseline are skipped.
pub fn min_restored_pct(base: &BTreeMap<u32, f64>, now: &BTreeMap<u32, f64>) -> f64 {
    base.iter()
        .filter(|(_, &b)| b > 1e-9)
        .map(|(c, &b)| pct(now.get(c).copied().unwrap_or(0.0), b))
        .fold(f64::INFINITY, f64::min)
}

/// The shared end of every workload: reads the outcome of the simulated
/// span, checks VM conservation and capacity against `expected`, and
/// fills the shared end-to-end metrics, layer counters and digest.
/// Crashed servers are excluded from every outcome metric.
pub fn finish(
    cluster: &Cluster,
    tr: &mut Tracer,
    expected: &[VmId],
    sim_secs: f64,
    rep: &mut Rep,
    digest: &mut Digest,
) {
    let n = cluster.num_servers();
    let utils = tr.span("core.utilizations", || cluster.utilizations());
    let live_utils: Vec<f64> = (0..n)
        .filter(|&i| alive(cluster, i))
        .map(|i| utils[i])
        .collect();
    let (demand, satisfied) = tr.span("core.satisfaction", || {
        if (0..n).all(|i| alive(cluster, i)) {
            let t = cluster.satisfaction();
            (t.demand.as_mbps(), t.satisfied.as_mbps())
        } else {
            let (mut d, mut s) = (0.0, 0.0);
            for i in (0..n).filter(|&i| alive(cluster, i)) {
                for a in cluster.controller(i).allocations() {
                    d += a.demand.as_mbps();
                    s += a.granted.as_mbps();
                }
            }
            (d, s)
        }
    });

    // Placements on live servers, in VM order, for the digest and the
    // same-rack share.
    let mut placed: Vec<(u64, u32, usize)> = cluster
        .placements()
        .into_iter()
        .filter(|&(_, _, s)| alive(cluster, s.index()))
        .map(|(vm, c, s)| (vm.0, c.0, s.index()))
        .collect();
    placed.sort_unstable();
    let mut per_rack: BTreeMap<(u32, usize), u64> = BTreeMap::new();
    let mut per_customer: BTreeMap<u32, u64> = BTreeMap::new();
    for &(vm, c, s) in &placed {
        *per_rack
            .entry((c, cluster.topo.rack_of(cluster.topo.server(s)).index()))
            .or_default() += 1;
        *per_customer.entry(c).or_default() += 1;
        digest.u64(vm);
        digest.u64(u64::from(c));
        digest.u64(s as u64);
    }
    let pairs = |k: u64| (k * k.saturating_sub(1) / 2) as f64;
    let same_rack: f64 = per_rack.values().map(|&k| pairs(k)).sum();
    let all_pairs: f64 = per_customer.values().map(|&k| pairs(k)).sum();
    for &u in &utils {
        digest.f64(u);
    }

    let violations = tr.span("chaos.check", || {
        let mut v = check_vm_conservation(&cluster.engine, expected);
        v.extend(check_capacity(&cluster.engine));
        v
    });
    rep.layer
        .insert("chaos.violations", violations.len() as f64);
    rep.problems.extend(violations);

    let export = tr.span("obs.export", || cluster.metrics_json());
    digest.bytes(export.as_bytes());

    let engine = &cluster.engine;
    let sends = engine.counter_totals();
    rep.e2e.insert("sd_after", metrics::std_dev(&live_utils));
    rep.e2e.insert("satisfied_pct", pct(satisfied, demand));
    rep.e2e.insert("same_rack_pct", pct(same_rack, all_pairs));
    rep.e2e.insert(
        "msgs_per_server_s",
        sends.total_msgs() as f64 / n as f64 / sim_secs,
    );

    let registry = engine.metrics();
    let counter = |name: &str| registry.counter_value(name).unwrap_or(0) as f64;
    let mut sum = Counts::default();
    for i in 0..n {
        sum.add(cluster, i);
    }
    let l = &mut rep.layer;
    l.insert("sim.events", engine.events_processed() as f64);
    l.insert("sim.queue_peak", engine.queue_peak() as f64);
    l.insert("pastry.maintenance_msgs", sends.maintenance_msgs as f64);
    l.insert("pastry.maintenance_bytes", sends.maintenance_bytes as f64);
    l.insert("pastry.evictions", counter("pastry/evictions"));
    l.insert(
        "scribe.children_expired",
        counter("scribe/children_expired"),
    );
    l.insert("aggregation.rejected", sum.rejected_aggregates);
    l.insert(
        "aggregation.conservative_intervals",
        sum.conservative_intervals,
    );
    l.insert("core.payload_msgs", sends.payload_msgs as f64);
    l.insert("core.payload_bytes", sends.payload_bytes as f64);
    l.insert("core.queries_sent", sum.queries_sent);
    l.insert("core.anycast_failures", sum.anycast_failures);
    l.insert("core.migrations", sum.migrations_in);
    l.insert("core.migrations_failed", sum.migrations_failed);
    l.insert("core.fo_declared", sum.fo_declared);
    l.insert("core.fo_rematerialized", sum.fo_rematerialized);
    l.insert("core.fo_fences_sent", sum.fo_fences_sent);
    l.insert("trade.requests", sum.trade_requests);
    l.insert("trade.grants", sum.trade_grants);
    l.insert("trade.grants_rejected", sum.trade_grants_rejected);
    l.insert(
        "trade.grant_use_ratio",
        ratio(sum.leases_borrowed, sum.trade_grants),
    );
    l.insert("trade.leases_reverted", sum.leases_reverted);
    l.insert("market.spot_asks", sum.spot_asks);
    l.insert("market.spot_trades", sum.spot_trades);
    l.insert("market.trade_ratio", ratio(sum.spot_trades, sum.spot_asks));
    l.insert("market.billing_reversals", sum.billing_reversals);
    rep.counts = sum;
}

/// Controller counters summed over every server, crashed ones included
/// (their tallies froze at the crash).
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub boots_handled: f64,
    pub queries_sent: f64,
    pub anycast_failures: f64,
    pub migrations_out: f64,
    pub migrations_in: f64,
    pub migrations_failed: f64,
    pub rejected_aggregates: f64,
    pub conservative_intervals: f64,
    pub fo_declared: f64,
    pub fo_rematerialized: f64,
    pub fo_fences_sent: f64,
    pub trade_requests: f64,
    pub trade_grants: f64,
    pub trade_grants_rejected: f64,
    pub leases_borrowed: f64,
    pub leases_reverted: f64,
    pub spot_asks: f64,
    pub spot_trades: f64,
    pub billing_reversals: f64,
}

impl Counts {
    fn add(&mut self, cluster: &Cluster, server: usize) {
        let c = cluster.controller(server);
        let s = &c.stats;
        let t = &c.trade_book().stats;
        let m = &c.market_stats;
        self.boots_handled += s.boots_handled as f64;
        self.queries_sent += s.queries_sent as f64;
        self.anycast_failures += s.anycast_failures as f64;
        self.migrations_out += s.migrations_out as f64;
        self.migrations_in += s.migrations_in as f64;
        self.migrations_failed += s.migrations_failed as f64;
        self.rejected_aggregates += s.rejected_aggregates.get() as f64;
        self.conservative_intervals += s.conservative_intervals as f64;
        self.fo_declared += s.fo_domains_declared.get() as f64;
        self.fo_rematerialized += s.fo_rematerialized.get() as f64;
        self.fo_fences_sent += s.fo_fences_sent.get() as f64;
        self.trade_requests += t.requests_sent.get() as f64;
        self.trade_grants += t.grants_sent.get() as f64;
        self.trade_grants_rejected += t.grants_rejected.get() as f64;
        self.leases_borrowed += t.leases_borrowed.get() as f64;
        self.leases_reverted += t.leases_reverted.get() as f64;
        self.spot_asks += m.spot_asks.get() as f64;
        self.spot_trades += m.spot_trades.get() as f64;
        self.billing_reversals += m.billing_reversals.get() as f64;
    }
}

/// Per-layer timings only the traced run has: the spans this repetition
/// recorded and the engine profiler's hot-path split.
pub fn traced_layers(cluster: &Cluster, tr: &Tracer, rep: &mut Rep) {
    let rounds = tr.durations_s("run.slice");
    let events = cluster.engine.events_processed().max(1) as f64;
    let l = &mut rep.layer;
    l.insert("core.cluster_build_s", tr.total_s("core.cluster_build"));
    l.insert("core.seed_s", tr.total_s("core.seed"));
    l.insert("core.place_s", tr.total_s("core.place"));
    l.insert("core.round_s_p50", median(&rounds));
    l.insert(
        "core.round_s_max",
        rounds.iter().copied().fold(0.0, f64::max),
    );
    l.insert("core.satisfaction_s", tr.total_s("core.satisfaction"));
    l.insert("core.utilizations_s", tr.total_s("core.utilizations"));
    l.insert("chaos.check_s", tr.total_s("chaos.check"));
    l.insert("market.reconcile_s", tr.total_s("market.reconcile"));
    l.insert("obs.export_s", tr.total_s("obs.export"));
    if let Some(p) = cluster.engine.profiler() {
        let ns = |s: HotSection| p.stats(s).total_ns as f64;
        l.insert(
            "sim.queue_pop_ns_per_event",
            ns(HotSection::QueuePop) / events,
        );
        l.insert(
            "sim.dispatch_ns_per_event",
            ns(HotSection::Dispatch) / events,
        );
        l.insert("sim.far_promote_ns", ns(HotSection::FarPromote));
    }
}

/// Times `overlay::build_states` at the workload's size and at about
/// half of it (median of three builds each) and fits the scaling
/// exponent `ln(t_full / t_small) / ln(n_full / n_small)`.
pub fn build_states_probe(
    full: &Arc<Topology>,
    small: &Arc<Topology>,
    tr: &mut Tracer,
    rep: &mut Rep,
) {
    let config = PastryConfig::default();
    let mut time = |topo: &Arc<Topology>| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let ids = overlay::assign_ids(topo, IdAssignment::TopologyAware);
                let handles = overlay::handles_for(&ids);
                let start = std::time::Instant::now();
                let states = tr.span("pastry.build_states", || {
                    overlay::build_states(topo, &handles, &config)
                });
                let secs = start.elapsed().as_secs_f64();
                drop(std::hint::black_box(states));
                secs
            })
            .collect();
        median(&samples)
    };
    let t_full = time(full);
    let t_small = time(small);
    let sizes = full.num_servers() as f64 / small.num_servers() as f64;
    rep.layer.insert("pastry.build_states_s", t_full);
    rep.layer.insert(
        "pastry.build_states_exp",
        (t_full / t_small).ln() / sizes.ln(),
    );
}
