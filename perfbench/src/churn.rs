//! `churn`: failure plus trading under the combined feature set. 200
//! servers host 5 tenants × 300 VMs placed offline by survivable
//! placement with per-VM failover charges. 30% of VMs run hot above
//! their limit, so bundle trading and the spot market fire. Two racks of
//! one pod crash for good and failover re-materializes their VMs on the
//! other pod's backup headroom. Pastry heartbeats and maintenance, the
//! trade, market and failover paths of the controller, and the chaos
//! checks dominate; Pastry serves liveness here, not routing.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_chaos::{
    check_billing_conservation, check_entitlement_conservation, check_isolation_caps,
    customer_satisfaction, ChaosDriver, FaultPlan,
};
use vbundle_core::{
    reconcile, Cluster, ClusterModel, Customer, CustomerId, FailoverConfig, ResourceSpec,
    ResourceVector, SpotMarketConfig, SurvivabilityConfig, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::{overlay, PastryConfig};
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{SimDuration, SimTime};

use crate::measure::{self, min_restored_pct, pct, Digest, Rep};
use crate::meter::Meter;
use crate::trace::Tracer;

const PODS: u32 = 2;
const RACKS_PER_POD: u32 = 5;
const SERVERS_PER_RACK: u32 = 20;
const TENANTS: u32 = 5;
const VMS_PER_TENANT: usize = 300;
const MAX_FRAC_PER_DOMAIN: f64 = 0.5;
const BACKUP: f64 = 0.25;
/// Seconds per run slice: the update interval.
const SLICE_SECS: u64 = 5;
/// The two rack crashes and the end of the run, in simulated seconds.
const CRASHES: [u64; 2] = [61, 101];
const HORIZON_SECS: u64 = 180;

fn topology(racks_per_pod: u32) -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(PODS)
            .racks_per_pod(racks_per_pod)
            .servers_per_rack(SERVERS_PER_RACK)
            .build(),
    )
}

/// The workload's fabric and a smaller one (3 racks a pod) for the
/// scaling fit.
pub fn fabrics() -> (Arc<Topology>, Arc<Topology>) {
    (topology(RACKS_PER_POD), topology(RACKS_PER_POD.div_ceil(2)))
}

fn config() -> VBundleConfig {
    VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(SLICE_SECS))
        .with_rebalance_interval(SimDuration::from_secs(60))
        .with_bundle_trading(true)
        .with_survivability(SurvivabilityConfig {
            max_frac_per_domain: MAX_FRAC_PER_DOMAIN,
            backup: BACKUP,
        })
        .with_failover(FailoverConfig {
            probe_interval: SimDuration::from_secs(5),
        })
        .with_spot_market(SpotMarketConfig::default())
}

/// One repetition.
pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut meter = Meter::start();
    meter.begin();
    let setup = tr.open("setup");
    let topo = topology(RACKS_PER_POD);
    let ids = tr.span("pastry.assign_ids", || overlay::topology_aware_ids(&topo));
    let nic: ResourceVector = topo.capacity().into();
    let mut model = ClusterModel::new(Arc::clone(&topo), ids, nic);
    let spec = ResourceSpec::bandwidth(Bandwidth::from_mbps(50.0), Bandwidth::from_mbps(100.0));
    let customers: Vec<Customer> = (0..TENANTS)
        .map(|c| Customer::new(CustomerId(c), format!("tenant-{c}")))
        .collect();
    // Interleaved arrivals, as a shared cloud sees them.
    let placed: Vec<(VmRecord, vbundle_dcn::ServerId)> = tr.span("core.place", || {
        let mut out = Vec::new();
        for i in 0..VMS_PER_TENANT * TENANTS as usize {
            let customer = &customers[i % TENANTS as usize];
            let mut vm = VmRecord::new(VmId(i as u64), customer.id, spec);
            let mbps = if rng.gen_bool(0.3) {
                rng.gen_range(150.0..400.0)
            } else {
                rng.gen_range(5.0..45.0)
            };
            vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps));
            let host = model
                .place_survivable(customer.key, vm, MAX_FRAC_PER_DOMAIN, BACKUP)
                .expect("the fabric has room for every VM");
            out.push((vm, host));
        }
        out
    });
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = tr.span("core.cluster_build", || {
        Cluster::builder(Arc::clone(&topo))
            .pastry(pastry)
            .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
            .vbundle(config())
            .seed(seed)
            .build()
    });
    if tr.enabled() {
        cluster.engine.enable_profiling();
    }
    tr.span("core.seed", || {
        for &(vm, host) in &placed {
            cluster.install_vm(host, vm);
        }
        for charge in model.backup_charges() {
            cluster.install_backup_charge(charge.site, charge.vm, charge.primary, charge.amount);
        }
        cluster.reindex();
    });
    tr.close(setup);
    meter.end();
    rep.setup = meter.take();

    // Two distinct racks of one seeded pod: their backups sit in the
    // other pod, which never fails.
    let pod = rng.gen_range(0..PODS) as usize;
    let pod_racks: Vec<usize> = (0..topo.num_servers())
        .map(|s| topo.server(s))
        .filter(|&s| topo.pod_of(s).index() == pod)
        .map(|s| topo.rack_of(s).index())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let first = rng.gen_range(0..pod_racks.len());
    let second = (first + rng.gen_range(1..pod_racks.len())) % pod_racks.len();
    let crashed = [pod_racks[first], pod_racks[second]];
    let plan = FaultPlan::new(seed)
        .crash_rack(SimTime::from_secs(CRASHES[0]), crashed[0])
        .crash_rack(SimTime::from_secs(CRASHES[1]), crashed[1]);
    let protected = model
        .backup_charges()
        .iter()
        .filter(|c| crashed.contains(&topo.rack_of(c.primary).index()))
        .count() as f64;

    // The pre-crash baseline is read between slices, off the clock.
    let mut baseline = None;
    let run = tr.open("run");
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), plan);
    for slice in 1..=HORIZON_SECS / SLICE_SECS {
        let until = SimTime::from_secs(slice * SLICE_SECS);
        meter.begin();
        tr.span("run.slice", || driver.run_until(&mut cluster.engine, until));
        meter.end();
        if baseline.is_none() && (slice + 1) * SLICE_SECS > CRASHES[0] {
            baseline = Some(customer_satisfaction(&cluster.engine));
        }
    }
    rep.run = meter.take();
    tr.close(run);
    cluster.engine.take_injector();

    let expected: Vec<VmId> = placed.iter().map(|(vm, _)| vm.id).collect();
    let mut digest = Digest::new();
    measure::finish(
        &cluster,
        tr,
        &expected,
        HORIZON_SECS as f64,
        &mut rep,
        &mut digest,
    );

    let cap = SpotMarketConfig::default().isolation_cap;
    let violations = tr.span("chaos.check", || {
        let mut v = check_entitlement_conservation(&cluster.engine);
        v.extend(check_billing_conservation(&cluster.engine));
        v.extend(check_isolation_caps(&cluster.engine, cap));
        v
    });
    let rec = tr.span("market.reconcile", || {
        reconcile((0..cluster.num_servers()).map(|i| cluster.controller(i).billing()))
    });
    *rep.layer.entry("chaos.violations").or_default() += violations.len() as f64;
    rep.problems.extend(violations);
    rep.require(rec.balanced(), || {
        format!("churn: billing does not reconcile: {:?}", rec.violations)
    });
    digest.f64(rec.total_spend);
    digest.f64(rec.total_revenue);
    digest.f64(rec.total_fees);

    let c = rep.counts;
    // Evictions of crashed peers happen on bounced sends, which the
    // eviction counter leaves out, so heartbeat traffic is the guard.
    let heartbeats = rep.layer["pastry.maintenance_msgs"] > 0.0;
    rep.require(c.spot_trades > 0.0, || "churn guard: no spot trade".into());
    rep.require(c.fo_rematerialized > 0.0, || {
        "churn guard: no VM re-materialized".into()
    });
    rep.require(heartbeats, || "churn guard: no heartbeat traffic".into());
    let unborrowed = (c.trade_requests - c.leases_borrowed).max(0.0);
    let unrestored = (protected - c.fo_rematerialized).max(0.0);
    rep.attempted = protected as u64;
    rep.failed = unrestored as u64;
    rep.e2e.insert(
        "served_pct",
        100.0 - pct(unborrowed + unrestored, c.trade_requests + protected),
    );
    let baseline = baseline.expect("the run passes the first crash");
    rep.e2e.insert(
        "restored_sat_pct",
        min_restored_pct(&baseline, &customer_satisfaction(&cluster.engine)),
    );
    rep.layer.insert(
        "core.walk_per_boot",
        measure::ratio(c.boots_handled, c.fo_rematerialized),
    );
    if tr.enabled() {
        measure::traced_layers(&cluster, tr, &mut rep);
    }
    rep.digest = digest.finish();
    rep
}
