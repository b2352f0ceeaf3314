//! `boot_storm`: online Figs. 7–8 placement through the protocol. An
//! empty 2,000-server cluster receives 10,000 boot requests for the
//! paper's five customers, open-loop at 50 per simulated second, then
//! drains. Each boot reserves 50 Mbps under a 100 Mbps limit and enters
//! at a seeded random server. Pastry routing to the customer key and the
//! controller's placement walk dominate; aggregation and rebalancing
//! barely run.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_chaos::customer_satisfaction;
use vbundle_core::{Cluster, Customer, ResourceSpec, ResourceVector, VBundleConfig, VmId};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_sim::{SimDuration, SimTime};

use crate::measure::{self, fabric, min_restored_pct, pct, Digest, Rep};
use crate::meter::Meter;
use crate::trace::Tracer;

const RACKS: u32 = 100;
const BOOTS: u64 = 10_000;
const PER_SECOND: u64 = 50;
/// Simulated time after the last arrival for in-flight boots to land.
const DRAIN_SECS: u64 = 30;
/// Simulated seconds per run slice.
const SLICE_SECS: u64 = 10;

/// The workload's fabric and the half-size one for the scaling fit.
pub fn fabrics() -> (Arc<Topology>, Arc<Topology>) {
    (fabric(RACKS), fabric(RACKS / 2))
}

/// One seeded boot request.
struct Boot {
    entry: usize,
    customer: usize,
    demand: ResourceVector,
}

/// The seeded arrival stream: entry server, customer and demand per
/// boot. Demand spans 20–150 Mbps, so some VMs want more than their
/// limit and the shaper leaves a shortfall.
fn arrivals(seed: u64, servers: usize) -> Vec<Boot> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..BOOTS)
        .map(|_| Boot {
            entry: rng.gen_range(0..servers),
            customer: rng.gen_range(0..5),
            demand: ResourceVector::bandwidth_only(Bandwidth::from_mbps(
                rng.gen_range(20.0..150.0),
            )),
        })
        .collect()
}

/// One repetition.
pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut meter = Meter::start();
    meter.begin();
    let setup = tr.open("setup");
    let topo = fabric(RACKS);
    let mut cluster = tr.span("core.cluster_build", || {
        Cluster::builder(Arc::clone(&topo))
            .vbundle(VBundleConfig::default())
            .seed(seed)
            .build()
    });
    if tr.enabled() {
        cluster.engine.enable_profiling();
    }
    tr.close(setup);
    meter.end();
    rep.setup = meter.take();

    let customers = Customer::paper_five();
    let boots = arrivals(seed, topo.num_servers());
    let spec = ResourceSpec::bandwidth(Bandwidth::from_mbps(50.0), Bandwidth::from_mbps(100.0));
    let gap = SimDuration::from_micros(1_000_000 / PER_SECOND);
    let first = SimTime::from_secs(1);
    // request id → (entry, vm), to match answers against requests.
    let mut sent: BTreeMap<u64, (usize, VmId)> = BTreeMap::new();

    let run = tr.open("run");
    let per_slice = (PER_SECOND * SLICE_SECS) as usize;
    for (slice, batch) in boots.chunks(per_slice).enumerate() {
        meter.begin();
        tr.span("run.slice", || {
            for (k, boot) in batch.iter().enumerate() {
                let i = (slice * per_slice + k) as u64;
                cluster.run_until(first + gap * i);
                let (request, vm) =
                    cluster.request_boot(boot.entry, &customers[boot.customer], spec, boot.demand);
                sent.insert(request, (boot.entry, vm));
            }
        });
        meter.end();
    }
    let arrivals_end = first + gap * BOOTS;
    meter.begin();
    tr.span("run.slice", || cluster.run_until(arrivals_end));
    meter.end();
    let baseline = customer_satisfaction(&cluster.engine);
    for s in 1..=DRAIN_SECS / SLICE_SECS {
        let until = arrivals_end + SimDuration::from_secs(s * SLICE_SECS);
        meter.begin();
        tr.span("run.slice", || cluster.run_until(until));
        meter.end();
    }
    rep.run = meter.take();
    tr.close(run);

    // Every answer, collected once from the entry servers' stats.
    let mut answers: BTreeMap<u64, (VmId, Option<usize>)> = BTreeMap::new();
    let entries: std::collections::BTreeSet<usize> = sent.values().map(|&(e, _)| e).collect();
    for &entry in &entries {
        for &(request, vm, host) in &cluster.controller(entry).stats.boot_results {
            answers.insert(request, (vm, host.map(|h| h.actor.index())));
        }
    }
    let hosts: BTreeMap<u64, usize> = cluster
        .placements()
        .into_iter()
        .map(|(vm, _, s)| (vm.0, s.index()))
        .collect();
    let mut placed: Vec<VmId> = Vec::new();
    let mut digest = Digest::new();
    for (&request, &(entry, vm)) in &sent {
        let Some(&(answered_vm, host)) = answers.get(&request) else {
            rep.problems.push(format!(
                "boot_storm: request {request} from {entry} unanswered"
            ));
            continue;
        };
        rep.require(answered_vm == vm, || {
            format!("boot_storm: request {request} answered for VM {answered_vm:?}, sent {vm:?}")
        });
        digest.u64(request);
        digest.u64(host.map_or(u64::MAX, |h| h as u64));
        if let Some(h) = host {
            rep.require(hosts.get(&vm.0) == Some(&h), || {
                format!(
                    "boot_storm: VM {} reported on {h}, hosted on {:?}",
                    vm.0,
                    hosts.get(&vm.0)
                )
            });
            placed.push(vm);
        }
    }
    rep.require(hosts.len() == placed.len(), || {
        format!(
            "boot_storm: {} VMs hosted, {} boots placed",
            hosts.len(),
            placed.len()
        )
    });

    let sim_secs = (arrivals_end + SimDuration::from_secs(DRAIN_SECS)).as_secs_f64();
    measure::finish(&cluster, tr, &placed, sim_secs, &mut rep, &mut digest);
    let c = rep.counts;
    let capacity = topo.capacity().bandwidth.as_mbps() * topo.num_servers() as f64;
    let fill = placed.len() as f64 * 50.0 / capacity;
    let walk = c.boots_handled / BOOTS as f64;
    rep.require(walk > 1.0, || {
        format!("boot_storm guard: walk length {walk} per boot is not above 1")
    });
    rep.require(fill < 1.0, || {
        format!("boot_storm guard: fill {fill} is full")
    });
    rep.attempted = BOOTS;
    rep.failed = BOOTS - placed.len() as u64;
    rep.e2e
        .insert("served_pct", pct(placed.len() as f64, BOOTS as f64));
    rep.e2e.insert(
        "restored_sat_pct",
        min_restored_pct(&baseline, &customer_satisfaction(&cluster.engine)),
    );
    rep.layer.insert("core.walk_per_boot", walk);
    if tr.enabled() {
        measure::traced_layers(&cluster, tr, &mut rep);
    }
    rep.digest = digest.finish();
    rep
}
