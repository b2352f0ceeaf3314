//! `rebalance`: the Figs. 9–11 steady state. A skewed cluster of 2,000
//! servers × 20 zero-reservation VMs (mean utilization 0.6226, θ 0.183,
//! default config) runs 60 simulated minutes: 12 update rounds and 2
//! rebalance rounds. VMs are installed offline, so the boot walk,
//! fdetect heartbeats and trading never run.

use std::sync::Arc;

use vbundle_chaos::customer_satisfaction;
use vbundle_core::{
    Cluster, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_sim::SimTime;
use vbundle_workloads::SkewedLoad;

use crate::measure::{self, fabric, min_restored_pct, pct, Digest, Rep};
use crate::meter::Meter;
use crate::trace::Tracer;

const RACKS: u32 = 100;
const VMS_PER_SERVER: usize = 20;
const MINUTES: u64 = 60;

/// The workload's fabric and the half-size one for the scaling fit.
pub fn fabrics() -> (Arc<Topology>, Arc<Topology>) {
    (fabric(RACKS), fabric(RACKS / 2))
}

/// One repetition. Setup mirrors `scenarios::skewed_cluster`, split so
/// the build and the seeding each get a span.
pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut meter = Meter::start();
    meter.begin();
    let setup = tr.open("setup");
    let topo = fabric(RACKS);
    let load = SkewedLoad {
        seed,
        ..SkewedLoad::default()
    };
    let config = VBundleConfig::default().with_threshold(0.183);
    let mut cluster = tr.span("core.cluster_build", || {
        Cluster::builder(topo.clone())
            .vbundle(config)
            .seed(seed)
            .build()
    });
    if tr.enabled() {
        cluster.engine.enable_profiling();
    }
    let nic = topo.capacity().bandwidth;
    let expected: Vec<VmId> = tr.span("core.seed", || {
        let mut ids = Vec::new();
        for (server, util) in load.draw(topo.num_servers()).into_iter().enumerate() {
            let per_vm = nic * util / VMS_PER_SERVER as f64;
            for _ in 0..VMS_PER_SERVER {
                let id = cluster.alloc_vm_id();
                let mut vm = VmRecord::new(
                    id,
                    CustomerId(0),
                    ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
                );
                vm.demand = ResourceVector::bandwidth_only(per_vm);
                cluster.install_vm(topo.server(server), vm);
                ids.push(id);
            }
        }
        cluster.reindex();
        ids
    });
    tr.close(setup);
    meter.end();
    rep.setup = meter.take();

    let baseline = customer_satisfaction(&cluster.engine);
    let interval = VBundleConfig::default().update_interval;
    let rounds = MINUTES * 60_000 / interval.as_millis();
    let run = tr.open("run");
    for round in 1..=rounds {
        let until = SimTime::ZERO + interval * round;
        meter.begin();
        tr.span("run.slice", || cluster.run_until(until));
        meter.end();
    }
    rep.run = meter.take();
    tr.close(run);

    let mut digest = Digest::new();
    measure::finish(
        &cluster,
        tr,
        &expected,
        (MINUTES * 60) as f64,
        &mut rep,
        &mut digest,
    );
    let c = rep.counts;
    rep.require(cluster.num_vms() == expected.len(), || {
        format!(
            "rebalance: {} VMs hosted, {} installed",
            cluster.num_vms(),
            expected.len()
        )
    });
    rep.require(c.migrations_in > 0.0, || {
        "rebalance guard: no migration completed".into()
    });
    rep.attempted = c.migrations_out as u64;
    rep.failed = c.migrations_failed as u64;
    let failed = c.anycast_failures + c.migrations_failed;
    rep.e2e
        .insert("served_pct", 100.0 - pct(failed, c.queries_sent));
    rep.e2e.insert(
        "restored_sat_pct",
        min_restored_pct(&baseline, &customer_satisfaction(&cluster.engine)),
    );
    rep.layer.insert("core.walk_per_boot", 0.0);
    if tr.enabled() {
        measure::traced_layers(&cluster, tr, &mut rep);
    }
    rep.digest = digest.finish();
    rep
}
