//! Small-scale smoke tests of the figure scenarios, so the benchmark
//! harness code is exercised by `cargo test` (the full-size runs are the
//! rows of the `repro` binary).

use std::sync::Arc;

use vbundle_bench::scenarios::{five_customer_placement, place_wave, skewed_cluster, SippTestbed};
use vbundle_core::{metrics, PlacementPolicy, VBundleConfig};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_sim::{SimDuration, SimTime};
use vbundle_workloads::SkewedLoad;

fn small_topo() -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(4)
            .servers_per_rack(5)
            .build(),
    )
}

#[test]
fn fig7_scenario_clusters_customers() {
    let topo = small_topo();
    let (model, _) = five_customer_placement(
        &topo,
        PlacementPolicy::VBundle,
        10,
        Bandwidth::from_mbps(100.0),
        7,
    );
    assert_eq!(model.num_vms(), 50);
    let placements: Vec<_> = model
        .placements()
        .iter()
        .map(|(vm, s)| (vm.customer, *s))
        .collect();
    for l in metrics::customer_locality(&topo, &placements) {
        assert!(
            l.racks_spanned <= 2,
            "{} spans {} racks",
            l.customer,
            l.racks_spanned
        );
    }
}

#[test]
fn fig8_scenario_growth_keeps_locality_ordering() {
    let topo = small_topo();
    let mut results = Vec::new();
    for policy in [PlacementPolicy::VBundle, PlacementPolicy::Greedy] {
        let (mut model, customers) =
            five_customer_placement(&topo, policy, 8, Bandwidth::from_mbps(100.0), 7);
        place_wave(
            &mut model,
            policy,
            &customers,
            1000,
            8,
            Bandwidth::from_mbps(100.0),
            8,
        );
        let placements: Vec<_> = model
            .placements()
            .iter()
            .map(|(vm, s)| (vm.customer, *s))
            .collect();
        let locality = metrics::customer_locality(&topo, &placements);
        let mean_dist =
            locality.iter().map(|l| l.mean_pair_distance).sum::<f64>() / locality.len() as f64;
        results.push(mean_dist);
    }
    assert!(
        results[0] < results[1],
        "v-Bundle ({}) must beat greedy ({}) on pair distance",
        results[0],
        results[1]
    );
}

#[test]
fn fig9_scenario_relieves_overload() {
    let topo = small_topo();
    let config = VBundleConfig::default()
        .with_threshold(0.15)
        .with_update_interval(SimDuration::from_secs(20))
        .with_rebalance_interval(SimDuration::from_secs(60));
    let (mut cluster, before) = skewed_cluster(topo, config, &SkewedLoad::default(), 10, 9);
    assert!((metrics::mean(&before) - 0.6226).abs() < 1e-9);
    cluster.run_until(SimTime::from_mins(15));
    let after = cluster.utilizations();
    let mean = metrics::mean(&after);
    let max = after.iter().cloned().fold(0.0, f64::max);
    assert!(cluster.total_migrations() > 0);
    assert!(
        max <= mean + 0.15 + 0.11,
        "max {max} above mean {mean} + threshold"
    );
}

#[test]
fn fig12_scenario_recovers_sipp() {
    let mut testbed = SippTestbed::new(6, 12);
    let mut starved_seen = false;
    let mut recovered = false;
    for _ in 1..=400u64 {
        let (_, granted, demand) = testbed.tick_1s();
        if demand.as_mbps() > 0.0 && granted.as_mbps() < demand.as_mbps() * 0.9 {
            starved_seen = true;
        }
        if starved_seen
            && testbed.cluster.total_migrations() > 0
            && granted.as_mbps() >= demand.as_mbps() * 0.99
        {
            recovered = true;
            break;
        }
    }
    assert!(starved_seen, "the testbed never created contention");
    assert!(recovered, "v-Bundle never recovered the SIPp VM");
    // Failures stopped growing after recovery.
    let failed_at_recovery = testbed.sipp.cumulative_failed();
    for _ in 0..60 {
        testbed.tick_1s();
    }
    assert_eq!(testbed.sipp.cumulative_failed(), failed_at_recovery);
}

#[test]
fn skewed_cluster_is_deterministic() {
    let build = || {
        let topo = small_topo();
        let (cluster, utils) =
            skewed_cluster(topo, VBundleConfig::default(), &SkewedLoad::default(), 5, 3);
        (cluster.num_vms(), utils)
    };
    assert_eq!(build(), build());
}
