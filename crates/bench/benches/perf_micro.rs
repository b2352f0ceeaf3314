//! Performance micro-benchmarks of the hot paths: shaper allocation,
//! offline placement throughput, overlay construction and the engine's
//! event-queue discipline (binary heap vs calendar queue). These guard
//! the harness's ability to run the paper's 3000-server scenarios quickly.
//!
//! Run: `cargo bench -p vbundle-bench --bench perf_micro`

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vbundle_core::{
    shaper, ClusterModel, CustomerId, PlacementPolicy, ResourceSpec, ResourceVector, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::{overlay, Id, PastryConfig};
use vbundle_sim::CalendarQueue;

fn bench_shaper(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/shaper_allocate");
    for &n in &[4usize, 16, 64] {
        let vms: Vec<VmRecord> = (0..n)
            .map(|i| {
                let mut vm = VmRecord::new(
                    VmId(i as u64),
                    CustomerId(0),
                    ResourceSpec::bandwidth(
                        Bandwidth::from_mbps(50.0),
                        Bandwidth::from_mbps(400.0),
                    ),
                );
                vm.demand =
                    ResourceVector::bandwidth_only(Bandwidth::from_mbps(30.0 + i as f64 * 17.0));
                vm
            })
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &vms, |b, vms| {
            b.iter(|| shaper::allocate(Bandwidth::from_gbps(1.0), std::hint::black_box(vms)));
        });
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let topo = Arc::new(Topology::simulation_3000());
    let mut group = c.benchmark_group("perf/place_5000_vms");
    group.sample_size(10);
    for policy in [PlacementPolicy::VBundle, PlacementPolicy::Greedy] {
        group.bench_function(format!("{policy:?}"), |b| {
            b.iter(|| {
                let ids = overlay::topology_aware_ids(&topo);
                let mut model = ClusterModel::new(Arc::clone(&topo), ids, topo.capacity().into());
                let mut rng = StdRng::seed_from_u64(1);
                let spec = ResourceSpec::bandwidth(
                    Bandwidth::from_mbps(100.0),
                    Bandwidth::from_mbps(200.0),
                );
                let keys: Vec<Id> = (0..5).map(|i| Id::from_name(&format!("c{i}"))).collect();
                for i in 0..5000u64 {
                    let vm = VmRecord::new(VmId(i), CustomerId((i % 5) as u32), spec);
                    model
                        .place(policy, keys[(i % 5) as usize], vm, &mut rng)
                        .expect("placed");
                }
                model.num_vms()
            });
        });
    }
    group.finish();
}

fn bench_overlay_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/build_overlay_states");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096, 16384] {
        let racks = (n / 16) as u32;
        let topo = Arc::new(
            Topology::builder()
                .pods(4)
                .racks_per_pod(racks / 4)
                .servers_per_rack(16)
                .build(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            b.iter(|| {
                let ids = overlay::topology_aware_ids(topo);
                let handles = overlay::handles_for(&ids);
                overlay::build_states(topo, &handles, &PastryConfig::default()).len()
            });
        });
    }
    group.finish();
}

/// A payload about the size of one queued engine event (destination +
/// a small wire message), so the disciplines pay realistic move costs.
type Payload = [u64; 6];

/// Steady-state queue churn at a fixed depth: pre-fill to `depth`, then
/// alternate push/pop so the structure stays at its working size — the
/// regime the engine spends a whole run in. Arrival offsets mimic the
/// engine's mix: mostly sub-millisecond hops with a long-timer tail that
/// exercises the calendar queue's far tier.
fn churn_offsets(rounds: usize) -> Vec<u64> {
    // Deterministic pseudo-offsets without pulling rand into the loop.
    (0..rounds)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            if i % 64 == 0 {
                // A periodic long timer: several seconds out.
                3_000_000 + h
            } else {
                h % 900
            }
        })
        .collect()
}

fn bench_queue_discipline(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/queue_churn");
    for &depth in &[1_000usize, 100_000] {
        let offsets = churn_offsets(depth);
        group.throughput(Throughput::Elements(depth as u64));
        group.bench_with_input(
            BenchmarkId::new("binary_heap", depth),
            &offsets,
            |b, offsets| {
                b.iter(|| {
                    let mut heap: BinaryHeap<Reverse<(u64, u64, Payload)>> = BinaryHeap::new();
                    let mut seq = 0u64;
                    for &off in offsets {
                        heap.push(Reverse((off, seq, [seq; 6])));
                        seq += 1;
                    }
                    let mut acc = 0u64;
                    for &off in offsets {
                        let Reverse((at, _, v)) = heap.pop().expect("filled");
                        heap.push(Reverse((at + off + 1, seq, v)));
                        seq += 1;
                        acc ^= at;
                    }
                    while let Some(Reverse((at, _, _))) = heap.pop() {
                        acc ^= at;
                    }
                    acc
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("calendar", depth),
            &offsets,
            |b, offsets| {
                b.iter(|| {
                    let mut queue: CalendarQueue<Payload> = CalendarQueue::new();
                    let mut seq = 0u64;
                    for &off in offsets {
                        queue.insert(off, seq, [seq; 6]);
                        seq += 1;
                    }
                    let mut acc = 0u64;
                    for &off in offsets {
                        let (at, _, v) = queue.pop().expect("filled");
                        queue.insert(at + off + 1, seq, v);
                        seq += 1;
                        acc ^= at;
                    }
                    while let Some((at, _, _)) = queue.pop() {
                        acc ^= at;
                    }
                    acc
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = perf;
    config = Criterion::default();
    targets = bench_shaper, bench_placement, bench_overlay_build, bench_queue_discipline
);
criterion_main!(perf);
