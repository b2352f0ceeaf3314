//! Chaos sweep — recovery metrics for the full v-Bundle stack under four
//! deterministic fault scenarios: correlated crashes with later restarts,
//! a rack-level network partition, a lossy-network window, and a
//! duplicate-storm that stresses delivery idempotency.
//!
//! Every scenario is executed **twice from scratch** and the two recovery
//! reports are asserted byte-identical — the reproducibility claim of the
//! `vbundle-chaos` subsystem, checked on every run.
//!
//! A second section compares the phi-accrual failure detector (the
//! default) against the legacy fixed `3 × interval` deadline under
//! degraded-but-alive networks: every detector-driven eviction in those
//! sweeps is a false positive, because no node ever actually dies. The
//! sweep asserts the adaptive detector strictly reduces false evictions
//! under ≥10 % message loss.
//!
//! Run: `cargo run --release -p vbundle-bench --bin chaos_sweep`
//!
//! `--smoke` runs one scenario and diffs the report against the
//! checked-in golden at `results/chaos_smoke.golden` (CI's fast
//! determinism gate); `--smoke --bless` rewrites the golden.
//!
//! `--obs` runs the same sweep with every observability plane enabled
//! (flight recorder, hot-path profiler). Reports must not change —
//! `--smoke --obs` passes the same golden gate — which makes wall-clock
//! deltas between the two modes the obs overhead measurement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vbundle_bench::{golden_gate, write_csv, BenchArgs, CliSpec};
use vbundle_chaos::{
    check_aggregation, check_capacity, check_entitlement_conservation, check_leaf_sets,
    check_scribe_trees, check_vm_conservation, run_scenario, FaultPlan, LinkFault, RecoveryReport,
    ScenarioSpec, Scope,
};
use vbundle_core::{
    bw_demand_topic, Cluster, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VbEngine,
    VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::{FailureDetection, PastryConfig};
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

const SEED: u64 = 20120618; // ICDCS'12

/// Set by `--obs`: build every cluster with the flight recorder and
/// profiler on. The goldens must still pass — obs observes, never steers.
static OBS: AtomicBool = AtomicBool::new(false);

/// Applies the `--obs` planes to a freshly built cluster.
fn apply_obs(cluster: &mut Cluster) {
    if OBS.load(Ordering::Relaxed) {
        cluster.engine.enable_profiling();
    }
}

fn topology() -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(4)
            .build(),
    )
}

/// Builds the cluster fresh (same seed every time) with the requested
/// failure-detection mode, seeds a skewed VM population and warms the
/// overlay up, returning the VM ids installed.
fn build_cluster_with(detection: FailureDetection) -> (Cluster, Vec<VmId>) {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        failure_detection: detection,
        ..PastryConfig::default()
    };
    let mut scribe = ScribeConfig::default().with_probe_interval(SimDuration::from_secs(5));
    scribe.child_detection = detection;
    let mut builder = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(scribe)
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(10))
                .with_rebalance_interval(SimDuration::from_secs(20)),
        )
        .seed(SEED);
    if OBS.load(Ordering::Relaxed) {
        builder = builder.flight_recorder(8192);
    }
    let mut cluster = builder.build();
    apply_obs(&mut cluster);
    let mut vms = Vec::new();
    let demand = Bandwidth::from_mbps(100.0);
    for server in 0..cluster.num_servers() {
        // Front half of the cluster overloaded, back half lightly loaded,
        // so the shuffling protocol has migrations to run during faults.
        let count = if server < cluster.num_servers() / 2 {
            4
        } else {
            1
        };
        for _ in 0..count {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(server as u32 % 4),
                ResourceSpec::fixed(ResourceVector::bandwidth_only(demand)),
            );
            vm.demand = ResourceVector::bandwidth_only(demand);
            cluster.install_vm(cluster.topo.server(server), vm);
            vms.push(id);
        }
    }
    cluster.run_until(SimTime::from_secs(60));
    (cluster, vms)
}

/// All structural invariants of the stack, as one closure-friendly check.
/// Entitlement conservation is included everywhere: trivially true for the
/// non-trading scenarios (empty books) and load-bearing for lender-crash.
fn structural(engine: &VbEngine, expected: &[VmId]) -> Vec<String> {
    let mut v = check_leaf_sets(engine);
    v.extend(check_scribe_trees(engine));
    v.extend(check_vm_conservation(engine, expected));
    v.extend(check_capacity(engine));
    v.extend(check_entitlement_conservation(engine));
    v
}

fn failed_migrations(engine: &VbEngine) -> u64 {
    engine
        .actors()
        .map(|(_, node)| node.app().client().stats.migrations_failed)
        .sum()
}

/// Cluster-wide count of leaf-set members evicted by the failure
/// detector (fixed deadline or phi, whichever is configured). Evictions
/// triggered by bounced sends to genuinely dead actors are *not* counted,
/// so under degraded-but-alive plans this is the false-positive count.
fn detector_evictions(engine: &VbEngine) -> u64 {
    engine
        .actors()
        .map(|(_, node)| node.detector_evictions())
        .sum()
}

fn play(name: &str, plan: FaultPlan) -> RecoveryReport {
    play_with(name, plan, FailureDetection::default()).0
}

fn play_with(name: &str, plan: FaultPlan, detection: FailureDetection) -> (RecoveryReport, u64) {
    let (mut cluster, vms) = build_cluster_with(detection);
    let spec = ScenarioSpec {
        name: name.to_string(),
        check_interval: SimDuration::from_secs(1),
        deadline: SimDuration::from_secs(120),
    };
    let topo = cluster.topo.clone();
    let report = run_scenario(
        &mut cluster.engine,
        topo,
        plan,
        &spec,
        |engine| structural(engine, &vms),
        |engine| check_aggregation(engine, bw_demand_topic(), 1e-6).is_empty(),
        failed_migrations,
    );
    let evictions = detector_evictions(&cluster.engine);
    (report, evictions)
}

/// Trading cluster for the lender-crash scenario: the base skewed
/// population plus a starved customer-0 VM on server 0 whose only
/// possible lender is a fat idle sibling on server 1. Warm-up must
/// commit at least one lease, or the scenario would be vacuous.
fn build_trading_cluster() -> (Cluster, Vec<VmId>) {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut builder = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(5)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(10))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_bundle_trading(true),
        )
        .seed(SEED);
    if OBS.load(Ordering::Relaxed) {
        builder = builder.flight_recorder(8192);
    }
    let mut cluster = builder.build();
    apply_obs(&mut cluster);
    let mut vms = Vec::new();
    let hot = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        hot,
        CustomerId(0),
        ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(100.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(300.0));
    cluster.install_vm(cluster.topo.server(0), vm);
    vms.push(hot);
    let lender = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        lender,
        CustomerId(0),
        ResourceSpec::bandwidth(Bandwidth::from_mbps(200.0), Bandwidth::from_mbps(200.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(2.0));
    cluster.install_vm(cluster.topo.server(1), vm);
    vms.push(lender);
    // Background tenants whose demand equals their reservation: they
    // neither need to borrow nor have slack to lend, so the one lease
    // pair above is the only trade in flight.
    let demand = Bandwidth::from_mbps(100.0);
    for server in 2..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(1 + server as u32 % 3),
            ResourceSpec::fixed(ResourceVector::bandwidth_only(demand)),
        );
        vm.demand = ResourceVector::bandwidth_only(demand);
        cluster.install_vm(cluster.topo.server(server), vm);
        vms.push(id);
    }
    cluster.run_until(SimTime::from_secs(60));
    assert!(
        cluster.active_leases() > 0,
        "lender-crash scenario warmed up without committing a lease"
    );
    (cluster, vms)
}

/// Lender-crash scenario: the only lending server dies mid-lease and
/// later returns. Recovery requires the borrower to revert its credit
/// (renewal bounce or failure detection), with entitlement conservation
/// and the shaper ceiling checked on every tick via `structural`.
fn play_lender_crash() -> RecoveryReport {
    let (mut cluster, vms) = build_trading_cluster();
    let t = SimTime::from_secs;
    let plan = FaultPlan::new(SEED)
        .crash(t(90), ActorId::new(1))
        .restart(t(150), ActorId::new(1));
    let spec = ScenarioSpec {
        name: "lender-crash".to_string(),
        check_interval: SimDuration::from_secs(1),
        deadline: SimDuration::from_secs(120),
    };
    let topo = cluster.topo.clone();
    let report = run_scenario(
        &mut cluster.engine,
        topo,
        plan,
        &spec,
        |engine| structural(engine, &vms),
        |engine| check_aggregation(engine, bw_demand_topic(), 1e-6).is_empty(),
        failed_migrations,
    );
    // The lender may legitimately be re-lending after its restart, so no
    // lease-count assertion here — only that trading really ran and the
    // ledger is conserved once the network quiesced.
    let grants: u64 = (0..cluster.num_servers())
        .map(|i| cluster.controller(i).trade_book().stats.grants_sent.get())
        .sum();
    assert!(grants > 0, "lender-crash scenario never granted a lease");
    let open = check_entitlement_conservation(&cluster.engine);
    assert!(open.is_empty(), "entitlement broken at quiesce: {open:?}");
    report
}

fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    let t = SimTime::from_secs;
    vec![
        (
            "crash-restart",
            FaultPlan::new(SEED)
                .crash(t(90), ActorId::new(2))
                .crash(t(90), ActorId::new(11))
                .restart(t(150), ActorId::new(2))
                .restart(t(150), ActorId::new(11)),
        ),
        (
            "rack-partition",
            FaultPlan::new(SEED)
                .partition(t(90), Scope::Rack(0), Scope::All)
                .heal(t(135)),
        ),
        (
            "lossy-network",
            FaultPlan::new(SEED)
                .degrade(
                    t(90),
                    Scope::All,
                    Scope::All,
                    LinkFault::loss(0.05).with_duplicate(0.01, SimDuration::from_millis(2)),
                )
                .clear_degradations(t(150)),
        ),
        (
            // Heavy duplication, zero loss: every third message delivered
            // twice. Exercises delivery idempotency end to end — duplicate
            // Boot/Migrate/Publish handling must not double-install VMs or
            // double-disseminate, or the VM-conservation and aggregation
            // invariants below fail.
            "duplicate-storm",
            FaultPlan::new(SEED)
                .degrade(
                    t(90),
                    Scope::All,
                    Scope::All,
                    LinkFault::loss(0.0).with_duplicate(0.35, SimDuration::from_millis(2)),
                )
                .clear_degradations(t(150)),
        ),
    ]
}

/// Degraded-but-alive plans for the detector comparison: nobody dies, so
/// every detector eviction is a false positive.
fn degraded_plans() -> Vec<(&'static str, FaultPlan)> {
    let t = SimTime::from_secs;
    let window = |fault: LinkFault| {
        FaultPlan::new(SEED)
            .degrade(t(90), Scope::All, Scope::All, fault)
            .clear_degradations(t(210))
    };
    vec![
        ("lossy-10pct", window(LinkFault::loss(0.10))),
        ("lossy-15pct", window(LinkFault::loss(0.15))),
        (
            "slow-link-1600ms",
            window(LinkFault::slow(SimDuration::from_millis(1600))),
        ),
    ]
}

fn fmt_opt(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => d.to_string(),
        None => "DID NOT REPAIR".into(),
    }
}

/// Runs the phi-vs-fixed comparison and returns the CSV rows.
fn detector_comparison() -> Vec<String> {
    println!("\n# Failure-detector comparison under degraded-but-alive networks");
    println!("# (every eviction is a false positive: no node actually dies)");
    println!(
        "\n{:<18} {:>14} {:>14} {:>18} {:>18}",
        "plan", "fp-evict(phi)", "fp-evict(3x)", "reconverge(phi)", "reconverge(3x)"
    );
    let mut rows = Vec::new();
    for (name, plan) in degraded_plans() {
        let (phi_report, phi_evict) = play_with(name, plan.clone(), FailureDetection::PhiAccrual);
        let (fixed_report, fixed_evict) = play_with(name, plan, FailureDetection::FixedInterval);
        println!(
            "{:<18} {:>14} {:>14} {:>18} {:>18}",
            name,
            phi_evict,
            fixed_evict,
            fmt_opt(phi_report.time_to_repair()),
            fmt_opt(fixed_report.time_to_repair()),
        );
        if name.starts_with("lossy") {
            assert!(
                phi_evict < fixed_evict,
                "{name}: phi-accrual must strictly reduce false evictions \
                 (phi {phi_evict} vs fixed {fixed_evict})"
            );
        }
        rows.push(format!(
            "{name},{phi_evict},{fixed_evict},{},{}",
            fmt_opt(phi_report.time_to_repair()),
            fmt_opt(fixed_report.time_to_repair()),
        ));
    }
    rows
}

const CLI: CliSpec = CliSpec {
    bin: "chaos_sweep",
    about: "recovery metrics for the full stack under deterministic fault scenarios",
    flags: &[(
        "obs",
        "enable flight recorder + profiler (reports must not change)",
    )],
    options: &[],
};

fn main() {
    let args = BenchArgs::parse_with(&CLI);
    OBS.store(args.flag("obs"), Ordering::Relaxed);
    if args.smoke() {
        // Fast deterministic gate for CI: one scenario, byte-compared
        // against the checked-in golden report.
        let (name, plan) = scenarios().remove(0);
        let report = play(name, plan).to_string();
        golden_gate("chaos", "chaos_smoke.golden", &report, args.bless());
        return;
    }

    println!("# Chaos sweep: recovery metrics under deterministic fault plans");
    let mut rows = Vec::new();
    let mut record = |name: &str, first: String, second: String| {
        assert_eq!(
            first, second,
            "scenario `{name}` is not deterministic across reruns"
        );
        println!("\n{first}");
        // Re-derive the CSV row from the (deterministic) report.
        let report = first;
        let grab = |label: &str| {
            report
                .lines()
                .find_map(|l| l.trim().strip_prefix(label).map(|v| v.trim().to_string()))
                .unwrap_or_else(|| "n/a".into())
        };
        rows.push(format!(
            "{name},{},{},{},{}",
            grab("time to repair:"),
            grab("messages to repair:"),
            grab("aggregate staleness:"),
            grab("failed migrations:"),
        ));
    };
    for (name, plan) in scenarios() {
        let first = play(name, plan.clone()).to_string();
        let second = play(name, plan).to_string();
        record(name, first, second);
    }
    record(
        "lender-crash",
        play_lender_crash().to_string(),
        play_lender_crash().to_string(),
    );
    write_csv(
        "chaos_sweep.csv",
        "scenario,time_to_repair,messages_to_repair,aggregate_staleness,failed_migrations",
        &rows,
    );

    let detector_rows = detector_comparison();
    write_csv(
        "chaos_detectors.csv",
        "plan,fp_evictions_phi,fp_evictions_fixed,reconverge_phi,reconverge_fixed",
        &detector_rows,
    );
    println!("\nall scenarios reproduced byte-identically across two runs");
}
