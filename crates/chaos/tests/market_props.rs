//! Chaos tests for the spot market: priced cross-tenant leases commit
//! under per-tenant policy, the double-entry billing ledger stays
//! conserved through lender crashes and arbitrary crash timings, lease
//! renewals re-quote at the *current* spot price instead of silently
//! extending stale terms, and every scenario replays byte-identically
//! per seed.

use std::sync::Arc;

use proptest::prelude::*;
use vbundle_chaos::{
    check_billing_conservation, check_capacity, check_entitlement_conservation,
    check_isolation_caps, ChaosDriver, FaultPlan,
};
use vbundle_core::{
    reconcile, Cluster, CustomerId, ResourceSpec, ResourceVector, SpotMarketConfig, VBundleConfig,
    VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};
use vbundle_trade::LeaseRole;

fn bw(mbps: f64) -> Bandwidth {
    Bandwidth::from_mbps(mbps)
}

/// Four servers, one pod, two trading tenants: customer 0 owns a single
/// starved VM on server 0 (no sibling anywhere, so intra-bundle trading
/// can never help it) and customer 1 owns a fat idle VM on server 1 —
/// the only possible counterparty, reachable only through the priced
/// spot market. Background tenant 2 keeps the overlay non-trivial.
fn build_market_cluster(seed: u64) -> (Cluster, VmId) {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(topo)
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_bundle_trading(true)
                .with_lease_duration(SimDuration::from_secs(120))
                .with_spot_market(SpotMarketConfig::default()),
        )
        .seed(seed)
        .build();
    let hot = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        hot,
        CustomerId(0),
        ResourceSpec::bandwidth(bw(100.0), bw(100.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(bw(300.0));
    cluster.install_vm(cluster.topo.server(0), vm);
    let idle = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        idle,
        CustomerId(1),
        ResourceSpec::bandwidth(bw(200.0), bw(200.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(bw(2.0));
    cluster.install_vm(cluster.topo.server(1), vm);
    // Background tenant with zero spare (demand == reservation), so it
    // neither borrows nor can be picked as a seller: the fat idle VM on
    // server 1 is deterministically the only possible lender.
    for server in 2..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(2),
            ResourceSpec::bandwidth(bw(50.0), bw(50.0)),
        );
        vm.demand = ResourceVector::bandwidth_only(bw(50.0));
        cluster.install_vm(cluster.topo.server(server), vm);
    }
    cluster.reindex();
    (cluster, hot)
}

/// Deterministic digest of everything the market touched: lease halves
/// with their priced terms, billing books and market counters. Two
/// replays of the same seeded scenario must agree byte for byte.
fn market_digest(cluster: &Cluster) -> String {
    let mut s = String::new();
    for i in 0..cluster.num_servers() {
        let ctrl = cluster.controller(i);
        let m = &ctrl.market_stats;
        s.push_str(&format!(
            "server {i}: asks {} trades {} rej(price {} budget {} cap {}) requotes {} reversals {}\n",
            m.spot_asks.get(),
            m.spot_trades.get(),
            m.spot_rejected_price.get(),
            m.spot_rejected_budget.get(),
            m.spot_rejected_cap.get(),
            m.requotes.get(),
            m.billing_reversals.get(),
        ));
        for h in ctrl.trade_book().halves() {
            s.push_str(&format!(
                "  lease {} {:?} cust {} buyer {} {:.3} Mbps @{:.6} [{} .. {}]\n",
                h.lease.id,
                h.role,
                h.lease.customer.0,
                h.lease.buyer.0,
                h.lease.amount.bandwidth.as_mbps(),
                h.lease.price,
                h.lease.starts,
                h.lease.expires
            ));
        }
        for e in ctrl.billing().entries() {
            s.push_str(&format!(
                "  bill {} {:?} {}->{} gross {:.6} fee {:.6}\n",
                e.lease, e.side, e.payer, e.payee, e.gross, e.fee
            ));
        }
    }
    s
}

fn hot_grant(cluster: &Cluster, hot: VmId) -> f64 {
    cluster
        .controller(0)
        .allocations()
        .iter()
        .zip(cluster.controller(0).vms())
        .find(|(_, vm)| vm.id == hot)
        .map(|(a, _)| a.granted.as_mbps())
        .unwrap()
}

/// Asserts every market invariant that must hold at any instant,
/// regardless of what faults are in flight.
fn assert_conserved(cluster: &Cluster, when: &str) {
    let billing = check_billing_conservation(&cluster.engine);
    assert!(billing.is_empty(), "billing broken {when}: {billing:#?}");
    let entitle = check_entitlement_conservation(&cluster.engine);
    assert!(
        entitle.is_empty(),
        "entitlement broken {when}: {entitle:#?}"
    );
    let caps = check_isolation_caps(&cluster.engine, SpotMarketConfig::default().isolation_cap);
    assert!(caps.is_empty(), "isolation cap broken {when}: {caps:#?}");
    assert!(check_capacity(&cluster.engine).is_empty());
}

#[test]
fn spot_trade_commits_and_bills() {
    let t = SimTime::from_secs;
    let (mut cluster, hot) = build_market_cluster(20120618);
    cluster.run_until(t(90));

    // The starved tenant bought entitlement across the tenant boundary.
    let priced: Vec<_> = cluster
        .controller(0)
        .trade_book()
        .halves()
        .filter(|h| h.role == LeaseRole::Borrower && h.lease.is_priced())
        .collect();
    assert!(!priced.is_empty(), "no priced lease committed by t=90");
    assert!(priced.iter().all(|h| h.lease.cross_tenant()));
    assert!(
        hot_grant(&cluster, hot) > 100.0 + 1.0,
        "spot lease did not raise the hot VM's grant"
    );

    // Both sides billed, books conserved, money went buyer -> seller.
    let trades: u64 = (0..cluster.num_servers())
        .map(|i| cluster.controller(i).market_stats.spot_trades.get())
        .sum();
    assert!(trades >= 1);
    let rec = reconcile((0..cluster.num_servers()).map(|i| cluster.controller(i).billing()));
    assert!(rec.balanced(), "{:#?}", rec.violations);
    assert!(rec.total_spend > 0.0);
    assert!(rec.total_fees > 0.0);
    assert_conserved(&cluster, "after trading");
}

/// Rebalancing must not hollow out a lending tenant's bundle. Server 1
/// hosts tenant 1's idle VM, which lends almost 200 Mbps cross-tenant to
/// tenant 0 against 500 Mbps of tenant-1 reservations (cap 50%: 250),
/// next to three hot tenant-1 VMs that make server 1 the cluster's
/// shedder. Shedding one of them leaves 400 reserved (cap 200); shedding
/// two leaves 300 (cap 150), so the second shed must be blocked.
#[test]
fn rebalance_keeps_lender_under_isolation_cap() {
    let t = SimTime::from_secs;
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(60))
                .with_bundle_trading(true)
                .with_lease_duration(SimDuration::from_secs(300))
                .with_spot_market(SpotMarketConfig::default()),
        )
        .seed(11)
        .build();
    let mut place = |server: usize, customer: u32, res: f64, lim: f64, demand: f64| {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(customer),
            ResourceSpec::bandwidth(bw(res), bw(lim)),
        );
        vm.demand = ResourceVector::bandwidth_only(bw(demand));
        cluster.install_vm(cluster.topo.server(server), vm);
    };
    place(0, 0, 100.0, 100.0, 300.0);
    place(1, 1, 200.0, 200.0, 2.0);
    for _ in 0..3 {
        place(1, 1, 100.0, 300.0, 250.0);
    }
    for server in 2..4 {
        place(server, 2, 50.0, 50.0, 50.0);
    }
    cluster.reindex();

    cluster.run_until(t(55));
    let sold: f64 = cluster
        .controller(1)
        .trade_book()
        .halves()
        .filter(|h| h.role == LeaseRole::Lender && h.lease.cross_tenant())
        .map(|h| h.lease.amount.bandwidth.as_mbps())
        .sum();
    assert!(
        sold > 150.0,
        "no near-cap spot lease before the round: {sold}"
    );

    cluster.run_until(t(90));
    assert!(
        cluster.controller(1).stats.migrations_out >= 1,
        "the hot lender server never shed"
    );
    assert_conserved(&cluster, "after a rebalance round");
}

/// Runs the full fault scenario: trade, then crash the lender server at
/// `crash_at`, then let the repair protocols settle. Conservation is
/// asserted throughout; the digest is returned for replay comparison.
fn run_lender_crash(seed: u64, crash_at: u64) -> String {
    let t = SimTime::from_secs;
    let (mut cluster, _hot) = build_market_cluster(seed);
    cluster.run_until(t(55));
    assert_conserved(&cluster, "before fault");

    let plan = FaultPlan::new(seed).crash(t(crash_at), ActorId::new(1));
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(crash_at.max(55) + 100));
    assert_conserved(&cluster, "after lender crash");
    market_digest(&cluster)
}

#[test]
fn lender_crash_conserves_billing() {
    let t = SimTime::from_secs;
    let (mut cluster, hot) = build_market_cluster(20120618);
    cluster.run_until(t(90));
    let rec = reconcile((0..cluster.num_servers()).map(|i| cluster.controller(i).billing()));
    assert!(rec.total_spend > 0.0, "no trade to crash");

    let plan = FaultPlan::new(20120618).crash(t(100), ActorId::new(1));
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(200));

    // The borrower dropped its credit (bounced renewals), the shaper
    // ceiling shrank back, and — crucially — the dead lender's billing
    // book still pairs every surviving spend entry: a crash must never
    // turn a tenant's payment into an orphaned charge.
    assert_eq!(cluster.active_leases(), 0, "credit from a dead lender");
    assert!(hot_grant(&cluster, hot) <= 100.0 + 1e-6);
    assert_conserved(&cluster, "after crash");
    let rec = reconcile((0..cluster.num_servers()).map(|i| cluster.controller(i).billing()));
    assert!(rec.balanced(), "{:#?}", rec.violations);
    assert!(rec.total_spend > 0.0, "crash erased the billing history");
}

#[test]
fn renewal_requotes_at_current_price() {
    let t = SimTime::from_secs;
    let (mut cluster, _hot) = build_market_cluster(7);
    cluster.run_until(t(90));
    let original: Vec<f64> = cluster
        .controller(0)
        .trade_book()
        .halves()
        .filter(|h| h.lease.is_priced())
        .map(|h| h.lease.price)
        .collect();
    assert!(!original.is_empty(), "no priced lease by t=90");
    let p0 = original[0];

    // The market moves: the lender's price index learns a much higher
    // clearing level between mint and renewal.
    for _ in 0..64 {
        cluster.controller_mut(1).observe_spot_price(3.0);
    }
    let quote_floor = 2.5; // well above p0 ~= 1.1, below the 3.0 plateau

    // Ride through the renewal window (lease 120 s, re-quote within the
    // last 2 update intervals). The replacement must carry the *current*
    // quote — a renewal that extended the old lease would keep paying p0
    // long after the market repriced, exactly the bug this guards.
    cluster.run_until(t(260));
    let requoted: Vec<_> = cluster
        .controller(0)
        .trade_book()
        .halves()
        .filter(|h| h.lease.is_priced() && h.lease.starts > SimTime::ZERO)
        .collect();
    assert!(
        !requoted.is_empty(),
        "no replacement lease minted through renewal"
    );
    for h in &requoted {
        assert!(
            h.lease.price > quote_floor,
            "stale price survived renewal: replacement at {:.3}, index moved to ~3.0 (p0 {:.3})",
            h.lease.price,
            p0
        );
    }
    let requotes: u64 = (0..cluster.num_servers())
        .map(|i| cluster.controller(i).market_stats.requotes.get())
        .sum();
    assert!(requotes >= 1);
    assert_conserved(&cluster, "after renewal re-quote");
}

#[test]
fn lender_crash_replays_byte_identically() {
    let a = run_lender_crash(42, 100);
    let b = run_lender_crash(42, 100);
    assert_eq!(a, b, "same seed must replay byte-identically");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Billing stays double-entry conserved no matter where the lender
    /// crash lands relative to mint, renewal and expiry — and each
    /// interleaving replays byte-identically.
    #[test]
    fn billing_conserved_across_crash_interleavings(
        seed in 1u64..500,
        crash_at in 60u64..180,
    ) {
        let a = run_lender_crash(seed, crash_at);
        let b = run_lender_crash(seed, crash_at);
        prop_assert_eq!(a, b);
    }
}
