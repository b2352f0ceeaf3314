//! v-Bundle controller tunables.

use vbundle_sim::SimDuration;

/// Survivable-placement knobs: failure-domain spreading plus backup
/// bandwidth reservations (the production fix for the paper's
/// pack-close-to-root placement, which lets one rack fault zero a
/// tenant).
///
/// The same two numbers parameterize the offline
/// [`PlacementPolicy::Survivable`](crate::PlacementPolicy) model and the
/// controllers' online boot admission, so both paths enforce one rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivabilityConfig {
    /// Maximum fraction of one customer's VMs any single rack or pod may
    /// hold (cap: `ceil(frac × total)`, never below 1).
    pub max_frac_per_domain: f64,
    /// Fraction of each VM's reservation reserved as backup capacity on
    /// a server in a different failure domain.
    pub backup: f64,
}

impl Default for SurvivabilityConfig {
    fn default() -> Self {
        SurvivabilityConfig {
            max_frac_per_domain: 0.5,
            backup: 0.25,
        }
    }
}

/// Backup-failover knobs: how aggressively a server holding protection
/// charges probes the racks it protects, and how it paces fence resends
/// and re-materialization retries.
///
/// Failover turns the passive [`SurvivabilityConfig`] backup carve-outs
/// into an active restoration path: when the failure detector declares a
/// protected rack dead, the backup site re-materializes the dead VMs
/// onto its reserved headroom through the normal boot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverConfig {
    /// Cadence of the failover tick: each tick probes the protected
    /// racks (`FoProbe`), resends pending fences and retries failed
    /// re-materializations.
    pub probe_interval: SimDuration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            probe_interval: SimDuration::from_mins(1),
        }
    }
}

/// Spot-market knobs: the priced, provider-run layer that lets starved
/// VMs buy entitlement from *other tenants'* bundles once their own
/// bundle has nothing left to give.
///
/// Matching happens inside per-pod `Spot-<pod>` anycast groups. Lenders
/// quote a markup over a per-pod EWMA of cleared prices; borrowers accept
/// while the ask stays under `max_price` and their tenant's prepaid spend
/// on the borrowing host stays under a fixed budget. Cleared trades bill
/// prepaid through the double-entry books of `vbundle-market`. The index
/// seed and weight, the markup, the budget and the provider fee are
/// constants of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotMarketConfig {
    /// Highest per-Mbps·s price a borrower will accept.
    pub max_price: f64,
    /// Isolation cap: at most this fraction of a lender customer's base
    /// reservations on a server may be lent cross-tenant at once, so no
    /// tenant's bundle can be hollowed out by the market.
    pub isolation_cap: f64,
}

impl Default for SpotMarketConfig {
    fn default() -> Self {
        SpotMarketConfig {
            max_price: 4.0,
            isolation_cap: 0.5,
        }
    }
}

/// Configuration of a v-Bundle server controller.
///
/// Defaults follow the paper's simulated experiments (§IV): a 5-minute
/// updating interval, a 25-minute rebalancing interval and the default
/// threshold of 0.183 used in Fig. 10.
#[derive(Debug, Clone)]
pub struct VBundleConfig {
    /// How often servers refresh their local `(topic, value)` samples and
    /// re-evaluate their shedder/receiver status (paper: 5 min).
    pub update_interval: SimDuration,
    /// How often load shedders issue a round of load-balance queries
    /// (paper: 25 min).
    pub rebalance_interval: SimDuration,
    /// The margin over the cluster mean utilization beyond which a server
    /// self-identifies as a load shedder (paper default: 0.183; Fig. 9
    /// also evaluates 0.3 and 0.1).
    pub threshold: f64,
    /// Enables the predictive cost-benefit gate before migrations (the
    /// module §VII lists as future work): a migration proceeds only when
    /// the projected bandwidth-deficit relief over one rebalancing
    /// interval exceeds the migration's own transfer cost.
    pub cost_benefit: bool,
    /// Shuffle on every resource dimension — CPU and memory as well as
    /// bandwidth (the paper's §VII lists multi-metric shuffling as future
    /// work). Servers then shed when *any* dimension exceeds its cluster
    /// mean plus the threshold, and receivers accept only when *every*
    /// dimension stays within bounds.
    pub multi_metric: bool,
    /// The receiver's post-accept utilization double-check (§III.C
    /// step 3), which prevents shed/receive oscillation. Disable only for
    /// the ablation benches.
    pub oscillation_guard: bool,
    /// Sanity-gates the aggregated cluster mean before it steers
    /// shedder/receiver classification. A fresh reading is rejected when it
    /// is non-finite, outside a fixed plausibility range, or further than
    /// `mean_jump_bound` from the last accepted reading; the controller
    /// then holds the last-good mean and enters *conservative mode* (no
    /// new sheds, in-flight holds honored) until the aggregate
    /// re-stabilizes. Lossless for honest runs with the default bounds.
    pub mean_gate: bool,
    /// Largest absolute change of the cluster mean utilization between two
    /// consecutive update ticks the gate accepts without suspicion.
    pub mean_jump_bound: f64,
    /// Enables intra-customer bundle trading (§I, §III): starved VMs
    /// borrow bandwidth entitlement from idle same-customer siblings via
    /// time-bounded leases, and the shaper's rate/ceil follow the live
    /// ledger instead of the static contract. Off by default — with it
    /// off the controller behaves bit-identically to the pre-trading
    /// code.
    pub bundle_trading: bool,
    /// How long a committed lease lives before auto-reverting. Both sides
    /// carry the same expiry, so a partition can strand entitlement for at
    /// most this long.
    pub lease_duration: SimDuration,
    /// Survivable placement for the protocol path: when set, boot
    /// admission additionally enforces the failure-domain caps and
    /// reserves backup bandwidth cross-domain. `None` (the default)
    /// keeps the controller bit-identical to the pre-survivability code.
    pub survivability: Option<SurvivabilityConfig>,
    /// Backup-activated failover: when set (and survivability is on),
    /// servers holding backup reservations track which VMs they protect,
    /// probe the protected racks, and on a declared rack death
    /// re-materialize the dead VMs onto the reserved headroom. `None`
    /// (the default) keeps the controller bit-identical to the
    /// passive-backup code.
    pub failover: Option<FailoverConfig>,
    /// Priced cross-tenant spot market: when set (and `bundle_trading`
    /// is on), servers join their pod's spot group, lend isolation-capped
    /// headroom to other tenants at the quoted spot price, and meter
    /// every cleared trade into double-entry billing books. `None` (the
    /// default) keeps the controller bit-identical to the free
    /// intra-bundle trading code.
    pub spot_market: Option<SpotMarketConfig>,
}

impl Default for VBundleConfig {
    fn default() -> Self {
        VBundleConfig {
            update_interval: SimDuration::from_mins(5),
            rebalance_interval: SimDuration::from_mins(25),
            threshold: 0.183,
            cost_benefit: false,
            multi_metric: false,
            oscillation_guard: true,
            mean_gate: true,
            mean_jump_bound: 0.5,
            bundle_trading: false,
            lease_duration: SimDuration::from_mins(15),
            survivability: None,
            failover: None,
            spot_market: None,
        }
    }
}

impl VBundleConfig {
    /// Sets the shedder threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the update interval.
    pub fn with_update_interval(mut self, interval: SimDuration) -> Self {
        self.update_interval = interval;
        self
    }

    /// Sets the rebalancing interval.
    pub fn with_rebalance_interval(mut self, interval: SimDuration) -> Self {
        self.rebalance_interval = interval;
        self
    }

    /// Enables the cost-benefit migration gate.
    pub fn with_cost_benefit(mut self, enabled: bool) -> Self {
        self.cost_benefit = enabled;
        self
    }

    /// Enables multi-metric shuffling (CPU + memory + bandwidth).
    pub fn with_multi_metric(mut self, enabled: bool) -> Self {
        self.multi_metric = enabled;
        self
    }

    /// Disables the oscillation guard (ablation only).
    pub fn with_oscillation_guard(mut self, enabled: bool) -> Self {
        self.oscillation_guard = enabled;
        self
    }

    /// Enables or disables the cluster-mean sanity gate.
    pub fn with_mean_gate(mut self, enabled: bool) -> Self {
        self.mean_gate = enabled;
        self
    }

    /// Sets the per-tick jump bound of the mean sanity gate.
    pub fn with_mean_jump_bound(mut self, bound: f64) -> Self {
        self.mean_jump_bound = bound;
        self
    }

    /// Enables or disables intra-customer bundle trading.
    pub fn with_bundle_trading(mut self, enabled: bool) -> Self {
        self.bundle_trading = enabled;
        self
    }

    /// Sets the lease lifetime for bundle trading.
    pub fn with_lease_duration(mut self, duration: SimDuration) -> Self {
        self.lease_duration = duration;
        self
    }

    /// Enables survivable boot admission with the given knobs.
    pub fn with_survivability(mut self, config: SurvivabilityConfig) -> Self {
        self.survivability = Some(config);
        self
    }

    /// Enables backup-activated failover with the given knobs.
    pub fn with_failover(mut self, config: FailoverConfig) -> Self {
        self.failover = Some(config);
        self
    }

    /// Enables the priced cross-tenant spot market with the given knobs.
    pub fn with_spot_market(mut self, config: SpotMarketConfig) -> Self {
        self.spot_market = Some(config);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = VBundleConfig::default();
        assert_eq!(c.update_interval, SimDuration::from_mins(5));
        assert_eq!(c.rebalance_interval, SimDuration::from_mins(25));
        assert!((c.threshold - 0.183).abs() < 1e-12);
        assert!(!c.cost_benefit);
    }

    #[test]
    fn builder_methods() {
        let c = VBundleConfig::default()
            .with_threshold(0.3)
            .with_update_interval(SimDuration::from_secs(30))
            .with_rebalance_interval(SimDuration::from_secs(60))
            .with_cost_benefit(true);
        assert_eq!(c.threshold, 0.3);
        assert_eq!(c.update_interval, SimDuration::from_secs(30));
        assert_eq!(c.rebalance_interval, SimDuration::from_secs(60));
        assert!(c.cost_benefit);
    }

    #[test]
    fn trading_defaults_off_and_builders() {
        let c = VBundleConfig::default();
        assert!(!c.bundle_trading);
        assert_eq!(c.lease_duration, SimDuration::from_mins(15));

        let c = VBundleConfig::default()
            .with_bundle_trading(true)
            .with_lease_duration(SimDuration::from_mins(5));
        assert!(c.bundle_trading);
        assert_eq!(c.lease_duration, SimDuration::from_mins(5));
    }

    #[test]
    fn survivability_defaults_off_and_builder() {
        let c = VBundleConfig::default();
        assert!(c.survivability.is_none());
        let sc = SurvivabilityConfig::default();
        assert_eq!(sc.max_frac_per_domain, 0.5);
        assert_eq!(sc.backup, 0.25);
        let c = VBundleConfig::default().with_survivability(SurvivabilityConfig {
            max_frac_per_domain: 0.25,
            backup: 0.5,
        });
        let sc = c.survivability.expect("enabled");
        assert_eq!(sc.max_frac_per_domain, 0.25);
        assert_eq!(sc.backup, 0.5);
    }

    #[test]
    fn failover_defaults_off_and_builder() {
        let c = VBundleConfig::default();
        assert!(c.failover.is_none());
        let fc = FailoverConfig::default();
        assert_eq!(fc.probe_interval, SimDuration::from_mins(1));
        let c = VBundleConfig::default().with_failover(FailoverConfig {
            probe_interval: SimDuration::from_secs(5),
        });
        let fc = c.failover.expect("enabled");
        assert_eq!(fc.probe_interval, SimDuration::from_secs(5));
    }

    #[test]
    fn spot_market_defaults_off_and_builder() {
        let c = VBundleConfig::default();
        assert!(c.spot_market.is_none());
        let mc = SpotMarketConfig::default();
        assert_eq!(mc.max_price, 4.0);
        assert_eq!(mc.isolation_cap, 0.5);
        let c = VBundleConfig::default().with_spot_market(SpotMarketConfig {
            max_price: 2.0,
            ..SpotMarketConfig::default()
        });
        let mc = c.spot_market.expect("enabled");
        assert_eq!(mc.max_price, 2.0);
    }

    #[test]
    fn mean_gate_defaults_and_builders() {
        let c = VBundleConfig::default();
        assert!(c.mean_gate);
        assert_eq!(c.mean_jump_bound, 0.5);

        let c = VBundleConfig::default()
            .with_mean_gate(false)
            .with_mean_jump_bound(0.15);
        assert!(!c.mean_gate);
        assert_eq!(c.mean_jump_bound, 0.15);
    }
}
