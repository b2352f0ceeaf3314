//! The phi-accrual failure detector with SWIM-style suspicion tracking.
//!
//! Instead of a binary "alive until N missed probes" verdict, a phi-accrual
//! detector (Hayashibara et al., SRDS 2004) keeps a sliding window of
//! inter-arrival times per peer and outputs a *suspicion level*
//! `phi(t) = -log10(P(next arrival later than t))` under a normal
//! distribution fitted to the window. On a lossy or slow link the window
//! absorbs the longer gaps, so the same silence that would trip a fixed
//! `3 × interval` deadline yields a low phi — the detector adapts to the
//! link instead of evicting a live peer.
//!
//! Crossing the threshold does not kill the peer either: the detector
//! moves it to *suspect* and the protocol layer is expected to launch
//! SWIM-style indirect probes (ask `k` intermediaries to ping the suspect
//! on our behalf). Only when the confirmation grace expires with no proof
//! of life — direct or relayed — does [`FailureDetector::evaluate`] return
//! [`Verdict::Dead`].
//!
//! Everything here is pure state driven by the simulated clock: no wall
//! time, no hidden randomness, so detection decisions are deterministic
//! and replayable.

use std::collections::{BTreeMap, VecDeque};

use vbundle_sim::{SimDuration, SimTime};

/// Inter-arrival samples kept per peer (16): enough for a stable fit,
/// short enough to track a link whose cadence changes.
const WINDOW: usize = 16;
/// Suspicion level at which a peer becomes suspect (8): a false-positive
/// probability of 1e-8 under the fitted model.
pub const PHI_THRESHOLD: f64 = 8.0;
/// Floor on the fitted standard deviation (200 ms): very regular arrival
/// streams (a deterministic simulator is the extreme case) would
/// otherwise make the detector hair-triggered.
const MIN_STD_DEV: SimDuration = SimDuration::from_millis(200);
/// Expected inter-arrival time before any sample has been observed (1 s);
/// per-peer bootstrap estimates (e.g. probe interval + RTT) override it
/// via [`FailureDetector::evaluate_with_estimate`].
pub const FIRST_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Slack the detector adds to the fitted mean before phi starts to climb
/// (none): the suspect grace, not a pause, absorbs one-off gaps.
const ACCEPTABLE_PAUSE: SimDuration = SimDuration::ZERO;
/// How long a suspect may redeem itself (e.g. through an indirect probe
/// relayed by an intermediary) before it is declared dead (3 s).
const CONFIRM_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// A bounded window of the last 16 inter-arrival times for one
/// peer.
#[derive(Debug, Clone)]
pub struct ArrivalWindow {
    intervals: VecDeque<u64>, // micros
    last: Option<SimTime>,
    first_estimate: u64, // micros
}

impl ArrivalWindow {
    /// An empty window that will treat `first_estimate` as the expected
    /// cadence until real samples arrive.
    pub fn new(first_estimate: SimDuration) -> Self {
        ArrivalWindow {
            intervals: VecDeque::with_capacity(WINDOW),
            last: None,
            first_estimate: first_estimate.as_micros().max(1),
        }
    }

    /// Starts the silence clock without recording an interval — call when
    /// a peer first becomes interesting, so that it can accrue suspicion
    /// even if it never sends anything.
    pub fn observe(&mut self, now: SimTime) {
        if self.last.is_none() {
            self.last = Some(now);
        }
    }

    /// Records a proof-of-life arrival.
    pub fn record(&mut self, now: SimTime) {
        if let Some(last) = self.last {
            if self.intervals.len() == WINDOW {
                self.intervals.pop_front();
            }
            self.intervals
                .push_back(now.saturating_since(last).as_micros());
        }
        self.last = Some(now);
    }

    /// When the peer last proved itself (or started being observed).
    pub fn last_seen(&self) -> Option<SimTime> {
        self.last
    }

    /// Number of recorded inter-arrival samples.
    pub fn samples(&self) -> usize {
        self.intervals.len()
    }

    /// Fitted mean inter-arrival time in microseconds.
    fn mean_micros(&self) -> f64 {
        if self.intervals.is_empty() {
            self.first_estimate as f64
        } else {
            self.intervals.iter().sum::<u64>() as f64 / self.intervals.len() as f64
        }
    }

    /// Fitted standard deviation in microseconds around the fitted `mean`,
    /// floored at `min_std`.
    fn std_micros(&self, mean: f64, min_std: f64) -> f64 {
        if self.intervals.len() < 2 {
            return min_std;
        }
        let var = self
            .intervals
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (self.intervals.len() - 1) as f64;
        var.sqrt().max(min_std)
    }

    /// The suspicion level at `now`: `-log10(P(arrival later than now))`
    /// under a normal fit of the window (logistic approximation to the
    /// normal CDF, as in the Akka/Cassandra implementations), with `pause`
    /// of tolerated silence added to the fitted mean.
    pub fn phi(&self, now: SimTime, pause: SimDuration) -> f64 {
        let Some(last) = self.last else {
            return 0.0;
        };
        let elapsed = now.saturating_since(last).as_micros() as f64;
        let fitted = self.mean_micros();
        let std = self.std_micros(fitted, MIN_STD_DEV.as_micros() as f64);
        let mean = fitted + pause.as_micros() as f64;
        let y = (elapsed - mean) / std;
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if elapsed > mean {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        };
        -p_later.max(f64::MIN_POSITIVE).log10()
    }
}

/// What [`FailureDetector::evaluate`] concluded about a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Suspicion below threshold; keep probing normally.
    Alive,
    /// Phi crossed the threshold just now: the caller should launch
    /// indirect probes through a few intermediaries.
    NewlySuspect,
    /// Already suspect, confirmation grace still running.
    Suspect,
    /// The grace expired with no proof of life: evict.
    Dead,
}

/// A multi-peer phi-accrual detector with SWIM suspicion state.
///
/// `K` identifies a peer (a node id, or a `(group, child)` link). All maps
/// are ordered so iteration — and therefore every downstream decision — is
/// deterministic.
#[derive(Debug, Clone)]
pub struct FailureDetector<K: Ord + Copy> {
    peers: BTreeMap<K, PeerState>,
}

#[derive(Debug, Clone)]
struct PeerState {
    window: ArrivalWindow,
    suspect_since: Option<SimTime>,
}

impl<K: Ord + Copy> Default for FailureDetector<K> {
    fn default() -> Self {
        FailureDetector::new()
    }
}

impl<K: Ord + Copy> FailureDetector<K> {
    /// Creates a detector tracking no peers.
    pub fn new() -> Self {
        FailureDetector {
            peers: BTreeMap::new(),
        }
    }

    fn entry(&mut self, key: K, now: SimTime, estimate: SimDuration) -> &mut PeerState {
        let st = self.peers.entry(key).or_insert_with(|| PeerState {
            window: ArrivalWindow::new(estimate),
            suspect_since: None,
        });
        st.window.observe(now);
        st
    }

    /// Starts tracking `key` (idempotent), with the default
    /// [`FIRST_INTERVAL`] cadence estimate.
    pub fn observe(&mut self, key: K, now: SimTime) {
        self.entry(key, now, FIRST_INTERVAL);
    }

    /// Starts tracking `key` with an explicit cadence estimate — e.g.
    /// probe interval plus the peer's RTT sampled from the latency model.
    pub fn observe_with_estimate(&mut self, key: K, now: SimTime, estimate: SimDuration) {
        self.entry(key, now, estimate);
    }

    /// Records a proof of life for `key` and clears any suspicion.
    pub fn heartbeat(&mut self, key: K, now: SimTime) {
        let st = self.entry(key, now, FIRST_INTERVAL);
        st.window.record(now);
        st.suspect_since = None;
    }

    /// The current suspicion level for `key` (0 if untracked).
    pub fn phi(&self, key: &K, now: SimTime) -> f64 {
        self.peers
            .get(key)
            .map(|st| st.window.phi(now, ACCEPTABLE_PAUSE))
            .unwrap_or(0.0)
    }

    /// Whether `key` is currently under suspicion.
    pub fn is_suspect(&self, key: &K) -> bool {
        self.peers
            .get(key)
            .is_some_and(|st| st.suspect_since.is_some())
    }

    /// Classifies `key` at `now`, advancing the suspicion state machine.
    pub fn evaluate(&mut self, key: K, now: SimTime) -> Verdict {
        self.evaluate_with_estimate(key, now, FIRST_INTERVAL)
    }

    /// [`FailureDetector::evaluate`] for a peer that, if not yet tracked,
    /// starts with an explicit cadence estimate: the same verdict as
    /// [`FailureDetector::observe_with_estimate`] followed by `evaluate`,
    /// in one map lookup.
    pub fn evaluate_with_estimate(
        &mut self,
        key: K,
        now: SimTime,
        estimate: SimDuration,
    ) -> Verdict {
        let st = self.entry(key, now, estimate);
        if st.window.phi(now, ACCEPTABLE_PAUSE) < PHI_THRESHOLD {
            st.suspect_since = None;
            return Verdict::Alive;
        }
        match st.suspect_since {
            None => {
                st.suspect_since = Some(now);
                Verdict::NewlySuspect
            }
            Some(since) if now.saturating_since(since) >= CONFIRM_TIMEOUT => Verdict::Dead,
            Some(_) => Verdict::Suspect,
        }
    }

    /// Stops tracking `key` (evicted, departed, or no longer a neighbor).
    pub fn forget(&mut self, key: &K) {
        self.peers.remove(key);
    }

    /// Keeps only the peers the predicate approves of.
    pub fn retain(&mut self, mut f: impl FnMut(&K) -> bool) {
        self.peers.retain(|k, _| f(k));
    }

    /// Drops all peer state (e.g. after a restart: pre-crash arrival
    /// history would read as ancient silence and evict everyone).
    pub fn clear(&mut self) {
        self.peers.clear();
    }

    /// Number of peers currently tracked.
    pub fn tracked(&self) -> usize {
        self.peers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn phi_grows_with_silence() {
        let mut w = ArrivalWindow::new(SimDuration::from_secs(1));
        for s in 0..8 {
            w.record(t(s));
        }
        let p1 = w.phi(t(9), SimDuration::ZERO);
        let p2 = w.phi(t(12), SimDuration::ZERO);
        assert!(p1 < p2, "phi must be monotone in silence: {p1} vs {p2}");
        assert!(w.phi(t(8), SimDuration::ZERO) < 1.0);
        assert!(p2 > 8.0, "5 s of silence on a 1 s cadence is damning: {p2}");
    }

    #[test]
    fn irregular_links_are_tolerated() {
        // Same total silence, but the window has seen multi-second gaps
        // before (a lossy link): phi stays low where the regular stream
        // above would have evicted.
        let mut w = ArrivalWindow::new(SimDuration::from_secs(1));
        for &s in &[0u64, 1, 4, 5, 8, 9, 12, 13] {
            w.record(t(s));
        }
        assert!(w.phi(t(16), SimDuration::ZERO) < 8.0);
    }

    #[test]
    fn suspect_state_machine_escalates_then_redeems() {
        let mut d: FailureDetector<u64> = FailureDetector::new();
        for s in 0..6 {
            d.heartbeat(7, t(s));
        }
        assert_eq!(d.evaluate(7, t(6)), Verdict::Alive);
        // Silence: threshold crossing yields exactly one NewlySuspect.
        assert_eq!(d.evaluate(7, t(9)), Verdict::NewlySuspect);
        assert_eq!(d.evaluate(7, t(10)), Verdict::Suspect);
        // A (relayed) proof of life redeems the suspect.
        d.heartbeat(7, t(10));
        assert_eq!(d.evaluate(7, t(11)), Verdict::Alive);
        // Silence again — longer this time, because the window has now
        // absorbed the 5 s gap and adapted its expectations — and this
        // time nobody vouches: dead after the confirmation grace, and not
        // a microsecond before.
        assert_eq!(d.evaluate(7, t(22)), Verdict::NewlySuspect);
        let deadline = t(22) + CONFIRM_TIMEOUT;
        assert_eq!(
            d.evaluate(7, deadline - SimDuration::from_micros(1)),
            Verdict::Suspect
        );
        assert_eq!(d.evaluate(7, deadline), Verdict::Dead);
    }

    #[test]
    fn observe_alone_accrues_suspicion() {
        let mut d: FailureDetector<u64> = FailureDetector::new();
        d.observe_with_estimate(1, t(0), SimDuration::from_secs(1));
        assert!(matches!(
            d.evaluate(1, t(30)),
            Verdict::NewlySuspect | Verdict::Suspect
        ));
    }

    #[test]
    fn forget_and_clear_reset_state() {
        let mut d: FailureDetector<u64> = FailureDetector::new();
        d.heartbeat(1, t(0));
        d.heartbeat(2, t(0));
        d.forget(&1);
        assert_eq!(d.tracked(), 1);
        d.clear();
        assert_eq!(d.tracked(), 0);
        assert_eq!(d.phi(&2, t(5)), 0.0);
    }

    /// The two-pass formula `ArrivalWindow::phi` used before it computed
    /// the fitted mean once: the standard deviation re-derives the mean.
    fn two_pass_phi(w: &ArrivalWindow, now: SimTime, pause: SimDuration) -> f64 {
        let Some(last) = w.last else {
            return 0.0;
        };
        let elapsed = now.saturating_since(last).as_micros() as f64;
        let mean = w.mean_micros() + pause.as_micros() as f64;
        let min_std = MIN_STD_DEV.as_micros() as f64;
        let std = if w.intervals.len() < 2 {
            min_std
        } else {
            let m = w.mean_micros();
            let var = w
                .intervals
                .iter()
                .map(|&x| {
                    let d = x as f64 - m;
                    d * d
                })
                .sum::<f64>()
                / (w.intervals.len() - 1) as f64;
            var.sqrt().max(min_std)
        };
        let y = (elapsed - mean) / std;
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if elapsed > mean {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        };
        -p_later.max(f64::MIN_POSITIVE).log10()
    }

    #[test]
    fn phi_matches_two_pass_formula_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let mut w =
                ArrivalWindow::new(SimDuration::from_micros(rng.gen_range(1..3_000_000u64)));
            let mut now = 0u64;
            for _ in 0..rng.gen_range(0..40usize) {
                now += rng.gen_range(0..4_000_000u64);
                w.record(SimTime::from_micros(now));
            }
            for _ in 0..8 {
                let at = SimTime::from_micros(now + rng.gen_range(0..20_000_000u64));
                let pause = SimDuration::from_micros(
                    rng.gen_range(0..2u64) * rng.gen_range(0..1_000_000u64),
                );
                assert_eq!(
                    w.phi(at, pause).to_bits(),
                    two_pass_phi(&w, at, pause).to_bits(),
                    "window {:?} at {at:?} pause {pause:?}",
                    w.intervals
                );
            }
        }
    }

    #[test]
    fn evaluate_with_estimate_matches_observe_then_evaluate() {
        // Two detectors see the same heartbeat/evaluate trace over a few
        // peers with per-peer estimates; one takes the two-call sequence,
        // the other the fused call. Every verdict must agree.
        let mut fused: FailureDetector<u64> = FailureDetector::new();
        let mut paired: FailureDetector<u64> = FailureDetector::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut now = 0u64;
        let mut seen = [false; 4];
        for step in 0..5_000 {
            now += rng.gen_range(0..700_000u64);
            let at = SimTime::from_micros(now);
            let peer = rng.gen_range(0..6u64);
            if rng.gen_range(0..3u32) == 0 {
                fused.heartbeat(peer, at);
                paired.heartbeat(peer, at);
            } else {
                let estimate = SimDuration::from_micros(500_000 + peer * 300_000);
                paired.observe_with_estimate(peer, at, estimate);
                let want = paired.evaluate(peer, at);
                assert_eq!(
                    fused.evaluate_with_estimate(peer, at, estimate),
                    want,
                    "step {step}"
                );
                seen[want as usize] = true;
            }
            if rng.gen_range(0..200u32) == 0 {
                fused.forget(&peer);
                paired.forget(&peer);
            }
        }
        assert_eq!(seen, [true; 4], "the trace must reach every verdict");
    }
}
