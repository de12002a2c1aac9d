//! Spot-market model: a piecewise-constant price trace, a bid price, and
//! the correlated bulk revocations the market inflicts on nodes bid below
//! the clearing price.
//!
//! The market is exogenous to the simulation: a [`SpotMarket`] is compiled
//! into [`Revocation`] events *before* a run starts and injected through
//! the DES alongside the existing failure plan (see
//! [`crate::scheduler::FailurePlan::revocations`]). Every time the price
//! trace rises above the bid, all still-live spot nodes are reclaimed in
//! one correlated event, with a warning issued `warning_lead_s` earlier —
//! the window the scheduler uses to drain doomed nodes gracefully.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::scheduler::Revocation;

/// A spot-market position: the price trace the market will follow, the
/// per-node-hour bid, and the revocation warning lead time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotMarket {
    /// Piecewise-constant price trace: `(start_time_s, $/node-hour)`
    /// segments in ascending time order. The last segment extends forever.
    pub prices: Vec<(f64, f64)>,
    /// Bid in $/node-hour. Nodes survive while `price <= bid`.
    pub bid: f64,
    /// Seconds of warning before a revocation takes effect (0 = none).
    pub warning_lead_s: f64,
}

impl SpotMarket {
    /// A market whose price never moves (never revokes while `bid >= price`).
    #[cfg(test)]
    pub(crate) fn flat(price: f64, bid: f64) -> Self {
        SpotMarket {
            prices: vec![(0.0, price)],
            bid,
            warning_lead_s: 0.0,
        }
    }

    /// A deterministic synthetic price walk: `steps` segments of
    /// `step_s` seconds each, multiplicative noise around `mean` price.
    /// The same seed always yields the same trace.
    pub fn synthetic(seed: u64, mean: f64, volatility: f64, step_s: f64, steps: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5f0f_1234_9e37_79b9);
        let mut prices = Vec::with_capacity(steps.max(1));
        let mut level = mean;
        for i in 0..steps.max(1) {
            let shock: f64 = rng.random_range(-1.0f64..1.0);
            // Mean-reverting multiplicative walk, clamped to stay positive.
            level = (0.7 * level + 0.3 * mean) * (1.0 + volatility * shock);
            level = level.max(mean * 0.05);
            prices.push((i as f64 * step_s, level));
        }
        SpotMarket {
            prices,
            bid: mean,
            warning_lead_s: 0.0,
        }
    }

    /// Returns the market with a different bid.
    pub fn with_bid(mut self, bid: f64) -> Self {
        self.bid = bid;
        self
    }

    /// Returns the market with a revocation warning lead time.
    pub fn with_warning_lead(mut self, lead_s: f64) -> Self {
        self.warning_lead_s = lead_s;
        self
    }

    /// Times at which the price crosses from at-or-below the bid to above
    /// it — the instants the market reclaims all spot capacity.
    pub(crate) fn outbid_times(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut above = false;
        for &(start, price) in &self.prices {
            let now_above = price > self.bid;
            if now_above && !above {
                out.push(start);
            }
            above = now_above;
        }
        out
    }

    /// Compiles the market into correlated bulk [`Revocation`] events for
    /// the given spot node ids. Nodes already dead when an event fires are
    /// skipped by the scheduler, so repeated crossings are harmless.
    pub fn revocations(&self, spot_nodes: &[u32]) -> Vec<Revocation> {
        if spot_nodes.is_empty() {
            return Vec::new();
        }
        self.outbid_times()
            .into_iter()
            .map(|at_s| Revocation {
                at_s,
                nodes: spot_nodes.to_vec(),
                warning_lead_s: self.warning_lead_s,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbid_crossings_detected_once_per_excursion() {
        let m = SpotMarket {
            prices: vec![
                (0.0, 0.10),
                (50.0, 0.30), // crossing 1
                (80.0, 0.40), // still above: no new crossing
                (120.0, 0.10),
                (200.0, 0.30), // crossing 2
            ],
            bid: 0.25,
            warning_lead_s: 30.0,
        };
        assert_eq!(m.outbid_times(), vec![50.0, 200.0]);
        let revs = m.revocations(&[2, 3]);
        assert_eq!(revs.len(), 2);
        assert_eq!(revs[0].at_s, 50.0);
        assert_eq!(revs[0].nodes, vec![2, 3]);
        assert_eq!(revs[0].warning_lead_s, 30.0);
    }

    #[test]
    fn flat_market_never_revokes_at_or_below_bid() {
        let m = SpotMarket::flat(0.10, 0.10);
        assert!(m.outbid_times().is_empty());
        assert!(m.revocations(&[0]).is_empty());
        assert!(m.revocations(&[]).is_empty());
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_positive() {
        let a = SpotMarket::synthetic(7, 0.10, 0.5, 300.0, 24);
        let b = SpotMarket::synthetic(7, 0.10, 0.5, 300.0, 24);
        assert_eq!(a, b, "same seed must yield the same trace");
        assert!(a.prices.iter().all(|&(_, p)| p > 0.0));
        let c = SpotMarket::synthetic(8, 0.10, 0.5, 300.0, 24);
        assert_ne!(a, c, "different seeds should diverge");
    }
}
