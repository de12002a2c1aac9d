//! Per-tenant token-bucket quotas.
//!
//! Each tenant owns one bucket. Admitting a request costs tokens —
//! `run` much more than the estimate-only fast lane — and tokens refill
//! continuously, so a tenant that bursts past its allowance is throttled
//! (with an exact `retry_after_s`) while other tenants proceed untouched.
//! Time is an explicit parameter, not a clock read, so the policy is unit
//! testable and the service owns the single monotonic clock.

/// Quota policy applied to every tenant.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Bucket capacity: the largest burst a tenant can spend at once.
    pub capacity: f64,
    /// Tokens refilled per second.
    pub refill_per_s: f64,
    /// Tokens one `run` request costs.
    pub run_cost: f64,
    /// Tokens one `plan`/`optimize`/`check-status` request costs.
    pub cheap_cost: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            capacity: 60.0,
            refill_per_s: 2.0,
            run_cost: 10.0,
            cheap_cost: 1.0,
        }
    }
}

/// One tenant's token bucket. Starts full.
///
/// ```
/// use cumulon_serve::quota::TokenBucket;
/// let mut b = TokenBucket::new(10.0, 1.0);
/// assert!(b.try_take(10.0, 0.0).is_ok());       // burst the full bucket
/// let wait = b.try_take(5.0, 0.0).unwrap_err(); // empty: throttled
/// assert_eq!(wait, 5.0);                        // 5 tokens at 1/s
/// assert!(b.try_take(5.0, 5.0).is_ok());        // refilled by then
/// ```
#[derive(Clone, Debug)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_s: f64,
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A full bucket with the given capacity and refill rate.
    pub fn new(capacity: f64, refill_per_s: f64) -> TokenBucket {
        TokenBucket {
            capacity,
            refill_per_s,
            tokens: capacity,
            last_s: 0.0,
        }
    }

    /// Spends `cost` tokens at time `now_s` (seconds on any monotonic
    /// scale shared by all calls). `Ok` admits; `Err(retry_after_s)`
    /// throttles with the exact wait until the bucket will hold `cost`.
    pub fn try_take(&mut self, cost: f64, now_s: f64) -> Result<(), f64> {
        // `max(0)` guards against a caller handing times out of order;
        // the bucket never drains by waiting.
        let dt = (now_s - self.last_s).max(0.0);
        self.tokens = (self.tokens + dt * self.refill_per_s).min(self.capacity);
        self.last_s = now_s;
        if self.tokens >= cost {
            self.tokens -= cost;
            return Ok(());
        }
        let missing = cost - self.tokens;
        if self.refill_per_s <= 0.0 || cost > self.capacity {
            // Never admissible; report an hour rather than infinity.
            return Err(3_600.0);
        }
        Err(missing / self.refill_per_s)
    }

    /// Tokens currently available at time `now_s`, without spending.
    #[cfg(test)]
    pub(crate) fn available(&self, now_s: f64) -> f64 {
        let dt = (now_s - self.last_s).max(0.0);
        (self.tokens + dt * self.refill_per_s).min(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = TokenBucket::new(4.0, 2.0);
        assert!(b.try_take(4.0, 0.0).is_ok());
        // A week later the bucket holds capacity, not capacity + refill.
        assert_eq!(b.available(604_800.0), 4.0);
        assert!(b.try_take(4.0, 604_800.0).is_ok());
        assert!(b.try_take(0.1, 604_800.0).is_err());
    }

    #[test]
    fn retry_after_is_exact() {
        let mut b = TokenBucket::new(10.0, 0.5);
        assert!(b.try_take(9.0, 0.0).is_ok()); // 1 token left
        let wait = b.try_take(3.0, 0.0).unwrap_err();
        assert!(
            (wait - 4.0).abs() < 1e-12,
            "2 missing at 0.5/s = 4s, got {wait}"
        );
        // Failed takes don't spend: the same call at now + wait admits.
        assert!(b.try_take(3.0, wait).is_ok());
    }

    #[test]
    fn impossible_costs_do_not_spin() {
        let mut b = TokenBucket::new(5.0, 1.0);
        assert_eq!(b.try_take(6.0, 0.0), Err(3_600.0));
        let mut frozen = TokenBucket::new(5.0, 0.0);
        assert!(frozen.try_take(5.0, 0.0).is_ok());
        assert_eq!(frozen.try_take(1.0, 100.0), Err(3_600.0));
    }

    #[test]
    fn out_of_order_times_never_drain() {
        let mut b = TokenBucket::new(10.0, 1.0);
        assert!(b.try_take(5.0, 100.0).is_ok());
        // An earlier timestamp neither refills nor drains.
        assert_eq!(b.available(50.0), 5.0);
        assert!(b.try_take(5.0, 50.0).is_ok());
    }
}
