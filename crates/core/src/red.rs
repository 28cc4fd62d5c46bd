//! RED-style drop probability (paper Equation 1).

use serde::{Deserialize, Serialize};

/// Maps the measured uplink throughput `b` to the conditional drop
/// probability `P_d` of unsolicited inbound packets, in the style of
/// Random Early Detection (Floyd & Jacobson):
///
/// ```text
///        ⎧ 0                 if b ≤ L
/// P_d =  ⎨ (b − L)/(H − L)   if L < b < H
///        ⎩ 1                 if b ≥ H
/// ```
///
/// `L` and `H` are throughput thresholds in bits per second. The paper's
/// Figure 9 evaluation uses `L = 50 Mbps`, `H = 100 Mbps`.
///
/// # Examples
///
/// ```
/// use upbound_core::DropPolicy;
///
/// let policy = DropPolicy::new(50e6, 100e6)?;
/// assert_eq!(policy.drop_probability(10e6), 0.0);
/// assert_eq!(policy.drop_probability(75e6), 0.5);
/// assert_eq!(policy.drop_probability(200e6), 1.0);
/// # Ok::<(), upbound_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropPolicy {
    low_bps: f64,
    high_bps: f64,
}

impl DropPolicy {
    /// Creates a policy with lower threshold `low_bps` and upper
    /// threshold `high_bps` (bits per second).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadThresholds`](crate::ConfigError) unless
    /// `0 <= low_bps < high_bps` and both are finite.
    pub fn new(low_bps: f64, high_bps: f64) -> Result<Self, crate::ConfigError> {
        if !(low_bps.is_finite() && high_bps.is_finite() && 0.0 <= low_bps && low_bps < high_bps) {
            return Err(crate::ConfigError::BadThresholds { low_bps, high_bps });
        }
        Ok(Self { low_bps, high_bps })
    }

    /// A policy that drops every unknown inbound packet regardless of
    /// load (`P_d ≡ 1`) — the configuration of the paper's Figure 8
    /// comparison ("drop all inbound packets without states").
    pub fn drop_all() -> Self {
        Self {
            low_bps: -1.0,
            high_bps: 0.0,
        }
    }

    /// The paper's Figure 9 configuration: `L = 50 Mbps`, `H = 100 Mbps`.
    pub fn paper_figure9() -> Self {
        Self {
            low_bps: 50e6,
            high_bps: 100e6,
        }
    }

    /// Lower threshold `L` in bits per second.
    pub fn low_bps(&self) -> f64 {
        self.low_bps
    }

    /// Upper threshold `H` in bits per second.
    pub fn high_bps(&self) -> f64 {
        self.high_bps
    }

    /// Evaluates Equation 1 for throughput `b` (bits per second).
    pub fn drop_probability(&self, throughput_bps: f64) -> f64 {
        if throughput_bps <= self.low_bps {
            0.0
        } else if throughput_bps >= self.high_bps {
            1.0
        } else {
            (throughput_bps - self.low_bps) / (self.high_bps - self.low_bps)
        }
    }

    /// Equation 1 with the throughput read lazily: `rate_bps` is called
    /// only when the result can depend on it.
    ///
    /// A measured rate is never negative, so under `H ≤ 0` (the
    /// [`drop_all`](Self::drop_all) policy) every rate lies in the
    /// `b ≥ H` region and `P_d` is 1 without a read. The packet path
    /// derives `P_d` through this entry point, so a drop-all filter
    /// never scans its uplink monitor. For any `rate_bps() ≥ 0` the
    /// result equals `drop_probability(rate_bps())`.
    #[inline]
    pub fn drop_probability_lazy(&self, rate_bps: impl FnOnce() -> f64) -> f64 {
        if self.high_bps <= 0.0 {
            return 1.0;
        }
        self.drop_probability(rate_bps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_of_equation_one() {
        let p = DropPolicy::new(50.0, 100.0).unwrap();
        assert_eq!(p.drop_probability(0.0), 0.0);
        assert_eq!(p.drop_probability(50.0), 0.0); // b ≤ L
        assert!((p.drop_probability(60.0) - 0.2).abs() < 1e-12);
        assert!((p.drop_probability(99.0) - 0.98).abs() < 1e-12);
        assert_eq!(p.drop_probability(100.0), 1.0); // b ≥ H
        assert_eq!(p.drop_probability(1e12), 1.0);
    }

    #[test]
    fn probability_is_monotone_and_clamped() {
        let p = DropPolicy::paper_figure9();
        let mut prev = 0.0;
        for i in 0..200 {
            let b = i as f64 * 1e6;
            let pd = p.drop_probability(b);
            assert!(pd >= prev);
            assert!((0.0..=1.0).contains(&pd));
            prev = pd;
        }
    }

    #[test]
    fn drop_all_always_drops() {
        let p = DropPolicy::drop_all();
        assert_eq!(p.drop_probability(0.0), 1.0);
        assert_eq!(p.drop_probability(1e9), 1.0);
    }

    /// Evaluates the lazy entry point at `rate`, returning `P_d` and how
    /// many times the rate closure ran.
    fn lazy_at(policy: &DropPolicy, rate: f64) -> (f64, u32) {
        let mut calls = 0;
        let p_d = policy.drop_probability_lazy(|| {
            calls += 1;
            rate
        });
        (p_d, calls)
    }

    #[test]
    fn drop_all_never_reads_the_rate() {
        let p = DropPolicy::drop_all();
        for rate in [0.0, 1e-9, 1.0, 5e7, 1e12, f64::MAX] {
            assert_eq!(lazy_at(&p, rate), (p.drop_probability(rate), 0));
        }
    }

    proptest::proptest! {
        /// The lazy entry point is Equation 1 for every valid curve at
        /// every non-negative rate, and a curve with `H > 0` reads the
        /// rate exactly once.
        #[test]
        fn lazy_rate_matches_equation_one(
            low in 0.0f64..1e9,
            width in 1e-3f64..1e9,
            rate in proptest::prop_oneof![0.0f64..2e9, proptest::strategy::Just(0.0)],
        ) {
            let p = DropPolicy::new(low, low + width).unwrap();
            proptest::prop_assert_eq!(lazy_at(&p, rate), (p.drop_probability(rate), 1));
            let all = DropPolicy::drop_all();
            proptest::prop_assert_eq!(lazy_at(&all, rate), (all.drop_probability(rate), 0));
        }
    }

    #[test]
    fn invalid_thresholds_rejected() {
        assert!(DropPolicy::new(100.0, 50.0).is_err());
        assert!(DropPolicy::new(50.0, 50.0).is_err());
        assert!(DropPolicy::new(-1.0, 50.0).is_err());
        assert!(DropPolicy::new(0.0, f64::INFINITY).is_err());
        assert!(DropPolicy::new(0.0, 1.0).is_ok());
    }

    #[test]
    fn accessors_expose_thresholds() {
        let p = DropPolicy::paper_figure9();
        assert_eq!(p.low_bps(), 50e6);
        assert_eq!(p.high_bps(), 100e6);
    }
}
