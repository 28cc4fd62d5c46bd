//! Saturation sentinel and graceful-degradation ladder.
//!
//! The paper's bitmap filter has a blind spot under inbound floods: an
//! attacker who elicits enough outbound responses (SYN→RST, UDP→ICMP)
//! saturates the bit vectors, driving the utilization `U` — and with it
//! the penetration probability `U^m` of Equation 2 — toward 1. Every
//! unknown tuple then looks solicited and the filter silently stops
//! filtering.
//!
//! This module adds the *overload ladder*: a hysteresis-guarded state
//! machine (`Normal → Pressure → Saturated`) fed by a sentinel that
//! samples the current vector's fill ratio (an O(1) read — the
//! [`AtomicBitVec`](crate::AtomicBitVec) maintains its popcount) and
//! projects the expected false-positive probability `fill^m`. The ladder
//! drives three graceful-degradation actions inside
//! [`BitmapFilter`](crate::BitmapFilter):
//!
//! * **`P_d` clamp** — while degraded, the effective drop probability
//!   for *unmarked* inbound packets is raised to at least the state's
//!   clamp. The clamp is applied strictly after the bitmap probe, so it
//!   structurally cannot flip a marked (solicited) flow from Pass to
//!   Drop: known tuples return before any drop draw runs.
//! * **Early epoch rotation** — while `Saturated`, each rotation tick
//!   performs one extra rotation, shedding attacker marks at twice the
//!   configured rate. This degrades the guaranteed mark-survival floor
//!   from `(k−1)·Δt` to `⌊(k−1)/2⌋·Δt` — the documented rotation bound
//!   the overload proptests pin down.
//! * **Fail-mode-aware emergency bypass** — an availability-first
//!   ([`FailMode::Open`](crate::FailMode)) deployment never hardens the
//!   clamp past the `Pressure` level even when `Saturated`: it relies on
//!   early rotation alone, trading attack suppression for fewer
//!   collateral drops. Fail-closed deployments apply the full clamp.
//!
//! The ladder is pure *derived* state — a function of the bitmap fill —
//! so it is deliberately not part of the snapshot format: a restored
//! filter re-derives its state from the restored bitmap on the first
//! inbound packet.

use crate::config::FailMode;
use crate::AtomicBitmap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use upbound_net::Timestamp;

/// The rungs of the degradation ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OverloadState {
    /// Fill is healthy; the ladder changes nothing.
    #[default]
    Normal,
    /// Fill is elevated: the unsolicited-inbound `P_d` clamp engages.
    Pressure,
    /// Fill threatens the filtering guarantee: rotation doubles and the
    /// clamp hardens (fail-closed only).
    Saturated,
}

impl OverloadState {
    /// Stable numeric encoding (gauge value, event payloads).
    pub fn as_u8(self) -> u8 {
        match self {
            OverloadState::Normal => 0,
            OverloadState::Pressure => 1,
            OverloadState::Saturated => 2,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8); out-of-range decodes clamp to
    /// `Saturated` (the safe interpretation of an unknown rung).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => OverloadState::Normal,
            1 => OverloadState::Pressure,
            _ => OverloadState::Saturated,
        }
    }

    /// The stable lowercase spelling used in events and logs.
    pub fn label(self) -> &'static str {
        match self {
            OverloadState::Normal => "normal",
            OverloadState::Pressure => "pressure",
            OverloadState::Saturated => "saturated",
        }
    }
}

/// Error parsing an [`OverloadPolicy`] spec string.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OverloadPolicyError {
    /// Not a recognized preset or `key=value` field.
    UnknownField(String),
    /// A numeric field failed to parse or was out of `[0, 1]`.
    BadValue(String),
    /// Thresholds must satisfy `0 < pressure < saturated <= 1` and
    /// `hysteresis < pressure`.
    BadThresholds,
}

impl std::fmt::Display for OverloadPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadPolicyError::UnknownField(s) => {
                write!(f, "unknown overload-policy field {s:?}")
            }
            OverloadPolicyError::BadValue(s) => {
                write!(f, "overload-policy value out of range: {s:?}")
            }
            OverloadPolicyError::BadThresholds => write!(
                f,
                "overload-policy thresholds must satisfy 0 < pressure < saturated <= 1 \
                 and hysteresis < pressure"
            ),
        }
    }
}

impl std::error::Error for OverloadPolicyError {}

/// Thresholds and actions of the degradation ladder.
///
/// Construct with the presets ([`off`](Self::off),
/// [`balanced`](Self::balanced), [`strict`](Self::strict)) or parse a
/// CLI spec via [`parse`](Self::parse). The default is
/// [`off`](Self::off): the ladder never engages and the filter behaves
/// exactly as the paper specifies — which is what keeps every
/// sharded-vs-sequential equivalence property intact unless an operator
/// opts in.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPolicy {
    enabled: bool,
    /// Enter `Pressure` at fill ≥ this.
    pressure_fill: f64,
    /// Enter `Saturated` at fill ≥ this.
    saturated_fill: f64,
    /// De-escalate only below `threshold − hysteresis` (flap guard).
    hysteresis: f64,
    /// Minimum effective `P_d` for unmarked inbound while in `Pressure`.
    pressure_clamp: f64,
    /// Minimum effective `P_d` while `Saturated` (fail-closed only).
    saturated_clamp: f64,
    /// Double the rotation rate while `Saturated`.
    early_rotation: bool,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy::off()
    }
}

impl OverloadPolicy {
    /// The ladder never engages (paper-faithful behavior; the default).
    pub fn off() -> Self {
        OverloadPolicy {
            enabled: false,
            pressure_fill: 1.0,
            saturated_fill: 1.0,
            hysteresis: 0.0,
            pressure_clamp: 0.0,
            saturated_clamp: 0.0,
            early_rotation: false,
        }
    }

    /// Production default: `Pressure` at 50% fill (`U^3 ≈ 0.13`),
    /// `Saturated` at 75% (`U^3 ≈ 0.42`), 5-point hysteresis, clamps of
    /// 0.5 / 1.0, early rotation on.
    pub fn balanced() -> Self {
        OverloadPolicy {
            enabled: true,
            pressure_fill: 0.50,
            saturated_fill: 0.75,
            hysteresis: 0.05,
            pressure_clamp: 0.5,
            saturated_clamp: 1.0,
            early_rotation: true,
        }
    }

    /// Aggressive: engages earlier (35% / 60%) and clamps harder in
    /// `Pressure` (0.75), for deployments that prefer bounding over
    /// availability.
    pub fn strict() -> Self {
        OverloadPolicy {
            enabled: true,
            pressure_fill: 0.35,
            saturated_fill: 0.60,
            hysteresis: 0.05,
            pressure_clamp: 0.75,
            saturated_clamp: 1.0,
            early_rotation: true,
        }
    }

    /// Parses a CLI spec: a preset name (`off`, `balanced`, `strict`)
    /// optionally followed by `key=value` overrides, comma-separated.
    /// Recognized keys: `pressure`, `saturated`, `hysteresis`,
    /// `pressure-clamp`, `saturated-clamp`, `early-rotation` (bool).
    ///
    /// ```
    /// use upbound_core::OverloadPolicy;
    /// let p = OverloadPolicy::parse("balanced,pressure=0.4").unwrap();
    /// assert!(p.enabled());
    /// assert_eq!(p.pressure_fill(), 0.4);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an [`OverloadPolicyError`] for unknown fields, values
    /// outside `[0, 1]`, or inconsistent thresholds.
    pub fn parse(spec: &str) -> Result<Self, OverloadPolicyError> {
        let mut parts = spec.split(',');
        let head = parts.next().unwrap_or("").trim();
        let mut policy = match head {
            "off" => OverloadPolicy::off(),
            "balanced" => OverloadPolicy::balanced(),
            "strict" => OverloadPolicy::strict(),
            other => {
                return Err(OverloadPolicyError::UnknownField(other.to_string()));
            }
        };
        for part in parts {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| OverloadPolicyError::UnknownField(part.to_string()))?;
            let fraction = |v: &str| -> Result<f64, OverloadPolicyError> {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| (0.0..=1.0).contains(x))
                    .ok_or_else(|| OverloadPolicyError::BadValue(part.to_string()))
            };
            match key.trim() {
                "pressure" => policy.pressure_fill = fraction(value)?,
                "saturated" => policy.saturated_fill = fraction(value)?,
                "hysteresis" => policy.hysteresis = fraction(value)?,
                "pressure-clamp" => policy.pressure_clamp = fraction(value)?,
                "saturated-clamp" => policy.saturated_clamp = fraction(value)?,
                "early-rotation" => {
                    policy.early_rotation = match value.trim() {
                        "true" | "on" | "1" => true,
                        "false" | "off" | "0" => false,
                        _ => return Err(OverloadPolicyError::BadValue(part.to_string())),
                    }
                }
                other => return Err(OverloadPolicyError::UnknownField(other.to_string())),
            }
        }
        if policy.enabled
            && !(policy.pressure_fill > 0.0
                && policy.pressure_fill < policy.saturated_fill
                && policy.saturated_fill <= 1.0
                && policy.hysteresis < policy.pressure_fill)
        {
            return Err(OverloadPolicyError::BadThresholds);
        }
        Ok(policy)
    }

    /// `true` when the ladder can engage at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The fill ratio at which `Pressure` engages.
    pub fn pressure_fill(&self) -> f64 {
        self.pressure_fill
    }

    /// The fill ratio at which `Saturated` engages.
    pub fn saturated_fill(&self) -> f64 {
        self.saturated_fill
    }

    /// The de-escalation hysteresis margin.
    pub fn hysteresis(&self) -> f64 {
        self.hysteresis
    }

    /// Whether `Saturated` doubles the rotation rate.
    pub fn early_rotation(&self) -> bool {
        self.early_rotation
    }

    /// The state the sentinel targets for `fill`, given the ladder is
    /// currently at `from` (hysteresis makes the map direction-aware).
    fn target_state(&self, from: OverloadState, fill: f64) -> OverloadState {
        // Escalation uses the raw thresholds; de-escalation requires the
        // fill to clear the threshold by the hysteresis margin, so a
        // fill hovering at a boundary cannot flap the ladder.
        let up = if fill >= self.saturated_fill {
            OverloadState::Saturated
        } else if fill >= self.pressure_fill {
            OverloadState::Pressure
        } else {
            OverloadState::Normal
        };
        if up >= from {
            return up;
        }
        let down = if fill >= self.saturated_fill - self.hysteresis {
            OverloadState::Saturated
        } else if fill >= self.pressure_fill - self.hysteresis {
            OverloadState::Pressure
        } else {
            OverloadState::Normal
        };
        down.min(from)
    }

    /// The minimum effective `P_d` for unmarked inbound packets in
    /// `state`, under `fail_mode`. This is the fail-mode-aware emergency
    /// bypass: a fail-open deployment caps the clamp at the `Pressure`
    /// level even when `Saturated`.
    pub fn clamp_for(&self, state: OverloadState, fail_mode: FailMode) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        match (state, fail_mode) {
            (OverloadState::Normal, _) => 0.0,
            (OverloadState::Pressure, _) => self.pressure_clamp,
            (OverloadState::Saturated, FailMode::Closed) => self.saturated_clamp,
            (OverloadState::Saturated, FailMode::Open) => self.pressure_clamp,
        }
    }
}

/// A ladder transition, handed to
/// [`FilterObserver::on_overload`](crate::FilterObserver::on_overload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadEvent {
    /// Packet time of the sentinel sample that moved the ladder.
    pub now: Timestamp,
    /// The rung left.
    pub from: OverloadState,
    /// The rung entered.
    pub to: OverloadState,
    /// The sampled fill ratio of the current bit vector.
    pub fill: f64,
    /// The projected false-positive probability `fill^m` (Equation 2).
    pub projected_fp: f64,
    /// Total ladder transitions so far, this one included.
    pub transitions: u64,
}

/// The ladder's runtime state: an atomic rung plus transition counters,
/// evaluated through `&self`; a transition is one compare-exchange.
#[derive(Debug)]
pub struct OverloadLadder {
    policy: OverloadPolicy,
    state: AtomicU8,
    transitions: AtomicU64,
    early_rotations: AtomicU64,
}

impl Clone for OverloadLadder {
    fn clone(&self) -> Self {
        OverloadLadder {
            policy: self.policy.clone(),
            state: AtomicU8::new(self.state.load(Ordering::Relaxed)),
            transitions: AtomicU64::new(self.transitions.load(Ordering::Relaxed)),
            early_rotations: AtomicU64::new(self.early_rotations.load(Ordering::Relaxed)),
        }
    }
}

impl OverloadLadder {
    /// A ladder enforcing `policy`, starting at `Normal`.
    pub fn new(policy: OverloadPolicy) -> Self {
        OverloadLadder {
            policy,
            state: AtomicU8::new(OverloadState::Normal.as_u8()),
            transitions: AtomicU64::new(0),
            early_rotations: AtomicU64::new(0),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Replaces the policy without disturbing the rung or the
    /// transition counters (runtime reconfiguration). The next
    /// [`evaluate`](Self::evaluate) re-derives the rung under the new
    /// thresholds, so a policy that no longer justifies the current
    /// rung de-escalates on its own.
    pub fn set_policy(&mut self, policy: OverloadPolicy) {
        if !policy.enabled {
            // A disabled ladder reports `Normal` everywhere clamps and
            // rotation are derived; drop the stale rung too so state
            // gauges agree.
            *self.state.get_mut() = OverloadState::Normal.as_u8();
        }
        self.policy = policy;
    }

    /// The current rung.
    pub fn state(&self) -> OverloadState {
        OverloadState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Total transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Extra rotations performed because the ladder was `Saturated`.
    pub fn early_rotations(&self) -> u64 {
        self.early_rotations.load(Ordering::Relaxed)
    }

    /// Samples the sentinel against `bitmap` and moves the ladder if the
    /// fill crossed a (hysteresis-guarded) threshold. Returns the
    /// transition when one happened — `None` on the hot path.
    pub fn evaluate(&self, bitmap: &AtomicBitmap, now: Timestamp) -> Option<OverloadEvent> {
        if !self.policy.enabled {
            return None;
        }
        let from = self.state();
        let fill = bitmap.utilization();
        let to = self.policy.target_state(from, fill);
        if to == from {
            return None;
        }
        // Every filter reaches its ladder through `&mut`, so no two
        // evaluators race; the exchange only keeps the `&self` API that
        // perfbench compiles against, and reports a transition once.
        if self
            .state
            .compare_exchange(
                from.as_u8(),
                to.as_u8(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return None;
        }
        let transitions = self.transitions.fetch_add(1, Ordering::Relaxed) + 1;
        Some(OverloadEvent {
            now,
            from,
            to,
            fill,
            projected_fp: fill.powi(bitmap.hash_family().m() as i32),
            transitions,
        })
    }

    /// The minimum effective `P_d` at the current rung under
    /// `fail_mode` (see [`OverloadPolicy::clamp_for`]).
    pub fn clamp(&self, fail_mode: FailMode) -> f64 {
        if !self.policy.enabled {
            return 0.0;
        }
        self.policy.clamp_for(self.state(), fail_mode)
    }

    /// `true` when the current rotation tick should perform one extra
    /// rotation (ladder `Saturated` with early rotation enabled).
    pub fn wants_early_rotation(&self) -> bool {
        self.policy.enabled
            && self.policy.early_rotation
            && self.state() == OverloadState::Saturated
    }

    /// Accounts one early rotation.
    pub fn note_early_rotation(&self) {
        self.early_rotations.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the ladder to `Normal` and zeroes its counters
    /// (exclusive; used by [`BitmapFilter::reset`](crate::BitmapFilter)).
    pub fn reset(&mut self) {
        *self.state.get_mut() = OverloadState::Normal.as_u8();
        *self.transitions.get_mut() = 0;
        *self.early_rotations.get_mut() = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_validate() {
        assert_eq!(OverloadPolicy::parse("off").unwrap(), OverloadPolicy::off());
        assert_eq!(
            OverloadPolicy::parse("balanced").unwrap(),
            OverloadPolicy::balanced()
        );
        assert_eq!(
            OverloadPolicy::parse("strict").unwrap(),
            OverloadPolicy::strict()
        );
        let custom = OverloadPolicy::parse("balanced,pressure=0.3,early-rotation=off").unwrap();
        assert_eq!(custom.pressure_fill(), 0.3);
        assert!(!custom.early_rotation());
        assert!(matches!(
            OverloadPolicy::parse("bogus"),
            Err(OverloadPolicyError::UnknownField(_))
        ));
        assert!(matches!(
            OverloadPolicy::parse("balanced,pressure=2.0"),
            Err(OverloadPolicyError::BadValue(_))
        ));
        // pressure >= saturated is inconsistent.
        assert!(matches!(
            OverloadPolicy::parse("balanced,pressure=0.9"),
            Err(OverloadPolicyError::BadThresholds)
        ));
    }

    #[test]
    fn state_codec_round_trips() {
        for s in [
            OverloadState::Normal,
            OverloadState::Pressure,
            OverloadState::Saturated,
        ] {
            assert_eq!(OverloadState::from_u8(s.as_u8()), s);
        }
        assert_eq!(OverloadState::from_u8(99), OverloadState::Saturated);
        assert_eq!(OverloadState::Pressure.label(), "pressure");
    }

    #[test]
    fn hysteresis_blocks_flapping() {
        let p = OverloadPolicy::balanced();
        // Escalate exactly at the threshold.
        assert_eq!(
            p.target_state(OverloadState::Normal, 0.50),
            OverloadState::Pressure
        );
        // Just under the threshold from above: held by hysteresis.
        assert_eq!(
            p.target_state(OverloadState::Pressure, 0.48),
            OverloadState::Pressure
        );
        // Clear of the hysteresis band: de-escalates.
        assert_eq!(
            p.target_state(OverloadState::Pressure, 0.44),
            OverloadState::Normal
        );
        // Straight from Normal to Saturated on a huge fill jump.
        assert_eq!(
            p.target_state(OverloadState::Normal, 0.9),
            OverloadState::Saturated
        );
        // And back down two rungs when the fill collapses.
        assert_eq!(
            p.target_state(OverloadState::Saturated, 0.1),
            OverloadState::Normal
        );
    }

    #[test]
    fn fail_open_caps_the_saturated_clamp() {
        let p = OverloadPolicy::balanced();
        assert_eq!(p.clamp_for(OverloadState::Saturated, FailMode::Closed), 1.0);
        assert_eq!(p.clamp_for(OverloadState::Saturated, FailMode::Open), 0.5);
        assert_eq!(p.clamp_for(OverloadState::Normal, FailMode::Closed), 0.0);
        assert_eq!(
            OverloadPolicy::off().clamp_for(OverloadState::Saturated, FailMode::Closed),
            0.0
        );
    }

    #[test]
    fn disabled_ladder_never_moves() {
        let mut bitmap = AtomicBitmap::new(4, 4, 3);
        let ladder = OverloadLadder::new(OverloadPolicy::off());
        for i in 0..200u32 {
            bitmap.mark(&i.to_le_bytes());
        }
        assert!(ladder.evaluate(&bitmap, Timestamp::ZERO).is_none());
        assert_eq!(ladder.state(), OverloadState::Normal);
        assert_eq!(ladder.clamp(FailMode::Closed), 0.0);
        assert!(!ladder.wants_early_rotation());
    }

    #[test]
    fn ladder_escalates_on_fill_and_reports_projection() {
        // Tiny vectors (2^4 = 16 bits) saturate fast.
        let mut bitmap = AtomicBitmap::new(4, 4, 3);
        let ladder = OverloadLadder::new(OverloadPolicy::balanced());
        assert!(ladder.evaluate(&bitmap, Timestamp::ZERO).is_none());
        for i in 0..300u32 {
            bitmap.mark(&i.to_le_bytes());
        }
        let event = ladder
            .evaluate(&bitmap, Timestamp::from_secs(1.0))
            .expect("full bitmap must escalate");
        assert_eq!(event.from, OverloadState::Normal);
        assert_eq!(event.to, OverloadState::Saturated);
        assert!(event.fill > 0.9, "fill {}", event.fill);
        assert!((event.projected_fp - event.fill.powi(3)).abs() < 1e-12);
        assert_eq!(ladder.state(), OverloadState::Saturated);
        assert_eq!(ladder.transitions(), 1);
        assert!(ladder.wants_early_rotation());
        // Re-evaluating at the same fill is a no-op.
        assert!(ladder
            .evaluate(&bitmap, Timestamp::from_secs(2.0))
            .is_none());
    }
}
