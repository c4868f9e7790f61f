//! The SLO watchdog: thresholds, evaluation, and the hysteresis state
//! machine behind the cluster's `health` summary.
//!
//! An operator hands the router `--slo p99_ms=400,hit_rate=0.5,
//! error_rate=0.01`; on every tick of its metric-history sampler, right
//! after the snapshot, the router checks the configured thresholds
//! against the 10-second window and feeds the verdict to an
//! [`SloMachine`]. The machine debounces:
//! `ok → warn` on the first bad tick (operators want the early signal),
//! but `warn → breach` only after [`BREACH_AFTER`] *consecutive* bad
//! ticks, and each recovery step (`breach → warn`, `warn → ok`) only
//! after [`RECOVER_AFTER`] consecutive good ticks — so a single slow
//! job cannot flap the cluster between breach and ok.
//!
//! A window with no traffic is *good*: an idle cluster meets its SLOs.

/// Consecutive bad ticks in `warn` before escalating to `breach`.
pub const BREACH_AFTER: u32 = 3;

/// Consecutive good ticks before each one-step recovery
/// (`breach → warn`, `warn → ok`).
pub const RECOVER_AFTER: u32 = 3;

/// Operator-configured service-level thresholds. Unset fields are not
/// checked.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloThresholds {
    /// Dispatch latency p99 must stay at or under this many milliseconds.
    pub p99_ms: Option<u64>,
    /// Cluster cache hit-rate must stay at or above this fraction (0..=1).
    pub hit_rate: Option<f64>,
    /// Error rate (errors / (jobs + errors)) must stay at or under this
    /// fraction (0..=1).
    pub error_rate: Option<f64>,
}

impl SloThresholds {
    /// Whether any threshold is configured.
    pub fn is_empty(&self) -> bool {
        self.p99_ms.is_none() && self.hit_rate.is_none() && self.error_rate.is_none()
    }

    /// Parses `key=value` pairs separated by commas into `self`
    /// (repeated `--slo` flags merge; later keys win). Known keys:
    /// `p99_ms`, `hit_rate`, `error_rate`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pair.
    pub fn parse_into(&mut self, spec: &str) -> Result<(), String> {
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("slo: expected key=value, got {pair:?}"))?;
            match key.trim() {
                "p99_ms" => {
                    self.p99_ms = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("slo: bad p99_ms value {value:?}"))?,
                    );
                }
                "hit_rate" => {
                    self.hit_rate = Some(parse_fraction("hit_rate", value)?);
                }
                "error_rate" => {
                    self.error_rate = Some(parse_fraction("error_rate", value)?);
                }
                other => return Err(format!("slo: unknown threshold {other:?}")),
            }
        }
        Ok(())
    }

    /// Checks observed windowed rates against the thresholds and returns
    /// the violations, formatted `metric observed>limit` (or `<` for
    /// floors). `None` observations mean "no traffic in the window" and
    /// never violate.
    pub fn violations(
        &self,
        p99_us: Option<u64>,
        hit_rate: Option<f64>,
        error_rate: Option<f64>,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if let (Some(limit), Some(p99_us)) = (self.p99_ms, p99_us) {
            let observed_ms = p99_us.div_ceil(1000);
            if observed_ms > limit {
                out.push(format!("p99_ms {observed_ms}>{limit}"));
            }
        }
        if let (Some(floor), Some(observed)) = (self.hit_rate, hit_rate) {
            if observed < floor {
                out.push(format!("hit_rate {observed:.3}<{floor:.3}"));
            }
        }
        if let (Some(limit), Some(observed)) = (self.error_rate, error_rate) {
            if observed > limit {
                out.push(format!("error_rate {observed:.3}>{limit:.3}"));
            }
        }
        out
    }
}

fn parse_fraction(key: &str, value: &str) -> Result<f64, String> {
    let parsed: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("slo: bad {key} value {value:?}"))?;
    if !(0.0..=1.0).contains(&parsed) {
        return Err(format!("slo: {key} must be in 0..=1, got {value:?}"));
    }
    Ok(parsed)
}

/// The watchdog's verdict on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// All thresholds met.
    Ok,
    /// At least one recent bad tick; not yet sustained.
    Warn,
    /// Sustained violation.
    Breach,
}

impl SloState {
    /// Stable lowercase name (metric labels, health strings).
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Breach => "breach",
        }
    }

    /// Numeric severity for the `slo_state` gauge: ok=0, warn=1,
    /// breach=2.
    pub fn severity(self) -> u64 {
        match self {
            SloState::Ok => 0,
            SloState::Warn => 1,
            SloState::Breach => 2,
        }
    }
}

/// The debouncing state machine. Feed it one verdict per evaluation tick
/// with [`SloMachine::tick`]; it reports the transition when one fires.
#[derive(Debug)]
pub struct SloMachine {
    state: SloState,
    bad_streak: u32,
    good_streak: u32,
}

impl Default for SloMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl SloMachine {
    /// Starts in `ok` with clean streaks.
    pub fn new() -> Self {
        Self {
            state: SloState::Ok,
            bad_streak: 0,
            good_streak: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> SloState {
        self.state
    }

    /// Records one evaluation tick (`bad` = at least one violation) and
    /// returns `Some((from, to))` when the state changes. Streaks reset
    /// on every transition, so each recovery step needs its own
    /// [`RECOVER_AFTER`] consecutive good ticks.
    pub fn tick(&mut self, bad: bool) -> Option<(SloState, SloState)> {
        if bad {
            self.bad_streak += 1;
            self.good_streak = 0;
        } else {
            self.good_streak += 1;
            self.bad_streak = 0;
        }
        let next = match self.state {
            SloState::Ok if bad => SloState::Warn,
            SloState::Warn if self.bad_streak >= BREACH_AFTER => SloState::Breach,
            SloState::Warn if self.good_streak >= RECOVER_AFTER => SloState::Ok,
            SloState::Breach if self.good_streak >= RECOVER_AFTER => SloState::Warn,
            state => state,
        };
        if next == self.state {
            return None;
        }
        let from = self.state;
        self.state = next;
        self.bad_streak = 0;
        self.good_streak = 0;
        Some((from, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_merges_and_validates() {
        let mut t = SloThresholds::default();
        t.parse_into("p99_ms=400,hit_rate=0.5").expect("parse");
        t.parse_into("error_rate=0.01").expect("merge");
        assert_eq!(t.p99_ms, Some(400));
        assert_eq!(t.hit_rate, Some(0.5));
        assert_eq!(t.error_rate, Some(0.01));
        assert!(t.parse_into("p99_ms=abc").is_err());
        assert!(t.parse_into("hit_rate=1.5").is_err());
        assert!(t.parse_into("nope=1").is_err());
        assert!(t.parse_into("p99_ms").is_err());
        assert!(SloThresholds::default().is_empty());
    }

    #[test]
    fn violations_respect_direction_and_idle_windows() {
        let mut t = SloThresholds::default();
        t.parse_into("p99_ms=10,hit_rate=0.5,error_rate=0.1")
            .expect("parse");
        // All good.
        assert!(t.violations(Some(9_000), Some(0.9), Some(0.0)).is_empty());
        // All bad; messages carry observed>limit.
        let v = t.violations(Some(14_000), Some(0.2), Some(0.5));
        assert_eq!(v.len(), 3);
        assert!(v[0].contains("p99_ms 14>10"), "{v:?}");
        assert!(v[1].contains("hit_rate"), "{v:?}");
        assert!(v[2].contains("error_rate"), "{v:?}");
        // Idle window: nothing observed, nothing violated.
        assert!(t.violations(None, None, None).is_empty());
    }

    #[test]
    fn machine_warns_immediately_and_breaches_after_sustained_bad() {
        let mut m = SloMachine::new();
        assert_eq!(m.tick(true), Some((SloState::Ok, SloState::Warn)));
        // Two more bad ticks are not yet a breach...
        assert_eq!(m.tick(true), None);
        assert_eq!(m.tick(true), None);
        // ...the third consecutive bad tick in warn is.
        assert_eq!(m.tick(true), Some((SloState::Warn, SloState::Breach)));
        assert_eq!(m.state(), SloState::Breach);
    }

    #[test]
    fn machine_recovers_one_step_per_good_streak() {
        let mut m = SloMachine::new();
        m.tick(true);
        m.tick(true);
        m.tick(true);
        m.tick(true);
        assert_eq!(m.state(), SloState::Breach);
        assert_eq!(m.tick(false), None);
        assert_eq!(m.tick(false), None);
        assert_eq!(m.tick(false), Some((SloState::Breach, SloState::Warn)));
        // The streak reset on the transition: three *more* good ticks to ok.
        assert_eq!(m.tick(false), None);
        assert_eq!(m.tick(false), None);
        assert_eq!(m.tick(false), Some((SloState::Warn, SloState::Ok)));
    }

    #[test]
    fn machine_flap_resets_recovery_progress() {
        let mut m = SloMachine::new();
        m.tick(true); // ok -> warn
        m.tick(false);
        m.tick(false);
        m.tick(true); // bad tick wipes the good streak
        assert_eq!(m.state(), SloState::Warn);
        m.tick(false);
        m.tick(false);
        assert_eq!(m.tick(false), Some((SloState::Warn, SloState::Ok)));
    }
}
