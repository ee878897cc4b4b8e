//! The target-tracking scale policy: watermarks, hysteresis, sustain
//! counts, cooldowns, and min/max bounds.
//!
//! Each stage's smoothed signals collapse into one normalized scalar —
//! the worst ratio of observed load to its watermark, so `1.0` means
//! "exactly at the scale-out line". Scale out when the scalar holds above
//! `1.0` for `sustain` consecutive evaluations; scale in when it holds
//! below `low_frac` (the hysteresis band between the two thresholds
//! absorbs oscillation). Cooldowns and bounds turn would-be actions into
//! [`Verdict::Blocked`] so the controller can count them honestly.

use std::time::{Duration, Instant};

use super::signals::StageSignal;

/// Per-stage policy knobs.
#[derive(Debug, Clone)]
pub struct StagePolicy {
    /// Never drop below this many machines.
    pub min: usize,
    /// Never exceed this many machines.
    pub max: usize,
    /// Backlog-per-machine watermark (`0` disables the backlog term).
    pub high_backlog: f64,
    /// Stage p99 watermark in microseconds (`0` disables the p99 term).
    pub high_p99_us: f64,
    /// Maintainer median-batch-size watermark (`0` disables the term).
    pub high_batch: f64,
    /// Scale in when the normalized signal stays below this fraction of
    /// the scale-out line. The gap between `low_frac` and `1.0` is the
    /// hysteresis band.
    pub low_frac: f64,
    /// Consecutive evaluations a signal must hold before acting.
    pub sustain: u32,
    /// Minimum time between actions on this stage.
    pub cooldown: Duration,
    /// Whether this stage supports drain-and-retire. Filters and
    /// maintainers only grow (their routing is an append-only history of
    /// future reassignments), so they run with this off.
    pub scale_in: bool,
}

impl StagePolicy {
    /// A policy that never acts (watermarks disabled, bounds pinned at
    /// `machines`). Useful to freeze a stage in benches.
    pub fn frozen(machines: usize) -> Self {
        StagePolicy {
            min: machines,
            max: machines,
            high_backlog: 0.0,
            high_p99_us: 0.0,
            high_batch: 0.0,
            low_frac: 0.0,
            sustain: u32::MAX,
            cooldown: Duration::from_secs(3600),
            scale_in: false,
        }
    }
}

/// Which direction an action moves the stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Add a machine.
    Out,
    /// Drain and retire a machine.
    In,
}

/// One evaluation's outcome for a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Signal inside the band (or not yet sustained): do nothing.
    Hold,
    /// Act now. `signal` is the normalized scalar that triggered it.
    Act {
        /// The direction to move.
        decision: ScaleDecision,
        /// The triggering normalized signal.
        signal: f64,
    },
    /// The policy wanted to act but bounds or cooldown forbade it.
    Blocked {
        /// The direction that was blocked.
        decision: ScaleDecision,
        /// The normalized signal at the time.
        signal: f64,
    },
}

/// Per-stage decision state: streak counters plus the last action time.
#[derive(Debug)]
pub struct StageGovernor {
    policy: StagePolicy,
    high_streak: u32,
    low_streak: u32,
    last_action: Option<Instant>,
}

impl StageGovernor {
    /// A governor enforcing `policy`, starting with clear streaks and no
    /// cooldown in effect.
    pub fn new(policy: StagePolicy) -> Self {
        StageGovernor {
            policy,
            high_streak: 0,
            low_streak: 0,
            last_action: None,
        }
    }

    /// The policy being enforced.
    pub fn policy(&self) -> &StagePolicy {
        &self.policy
    }

    /// Collapses a stage's smoothed signals into the normalized scalar:
    /// the worst enabled ratio of observed value to watermark.
    pub fn signal(&self, sig: &StageSignal, machines: usize) -> f64 {
        let mut worst: f64 = 0.0;
        if self.policy.high_backlog > 0.0 {
            let per_machine = sig.backlog / machines.max(1) as f64;
            worst = worst.max(per_machine / self.policy.high_backlog);
        }
        if self.policy.high_p99_us > 0.0 {
            worst = worst.max(sig.p99_us / self.policy.high_p99_us);
        }
        if self.policy.high_batch > 0.0 {
            worst = worst.max(sig.batch_p50 / self.policy.high_batch);
        }
        worst
    }

    fn cooled_down(&self, now: Instant) -> bool {
        self.last_action
            .is_none_or(|t| now.duration_since(t) >= self.policy.cooldown)
    }

    /// One evaluation: folds the signal into the streak counters and
    /// returns what to do. An `Act` verdict starts the cooldown; a
    /// `Blocked` verdict resets the streak so the same pressure must
    /// re-sustain before the next attempt.
    pub fn decide(&mut self, now: Instant, sig: &StageSignal, machines: usize) -> Verdict {
        let signal = self.signal(sig, machines);
        if signal > 1.0 {
            self.low_streak = 0;
            self.high_streak = self.high_streak.saturating_add(1);
            if self.high_streak >= self.policy.sustain {
                self.high_streak = 0;
                if machines >= self.policy.max || !self.cooled_down(now) {
                    return Verdict::Blocked {
                        decision: ScaleDecision::Out,
                        signal,
                    };
                }
                self.last_action = Some(now);
                return Verdict::Act {
                    decision: ScaleDecision::Out,
                    signal,
                };
            }
        } else if signal < self.policy.low_frac {
            self.high_streak = 0;
            if !self.policy.scale_in {
                return Verdict::Hold;
            }
            self.low_streak = self.low_streak.saturating_add(1);
            if self.low_streak >= self.policy.sustain {
                self.low_streak = 0;
                if machines <= self.policy.min || !self.cooled_down(now) {
                    return Verdict::Blocked {
                        decision: ScaleDecision::In,
                        signal,
                    };
                }
                self.last_action = Some(now);
                return Verdict::Act {
                    decision: ScaleDecision::In,
                    signal,
                };
            }
        } else {
            // Inside the hysteresis band: both streaks die.
            self.high_streak = 0;
            self.low_streak = 0;
        }
        Verdict::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> StagePolicy {
        StagePolicy {
            min: 1,
            max: 4,
            high_backlog: 100.0,
            high_p99_us: 0.0,
            high_batch: 0.0,
            low_frac: 0.3,
            sustain: 3,
            cooldown: Duration::from_secs(10),
            scale_in: true,
        }
    }

    fn loaded(backlog: f64) -> StageSignal {
        StageSignal {
            backlog,
            p99_us: 0.0,
            batch_p50: 0.0,
        }
    }

    #[test]
    fn scale_out_requires_sustained_pressure() {
        let mut g = StageGovernor::new(policy());
        let t0 = Instant::now();
        let hot = loaded(300.0); // 150/machine at 2 machines → signal 1.5
        assert_eq!(g.decide(t0, &hot, 2), Verdict::Hold);
        assert_eq!(g.decide(t0, &hot, 2), Verdict::Hold);
        assert_eq!(
            g.decide(t0, &hot, 2),
            Verdict::Act {
                decision: ScaleDecision::Out,
                signal: 1.5
            }
        );
    }

    #[test]
    fn a_dip_inside_the_band_resets_the_streak() {
        let mut g = StageGovernor::new(policy());
        let t0 = Instant::now();
        let hot = loaded(300.0);
        g.decide(t0, &hot, 2);
        g.decide(t0, &hot, 2);
        // Signal falls into the band: streak dies, no action on re-press.
        g.decide(t0, &loaded(120.0), 2);
        assert_eq!(g.decide(t0, &hot, 2), Verdict::Hold);
    }

    #[test]
    fn cooldown_blocks_back_to_back_actions() {
        let mut g = StageGovernor::new(policy());
        let t0 = Instant::now();
        // 400 is over the threshold at 3 machines too (133/machine); 300
        // there would be exactly 100, which does not press.
        let hot = loaded(400.0);
        for _ in 0..3 {
            g.decide(t0, &hot, 2);
        }
        // Still within cooldown: the next sustained press is blocked.
        let t1 = t0 + Duration::from_secs(1);
        for _ in 0..2 {
            assert_eq!(g.decide(t1, &hot, 3), Verdict::Hold);
        }
        assert!(matches!(
            g.decide(t1, &hot, 3),
            Verdict::Blocked {
                decision: ScaleDecision::Out,
                ..
            }
        ));
        // After the cooldown, it acts again.
        let t2 = t0 + Duration::from_secs(11);
        for _ in 0..2 {
            g.decide(t2, &hot, 3);
        }
        assert!(matches!(
            g.decide(t2, &hot, 3),
            Verdict::Act {
                decision: ScaleDecision::Out,
                ..
            }
        ));
    }

    #[test]
    fn max_bound_blocks_scale_out() {
        let mut g = StageGovernor::new(policy());
        let t0 = Instant::now();
        let hot = loaded(1000.0);
        for _ in 0..2 {
            g.decide(t0, &hot, 4);
        }
        assert!(matches!(
            g.decide(t0, &hot, 4),
            Verdict::Blocked {
                decision: ScaleDecision::Out,
                ..
            }
        ));
    }

    #[test]
    fn quiet_signal_scales_in_after_sustain_and_respects_min() {
        let mut g = StageGovernor::new(policy());
        let t0 = Instant::now();
        let quiet = loaded(10.0); // 5/machine → signal 0.05 < 0.3
        for _ in 0..2 {
            assert_eq!(g.decide(t0, &quiet, 2), Verdict::Hold);
        }
        assert!(matches!(
            g.decide(t0, &quiet, 2),
            Verdict::Act {
                decision: ScaleDecision::In,
                ..
            }
        ));
        // At the floor (and freshly cooled-down-reset), In is blocked.
        let t1 = t0 + Duration::from_secs(20);
        for _ in 0..2 {
            g.decide(t1, &quiet, 1);
        }
        assert!(matches!(
            g.decide(t1, &quiet, 1),
            Verdict::Blocked {
                decision: ScaleDecision::In,
                ..
            }
        ));
    }

    #[test]
    fn scale_in_disabled_stays_quietly_held() {
        let mut g = StageGovernor::new(StagePolicy {
            scale_in: false,
            ..policy()
        });
        let t0 = Instant::now();
        for _ in 0..10 {
            assert_eq!(g.decide(t0, &loaded(0.0), 2), Verdict::Hold);
        }
    }

    #[test]
    fn normalized_signal_takes_the_worst_ratio() {
        let g = StageGovernor::new(StagePolicy {
            high_backlog: 100.0,
            high_p99_us: 1000.0,
            ..policy()
        });
        let sig = StageSignal {
            backlog: 50.0,  // 0.25 at 2 machines
            p99_us: 2000.0, // 2.0 — the worst term
            batch_p50: 0.0,
        };
        assert_eq!(g.signal(&sig, 2), 2.0);
    }
}
