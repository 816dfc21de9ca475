//! Per-PE execution speed: static heterogeneity plus timed interference.
//!
//! Models the two cloud effects from §IV-F: *static* heterogeneity
//! (different physical nodes under the VMs) and *dynamic* heterogeneity
//! (interfering VMs sharing a node for a window of time).

use crate::SimTime;

/// A span of time during which a range of PEs runs slower, as when another
/// tenant's VM lands on the same physical host.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceWindow {
    /// First PE affected.
    pub first_pe: usize,
    /// Number of consecutive PEs affected.
    pub num_pes: usize,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive); `SimTime::MAX` = never ends.
    pub end: SimTime,
    /// Multiplier applied to the PE's speed while active (e.g. 0.5).
    pub speed_factor: f64,
}

impl InterferenceWindow {
    fn applies(&self, pe: usize, now: SimTime) -> bool {
        pe >= self.first_pe
            && pe < self.first_pe + self.num_pes
            && now >= self.start
            && now < self.end
    }
}

/// The speed model: static per-PE factors and a list of interference
/// windows. Effective speed = static × ∏ active interference factors.
#[derive(Debug, Clone, Default)]
pub struct SpeedModel {
    static_speed: Vec<f64>,
    interference: Vec<InterferenceWindow>,
}

impl SpeedModel {
    /// All PEs at speed 1.0.
    pub(crate) fn uniform(num_pes: usize) -> Self {
        SpeedModel {
            static_speed: vec![1.0; num_pes],
            interference: Vec::new(),
        }
    }

    /// Slow a contiguous block of PEs to `factor` permanently (the paper's
    /// Grid'5000 setup makes one node 0.7×).
    pub fn slow_block(mut self, first_pe: usize, num_pes: usize, factor: f64) -> Self {
        for pe in first_pe..(first_pe + num_pes).min(self.static_speed.len()) {
            self.static_speed[pe] *= factor;
        }
        self
    }

    /// Add a timed interference window.
    pub fn with_interference(mut self, w: InterferenceWindow) -> Self {
        self.interference.push(w);
        self
    }

    /// Static (time-independent) speed of a PE.
    pub(crate) fn static_speed(&self, pe: usize) -> f64 {
        self.static_speed.get(pe).copied().unwrap_or(1.0)
    }

    /// Effective speed of `pe` at time `now`, excluding DVFS (the runtime
    /// multiplies in the chip frequency factor separately).
    pub fn speed_at(&self, pe: usize, now: SimTime) -> f64 {
        let mut s = self.static_speed(pe);
        for w in &self.interference {
            if w.applies(pe, now) {
                s *= w.speed_factor;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_speed_is_one() {
        let m = SpeedModel::uniform(4);
        assert_eq!(m.speed_at(2, SimTime::from_secs(5)), 1.0);
    }

    #[test]
    fn slow_block_applies_statistically() {
        let m = SpeedModel::uniform(8).slow_block(4, 2, 0.7);
        assert_eq!(m.speed_at(3, SimTime::ZERO), 1.0);
        assert!((m.speed_at(4, SimTime::ZERO) - 0.7).abs() < 1e-12);
        assert!((m.speed_at(5, SimTime::ZERO) - 0.7).abs() < 1e-12);
        assert_eq!(m.speed_at(6, SimTime::ZERO), 1.0);
    }

    #[test]
    fn interference_window_times() {
        let m = SpeedModel::uniform(4).with_interference(InterferenceWindow {
            first_pe: 1,
            num_pes: 1,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(20),
            speed_factor: 0.5,
        });
        assert_eq!(m.speed_at(1, SimTime::from_secs(9)), 1.0);
        assert_eq!(m.speed_at(1, SimTime::from_secs(10)), 0.5);
        assert_eq!(m.speed_at(1, SimTime::from_secs(19)), 0.5);
        assert_eq!(m.speed_at(1, SimTime::from_secs(20)), 1.0);
        assert_eq!(m.speed_at(0, SimTime::from_secs(15)), 1.0);
    }

    #[test]
    fn windows_compose_multiplicatively() {
        let w = |f: f64| InterferenceWindow {
            first_pe: 0,
            num_pes: 1,
            start: SimTime::ZERO,
            end: SimTime::MAX,
            speed_factor: f,
        };
        let m = SpeedModel::uniform(1)
            .with_interference(w(0.5))
            .with_interference(w(0.5));
        assert!((m.speed_at(0, SimTime::from_secs(1)) - 0.25).abs() < 1e-12);
    }
}
