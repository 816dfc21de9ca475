//! Power/temperature awareness (§III-C): periodic chip-temperature
//! sampling, DVFS control, and frequency-aware load balancing.
//!
//! Reproduces the five schemes of Fig. 4:
//!
//! * `Base` — temperatures tracked (on machines with a thermal model), no
//!   DVFS, no LB: fast but hot,
//! * `Naive` — DVFS caps temperature but the resulting heterogeneity is
//!   ignored, so tightly coupled apps slow to the hottest chip's pace,
//! * `WithLb { period }` — DVFS plus frequency-aware LB every `period`
//!   (the paper's LB_10s / LB_5s),
//! * `MetaTemp` — DVFS plus LB triggered only when the measured imbalance
//!   makes rebalancing worth its cost.

use crate::runtime::{Ev, Runtime};
use crate::trace::TraceEventKind;
use charm_machine::thermal::ThermalModel;
use charm_machine::{MachineConfig, SimTime};

/// The temperature-control scheme the RTS applies at each DVFS tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvfsScheme {
    /// Track temperature only (the paper's "Base" case); the default.
    Base,
    /// DVFS without load balancing ("Naive_DVFS").
    Naive,
    /// DVFS plus periodic frequency-aware load balancing ("LB_10s"/"LB_5s").
    WithLb {
        /// Rebalancing period.
        period: SimTime,
    },
    /// DVFS plus benefit-triggered load balancing ("MetaTemp").
    MetaTemp {
        /// Imbalance (max/avg) above which rebalancing is considered
        /// worthwhile.
        min_imbalance: f64,
    },
}

/// Temperature and DVFS control: the chips' thermal state and what the
/// scheme keeps between ticks. Only a machine with a thermal model has it.
pub(crate) struct Power {
    thermal: ThermalModel,
    scheme: DvfsScheme,
    /// Sampling / control period.
    period: SimTime,
    /// Busy time per chip accumulated since the last tick.
    chip_busy: Vec<SimTime>,
    /// When the `WithLb` scheme last balanced: its period's timer.
    last_lb: SimTime,
}

impl Power {
    /// The controller for `machine`, if it has a thermal model.
    pub(crate) fn new(machine: &MachineConfig, scheme: DvfsScheme, period: SimTime) -> Option<Self> {
        let chips = machine.num_chips();
        machine.thermal.as_ref().map(|cfg| Power {
            thermal: ThermalModel::new(cfg.clone(), chips),
            scheme,
            period,
            chip_busy: vec![SimTime::ZERO; chips],
            last_lb: SimTime::ZERO,
        })
    }

    /// Charge `dur` of busy time to `chip`.
    #[inline]
    pub(crate) fn note_busy(&mut self, chip: usize, dur: SimTime) {
        self.chip_busy[chip] += dur;
    }
}

impl Runtime {
    /// The thermal model, when the machine has one.
    pub fn thermal(&self) -> Option<&ThermalModel> {
        self.power.as_ref().map(|p| &p.thermal)
    }

    /// Effective speed of a PE: static heterogeneity × interference × DVFS.
    #[inline]
    pub(crate) fn effective_speed(&self, pe: usize) -> f64 {
        let mut s = self.machine.speed.speed_at(pe, self.now);
        if let Some(p) = &self.power {
            s *= p.thermal.freq_factor(self.machine.chip_of(pe));
        }
        s
    }

    /// One temperature-sampling / DVFS-control period elapsed.
    pub(crate) fn on_dvfs_tick(&mut self) {
        let Some(pw) = self.power.as_mut() else {
            return;
        };
        let thermal = &mut pw.thermal;
        let period_s = pw.period.as_secs_f64();
        let cores = self.machine.cores_per_chip as f64;
        let mut any_freq_change = false;

        for chip in 0..thermal.num_chips() {
            let busy = std::mem::replace(&mut pw.chip_busy[chip], SimTime::ZERO);
            let util = (busy.as_secs_f64() / (period_s * cores)).clamp(0.0, 1.0);
            thermal.advance(chip, period_s, util);
            if pw.scheme != DvfsScheme::Base && thermal.dvfs_step(chip) {
                any_freq_change = true;
                if let Some(tr) = &mut self.tracer {
                    tr.rts(
                        self.now,
                        TraceEventKind::DvfsFreq {
                            chip,
                            freq_factor: thermal.freq_factor(chip),
                        },
                    );
                }
            }
        }

        // Temperature / frequency observations.
        let max_t = (0..thermal.num_chips())
            .map(|c| thermal.temp(c))
            .fold(f64::NEG_INFINITY, f64::max);
        let avg_f = (0..thermal.num_chips())
            .map(|c| thermal.freq_factor(c))
            .sum::<f64>()
            / thermal.num_chips().max(1) as f64;
        // Frequency-aware LB, per scheme: every `period`, or when a
        // frequency changed and the imbalance is worth a round.
        let (scheme, next) = (pw.scheme, self.now + pw.period);
        let periodic = match scheme {
            DvfsScheme::WithLb { period } => self.now.saturating_sub(pw.last_lb) >= period,
            _ => false,
        };
        if periodic {
            pw.last_lb = self.now;
        }
        self.journal("max_temp_c", self.now, max_t);
        self.journal("avg_freq", self.now, avg_f);
        let balance = match scheme {
            DvfsScheme::MetaTemp { min_imbalance } => {
                any_freq_change && self.collect_lb_stats().imbalance() > min_imbalance
            }
            _ => periodic,
        };
        if balance {
            self.rts_triggered_lb();
        }
        self.push_ev(next, Ev::DvfsTick);
    }

    /// Schedule `rounds` RTS-triggered load-balancing rounds, one every
    /// `period` starting one period from now (cloud scenarios, Fig. 16).
    ///
    /// The `rounds` host-slot keys are reserved now, but only the first
    /// tick is queued: each tick arms the next at `(t + period, key + 1)`,
    /// the time and key it would have had if all of them were queued up
    /// front. A tick that would pass [`SimTime::MAX`] ends the chain.
    /// Panics on a zero `period`: ticks sharing one timestamp would run in
    /// a different order chained than queued up front.
    pub fn schedule_periodic_lb(&mut self, period: SimTime, rounds: usize) {
        assert!(period > SimTime::ZERO, "periodic LB needs a nonzero period");
        let Some(left) = rounds.checked_sub(1) else {
            return;
        };
        let left = u32::try_from(left).expect("periodic LB rounds fit in u32");
        let key = self.reserve_keys(self.host_slot(), rounds as u64);
        if let Some(at) = self.now.0.checked_add(period.0) {
            self.events.push_keyed(SimTime(at), key, Ev::RtsLb { left, period });
        }
    }

    /// One periodic LB tick: arm the next, then balance. Rare, so kept out
    /// of line: inlined, it grows the engine's dispatch loop.
    #[inline(never)]
    pub(crate) fn on_rts_lb_tick(&mut self, left: u32, period: SimTime) {
        if left > 0 {
            let (t, key) = self.cur_dispatch;
            if let Some(at) = t.checked_add(period.0) {
                let next = Ev::RtsLb { left: left - 1, period };
                self.events.push_keyed(SimTime(at), key + 1, next);
            }
        }
        self.rts_triggered_lb();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_machine::presets;

    #[test]
    fn dvfs_tick_tracks_temperature() {
        let machine = presets::thermal_testbed(16);
        let mut rt = Runtime::builder(machine)
            .dvfs(DvfsScheme::Base)
            .dvfs_period(SimTime::from_secs(1))
            .build();
        // Nothing to run; just let the sampler tick a few times.
        rt.run_for(SimTime::from_secs(10));
        let temps = rt.metric("max_temp_c");
        assert!(temps.len() >= 9, "got {} samples", temps.len());
        // Idle machine drifts toward its leakage-only steady state, which
        // sits near (±cooling variation) the initial temperature — never
        // anywhere close to the loaded threshold.
        let cfg = rt.thermal().unwrap().config().clone();
        assert!(temps.iter().all(|&(_, t)| t <= cfg.initial_c + 5.0));
        assert!(temps.iter().all(|&(_, t)| t < cfg.threshold_c));
    }

    fn with_null_lb() -> Runtime {
        Runtime::builder(charm_machine::MachineConfig::homogeneous(2))
            .strategy(Box::new(crate::NullLb))
            .build()
    }

    /// However many rounds are asked for, one tick is queued at a time.
    #[test]
    fn periodic_lb_queues_one_tick() {
        let mut rt = Runtime::homogeneous(2);
        rt.schedule_periodic_lb(SimTime::from_millis(1), 10_000);
        assert_eq!(rt.events.len(), 1);
        let mut rt = Runtime::homogeneous(2);
        rt.schedule_periodic_lb(SimTime::from_millis(1), 0);
        assert!(rt.events.is_empty(), "zero rounds schedule nothing");
    }

    /// `run_for(k·p)` runs the first `k` rounds, each one at a multiple of
    /// `p`, and the chain stops after the rounds it was given.
    #[test]
    fn periodic_lb_runs_one_round_per_period() {
        let p = SimTime::from_millis(3);
        let mut rt = with_null_lb();
        rt.schedule_periodic_lb(p, 7);
        rt.run_for(SimTime(p.0 * 5));
        assert_eq!(rt.lb_rounds().len(), 5);
        let mut rt = with_null_lb();
        rt.schedule_periodic_lb(p, 7);
        for k in 1..=7 {
            rt.run_until(SimTime(p.0 * k - 1));
            assert_eq!(rt.lb_rounds().len(), k as usize - 1, "round {k} ran early");
            rt.run_until(SimTime(p.0 * k));
            assert_eq!(rt.lb_rounds().len(), k as usize, "round {k} did not run at {k}p");
        }
        rt.run();
        assert_eq!(rt.lb_rounds().len(), 7, "the chain ends with its last round");
    }

    /// A tick whose successor would pass `SimTime::MAX` is the last one.
    #[test]
    fn periodic_lb_chain_ends_instead_of_wrapping() {
        let mut rt = with_null_lb();
        rt.schedule_periodic_lb(SimTime(u64::MAX / 2 + 1), 5);
        rt.run();
        assert_eq!(rt.lb_rounds().len(), 1);
        assert!(rt.events.is_empty());
    }

    #[test]
    fn naive_dvfs_reduces_frequency_when_hot() {
        let mut machine = presets::thermal_testbed(4);
        if let Some(t) = machine.thermal.as_mut() {
            t.initial_c = 80.0; // start hot
        }
        let mut rt = Runtime::builder(machine)
            .dvfs(DvfsScheme::Naive)
            .dvfs_period(SimTime::from_secs(1))
            .build();
        rt.run_for(SimTime::from_secs(5));
        let f = rt.metric("avg_freq");
        assert!(f.last().unwrap().1 < 1.0, "frequency should have dropped");
    }
}
