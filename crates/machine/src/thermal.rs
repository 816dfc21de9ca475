//! Lumped-RC chip thermal model with a DVFS frequency ladder.
//!
//! Reproduces the physics behind §III-C / Fig. 4: chips heat with power
//! (∝ utilization · f³ plus static leakage), cool toward the machine-room
//! ambient set by the CRAC, and the runtime constrains temperature by
//! stepping frequencies down (which creates load imbalance the LB must fix).

/// Static configuration of the thermal model.
#[derive(Debug, Clone)]
pub struct ThermalConfig {
    /// Ambient (CRAC-controlled) air temperature, °C. The paper's Fig. 4
    /// sets the CRAC to 74 °F ≈ 23.3 °C.
    pub(crate) ambient_c: f64,
    /// Starting chip temperature, °C.
    pub initial_c: f64,
    /// Heating coefficient: °C per second per watt of dissipated power.
    pub(crate) heat_per_watt: f64,
    /// Cooling coefficient: fraction of the (T − ambient) gap shed per second.
    pub(crate) cool_rate: f64,
    /// Dynamic power at full utilization and nominal frequency, watts.
    pub(crate) dyn_power_w: f64,
    /// Static (leakage) power, watts.
    pub(crate) static_power_w: f64,
    /// Available frequencies as fractions of nominal, descending
    /// (e.g. `[1.0, 0.9, 0.8, 0.7, 0.6, 0.5]`).
    pub(crate) freq_ladder: Vec<f64>,
    /// Temperature threshold the DVFS controller enforces, °C (Fig. 4: 50).
    pub threshold_c: f64,
    /// Per-chip cooling variation (0.0 = identical chips; 0.3 = ±30 %):
    /// models rack position / airflow differences, the source of the
    /// heterogeneity the paper's frequency-aware LB corrects.
    pub(crate) cool_variation: f64,
}

impl ThermalConfig {
    /// The configuration used for the Fig. 4 reproduction.
    pub fn fig4() -> Self {
        ThermalConfig {
            ambient_c: 23.3,
            initial_c: 42.0,
            heat_per_watt: 0.018,
            cool_rate: 0.05,
            dyn_power_w: 80.0,
            static_power_w: 25.0,
            freq_ladder: vec![1.0, 0.93, 0.86, 0.79, 0.72, 0.65, 0.58, 0.51],
            threshold_c: 50.0,
            cool_variation: 0.30,
        }
    }

    /// Fig. 4 with 10× faster thermal dynamics (same steady-state
    /// temperatures) so demo-scale runs reach equilibrium in seconds.
    pub fn fig4_fast() -> Self {
        ThermalConfig {
            heat_per_watt: 0.18,
            cool_rate: 0.5,
            ..Self::fig4()
        }
    }
}

/// Dynamic state of one chip.
#[derive(Debug, Clone)]
pub(crate) struct ChipState {
    /// Current temperature, °C.
    pub(crate) temp_c: f64,
    /// Index into the frequency ladder.
    pub(crate) freq_idx: usize,
    /// Highest temperature ever observed, °C.
    pub(crate) max_temp_c: f64,
    /// This chip's cooling coefficient (config base × its variation).
    pub(crate) cool_rate: f64,
}

/// The thermal model for a whole machine: one `ChipState` per chip.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    cfg: ThermalConfig,
    chips: Vec<ChipState>,
}

impl ThermalModel {
    /// Create the model with every chip at the initial temperature and
    /// nominal frequency. Per-chip cooling coefficients are deterministic
    /// functions of the chip index (±`cool_variation`).
    pub fn new(cfg: ThermalConfig, num_chips: usize) -> Self {
        let chips = (0..num_chips)
            .map(|i| {
                // splitmix-style hash → uniform in [-1, 1)
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .rotate_left(31)
                    .wrapping_mul(0xBF58476D1CE4E5B9);
                let u = ((h >> 40) as f64 / (1u64 << 23) as f64) - 1.0;
                ChipState {
                    temp_c: cfg.initial_c,
                    freq_idx: 0,
                    max_temp_c: cfg.initial_c,
                    cool_rate: cfg.cool_rate * (1.0 + cfg.cool_variation * u),
                }
            })
            .collect();
        ThermalModel { cfg, chips }
    }

    /// Static configuration.
    pub fn config(&self) -> &ThermalConfig {
        &self.cfg
    }

    /// Number of chips modeled.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Current frequency factor of a chip (1.0 = nominal).
    pub fn freq_factor(&self, chip: usize) -> f64 {
        self.cfg.freq_ladder[self.chips[chip].freq_idx]
    }

    /// Current temperature of a chip, °C.
    pub fn temp(&self, chip: usize) -> f64 {
        self.chips[chip].temp_c
    }

    /// Hottest temperature any chip has reached, °C.
    pub fn max_temp_observed(&self) -> f64 {
        self.chips
            .iter()
            .map(|c| c.max_temp_c)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Advance chip `chip` by `dt_s` seconds at the given utilization
    /// (0..=1). Returns the new temperature.
    ///
    /// Power = dyn·util·f³ + static; dT = heat·P·dt − cool·(T − ambient)·dt.
    pub fn advance(&mut self, chip: usize, dt_s: f64, utilization: f64) -> f64 {
        let f = self.cfg.freq_ladder[self.chips[chip].freq_idx];
        let util = utilization.clamp(0.0, 1.0);
        let power = self.cfg.dyn_power_w * util * f * f * f + self.cfg.static_power_w;
        let c = &mut self.chips[chip];
        let dt = dt_s.max(0.0);
        let heating = self.cfg.heat_per_watt * power * dt;
        let cooling = c.cool_rate * (c.temp_c - self.cfg.ambient_c) * dt;
        c.temp_c += heating - cooling;
        if c.temp_c > c.max_temp_c {
            c.max_temp_c = c.temp_c;
        }
        c.temp_c
    }

    /// One DVFS control step for a chip: step the frequency down if over the
    /// threshold, up if comfortably below (hysteresis band of 2 °C), as the
    /// paper's RTS does periodically. Returns `true` if the frequency changed.
    pub fn dvfs_step(&mut self, chip: usize) -> bool {
        let c = &mut self.chips[chip];
        if c.temp_c > self.cfg.threshold_c {
            if c.freq_idx + 1 < self.cfg.freq_ladder.len() {
                c.freq_idx += 1;
                return true;
            }
        } else if c.temp_c < self.cfg.threshold_c - 2.0 && c.freq_idx > 0 {
            c.freq_idx -= 1;
            return true;
        }
        false
    }

    /// Steady-state temperature at constant utilization and current
    /// frequency — handy for tests and for the MetaTemp predictor.
    pub fn steady_state_temp(&self, chip: usize, utilization: f64) -> f64 {
        let f = self.cfg.freq_ladder[self.chips[chip].freq_idx];
        let power = self.cfg.dyn_power_w * utilization.clamp(0.0, 1.0) * f * f * f
            + self.cfg.static_power_w;
        self.cfg.ambient_c + self.cfg.heat_per_watt * power / self.chips[chip].cool_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(chips: usize) -> ThermalModel {
        ThermalModel::new(ThermalConfig::fig4(), chips)
    }

    #[test]
    fn busy_chip_heats_idle_chip_cools() {
        let mut m = model(2);
        let warm_start = 55.0;
        m.chips[0].temp_c = warm_start;
        m.chips[1].temp_c = warm_start;
        for _ in 0..60 {
            m.advance(0, 1.0, 1.0);
            m.advance(1, 1.0, 0.0);
        }
        assert!(m.temp(0) > warm_start, "busy chip should heat");
        assert!(m.temp(1) < warm_start, "idle chip should cool");
    }

    #[test]
    fn temperature_approaches_steady_state() {
        let mut m = model(1);
        let target = m.steady_state_temp(0, 1.0);
        for _ in 0..2000 {
            m.advance(0, 1.0, 1.0);
        }
        assert!((m.temp(0) - target).abs() < 0.5, "t={} ss={target}", m.temp(0));
    }

    #[test]
    fn dvfs_steps_down_when_hot_and_up_when_cool() {
        let mut m = model(1);
        m.chips[0].temp_c = 60.0;
        assert!(m.dvfs_step(0));
        assert!(m.freq_factor(0) < 1.0);
        m.chips[0].temp_c = 40.0;
        assert!(m.dvfs_step(0));
        assert_eq!(m.freq_factor(0), 1.0);
        // At nominal and cool: nothing to do.
        assert!(!m.dvfs_step(0));
    }

    #[test]
    fn dvfs_floors_at_ladder_bottom() {
        let mut m = model(1);
        m.chips[0].temp_c = 90.0;
        for _ in 0..50 {
            m.dvfs_step(0);
        }
        let min_f = *m.cfg.freq_ladder.last().unwrap();
        assert_eq!(m.freq_factor(0), min_f);
    }

    #[test]
    fn lower_frequency_lowers_steady_state() {
        let mut m = model(1);
        let hot = m.steady_state_temp(0, 1.0);
        m.chips[0].freq_idx = m.cfg.freq_ladder.len() - 1;
        let cool = m.steady_state_temp(0, 1.0);
        assert!(cool < hot);
    }

    #[test]
    fn max_temp_tracks_peak() {
        let mut m = model(1);
        m.chips[0].temp_c = 70.0;
        m.advance(0, 0.001, 1.0);
        // cool down toward the leakage-only steady state
        for _ in 0..500 {
            m.advance(0, 1.0, 0.0);
        }
        let idle_ss = m.steady_state_temp(0, 0.0);
        assert!(m.temp(0) < idle_ss + 1.0, "t={} ss={idle_ss}", m.temp(0));
        assert!(m.max_temp_observed() >= 70.0);
    }
}
