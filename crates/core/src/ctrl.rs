//! Introspective control system (§III-E).
//!
//! Applications and the runtime register *control points* — named integer
//! knobs with a range and an expected effect. The control system observes a
//! scalar objective (typically the step time) reported via
//! [`Ctx::report_objective`](crate::Ctx::report_objective) and adjusts the
//! knobs between observations with a hill-climbing search, reproducing the
//! pipelined-ping tuning experiment of Fig. 6.

use std::collections::HashMap;

/// A registered tunable parameter.
#[derive(Debug, Clone)]
pub(crate) struct ControlPoint {
    /// Unique name, e.g. `"pipeline_messages"` or `"stencil_block"`.
    pub(crate) name: String,
    /// Smallest admissible value.
    pub(crate) min: i64,
    /// Largest admissible value.
    pub(crate) max: i64,
    /// Current value.
    pub(crate) value: i64,
}

/// Read-only snapshot of control-point values, visible to entry methods.
#[derive(Debug, Clone, Default)]
pub(crate) struct ControlValues {
    values: HashMap<String, i64>,
}

impl ControlValues {
    /// Value of a control point, if registered.
    pub(crate) fn get(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Probing in `dir`; `tried_reverse` records whether the other
    /// direction has already failed from the current best.
    Exploring { dir: i64, tried_reverse: bool },
    /// Search converged; hold the best value.
    Settled,
}

#[derive(Debug, Clone)]
struct PointState {
    best_value: i64,
    best_obj: f64,
    step: i64,
    phase: Phase,
}

/// The introspective tuner: one hill climb per control point, tuned one
/// point at a time (round-robin on settle).
#[derive(Debug, Default)]
pub struct ControlRegistry {
    points: Vec<ControlPoint>,
    states: Vec<Option<PointState>>,
    active: usize,
    /// Relative improvement required to accept a new best (noise guard).
    epsilon: f64,
}

impl ControlRegistry {
    /// An empty registry with a 2 % improvement threshold.
    pub(crate) fn new() -> Self {
        ControlRegistry {
            points: Vec::new(),
            states: Vec::new(),
            active: 0,
            epsilon: 0.02,
        }
    }

    /// Register a control point with an initial value.
    ///
    /// # Panics
    /// Panics on duplicate names or an empty/inverted range.
    pub fn register(&mut self, name: &str, min: i64, max: i64, initial: i64) {
        assert!(min <= max, "control point '{name}': empty range");
        assert!(
            (min..=max).contains(&initial),
            "control point '{name}': initial {initial} outside [{min}, {max}]"
        );
        assert!(
            self.points.iter().all(|p| p.name != name),
            "control point '{name}' registered twice"
        );
        self.points.push(ControlPoint {
            name: name.to_string(),
            min,
            max,
            value: initial,
        });
        self.states.push(None);
    }

    /// Current values as a snapshot for `Ctx`.
    pub(crate) fn snapshot(&self) -> ControlValues {
        ControlValues {
            values: self
                .points
                .iter()
                .map(|p| (p.name.clone(), p.value))
                .collect(),
        }
    }

    /// True when every control point's search has converged.
    pub(crate) fn all_settled(&self) -> bool {
        !self.points.is_empty()
            && self
                .states
                .iter()
                .all(|s| matches!(s, Some(st) if st.phase == Phase::Settled))
    }

    /// Feed one objective observation (smaller is better) taken with the
    /// *current* values; the tuner may adjust one control point for the
    /// next observation period.
    pub(crate) fn observe(&mut self, objective: f64) {
        if self.points.is_empty() {
            return;
        }
        if self.all_settled() {
            return;
        }
        // Skip settled points.
        while matches!(&self.states[self.active], Some(st) if st.phase == Phase::Settled) {
            self.active = (self.active + 1) % self.points.len();
        }
        let idx = self.active;
        let (min, max) = (self.points[idx].min, self.points[idx].max);
        let cur = self.points[idx].value;

        let st = self.states[idx].get_or_insert(PointState {
            best_value: cur,
            best_obj: objective,
            step: 1,
            phase: Phase::Exploring {
                dir: 1,
                tried_reverse: false,
            },
        });

        let improved = objective < st.best_obj * (1.0 - self.epsilon);
        if improved {
            st.best_obj = objective;
            st.best_value = cur;
        } else if objective < st.best_obj {
            // Small improvement: keep as best but don't accelerate.
            st.best_obj = objective;
            st.best_value = cur;
        }

        match st.phase {
            Phase::Settled => {}
            Phase::Exploring { dir, tried_reverse } => {
                if improved || cur == st.best_value {
                    // Keep moving in the same direction, growing the step.
                    st.step = (st.step * 2).min((max - min).max(1));
                    let next = (cur + dir * st.step).clamp(min, max);
                    if next == cur {
                        // Hit the boundary: try the other side or settle.
                        if tried_reverse {
                            st.phase = Phase::Settled;
                        } else {
                            st.phase = Phase::Exploring {
                                dir: -dir,
                                tried_reverse: true,
                            };
                            st.step = 1;
                            let v = (st.best_value - dir).clamp(min, max);
                            self.points[idx].value = v;
                            return;
                        }
                    } else {
                        self.points[idx].value = next;
                        return;
                    }
                } else {
                    // Worse than best: back off.
                    if !tried_reverse {
                        st.phase = Phase::Exploring {
                            dir: -dir,
                            tried_reverse: true,
                        };
                        st.step = 1;
                        let v = (st.best_value - dir).clamp(min, max);
                        if v != cur {
                            self.points[idx].value = v;
                            return;
                        }
                        st.phase = Phase::Settled;
                    } else {
                        st.phase = Phase::Settled;
                    }
                }
                if st.phase == Phase::Settled {
                    self.points[idx].value = st.best_value;
                    self.active = (self.active + 1) % self.points.len();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex objective with minimum at v = 20.
    fn objective(v: i64) -> f64 {
        let d = (v - 20) as f64;
        1.0 + d * d * 0.01
    }

    #[test]
    fn hill_climb_finds_minimum_region() {
        let mut reg = ControlRegistry::new();
        reg.register("pipeline", 1, 64, 2);
        for _ in 0..60 {
            let v = reg.snapshot().get("pipeline").unwrap();
            reg.observe(objective(v));
            if reg.all_settled() {
                break;
            }
        }
        let v = reg.snapshot().get("pipeline").unwrap();
        assert!((8..=34).contains(&v), "settled far from optimum 20: {v}");
        // The settled objective must beat the starting objective decisively.
        assert!(objective(v) < objective(2) * 0.5);
    }

    #[test]
    fn settles_eventually() {
        let mut reg = ControlRegistry::new();
        reg.register("k", 1, 100, 50);
        for _ in 0..200 {
            let v = reg.snapshot().get("k").unwrap();
            reg.observe(objective(v));
        }
        assert!(reg.all_settled());
    }

    #[test]
    fn respects_bounds() {
        let mut reg = ControlRegistry::new();
        reg.register("k", 4, 8, 6);
        for _ in 0..50 {
            let v = reg.snapshot().get("k").unwrap();
            assert!((4..=8).contains(&v));
            reg.observe(1.0 / v as f64); // favors larger v
        }
        assert_eq!(reg.snapshot().get("k").unwrap(), 8);
    }

    #[test]
    fn snapshot_reflects_values() {
        let mut reg = ControlRegistry::new();
        reg.register("a", 0, 10, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.get("a"), Some(3));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = ControlRegistry::new();
        reg.register("a", 0, 1, 0);
        reg.register("a", 0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_initial_panics() {
        let mut reg = ControlRegistry::new();
        reg.register("a", 0, 1, 5);
    }
}
