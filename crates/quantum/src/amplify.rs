use rand::Rng;

use crate::{OracleCost, QuantumError, SearchState};

/// Parameters for [`amplify`] (Theorem 6 of the paper).
///
/// `min_mass` is the promise `ε`: either the marked set is empty or its
/// probability mass under the initial state is at least `ε`. `failure_prob`
/// is `δ`, the allowed probability of a wrong answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmplifyParams {
    /// Promised lower bound `ε` on the marked mass when nonempty.
    pub min_mass: f64,
    /// Allowed failure probability `δ`.
    pub failure_prob: f64,
}

impl AmplifyParams {
    /// Parameters with the given `ε` and the default `δ = 0.01`.
    pub fn with_min_mass(min_mass: f64) -> Self {
        AmplifyParams {
            min_mass,
            failure_prob: 0.01,
        }
    }

    /// Replaces the failure probability.
    pub fn with_failure_prob(mut self, delta: f64) -> Self {
        self.failure_prob = delta;
        self
    }

    fn validate(&self) -> Result<(), QuantumError> {
        if !(self.min_mass > 0.0 && self.min_mass <= 1.0) {
            return Err(QuantumError::InvalidParameter {
                reason: format!("min_mass must be in (0, 1], got {}", self.min_mass),
            });
        }
        if !(self.failure_prob > 0.0 && self.failure_prob < 1.0) {
            return Err(QuantumError::InvalidParameter {
                reason: format!("failure_prob must be in (0, 1), got {}", self.failure_prob),
            });
        }
        Ok(())
    }

    /// Total Grover iteration budget: `⌈(1 + log₂(1/δ)/2)/√ε⌉`, with
    /// `log₂(1/δ)` floored at 1. Each full-length trial (`j` drawn up to the
    /// `1/√ε` cap) succeeds with probability ≈ 1/2 whenever the marked mass
    /// is at least `ε`, so this budget drives the failure probability below
    /// `δ`. It is `Θ(log(1/δ)/√ε)`, a `√log(1/δ)` factor above Theorem 6's
    /// `O(√(log(1/δ)/ε))`.
    fn iteration_budget(&self) -> u64 {
        let log_term = (1.0 / self.failure_prob).log2().max(1.0);
        ((1.0 + 0.5 * log_term) / self.min_mass.sqrt()).ceil() as u64
    }
}

/// Result of an [`amplify`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmplifyOutcome {
    /// A marked element if one was found (`None` ⇒ declare `M = ∅`).
    pub found: Option<usize>,
    /// Black-box operator accounting for the whole call.
    pub cost: OracleCost,
}

/// Amplitude amplification with unknown marked mass (Theorem 6, following
/// Brassard–Høyer–Tapp): decides whether the marked set `M` is empty, and if
/// not returns a random element of `M` (with probability proportional to its
/// squared amplitude). It stops once its trials have spent
/// `(1 + log₂(1/δ)/2)/√ε` Grover iterations, so it makes `O(log(1/δ)/√ε)`
/// applications of the state-preparation and checking oracles (Theorem 6
/// states `O(√(log(1/δ)/ε))`).
///
/// The simulation is exact and costs `O(n)` per trial, whatever the number
/// `j` of Grover iterations the trial applies: `marked` is evaluated once
/// per element per call, and each trial samples its measurement from the
/// closed form of the state in Grover's two-dimensional subspace: after `j`
/// iterations from the initial state `b`, with marked mass `p_M`, unmarked
/// mass `p_U` and `sin²θ = p_M/(p_M + p_U)`, a marked `x` is measured with
/// probability `b_x²·sin²((2j+1)θ)/p_M` and an unmarked one with
/// `b_x²·cos²((2j+1)θ)/p_U`. This is the state-vector evolution itself,
/// not an approximation of it, because both reflections map the span of
/// the marked and unmarked parts of `b` into itself. Every draw from `rng`
/// and every [`OracleCost`] charge is the one `j` real iterations on a
/// [`SearchState`] would make.
///
/// # Errors
///
/// Returns [`QuantumError::InvalidParameter`] if `params` is out of range.
///
/// # Example
///
/// ```
/// use quantum::{amplify, AmplifyParams, SearchState};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let init = SearchState::uniform(256);
/// let mut rng = StdRng::seed_from_u64(3);
/// let params = AmplifyParams::with_min_mass(1.0 / 256.0);
/// let out = amplify(&init, |x| x == 99, params, &mut rng)?;
/// assert_eq!(out.found, Some(99));
/// # Ok::<(), quantum::QuantumError>(())
/// ```
pub fn amplify<R: Rng + ?Sized>(
    init: &SearchState,
    marked: impl Fn(usize) -> bool,
    params: AmplifyParams,
    rng: &mut R,
) -> Result<AmplifyOutcome, QuantumError> {
    params.validate()?;
    let plane = Plane::new(init, marked);
    let mut cost = OracleCost::new();
    let budget = params.iteration_budget();
    let mut spent: u64 = 0;
    // The BBHT schedule: sample j uniformly below a growing bound m.
    let mut m: f64 = 1.0;
    while spent < budget {
        let bound = (m.ceil() as u64).max(1);
        let j = rng.random_range(0..bound);
        cost.charge_state_preparation();
        cost.charge_iterations(j);
        spent += j.max(1);
        let x = plane.measure(j, rng);
        cost.charge_measurement();
        cost.charge_verification();
        if plane.marked[x] {
            return Ok(AmplifyOutcome {
                found: Some(x),
                cost,
            });
        }
        // Grow the iteration bound, capped at the critical 1/√ε scale.
        m = (m * 1.5).min(1.0 / params.min_mass.sqrt() + 1.0);
    }
    Ok(AmplifyOutcome { found: None, cost })
}

/// Grover's two-dimensional subspace. Split the initial state `b` into its
/// marked part `b_M` and its unmarked part `b_U`, of masses `p_M` and
/// `p_U`. The oracle reflection maps `b_M ↦ −b_M` and fixes `b_U`, and the
/// reflection about `b` maps span{`b_M`, `b_U`} into itself, so `j`
/// iterations leave the state at
/// `sin((2j+1)θ)·b_M/√p_M + cos((2j+1)θ)·b_U/√p_U`.
struct Plane<'a> {
    init: &'a SearchState,
    /// Whether each element is marked.
    marked: Vec<bool>,
    /// `p_M`, the marked mass of the initial state.
    marked_mass: f64,
    /// `p_U`, the unmarked mass of the initial state.
    unmarked_mass: f64,
    /// `θ`, with `sin²θ = p_M/(p_M + p_U)`.
    theta: f64,
}

impl<'a> Plane<'a> {
    fn new(init: &'a SearchState, marked: impl Fn(usize) -> bool) -> Self {
        let marked: Vec<bool> = (0..init.len()).map(marked).collect();
        let (mut marked_mass, mut unmarked_mass) = (0.0, 0.0);
        for (x, &m) in marked.iter().enumerate() {
            if m {
                marked_mass += init.probability(x);
            } else {
                unmarked_mass += init.probability(x);
            }
        }
        let theta = (marked_mass / (marked_mass + unmarked_mass)).sqrt().asin();
        Plane {
            init,
            marked,
            marked_mass,
            unmarked_mass,
            theta,
        }
    }

    /// The probability after `j` iterations per unit of initial
    /// probability, of a marked and of an unmarked element. A part of zero
    /// mass has no elements to weigh.
    fn weights(&self, j: u64) -> (f64, f64) {
        let (sin, cos) = ((2 * j + 1) as f64 * self.theta).sin_cos();
        let weigh = |amp: f64, mass: f64| if mass > 0.0 { amp * amp / mass } else { 0.0 };
        (weigh(sin, self.marked_mass), weigh(cos, self.unmarked_mass))
    }

    /// The probability of measuring `x` after `j` iterations.
    #[cfg(test)]
    fn probability(&self, x: usize, j: u64) -> f64 {
        let (on, off) = self.weights(j);
        self.init.probability(x) * if self.marked[x] { on } else { off }
    }

    /// Samples a measurement after `j` iterations with one uniform draw and
    /// the index-order cumulative walk of [`SearchState::measure`].
    fn measure<R: Rng + ?Sized>(&self, j: u64, rng: &mut R) -> usize {
        let (on, off) = self.weights(j);
        let total = on * self.marked_mass + off * self.unmarked_mass;
        let mut target = rng.random::<f64>() * total;
        for (x, &m) in self.marked.iter().enumerate() {
            target -= self.init.probability(x) * if m { on } else { off };
            if target <= 0.0 {
                return x;
            }
        }
        self.marked.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `amplify` as a state-vector simulation: each trial applies `j` real
    /// Grover iterations to a fresh copy of `init`.
    fn statevector_amplify(
        init: &SearchState,
        marked: impl Fn(usize) -> bool,
        params: AmplifyParams,
        rng: &mut StdRng,
    ) -> AmplifyOutcome {
        let mut cost = OracleCost::new();
        let budget = params.iteration_budget();
        let mut spent: u64 = 0;
        let mut m: f64 = 1.0;
        while spent < budget {
            let bound = (m.ceil() as u64).max(1);
            let j = rng.random_range(0..bound);
            let mut state = init.clone();
            cost.charge_state_preparation();
            state.grover_iterations(init, &marked, j);
            cost.charge_iterations(j);
            spent += j.max(1);
            let x = state.measure(rng);
            cost.charge_measurement();
            cost.charge_verification();
            if marked(x) {
                return AmplifyOutcome {
                    found: Some(x),
                    cost,
                };
            }
            m = (m * 1.5).min(1.0 / params.min_mass.sqrt() + 1.0);
        }
        AmplifyOutcome { found: None, cost }
    }

    type Marked = Box<dyn Fn(usize) -> bool>;

    /// Initial states, marked sets and promises covering several sizes,
    /// `p_M = 0` (nothing marked, and marked elements of zero amplitude),
    /// `p_M = 1`, and non-uniform amplitudes.
    fn cases() -> Vec<(SearchState, Marked, f64)> {
        let skewed = SearchState::from_amplitudes((0..97).map(|x| 1.0 + (x % 5) as f64).collect());
        let hollow = SearchState::uniform_over(40, |x| x % 4 != 0);
        vec![
            (SearchState::uniform(1), Box::new(|_| true), 1.0),
            (SearchState::uniform(2), Box::new(|x| x == 1), 0.5),
            (SearchState::uniform(64), Box::new(|x| x == 5), 1.0 / 64.0),
            (SearchState::uniform(300), Box::new(|x| x % 7 == 3), 0.1),
            (SearchState::uniform(128), Box::new(|_| false), 1.0 / 128.0),
            (SearchState::uniform(50), Box::new(|_| true), 0.25),
            (skewed.clone().unwrap(), Box::new(|x| x % 11 == 0), 0.05),
            (skewed.unwrap(), Box::new(|x| x == 96), 0.01),
            (hollow.unwrap(), Box::new(|x| x % 4 == 0), 0.02),
            (
                SearchState::uniform(1024),
                Box::new(|x| x == 1000),
                1.0 / 1024.0,
            ),
        ]
    }

    #[test]
    fn matches_the_statevector_seed_for_seed() {
        let cases = cases();
        for seed in 0..1200u64 {
            let (init, marked, min_mass) = &cases[seed as usize % cases.len()];
            let delta = [0.01, 0.2, 1e-4][seed as usize % 3];
            let params = AmplifyParams::with_min_mass(*min_mass).with_failure_prob(delta);
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut slow_rng = StdRng::seed_from_u64(seed);
            let fast = amplify(init, marked, params, &mut fast_rng).unwrap();
            let slow = statevector_amplify(init, marked, params, &mut slow_rng);
            assert_eq!(fast, slow, "seed {seed}");
            // Both drew the same number of values from the generator.
            assert_eq!(fast_rng.random::<u64>(), slow_rng.random::<u64>());
        }
    }

    #[test]
    fn closed_form_matches_grover_iterations() {
        for (init, marked, _) in cases() {
            let plane = Plane::new(&init, &marked);
            let mut state = init.clone();
            for j in 0..=50 {
                for x in 0..init.len() {
                    let (fast, slow) = (plane.probability(x, j), state.probability(x));
                    assert!(
                        (fast - slow).abs() < 1e-12,
                        "n = {}, j = {j}, x = {x}: {fast} vs {slow}",
                        init.len()
                    );
                }
                state.grover_iteration(&init, &marked);
            }
        }
    }

    #[test]
    fn finds_unique_marked_element() {
        let n = 512;
        let init = SearchState::uniform(n);
        let params = AmplifyParams::with_min_mass(1.0 / n as f64).with_failure_prob(1e-4);
        let mut rng = StdRng::seed_from_u64(11);
        for target in [0usize, 255, 511] {
            let out = amplify(&init, |x| x == target, params, &mut rng).unwrap();
            assert_eq!(out.found, Some(target));
        }
    }

    #[test]
    fn declares_empty_when_nothing_is_marked() {
        let init = SearchState::uniform(128);
        let params = AmplifyParams::with_min_mass(1.0 / 128.0);
        let mut rng = StdRng::seed_from_u64(5);
        let out = amplify(&init, |_| false, params, &mut rng).unwrap();
        assert_eq!(out.found, None);
        assert!(out.cost.iterations > 0);
    }

    #[test]
    fn cost_scales_like_inverse_sqrt_mass() {
        // With nothing marked the full budget is always consumed, making the
        // cost deterministic up to the random j draws; compare ε and ε/16.
        let init = SearchState::uniform(1 << 14);
        let mut rng = StdRng::seed_from_u64(9);
        let run = |eps: f64, rng: &mut StdRng| {
            amplify(&init, |_| false, AmplifyParams::with_min_mass(eps), rng)
                .unwrap()
                .cost
        };
        let c1 = run(1.0 / 1024.0, &mut rng);
        let c2 = run(1.0 / (16.0 * 1024.0), &mut rng);
        let ratio = c2.iterations as f64 / c1.iterations as f64;
        assert!(
            (2.0..=8.0).contains(&ratio),
            "expected ≈4x iteration growth for 16x smaller mass, got {ratio}"
        );
    }

    #[test]
    fn success_rate_exceeds_promise() {
        let n = 256;
        let init = SearchState::uniform(n);
        let params = AmplifyParams::with_min_mass(4.0 / n as f64).with_failure_prob(0.05);
        let mut rng = StdRng::seed_from_u64(42);
        let marked = |x: usize| x.is_multiple_of(64); // 4 marked elements
        let mut hits = 0;
        for _ in 0..100 {
            if amplify(&init, marked, params, &mut rng)
                .unwrap()
                .found
                .is_some()
            {
                hits += 1;
            }
        }
        assert!(hits >= 95, "only {hits}/100 successes");
    }

    #[test]
    fn found_element_is_random_over_marked_set() {
        let n = 64;
        let init = SearchState::uniform(n);
        let params = AmplifyParams::with_min_mass(2.0 / n as f64);
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            if let Some(x) = amplify(&init, |x| x == 7 || x == 21, params, &mut rng)
                .unwrap()
                .found
            {
                seen.insert(x);
            }
        }
        assert_eq!(seen, [7usize, 21].into_iter().collect());
    }

    #[test]
    fn rejects_bad_parameters() {
        let init = SearchState::uniform(4);
        let mut rng = StdRng::seed_from_u64(0);
        for params in [
            AmplifyParams {
                min_mass: 0.0,
                failure_prob: 0.1,
            },
            AmplifyParams {
                min_mass: 1.5,
                failure_prob: 0.1,
            },
            AmplifyParams {
                min_mass: 0.5,
                failure_prob: 0.0,
            },
            AmplifyParams {
                min_mass: 0.5,
                failure_prob: 1.0,
            },
        ] {
            assert!(amplify(&init, |_| true, params, &mut rng).is_err());
        }
    }

    #[test]
    fn full_mass_returns_immediately() {
        let init = SearchState::uniform(16);
        let params = AmplifyParams::with_min_mass(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let out = amplify(&init, |_| true, params, &mut rng).unwrap();
        assert!(out.found.is_some());
        assert_eq!(out.cost.measurements, 1);
    }
}
