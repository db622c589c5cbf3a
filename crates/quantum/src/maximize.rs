use rand::Rng;

use crate::{amplify, AmplifyParams, OracleCost, QuantumError, SearchState};

/// Parameters for [`maximize`] (Corollary 1 of the paper).
///
/// `min_mass` is the promise `ε ≤ P_opt`: the probability of observing a
/// maximizer when measuring the initial state. The paper's exact diameter
/// algorithm uses `ε = d/2n` (Lemma 1); the simple variant uses `ε = 1/n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaximizeParams {
    /// Promised lower bound `ε` on the optimum's probability mass.
    pub min_mass: f64,
    /// Allowed failure probability `δ`.
    pub failure_prob: f64,
    /// Safety-valve multiplier on the total operator budget; the search
    /// aborts with the current best element once
    /// `cap_factor · √(log₂(1/δ)/ε)` black-box applications have been spent
    /// (the worst-case abort of Corollary 1's proof).
    pub cap_factor: f64,
}

impl MaximizeParams {
    /// Parameters with the given `ε` and defaults `δ = 0.01`,
    /// `cap_factor = 400`.
    pub fn with_min_mass(min_mass: f64) -> Self {
        MaximizeParams {
            min_mass,
            failure_prob: 0.01,
            cap_factor: 400.0,
        }
    }

    /// Replaces the failure probability.
    pub fn with_failure_prob(mut self, delta: f64) -> Self {
        self.failure_prob = delta;
        self
    }

    /// Replaces the abort cap multiplier.
    pub fn with_cap_factor(mut self, cap_factor: f64) -> Self {
        self.cap_factor = cap_factor;
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
        if self.cap_factor < 1.0 || self.cap_factor.is_nan() {
            return Err(QuantumError::InvalidParameter {
                reason: format!("cap_factor must be at least 1, got {}", self.cap_factor),
            });
        }
        Ok(())
    }

    fn op_cap(&self) -> u64 {
        let log_term = (1.0 / self.failure_prob).log2().max(1.0);
        (self.cap_factor * (log_term / self.min_mass).sqrt()).ceil() as u64
    }
}

/// Result of a [`maximize`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaximizeOutcome {
    /// The element the search settled on. With probability at least
    /// `1 − δ` it maximizes `f` over the support of the initial state.
    pub argmax: usize,
    /// Black-box operator accounting across the whole search.
    pub cost: OracleCost,
    /// Number of strict improvements accepted.
    pub improvements: u32,
    /// Number of threshold stages (amplification calls).
    pub stages: u32,
    /// `true` if the operator cap fired before the search converged.
    pub aborted: bool,
}

/// Quantum maximum finding (Corollary 1, after Dürr–Høyer): finds an element
/// maximizing `f` over the support of `init`, with probability at least
/// `1 − δ`.
///
/// The procedure samples a starting element, then repeatedly amplifies the
/// set `{x : f(x) > f(a)}` with a mass guess `ε'` that starts at `1/2` and
/// only ever halves:
///
/// 1. start with a measured sample `a` and `ε' = 1/2`;
/// 2. amplify with `ε'`, `δ' = δ` to find some `b` with `f(b) > f(a)`;
/// 3. on success set `a = b` and go to 2, keeping `ε'`;
/// 4. otherwise halve `ε'` while `ε' > ε` and go to 2;
/// 5. output `a`, aborting early if the operator budget is exhausted.
///
/// Each stage is one [`amplify`] call, which spends up to
/// `(1 + log₂(1/δ)/2)/√ε'` Grover iterations; the whole search aborts
/// after `cap_factor · √(log₂(1/δ)/ε)` oracle applications
/// ([`MaximizeParams::cap_factor`]). Corollary 1 states
/// `O(√(log(1/δ)/ε))` applications in all.
///
/// The simulation costs `O(n)` per stage and per amplification trial: each
/// stage evaluates `f` once per element to fix the marked set, and each
/// trial samples its measurement from the closed form of Grover's
/// two-dimensional subspace (see [`amplify`]), which is exact, so the
/// outcome and the oracle accounting are those of the state-vector
/// evolution.
///
/// # Errors
///
/// Returns [`QuantumError::InvalidParameter`] on out-of-range parameters.
///
/// See the [crate-level example](crate).
pub fn maximize<V, R>(
    init: &SearchState,
    f: impl Fn(usize) -> V,
    params: MaximizeParams,
    rng: &mut R,
) -> Result<MaximizeOutcome, QuantumError>
where
    V: PartialOrd,
    R: Rng + ?Sized,
{
    params.validate()?;
    let cap = params.op_cap();
    let mut cost = OracleCost::new();

    // Step 1: sample the starting element.
    cost.charge_state_preparation();
    cost.charge_measurement();
    cost.charge_verification();
    let mut argmax = init.measure(rng);
    let mut improvements = 0u32;
    let mut stages = 0u32;
    let mut aborted = false;

    let mut eps_guess: f64 = 0.5;
    loop {
        if cost.total_ops() >= cap {
            aborted = true;
            break;
        }
        stages += 1;
        let threshold = f(argmax);
        let amplify_params = AmplifyParams {
            min_mass: eps_guess,
            failure_prob: params.failure_prob,
        };
        let outcome = amplify(init, |x| f(x) > threshold, amplify_params, rng)?;
        cost += outcome.cost;
        match outcome.found {
            Some(b) => {
                argmax = b;
                improvements += 1;
                cost.charge_verification();
            }
            None => {
                if eps_guess > params.min_mass {
                    eps_guess /= 2.0;
                } else {
                    break;
                }
            }
        }
    }
    Ok(MaximizeOutcome {
        argmax,
        cost,
        improvements,
        stages,
        aborted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_unique_maximum() {
        let n = 200;
        let init = SearchState::uniform(n);
        let f = |x: usize| if x == 137 { 1_000 } else { x };
        let params = MaximizeParams::with_min_mass(1.0 / n as f64).with_failure_prob(1e-3);
        let mut rng = StdRng::seed_from_u64(21);
        let out = maximize(&init, f, params, &mut rng).unwrap();
        assert_eq!(out.argmax, 137);
        assert!(out.improvements >= 1);
        assert!(!out.aborted);
    }

    #[test]
    fn finds_any_of_many_maxima() {
        let n = 128;
        let init = SearchState::uniform(n);
        let f = |x: usize| x / 32; // maximized on 96..128
        let params = MaximizeParams::with_min_mass(32.0 / n as f64);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let out = maximize(&init, f, params, &mut rng).unwrap();
            assert!(out.argmax >= 96, "non-maximal output {}", out.argmax);
        }
    }

    #[test]
    fn constant_function_returns_some_element() {
        let init = SearchState::uniform(50);
        let params = MaximizeParams::with_min_mass(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let out = maximize(&init, |_| 7, params, &mut rng).unwrap();
        assert!(out.argmax < 50);
        assert_eq!(out.improvements, 0);
    }

    #[test]
    fn respects_support_restriction() {
        // Optimize only over even elements; the global max at x=99 is
        // outside the support and must never be returned.
        let n = 100;
        let init = SearchState::uniform_over(n, |x| x % 2 == 0).unwrap();
        let f = |x: usize| x;
        let params = MaximizeParams::with_min_mass(2.0 / n as f64).with_failure_prob(1e-3);
        let mut rng = StdRng::seed_from_u64(17);
        let out = maximize(&init, f, params, &mut rng).unwrap();
        assert_eq!(out.argmax, 98);
    }

    #[test]
    fn success_rate_is_high() {
        let n = 100;
        let init = SearchState::uniform(n);
        let f = |x: usize| (x as i64 * 91) % 101; // unique maximizer
        let best = (0..n).max_by_key(|&x| f(x)).unwrap();
        let params = MaximizeParams::with_min_mass(1.0 / n as f64).with_failure_prob(0.05);
        let mut rng = StdRng::seed_from_u64(99);
        let mut hits = 0;
        for _ in 0..60 {
            let out = maximize(&init, f, params, &mut rng).unwrap();
            if out.argmax == best {
                hits += 1;
            }
        }
        assert!(hits >= 55, "only {hits}/60 successes");
    }

    #[test]
    fn meets_its_promise_on_a_planted_maximum() {
        // Corollary 1 with the paper's default schedule: a unique maximum
        // planted among n = 1024 elements is found with probability at
        // least 1 − δ = 0.99. The other values are a permutation, so the
        // search climbs through many improvements first.
        let n = 1024;
        let init = SearchState::uniform(n);
        let params = MaximizeParams::with_min_mass(1.0 / n as f64).with_failure_prob(0.01);
        let runs = 1000;
        let mut hits = 0;
        for seed in 0..runs as u64 {
            let planted = (seed as usize * 389) % n;
            let f = |x: usize| if x == planted { n } else { (x * 613) % 1000 };
            let mut rng = StdRng::seed_from_u64(seed);
            if maximize(&init, f, params, &mut rng).unwrap().argmax == planted {
                hits += 1;
            }
        }
        assert!(hits >= 990, "only {hits}/{runs} successes");
    }

    #[test]
    fn cost_scales_sublinearly() {
        // Oracle calls should grow like √n, i.e. far slower than n.
        let cost_for = |n: usize, seed: u64| {
            let init = SearchState::uniform(n);
            let f = |x: usize| (x * 7919) % n;
            let params = MaximizeParams::with_min_mass(1.0 / n as f64);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0u64;
            let reps = 10;
            for _ in 0..reps {
                total += maximize(&init, f, params, &mut rng)
                    .unwrap()
                    .cost
                    .total_ops();
            }
            total as f64 / reps as f64
        };
        let c_small = cost_for(64, 1);
        let c_big = cost_for(64 * 16, 1);
        let ratio = c_big / c_small;
        assert!(
            ratio < 12.0,
            "16x domain grew cost by {ratio}x; expected ≈4x"
        );
    }

    #[test]
    fn abort_cap_fires_with_tiny_budget() {
        let n = 4096;
        let init = SearchState::uniform(n);
        let params = MaximizeParams::with_min_mass(1.0 / n as f64).with_cap_factor(1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let out = maximize(&init, |x| x, params, &mut rng).unwrap();
        assert!(out.aborted);
        assert!(out.argmax < n);
    }

    #[test]
    fn rejects_bad_parameters() {
        let init = SearchState::uniform(4);
        let mut rng = StdRng::seed_from_u64(0);
        let bad = [
            MaximizeParams {
                min_mass: 0.0,
                failure_prob: 0.1,
                cap_factor: 10.0,
            },
            MaximizeParams {
                min_mass: 0.5,
                failure_prob: 2.0,
                cap_factor: 10.0,
            },
            MaximizeParams {
                min_mass: 0.5,
                failure_prob: 0.1,
                cap_factor: 0.0,
            },
        ];
        for params in bad {
            assert!(maximize(&init, |x| x, params, &mut rng).is_err());
        }
    }
}
