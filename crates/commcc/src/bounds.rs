//! Numeric evaluators of the paper's lower bounds (Theorems 2, 3, 5, 10).
//!
//! These compute the bounds *up to the polylogarithmic factors hidden by
//! `Ω̃`* (set to 1), so experiments can plot lower-bound curves against
//! measured upper-bound rounds and exhibit the gap landscape of Table 1.

/// Theorem 5 ([BGK+15]): the `r`-message quantum communication complexity
/// of `DISJ_k` is `Ω̃(k/r + r)` qubits.
pub fn bgk_qubits_lower_bound(k: u64, messages: u64) -> f64 {
    let k = k as f64;
    let r = (messages.max(1)) as f64;
    k / r + r
}

/// Theorem 10: with a `(b, k, d₁, d₂)`-reduction, any quantum algorithm
/// deciding the diameter gap needs `Ω̃(√(k/b))` rounds.
pub fn theorem10_rounds_lower_bound(k: u64, b: u64) -> f64 {
    (k as f64 / b.max(1) as f64).sqrt()
}

/// Theorem 2: deciding diameter 2 vs 3 needs `Ω̃(√n)` quantum rounds
/// (Theorem 8's reduction has `k = Θ(n²)`, `b = Θ(n)`).
pub fn theorem2_rounds_lower_bound(n: u64) -> f64 {
    (n as f64).sqrt()
}

/// Theorem 3: with `s` qubits of memory per node, computing the diameter
/// needs `Ω̃(√(nD)/s)` rounds — derived as `√(k·d/(b + s))` with
/// `k = Θ(n)`, `b = Θ(log n)` from Theorem 9's reduction, `d = Θ(D)`.
pub fn theorem3_rounds_lower_bound(n: u64, diameter: u64, mem_qubits: u64) -> f64 {
    let b = (n.max(2) as f64).log2();
    ((n as f64) * (diameter.max(1) as f64) / (b + mem_qubits.max(1) as f64)).sqrt()
}

/// The classical `Ω̃(n)` bound for exact computation and
/// `(3/2 − ε)`-approximation (FHW12 / HW12 / ACHK16), for comparison
/// curves.
pub fn classical_rounds_lower_bound(n: u64) -> f64 {
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgk_tradeoff_shape() {
        // Few messages: the k/r term dominates; many messages: the r term.
        assert_eq!(bgk_qubits_lower_bound(10_000, 1), 10_001.0);
        assert!(bgk_qubits_lower_bound(10_000, 100) <= 200.0);
        assert!(bgk_qubits_lower_bound(10_000, 10_000) >= 10_000.0);
        // The optimum is at r = √k with value 2√k.
        let best = (1..=400)
            .map(|r| bgk_qubits_lower_bound(10_000, r))
            .fold(f64::MAX, f64::min);
        assert_eq!(best, 200.0);
    }

    #[test]
    fn theorem2_matches_theorem10_on_hw_parameters() {
        // k = Θ(n²), b = Θ(n) ⇒ √(k/b) = Θ(√n).
        let n = 10_000u64;
        let t10 = theorem10_rounds_lower_bound(n * n, n);
        let t2 = theorem2_rounds_lower_bound(n);
        assert!((t10 - t2).abs() < 1e-9);
    }

    #[test]
    fn theorem3_scales_with_sqrt_nd_over_s() {
        let base = theorem3_rounds_lower_bound(1 << 16, 64, 64);
        // 4x the diameter: bound doubles.
        let d4 = theorem3_rounds_lower_bound(1 << 16, 256, 64);
        assert!((d4 / base - 2.0).abs() < 0.01);
        // Much more memory: bound shrinks.
        let mem = theorem3_rounds_lower_bound(1 << 16, 64, 6400);
        assert!(mem < base / 5.0);
    }

    #[test]
    fn quantum_lower_bound_is_sublinear() {
        // The Table 1 separation: Ω̃(√n) quantum vs Ω̃(n) classical.
        for n in [1_000u64, 1_000_000] {
            assert!(theorem2_rounds_lower_bound(n) * 10.0 < classical_rounds_lower_bound(n));
        }
    }
}
