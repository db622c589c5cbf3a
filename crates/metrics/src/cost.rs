//! The constant-honest communication cost model.
//!
//! The CONGEST model charges every edge a uniform `O(log n)` bits per
//! round; asymptotic statements (Table 1 of the paper) hide both the
//! per-message framing constant and the relative price of moving *qubits*
//! instead of classical bits. Following Kerger et al. ("Mind the Õ"), the
//! crossover engine charges:
//!
//! * every delivered classical message its **actual payload width** plus a
//!   fixed per-message header ([`CostModel::header_bits`]), and
//! * every qubit communicated by a charged oracle application a **fixed
//!   multiple** of a classical bit ([`CostModel::qubit_factor`], 100 in
//!   [`CostModel::default`], the one price list the registry and the
//!   crossover engine use), reflecting that distributed quantum
//!   communication is far more expensive per unit than classical traffic.
//!   The crossover report's break-even qubit factor gives the price at
//!   which each verdict would flip.

/// Prices for the two kinds of traffic a run generates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message framing overhead in bits (addressing, round tag,
    /// checksum) charged on the wire on top of the payload.
    pub header_bits: u64,
    /// Cost of communicating one qubit, in units of one classical wire bit.
    pub qubit_factor: f64,
}

/// Defaults: a 64-bit frame header and a 100× qubit premium — deliberately
/// conservative *toward* quantum; see `results/CROSSOVER.md` for the
/// break-even factor each sweep actually measures.
impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            header_bits: 64,
            qubit_factor: 100.0,
        }
    }
}

impl CostModel {
    /// Wire bits for one message with `payload_bits` of payload.
    pub fn wire_bits(&self, payload_bits: u64) -> u64 {
        payload_bits + self.header_bits
    }

    /// Total cost units for a run: classical wire bits (payload + framing,
    /// including the classical framing of quantum messages) plus the qubit
    /// premium.
    pub fn cost_units(&self, classical_wire_bits: u64, qubits: u64) -> f64 {
        classical_wire_bits as f64 + qubits as f64 * self.qubit_factor
    }

    /// The qubit factor at which a quantum run's cost equals a classical
    /// run's: the largest qubit premium under which quantum still wins.
    ///
    /// Returns `None` when the quantum run sends no qubits, or when its
    /// classical traffic alone already exceeds the classical run (quantum
    /// loses at every factor).
    pub fn break_even_factor(
        classical_wire_bits: u64,
        quantum_classical_wire_bits: u64,
        qubits: u64,
    ) -> Option<f64> {
        if qubits == 0 || quantum_classical_wire_bits >= classical_wire_bits {
            return None;
        }
        Some((classical_wire_bits - quantum_classical_wire_bits) as f64 / qubits as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bits_add_the_header() {
        let m = CostModel {
            header_bits: 10,
            qubit_factor: 2.0,
        };
        assert_eq!(m.wire_bits(5), 15);
        assert_eq!(m.wire_bits(0), 10);
    }

    #[test]
    fn cost_units_charge_the_qubit_premium() {
        let m = CostModel {
            header_bits: 0,
            qubit_factor: 100.0,
        };
        assert_eq!(m.cost_units(1_000, 0), 1_000.0);
        assert_eq!(m.cost_units(1_000, 10), 2_000.0);
    }

    #[test]
    fn break_even_factor_is_the_win_boundary() {
        // Classical spends 10_000 wire bits; quantum spends 1_000 classical
        // wire bits + 30 qubits. Quantum wins iff factor < 300.
        let f = CostModel::break_even_factor(10_000, 1_000, 30).unwrap();
        assert!((f - 300.0).abs() < 1e-9);
        let m = CostModel {
            header_bits: 0,
            qubit_factor: f - 1.0,
        };
        assert!(m.cost_units(1_000, 30) < 10_000.0);
        assert!(CostModel::break_even_factor(10_000, 1_000, 0).is_none());
        assert!(CostModel::break_even_factor(1_000, 2_000, 5).is_none());
    }
}
