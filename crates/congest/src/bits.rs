//! Honest bit-size accounting for message fields.
//!
//! The CONGEST model grants `O(log n)` bits per edge per round, so every
//! message type declares its size via [`Payload::size_bits`](crate::Payload).
//! These helpers compute the canonical field widths.

/// Bits needed to represent any value in `0..=max_value`.
///
/// `for_value(0) == 1`: even a constant field occupies one bit on the wire.
///
/// # Example
///
/// ```
/// assert_eq!(congest::bits::for_value(0), 1);
/// assert_eq!(congest::bits::for_value(1), 1);
/// assert_eq!(congest::bits::for_value(255), 8);
/// assert_eq!(congest::bits::for_value(256), 9);
/// ```
pub fn for_value(max_value: u64) -> usize {
    if max_value <= 1 {
        1
    } else {
        (u64::BITS - max_value.leading_zeros()) as usize
    }
}

/// Bits needed for a node identifier in a graph with `n` nodes.
pub fn for_node(n: usize) -> usize {
    for_value(n.saturating_sub(1) as u64)
}

/// Bits needed for a hop distance in a graph with `n` nodes (distances are
/// at most `n - 1`).
pub fn for_dist(n: usize) -> usize {
    for_value(n.saturating_sub(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_value_boundaries() {
        assert_eq!(for_value(0), 1);
        assert_eq!(for_value(1), 1);
        assert_eq!(for_value(2), 2);
        assert_eq!(for_value(3), 2);
        assert_eq!(for_value(4), 3);
        assert_eq!(for_value(u64::MAX), 64);
    }

    #[test]
    fn node_and_dist_widths() {
        assert_eq!(for_node(1), 1);
        assert_eq!(for_node(2), 1);
        assert_eq!(for_node(1024), 10);
        assert_eq!(for_dist(1025), 11); // distances up to 1024 need 11 bits
    }
}
