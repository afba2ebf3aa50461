//! SECDED ECC: Hamming(72,64) — single-error-correct,
//! double-error-detect.
//!
//! The classic extended Hamming layout over a 72-bit codeword (held in a
//! `u128`): bit 0 is the overall parity bit, bits 1, 2, 4, 8, 16, 32, 64
//! are the Hamming parity bits, and the 64 data bits fill the remaining
//! positions `1..=71` in ascending order. A 64-byte cache line carries
//! eight such words; the simulator models ECC at line granularity (flip
//! counters per line), but this module is the real code so the property
//! tests can prove the correct/detect guarantees rather than assume them.

/// Outcome of decoding a possibly-corrupted codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// No error detected; payload returned.
    Clean(u64),
    /// Exactly one bit was flipped (data, parity, or overall bit) and has
    /// been corrected; payload returned.
    Corrected(u64),
    /// An uncorrectable double-bit error was detected. The caller must
    /// treat the line as lost (miss + refetch).
    DoubleError,
}

/// Positions `1..=71` that are not powers of two hold data bits.
fn is_data_position(pos: u32) -> bool {
    pos != 0 && !pos.is_power_of_two()
}

/// Encodes 64 data bits into a 72-bit SECDED codeword.
#[must_use]
pub fn encode(data: u64) -> u128 {
    let mut word: u128 = 0;
    // Scatter data bits into non-power-of-two positions.
    let mut bit = 0u32;
    for pos in 1..72u32 {
        if is_data_position(pos) {
            if (data >> bit) & 1 == 1 {
                word |= 1u128 << pos;
            }
            bit += 1;
        }
    }
    // Hamming parity bits: parity bit at position p covers every position
    // whose index has bit p set.
    for p in [1u32, 2, 4, 8, 16, 32, 64] {
        let mut parity = 0u32;
        for pos in 1..72u32 {
            if pos & p != 0 && (word >> pos) & 1 == 1 {
                parity ^= 1;
            }
        }
        if parity == 1 {
            word |= 1u128 << p;
        }
    }
    // Overall parity (bit 0) makes the whole 72-bit word even-parity.
    if (word.count_ones() & 1) == 1 {
        word |= 1;
    }
    word
}

/// Extracts the 64 data bits from a codeword (no checking).
fn extract(word: u128) -> u64 {
    let mut data = 0u64;
    let mut bit = 0u32;
    for pos in 1..72u32 {
        if is_data_position(pos) {
            if (word >> pos) & 1 == 1 {
                data |= 1u64 << bit;
            }
            bit += 1;
        }
    }
    data
}

/// Decodes a codeword, correcting single-bit flips and flagging
/// double-bit flips.
#[must_use]
pub fn decode(word: u128) -> Decoded {
    // Syndrome: XOR of the positions of all set bits under the Hamming
    // parity equations.
    let mut syndrome = 0u32;
    for pos in 1..72u32 {
        if (word >> pos) & 1 == 1 {
            syndrome ^= pos;
        }
    }
    let overall_odd = (word.count_ones() & 1) == 1;
    match (syndrome, overall_odd) {
        (0, false) => Decoded::Clean(extract(word)),
        // Overall parity trips, syndrome points at the flipped bit (or at
        // bit 0 itself when syndrome is 0): single error, correctable.
        (s, true) => {
            let fixed = word ^ (1u128 << s);
            Decoded::Corrected(extract(fixed))
        }
        // Syndrome nonzero but overall parity even: two flips cancelled
        // in the overall bit — detectable, not correctable.
        (_, false) => Decoded::DoubleError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clean_roundtrip() {
        for data in [0u64, 1, u64::MAX, 0xDEAD_BEEF_0BAD_F00D] {
            assert_eq!(decode(encode(data)), Decoded::Clean(data));
        }
    }

    #[test]
    fn every_single_flip_corrected_exhaustive() {
        let data = 0xA5A5_5A5A_C3C3_3C3C;
        let word = encode(data);
        for pos in 0..72u32 {
            assert_eq!(
                decode(word ^ (1u128 << pos)),
                Decoded::Corrected(data),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn every_double_flip_detected_exhaustive() {
        let data = 0x0123_4567_89AB_CDEF;
        let word = encode(data);
        for a in 0..72u32 {
            for b in (a + 1)..72u32 {
                assert_eq!(
                    decode(word ^ (1u128 << a) ^ (1u128 << b)),
                    Decoded::DoubleError,
                    "flips at {a},{b}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn roundtrip_any_payload(data in 0u64..u64::MAX) {
            prop_assert_eq!(decode(encode(data)), Decoded::Clean(data));
        }

        #[test]
        fn single_flip_corrected(data in 0u64..u64::MAX, pos in 0u32..72) {
            let word = encode(data) ^ (1u128 << pos);
            prop_assert_eq!(decode(word), Decoded::Corrected(data));
        }

        #[test]
        fn double_flip_detected(data in 0u64..u64::MAX, a in 0u32..72, delta in 1u32..71) {
            let b = (a + delta) % 72;
            let word = encode(data) ^ (1u128 << a) ^ (1u128 << b);
            prop_assert_eq!(decode(word), Decoded::DoubleError);
        }
    }
}
