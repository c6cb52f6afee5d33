//! Error types for the quantization/compression layer.

use std::fmt;

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by quantization and batch compression.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A gradient value fell outside `[-α, α]` in strict mode, or was not
    /// finite.
    ValueOutOfRange {
        /// The offending value.
        value: f64,
        /// The configured bound α.
        alpha: f64,
    },
    /// The quantization configuration is unusable.
    BadConfig(String),
    /// The key is too small to hold even one slot.
    KeyTooSmall {
        /// Key size in bits.
        key_bits: u32,
        /// Required slot width in bits.
        slot_bits: u32,
    },
    /// An aggregated slot would exceed its guard bits: more terms were
    /// added than `2^b` (paper: "a certain number of overflow bits are
    /// reserved so that no overflow ... occurs").
    OverflowBitsExhausted {
        /// Terms requested.
        terms: u32,
        /// Maximum safe terms `2^b`.
        max_terms: u32,
    },
    /// Unpack was asked for more values than the packed data holds.
    NotEnoughData {
        /// Values requested.
        requested: usize,
        /// Values available.
        available: usize,
    },
    /// Unpack was given more words than its values occupy; the extra
    /// words would go unread.
    ExtraWords {
        /// Words the values occupy.
        expected: usize,
        /// Words given.
        got: usize,
    },
    /// A word has bits set at or above the end of its last used slot. An
    /// honest sum within its guard capacity never reaches them, so the
    /// word was tampered with or decrypted under another key.
    SlotOverflow {
        /// Index of the word.
        word: usize,
        /// The word's bit length.
        bits: u32,
        /// Bit at which its last used slot ends.
        limit: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ValueOutOfRange { value, alpha } => {
                write!(
                    f,
                    "value {value} outside the quantization range [-{alpha}, {alpha}]"
                )
            }
            Error::BadConfig(msg) => write!(f, "bad quantizer configuration: {msg}"),
            Error::KeyTooSmall {
                key_bits,
                slot_bits,
            } => {
                write!(f, "{key_bits}-bit key cannot hold a {slot_bits}-bit slot")
            }
            Error::OverflowBitsExhausted { terms, max_terms } => write!(
                f,
                "aggregating {terms} terms exceeds the {max_terms}-term guard capacity"
            ),
            Error::NotEnoughData {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} values but only {available} are packed"
                )
            }
            Error::ExtraWords { expected, got } => {
                write!(f, "{got} words given but the values occupy {expected}")
            }
            Error::SlotOverflow { word, bits, limit } => write!(
                f,
                "word {word} is {bits} bits long but its used slots end at bit {limit}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(Error::ValueOutOfRange {
            value: 2.0,
            alpha: 1.0
        }
        .to_string()
        .contains("2"));
        assert!(Error::KeyTooSmall {
            key_bits: 16,
            slot_bits: 32
        }
        .to_string()
        .contains("16"));
        assert!(Error::OverflowBitsExhausted {
            terms: 9,
            max_terms: 8
        }
        .to_string()
        .contains("9 terms"));
        assert!(Error::NotEnoughData {
            requested: 5,
            available: 3
        }
        .to_string()
        .contains("5"));
        assert_eq!(
            Error::ExtraWords {
                expected: 2,
                got: 3
            }
            .to_string(),
            "3 words given but the values occupy 2"
        );
        assert_eq!(
            Error::SlotOverflow {
                word: 1,
                bits: 97,
                limit: 96
            }
            .to_string(),
            "word 1 is 97 bits long but its used slots end at bit 96"
        );
        assert!(Error::BadConfig("r must be positive".into())
            .to_string()
            .contains("positive"));
    }
}
