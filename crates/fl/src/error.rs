//! Error type for the federated-learning layer.

use std::fmt;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building or training federated models.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A platform-layer failure (HE, codec, arithmetic).
    Platform(flbooster_core::Error),
    /// The federation configuration is invalid (participants, splits...).
    BadConfig(String),
    /// The network simulator gave up after exhausting retries.
    NetworkFailure {
        /// Attempts made.
        attempts: u32,
    },
    /// No client beat the round engine's straggler deadline (a
    /// budget in **simulated seconds**, the same unit as every
    /// `EpochBreakdown` accumulator — compared against each client's
    /// simulated uplink-arrival time, never wall-clock): the round was
    /// abandoned. Like [`he::Error::AggregandKeyMismatch`], the variant
    /// keeps the position, so a wide round can name an offending
    /// participant.
    StragglerTimeout {
        /// Zero-based index of the first client dropped from the round.
        client: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Platform(e) => write!(f, "platform: {e}"),
            Error::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            Error::NetworkFailure { attempts } => {
                write!(f, "network send failed after {attempts} attempts")
            }
            Error::StragglerTimeout { client } => {
                write!(
                    f,
                    "every client missed the straggler deadline, client {client} first"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flbooster_core::Error> for Error {
    fn from(e: flbooster_core::Error) -> Self {
        Error::Platform(e)
    }
}

impl From<he::Error> for Error {
    fn from(e: he::Error) -> Self {
        Error::Platform(flbooster_core::Error::He(e))
    }
}

impl From<codec::Error> for Error {
    fn from(e: codec::Error) -> Self {
        Error::Platform(flbooster_core::Error::Codec(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: Error = he::Error::KeyMismatch.into();
        assert!(e.to_string().contains("platform"));
        let e: Error = codec::Error::BadConfig("x".into()).into();
        assert!(matches!(e, Error::Platform(_)));
        assert!(Error::NetworkFailure { attempts: 3 }
            .to_string()
            .contains("3"));
    }

    #[test]
    fn straggler_timeout_message_names_the_client() {
        // Pinned like `AggregandKeyMismatch{index}`: the message must
        // carry the offending client index verbatim.
        assert_eq!(
            Error::StragglerTimeout { client: 41 }.to_string(),
            "every client missed the straggler deadline, client 41 first"
        );
    }
}
