//! Error type shared by all fallible operations in this crate.

use std::fmt;

/// Errors produced by hypervector construction, encoding and classification.
#[derive(Debug, Clone, PartialEq)]
pub enum HdcError {
    /// Two hypervectors participating in a binary operation had different
    /// dimensionalities.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// A dimensionality of zero was requested.
    ZeroDimension,
    /// An encoder was constructed with an empty or inverted value range.
    InvalidRange {
        /// Lower bound supplied.
        min: f64,
        /// Upper bound supplied.
        max: f64,
    },
    /// A non-finite value (NaN or infinity) was supplied where a finite
    /// value is required.
    NonFiniteValue,
    /// An operation that requires at least one input received none.
    EmptyInput,
    /// A record encoder was given a value vector whose length does not match
    /// its schema.
    ArityMismatch {
        /// Number of features the schema defines.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A categorical feature value (or category index) fell outside the
    /// encoder's categories `0..categories` once rounded to an index.
    CategoryOutOfRange {
        /// Number of categories the encoder defines.
        categories: usize,
        /// The value supplied.
        value: f64,
    },
    /// A classifier was asked to predict before being fitted, or fitted with
    /// inconsistent inputs.
    NotFitted,
    /// Labels and samples had different lengths.
    LabelLengthMismatch {
        /// Number of samples.
        samples: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A vote count would pass the largest value its counter holds.
    VoteOverflow {
        /// The count the rejected votes would have reached.
        votes: u64,
        /// The largest count the counter holds.
        limit: u64,
    },
    /// A class label at or past the most classes a class accumulator
    /// holds, [`crate::classify::MAX_CLASSES`].
    ClassLimit {
        /// The label supplied.
        label: usize,
        /// The class count limit; labels run `0..limit`.
        limit: usize,
    },
    /// A component was configured with an invalid parameter.
    InvalidConfig(String),
    /// A fault-injection failpoint forced this operation to fail. Only
    /// produced when the `fault-injection` feature is enabled and a chaos
    /// handler is installed; never occurs in production builds.
    Injected {
        /// The failpoint that fired (e.g. `hdc/encode_batch`).
        point: String,
    },
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { left, right } => {
                write!(f, "hypervector dimension mismatch: {left} vs {right}")
            }
            Self::ZeroDimension => write!(f, "hypervector dimensionality must be non-zero"),
            Self::InvalidRange { min, max } => {
                write!(f, "invalid encoder range: min {min} must be < max {max}")
            }
            Self::NonFiniteValue => write!(f, "value must be finite"),
            Self::EmptyInput => write!(f, "operation requires at least one input"),
            Self::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "record has {got} values but schema defines {expected} features"
                )
            }
            Self::CategoryOutOfRange { categories, value } => {
                write!(
                    f,
                    "categorical value {value} is outside the categories 0..{categories}"
                )
            }
            Self::NotFitted => write!(f, "classifier has not been fitted"),
            Self::LabelLengthMismatch { samples, labels } => {
                write!(f, "{samples} samples but {labels} labels")
            }
            Self::VoteOverflow { votes, limit } => {
                write!(f, "{votes} votes pass the counter's limit of {limit}")
            }
            Self::ClassLimit { label, limit } => {
                write!(
                    f,
                    "class label {label} is outside the {limit} classes 0..{limit}"
                )
            }
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Injected { point } => {
                write!(f, "injected fault fired at failpoint `{point}`")
            }
        }
    }
}

impl std::error::Error for HdcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HdcError::DimensionMismatch {
            left: 64,
            right: 128,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("128"));
        let e = HdcError::InvalidRange { min: 3.0, max: 1.0 };
        assert!(e.to_string().contains('3'));
        assert!(HdcError::ZeroDimension.to_string().contains("non-zero"));
        assert!(HdcError::NotFitted.to_string().contains("fitted"));
        let e = HdcError::CategoryOutOfRange {
            categories: 2,
            value: 5.0,
        };
        assert!(e.to_string().contains("value 5 "));
        assert!(e.to_string().contains("0..2"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&HdcError::EmptyInput);
    }
}
