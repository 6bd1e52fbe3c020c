//! Feature and record encoders (§II-B of the paper).
//!
//! * [`LinearEncoder`] — level encoding for continuous features: the seed
//!   hypervector represents `min(V)`; increasing values flip a growing
//!   *nested* prefix of a fixed random flip order so that (a) Hamming
//!   distance between two encoded values is proportional to the difference
//!   of the values, and (b) `max(V)` lands exactly orthogonal to `min(V)`
//!   (the paper's "range is doubled" construction).
//! * [`CategoricalEncoder`] — one quasi-orthogonal hypervector per category;
//!   with two categories this is the paper's binary-feature encoding (seed
//!   for 0, balanced random flips for 1).
//! * [`RecordEncoder`] — per-feature encoders driven by a [`RecordSchema`],
//!   bundled into one patient hypervector by majority vote (tie → 1).

mod categorical;
pub(crate) mod linear;
mod pruned;
mod quantized;
mod record;

pub use categorical::CategoricalEncoder;
pub use linear::LinearEncoder;
pub use pruned::PrunedLinearEncoder;
pub use quantized::QuantizedLinearEncoder;
pub use record::{
    FeatureKind, FeatureSpec, QuarantineEntry, QuarantineReport, RecordEncoder, RecordSchema,
    RecordScratch,
};

use crate::binary::{BinaryHypervector, Dim};
use crate::bundle::Bundler;
use crate::error::HdcError;

/// A per-feature encoder: either linear (continuous) or categorical.
///
/// Stored as an enum rather than a trait object so records can hold a
/// homogeneous `Vec<FeatureEncoder>` without boxing or dynamic dispatch in
/// the encoding hot loop.
#[derive(Debug, Clone)]
pub enum FeatureEncoder {
    /// Level encoding of a continuous value.
    Linear(LinearEncoder),
    /// Level encoding remapped into a distilled (pruned) bit space.
    PrunedLinear(PrunedLinearEncoder),
    /// Quantized level encoding (finite resolution).
    Quantized(QuantizedLinearEncoder),
    /// Discrete category lookup.
    Categorical(CategoricalEncoder),
}

impl FeatureEncoder {
    /// Encodes a raw feature value.
    ///
    /// Continuous values are clamped to the encoder's range (the paper:
    /// "A lesser value could be found in new data that hasn't been seen by
    /// the encoder" — it maps to the seed vector). Categorical values are
    /// rounded to the nearest category index, and one that rounds outside
    /// `0..n` is an error, never clamped.
    pub fn encode(&self, value: f64) -> Result<BinaryHypervector, HdcError> {
        match self {
            Self::Linear(e) => e.encode_checked(value),
            Self::PrunedLinear(e) => e.encode_checked(value),
            Self::Quantized(e) => e.encode(value).cloned(),
            Self::Categorical(e) => e.code_of_value(value).cloned(),
        }
    }

    /// Encodes `value` and adds one vote to `bundler`, reusing `scratch`
    /// for the continuous case.
    ///
    /// This is the allocation-free hot path behind
    /// [`RecordEncoder::encode_batch`]: linear encoders write into
    /// `scratch` in place, while quantized and categorical encoders vote
    /// with a borrowed cached code (no clone). Semantics are identical to
    /// `bundler.push(&self.encode(value)?)`.
    ///
    /// # Panics
    /// Panics if `scratch.dim() != self.dim()` (see
    /// [`LinearEncoder::encode_into`]).
    pub fn encode_vote(
        &self,
        value: f64,
        scratch: &mut BinaryHypervector,
        bundler: &mut Bundler,
    ) -> Result<(), HdcError> {
        match self {
            Self::Linear(e) => {
                e.encode_checked_into(value, scratch)?;
                bundler.push(scratch)
            }
            Self::PrunedLinear(e) => {
                e.encode_checked_into(value, scratch)?;
                bundler.push(scratch)
            }
            Self::Quantized(e) => bundler.push(e.encode(value)?),
            Self::Categorical(e) => bundler.push(e.code_of_value(value)?),
        }
    }

    /// The output dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        match self {
            Self::Linear(e) => e.dim(),
            Self::PrunedLinear(e) => e.dim(),
            Self::Quantized(e) => e.dim(),
            Self::Categorical(e) => e.dim(),
        }
    }

    /// Remaps this encoder onto the bits retained by `selection`:
    /// `pruned.encode(v) == selection.gather(self.encode(v))` bit-exactly
    /// for every value `v` the original accepts.
    pub fn prune(&self, selection: &crate::distill::BitSelection) -> Result<Self, HdcError> {
        Ok(match self {
            Self::Linear(e) => Self::PrunedLinear(PrunedLinearEncoder::new(e, selection)?),
            Self::PrunedLinear(e) => Self::PrunedLinear(e.prune(selection)?),
            Self::Quantized(e) => Self::Quantized(e.prune(selection)?),
            Self::Categorical(e) => Self::Categorical(e.prune(selection)?),
        })
    }
}
