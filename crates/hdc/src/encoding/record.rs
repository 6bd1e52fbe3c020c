//! Record (patient) encoding: per-feature encoders bundled by majority vote.

use crate::binary::{BinaryHypervector, Dim};
use crate::bundle::Bundler;
use crate::encoding::{CategoricalEncoder, FeatureEncoder, LinearEncoder, QuantizedLinearEncoder};
use crate::error::HdcError;
use crate::rng::SplitMix64;
use crate::stream::{CollectSink, RowStream, StreamEncoder};
use serde::{Deserialize, Serialize};

/// The kind and parameters of a single feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// A continuous feature level-encoded over `[min, max]`.
    Continuous {
        /// Lowest value in the training data.
        min: f64,
        /// Highest value in the training data.
        max: f64,
    },
    /// A discrete feature with `n` categories.
    Categorical {
        /// Number of categories.
        n: usize,
    },
}

/// A named feature description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Human-readable feature name (e.g. "Glucose").
    pub name: String,
    /// Encoding kind and parameters.
    pub kind: FeatureKind,
}

impl FeatureSpec {
    /// Convenience constructor for a continuous feature.
    #[must_use]
    pub fn continuous(name: impl Into<String>, min: f64, max: f64) -> Self {
        Self {
            name: name.into(),
            kind: FeatureKind::Continuous { min, max },
        }
    }

    /// Convenience constructor for a binary (yes/no) feature.
    #[must_use]
    pub fn binary(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: FeatureKind::Categorical { n: 2 },
        }
    }

    /// Convenience constructor for an `n`-way categorical feature.
    #[must_use]
    pub fn categorical(name: impl Into<String>, n: usize) -> Self {
        Self {
            name: name.into(),
            kind: FeatureKind::Categorical { n },
        }
    }
}

/// An ordered list of feature specifications describing one record.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecordSchema {
    features: Vec<FeatureSpec>,
}

impl RecordSchema {
    /// Builds a schema from feature specs.
    #[must_use]
    pub fn new(features: Vec<FeatureSpec>) -> Self {
        Self { features }
    }

    /// Number of features.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.features.len()
    }

    /// The feature specs in order.
    #[must_use]
    pub fn features(&self) -> &[FeatureSpec] {
        &self.features
    }
}

/// Encodes whole records (patients) into single hypervectors.
///
/// One independent feature encoder per schema entry — "Each feature has a
/// different seed hypervector. Randomness is important during the encoding
/// process, we don't want to bias the encoding towards the relevance of a
/// subset of features" (§II-B) — bundled by per-bit majority vote with ties
/// broken toward 1.
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    schema: RecordSchema,
    encoders: Vec<FeatureEncoder>,
    dim: Dim,
}

impl RecordEncoder {
    /// Creates a record encoder for `schema`, deriving one independent
    /// random stream per feature from `seed`.
    pub fn new(dim: Dim, schema: RecordSchema, seed: u64) -> Result<Self, HdcError> {
        Self::with_quantization(dim, schema, seed, None)
    }

    /// Like [`RecordEncoder::new`], but continuous features are quantized
    /// to `levels` codes when `levels` is `Some` (resolution ablation; the
    /// paper's formula-based encoding is the `None` case).
    pub fn with_quantization(
        dim: Dim,
        schema: RecordSchema,
        seed: u64,
        levels: Option<usize>,
    ) -> Result<Self, HdcError> {
        if schema.arity() == 0 {
            return Err(HdcError::EmptyInput);
        }
        let root = SplitMix64::new(seed);
        let mut encoders = Vec::with_capacity(schema.arity());
        for (i, spec) in schema.features().iter().enumerate() {
            // Derive a per-feature seed; the feature index keeps streams
            // independent even if two features share parameters.
            let feature_seed = root.derive(0xFEA7, i as u64).next_u64();
            let enc = match (spec.kind.clone(), levels) {
                (FeatureKind::Continuous { min, max }, None) => {
                    FeatureEncoder::Linear(LinearEncoder::new(dim, min, max, feature_seed)?)
                }
                (FeatureKind::Continuous { min, max }, Some(l)) => FeatureEncoder::Quantized(
                    QuantizedLinearEncoder::new(dim, min, max, l, feature_seed)?,
                ),
                (FeatureKind::Categorical { n }, _) => {
                    FeatureEncoder::Categorical(CategoricalEncoder::new(dim, n, feature_seed)?)
                }
            };
            encoders.push(enc);
        }
        Ok(Self {
            schema,
            encoders,
            dim,
        })
    }

    /// The schema this encoder was built from.
    #[must_use]
    pub fn schema(&self) -> &RecordSchema {
        &self.schema
    }

    /// The output dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Remaps every feature encoder onto the bits retained by `selection`,
    /// producing an encoder that emits pruned-dimensionality records
    /// directly — no full-width detour at encode time.
    ///
    /// Because majority bundling is per-bit, the remap is exact:
    /// `pruned.encode_record(v) == selection.gather(self.encode_record(v))`
    /// bit for bit, including the tie → 1 rule. The schema is unchanged.
    pub fn prune(&self, selection: &crate::distill::BitSelection) -> Result<Self, HdcError> {
        if selection.source_dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: selection.source_dim().get(),
            });
        }
        let encoders = self
            .encoders
            .iter()
            .map(|e| e.prune(selection))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema: self.schema.clone(),
            encoders,
            dim: selection.dim(),
        })
    }

    /// Encodes each feature of one record into its own hypervector.
    pub fn encode_features(&self, values: &[f64]) -> Result<Vec<BinaryHypervector>, HdcError> {
        if values.len() != self.encoders.len() {
            return Err(HdcError::ArityMismatch {
                expected: self.encoders.len(),
                got: values.len(),
            });
        }
        self.encoders
            .iter()
            .zip(values)
            .map(|(enc, &v)| enc.encode(v))
            .collect()
    }

    /// Encodes one record into a single bundled patient hypervector
    /// (majority vote across the feature hypervectors, tie → 1).
    pub fn encode_record(&self, values: &[f64]) -> Result<BinaryHypervector, HdcError> {
        let mut scratch = RecordScratch::new(self.dim);
        self.encode_record_with(values, &mut scratch)
    }

    /// Like [`RecordEncoder::encode_record`], but reuses caller-provided
    /// scratch state so repeated encoding allocates only the returned
    /// hypervector. This is the per-thread hot path of
    /// [`RecordEncoder::encode_batch`].
    pub fn encode_record_with(
        &self,
        values: &[f64],
        scratch: &mut RecordScratch,
    ) -> Result<BinaryHypervector, HdcError> {
        if values.len() != self.encoders.len() {
            return Err(HdcError::ArityMismatch {
                expected: self.encoders.len(),
                got: values.len(),
            });
        }
        if scratch.feature.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim.get(),
                right: scratch.feature.dim().get(),
            });
        }
        scratch.bundler.clear();
        for (enc, &v) in self.encoders.iter().zip(values) {
            enc.encode_vote(v, &mut scratch.feature, &mut scratch.bundler)?;
        }
        scratch.bundler.finish()
    }

    /// Encodes a batch of records in parallel.
    ///
    /// The rows run through the [`StreamEncoder`] driver as one
    /// micro-batch: contiguous chunks split by `rayon::map_chunks_with` (at
    /// most one per worker, at least 16 rows each, the last on the calling
    /// thread), each chunk reusing its own [`RecordScratch`] (encoder
    /// scratch vector + bundler), so the hot loop performs no per-record
    /// allocation beyond the output hypervectors, which are collected by
    /// value. Results are identical to the sequential path regardless of
    /// thread count; the first error (in row order) is returned.
    pub fn encode_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<BinaryHypervector>, HdcError> {
        let mut sink = CollectSink::new();
        let outcome = StreamEncoder::new(self)
            .with_micro_batch(rows.len())
            .encode_batch(&mut RowStream::unlabeled(rows), &mut sink, true)?;
        match outcome.report.entries().first() {
            Some(entry) => Err(entry.error.clone()),
            None => Ok(sink.into_parts().0),
        }
    }
}

/// One quarantined record: its position in the encoded stream and the
/// typed error that disqualified it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// Index of the record in the encoded stream or batch.
    pub row: usize,
    /// Why the record was quarantined.
    pub error: HdcError,
}

/// Per-record accounting of a lenient encode: which records were
/// quarantined, why, and how many survived.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuarantineReport {
    total: usize,
    entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    pub(crate) fn new(total: usize, entries: Vec<QuarantineEntry>) -> Self {
        Self { total, entries }
    }

    /// Number of records in the original batch.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of records that were quarantined.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.entries.len()
    }

    /// Number of records that encoded successfully.
    #[must_use]
    pub fn kept(&self) -> usize {
        self.total - self.entries.len()
    }

    /// Whether every record survived.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.entries.is_empty()
    }

    /// The quarantined records in ascending row order.
    #[must_use]
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }
}

/// Reusable scratch state for [`RecordEncoder::encode_record_with`]: one
/// feature-encoding hypervector plus one bit-sliced [`Bundler`], both
/// allocated once per thread and reset per record.
#[derive(Debug, Clone)]
pub struct RecordScratch {
    feature: BinaryHypervector,
    bundler: Bundler,
}

impl RecordScratch {
    /// Creates scratch state for `dim`-bit record encoding.
    #[must_use]
    pub fn new(dim: Dim) -> Self {
        Self {
            feature: BinaryHypervector::zeros(dim),
            bundler: Bundler::new(dim),
        }
    }

    /// The dimensionality this scratch state serves.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.feature.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RecordSchema {
        RecordSchema::new(vec![
            FeatureSpec::continuous("age", 21.0, 81.0),
            FeatureSpec::continuous("glucose", 56.0, 198.0),
            FeatureSpec::binary("polyuria"),
        ])
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(RecordEncoder::new(Dim::PAPER, RecordSchema::default(), 1).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let enc = RecordEncoder::new(Dim::new(1_000), schema(), 1).unwrap();
        assert!(matches!(
            enc.encode_record(&[30.0, 100.0]),
            Err(HdcError::ArityMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(enc.encode_features(&[30.0, 100.0, 1.0, 0.0]).is_err());
    }

    #[test]
    fn record_bundle_matches_manual_majority() {
        let enc = RecordEncoder::new(Dim::new(2_048), schema(), 9).unwrap();
        let values = [40.0, 150.0, 1.0];
        let features = enc.encode_features(&values).unwrap();
        let expected = crate::bundle::try_majority(&features).unwrap();
        assert_eq!(enc.encode_record(&values).unwrap(), expected);
    }

    #[test]
    fn similar_patients_are_closer_than_dissimilar_ones() {
        let enc = RecordEncoder::new(Dim::PAPER, schema(), 77).unwrap();
        let a = enc.encode_record(&[30.0, 100.0, 0.0]).unwrap();
        let near = enc.encode_record(&[32.0, 105.0, 0.0]).unwrap();
        let far = enc.encode_record(&[75.0, 190.0, 1.0]).unwrap();
        assert!(a.try_hamming(&near).unwrap() < a.try_hamming(&far).unwrap());
    }

    #[test]
    fn feature_streams_are_independent() {
        // Two continuous features with identical ranges must get different
        // seed hypervectors.
        let s = RecordSchema::new(vec![
            FeatureSpec::continuous("a", 0.0, 1.0),
            FeatureSpec::continuous("b", 0.0, 1.0),
        ]);
        let enc = RecordEncoder::new(Dim::new(4_096), s, 5).unwrap();
        let fa = enc.encode_features(&[0.0, 0.0]).unwrap();
        let d = fa[0].try_hamming(&fa[1]).unwrap();
        assert!(
            d > 1_500,
            "identical-range features must not share codes (d = {d})"
        );
    }

    #[test]
    fn batch_encoding_matches_sequential() {
        let enc = RecordEncoder::new(Dim::new(1_024), schema(), 13).unwrap();
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![21.0 + i as f64, 60.0 + 5.0 * i as f64, f64::from(i % 2)])
            .collect();
        let batch = enc.encode_batch(&rows).unwrap();
        for (row, hv) in rows.iter().zip(&batch) {
            assert_eq!(hv, &enc.encode_record(row).unwrap());
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_records() {
        let enc = RecordEncoder::new(Dim::new(1_024), schema(), 13).unwrap();
        let mut scratch = RecordScratch::new(enc.dim());
        let a = [30.0, 100.0, 0.0];
        let b = [75.0, 190.0, 1.0];
        let ha1 = enc.encode_record_with(&a, &mut scratch).unwrap();
        let _ = enc.encode_record_with(&b, &mut scratch).unwrap();
        let ha2 = enc.encode_record_with(&a, &mut scratch).unwrap();
        assert_eq!(ha1, ha2, "scratch must carry no state between records");
        assert_eq!(ha1, enc.encode_record(&a).unwrap());
        // Mismatched scratch dimensionality is rejected, not silently mixed.
        let mut wrong = RecordScratch::new(Dim::new(512));
        assert!(matches!(
            enc.encode_record_with(&a, &mut wrong),
            Err(HdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn categorical_out_of_range_propagates() {
        let enc = RecordEncoder::new(Dim::new(256), schema(), 3).unwrap();
        assert!(enc.encode_record(&[30.0, 100.0, 5.0]).is_err());
        assert!(enc.encode_record(&[30.0, f64::NAN, 1.0]).is_err());
        // Below zero or past `usize::MAX` is out of range too: no clamp to
        // category 0 and no overflow.
        for value in [-3.0, 1e20, f64::MAX] {
            assert!(matches!(
                enc.encode_record(&[30.0, 100.0, value]),
                Err(HdcError::ArityMismatch { expected: 2, .. })
            ));
            assert!(enc.encode_features(&[30.0, 100.0, value]).is_err());
            assert!(enc.encode_batch(&[vec![30.0, 100.0, value]]).is_err());
        }
    }

    #[test]
    fn strict_batch_aborts_on_first_bad_row() {
        let enc = RecordEncoder::new(Dim::new(512), schema(), 7).unwrap();
        let rows = vec![
            vec![30.0, 100.0, 0.0],
            vec![40.0, f64::NAN, 1.0],
            vec![50.0, 120.0, 0.0],
        ];
        assert!(matches!(
            enc.encode_batch(&rows),
            Err(HdcError::NonFiniteValue)
        ));
    }

    /// What a lenient batch pass over `rows` kept: the survivors, their
    /// row indices (each row's label is its index) and the report.
    struct LenientBatch {
        hypervectors: Vec<BinaryHypervector>,
        kept: Vec<usize>,
        report: QuarantineReport,
    }

    fn lenient_batch(enc: &RecordEncoder, rows: &[Vec<f64>]) -> LenientBatch {
        let index: Vec<usize> = (0..rows.len()).collect();
        let mut sink = CollectSink::new();
        let outcome = StreamEncoder::new(enc)
            .with_micro_batch(rows.len())
            .encode_batch(&mut RowStream::new(rows, &index).unwrap(), &mut sink, false)
            .unwrap();
        let (hypervectors, kept) = sink.into_parts();
        LenientBatch {
            hypervectors,
            kept,
            report: outcome.report,
        }
    }

    #[test]
    fn lenient_batch_quarantines_nan_and_arity_rows() {
        let enc = RecordEncoder::new(Dim::new(512), schema(), 7).unwrap();
        let rows = vec![
            vec![30.0, 100.0, 0.0],         // good
            vec![40.0, f64::NAN, 1.0],      // NaN value
            vec![50.0, 120.0],              // wrong arity
            vec![60.0, 130.0, 1.0],         // good
            vec![65.0, f64::INFINITY, 0.0], // infinite value
            vec![70.0, 140.0, f64::MAX],    // category out of range
        ];
        let batch = lenient_batch(&enc, &rows);
        assert_eq!(batch.kept, vec![0, 3]);
        assert_eq!(batch.hypervectors.len(), 2);
        assert_eq!(batch.report.total(), 6);
        assert_eq!(batch.report.quarantined(), 4);
        assert_eq!(batch.report.kept(), 2);
        assert!(!batch.report.is_clean());
        let entries = batch.report.entries();
        assert_eq!(entries[0].row, 1);
        assert_eq!(entries[0].error, HdcError::NonFiniteValue);
        assert_eq!(entries[1].row, 2);
        assert!(matches!(entries[1].error, HdcError::ArityMismatch { .. }));
        assert_eq!(entries[2].row, 4);
        assert_eq!(entries[3].row, 5);
        assert!(matches!(
            entries[3].error,
            HdcError::ArityMismatch { expected: 2, .. }
        ));
        // Survivors match the strict encoding of the same rows.
        assert_eq!(batch.hypervectors[0], enc.encode_record(&rows[0]).unwrap());
        assert_eq!(batch.hypervectors[1], enc.encode_record(&rows[3]).unwrap());
    }

    #[test]
    fn lenient_batch_on_clean_rows_matches_strict() {
        let enc = RecordEncoder::new(Dim::new(1_024), schema(), 13).unwrap();
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![21.0 + i as f64, 60.0 + 5.0 * i as f64, f64::from(i % 2)])
            .collect();
        let strict = enc.encode_batch(&rows).unwrap();
        let lenient = lenient_batch(&enc, &rows);
        assert_eq!(lenient.hypervectors, strict);
        assert_eq!(lenient.kept, (0..rows.len()).collect::<Vec<_>>());
        assert!(lenient.report.is_clean());
    }

    #[test]
    fn lenient_batch_survives_all_bad_and_empty_input() {
        let enc = RecordEncoder::new(Dim::new(256), schema(), 3).unwrap();
        let all_bad = vec![vec![f64::NAN, 1.0, 0.0], vec![1.0]];
        let batch = lenient_batch(&enc, &all_bad);
        assert!(batch.hypervectors.is_empty());
        assert_eq!(batch.report.quarantined(), 2);
        let empty = lenient_batch(&enc, &[]);
        assert!(empty.hypervectors.is_empty());
        assert!(empty.report.is_clean());
        assert_eq!(empty.report.total(), 0);
    }

    #[test]
    fn deterministic_across_encoder_instances() {
        let e1 = RecordEncoder::new(Dim::new(512), schema(), 21).unwrap();
        let e2 = RecordEncoder::new(Dim::new(512), schema(), 21).unwrap();
        let v = [45.0, 120.0, 1.0];
        assert_eq!(e1.encode_record(&v).unwrap(), e2.encode_record(&v).unwrap());
    }
}
