//! The paper's feature-extraction stage: records → patient hypervectors.

use crate::error::HyperfexError;
use hyperfex_data::{ColumnKind, ColumnSpec, Table};
use hyperfex_hdc::binary::{BinaryHypervector, Dim};
use hyperfex_hdc::bitmatrix::BitMatrix;
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::distill::{discrimination_scores, BitSelection};
use hyperfex_hdc::encoding::{FeatureSpec, QuarantineReport, RecordEncoder, RecordSchema};
use hyperfex_hdc::stream::{CollectSink, RecordStream, StreamEncoder, StreamOutcome, StreamSink};
use hyperfex_hdc::HdcError;
use hyperfex_ml::Matrix;

/// Fewest rows a parallel chunk of [`HdcFeatureExtractor::to_matrix`]
/// takes: unpacking a 10,000-bit row is a few microseconds, so a chunk
/// needs dozens of rows to outweigh its thread.
const MIN_CHUNK_ROWS: usize = 32;

/// Encodes patient records into binary hypervectors and exposes them in
/// both hypervector form (for Hamming classification) and 0/1 matrix form
/// (for use as ML input features — the paper's "extraction" step).
///
/// The extractor is *fitted on training data only*: the level encoders'
/// `[min, max]` ranges come from the rows passed to
/// [`HdcFeatureExtractor::fit`], and unseen out-of-range values clamp to
/// the boundary codes exactly as the paper prescribes for "new data that
/// hasn't been seen by the encoder".
#[derive(Debug, Clone)]
pub struct HdcFeatureExtractor {
    dim: Dim,
    seed: u64,
    levels: Option<usize>,
    encoder: Option<RecordEncoder>,
}

impl HdcFeatureExtractor {
    /// Creates an unfitted extractor. The paper's dimensionality is
    /// [`Dim::PAPER`] (10,000 bits).
    #[must_use]
    pub fn new(dim: Dim, seed: u64) -> Self {
        Self {
            dim,
            seed,
            levels: None,
            encoder: None,
        }
    }

    /// Quantizes continuous features to `levels` codes instead of the
    /// paper's formula-based continuous encoding (resolution ablation).
    #[must_use]
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = Some(levels);
        self
    }

    /// The output dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Builds per-feature encoders from the table's schema and the value
    /// ranges observed in the given rows (pass training-row indices to
    /// avoid leaking test-set ranges; pass `None` to use every row). The
    /// rows stream through [`HdcFeatureExtractor::fit_stream`]'s single
    /// pass, so missing and non-finite values count toward no range.
    pub fn fit(&mut self, table: &Table, rows: Option<&[usize]>) -> Result<(), HyperfexError> {
        let _span = crate::obs::span("core/extractor_fit");
        if table.is_empty() {
            return Err(HyperfexError::Pipeline(
                "cannot fit on an empty table".into(),
            ));
        }
        self.fit_columns(table.columns(), &mut TableStream::new(table, rows)?)
    }

    /// Encodes the selected rows (or all rows) into patient hypervectors.
    ///
    /// A row holding a missing (`NaN`) or otherwise non-finite value fails
    /// the call with an error naming that table row; impute or drop such
    /// rows first, or use [`HdcFeatureExtractor::transform_lenient`].
    pub fn transform(
        &self,
        table: &Table,
        rows: Option<&[usize]>,
    ) -> Result<Vec<BinaryHypervector>, HyperfexError> {
        let _span = crate::obs::span("core/transform");
        Ok(encode_table(self.fitted()?, table, rows, true)?.hypervectors)
    }

    /// Lenient variant of [`HdcFeatureExtractor::transform`]: rows that
    /// cannot be encoded (missing values, NaN, injected faults) are
    /// quarantined instead of aborting the whole batch.
    ///
    /// Only structural problems remain fatal (`fit` not called, a row
    /// selection out of the table's range). The returned
    /// [`LenientTransform`] carries one hypervector per surviving row, the
    /// *original table indices* of the survivors, and the quarantine
    /// accounting; `report` entries index into the requested row
    /// selection, in ascending order.
    pub fn transform_lenient(
        &self,
        table: &Table,
        rows: Option<&[usize]>,
    ) -> Result<LenientTransform, HyperfexError> {
        let _span = crate::obs::span("core/transform_lenient");
        let lenient = encode_table(self.fitted()?, table, rows, false)?;
        crate::obs::counter_add("core/rows_kept", lenient.kept_rows.len() as u64);
        crate::obs::counter_add("core/rows_quarantined", lenient.report.quarantined() as u64);
        Ok(lenient)
    }

    /// Fits the per-feature encoders from a [`RecordStream`] in a single
    /// pass with O(columns) state: per-column min/max watermarks for
    /// continuous features, nothing for binary ones.
    ///
    /// The column schema cannot be inferred from a bare value stream, so
    /// the caller supplies it (e.g. `table.columns()` or a hand-built
    /// `ColumnSpec` list for synthetic cohorts). Records whose arity does
    /// not match the schema, and `NaN`/missing values, are *skipped for
    /// range purposes* — range fitting is a statistic, not an encode, so a
    /// bad record narrows nothing; encode-time strictness happens later in
    /// [`HdcFeatureExtractor::transform_stream`].
    pub fn fit_stream<S: RecordStream + ?Sized>(
        &mut self,
        columns: &[ColumnSpec],
        stream: &mut S,
    ) -> Result<(), HyperfexError> {
        let _span = crate::obs::span("core/extractor_fit_stream");
        self.fit_columns(columns, stream)
    }

    /// The single range-fitting pass behind [`HdcFeatureExtractor::fit`]
    /// and [`HdcFeatureExtractor::fit_stream`].
    fn fit_columns<S: RecordStream + ?Sized>(
        &mut self,
        columns: &[ColumnSpec],
        stream: &mut S,
    ) -> Result<(), HyperfexError> {
        if columns.is_empty() {
            return Err(HyperfexError::Pipeline(
                "cannot fit on an empty column schema".into(),
            ));
        }
        let mut ranges: Vec<Option<(f64, f64)>> = vec![None; columns.len()];
        let mut values = Vec::with_capacity(columns.len());
        let mut seen = 0usize;
        loop {
            values.clear();
            if stream.next_record(&mut values).is_none() {
                break;
            }
            seen += 1;
            if values.len() != columns.len() {
                continue;
            }
            for (slot, &v) in ranges.iter_mut().zip(&values) {
                if !v.is_finite() {
                    continue;
                }
                match slot {
                    Some((min, max)) => {
                        *min = min.min(v);
                        *max = max.max(v);
                    }
                    None => *slot = Some((v, v)),
                }
            }
        }
        if seen == 0 {
            return Err(HyperfexError::Pipeline(
                "cannot fit on an empty record stream".into(),
            ));
        }
        let mut specs = Vec::with_capacity(columns.len());
        for (spec, range) in columns.iter().zip(&ranges) {
            match spec.kind {
                ColumnKind::Binary => specs.push(FeatureSpec::binary(spec.name.clone())),
                ColumnKind::Continuous => {
                    let (min, max) = range.ok_or_else(|| {
                        HyperfexError::Pipeline(format!(
                            "column `{}` has no observed values to fit a range",
                            spec.name
                        ))
                    })?;
                    // Degenerate (constant) columns get a token range so the
                    // encoder stays valid; every value maps to the seed code.
                    let (min, max) = if max > min {
                        (min, max)
                    } else {
                        (min, min + 1.0)
                    };
                    specs.push(FeatureSpec::continuous(spec.name.clone(), min, max));
                }
            }
        }
        self.encoder = Some(RecordEncoder::with_quantization(
            self.dim,
            RecordSchema::new(specs),
            self.seed,
            self.levels,
        )?);
        Ok(())
    }

    /// The fitted record encoder.
    fn fitted(&self) -> Result<&RecordEncoder, HyperfexError> {
        self.encoder
            .as_ref()
            .ok_or_else(|| HyperfexError::Pipeline("transform called before fit".into()))
    }

    /// Encodes a [`RecordStream`] straight into a [`StreamSink`] without
    /// ever materialising the cohort: peak memory is the two micro-batches
    /// in flight (one draining into the sink while the next encodes) plus
    /// the sink's own O(dim) state, independent of stream length. The
    /// stream is pulled up to one micro-batch ahead of the sink.
    ///
    /// Strict: the first record that fails to encode aborts with its typed
    /// error (mirroring [`HdcFeatureExtractor::transform`]). Returns the
    /// number of records absorbed by the sink.
    pub fn transform_stream<S, K>(
        &self,
        stream: &mut S,
        sink: &mut K,
    ) -> Result<usize, HyperfexError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        let _span = crate::obs::span("core/transform_stream");
        Ok(StreamEncoder::new(self.fitted()?).encode_stream(stream, sink)?)
    }

    /// Lenient variant of [`HdcFeatureExtractor::transform_stream`]:
    /// records that cannot be encoded are quarantined instead of aborting,
    /// mirroring [`HdcFeatureExtractor::transform_lenient`]. The returned
    /// [`StreamOutcome`] accounts for every record seen
    /// (`kept + quarantined == seen`).
    pub fn transform_stream_lenient<S, K>(
        &self,
        stream: &mut S,
        sink: &mut K,
    ) -> Result<StreamOutcome, HyperfexError>
    where
        S: RecordStream + ?Sized,
        K: StreamSink + ?Sized,
    {
        let _span = crate::obs::span("core/transform_stream_lenient");
        let outcome = StreamEncoder::new(self.fitted()?).encode_stream_lenient(stream, sink)?;
        crate::obs::counter_add("core/rows_kept", outcome.report.kept() as u64);
        crate::obs::counter_add("core/rows_quarantined", outcome.report.quarantined() as u64);
        Ok(outcome)
    }

    /// Fit on all rows, then transform all rows.
    pub fn fit_transform(
        &mut self,
        table: &Table,
    ) -> Result<Vec<BinaryHypervector>, HyperfexError> {
        self.fit(table, None)?;
        self.transform(table, None)
    }

    /// Distils the fitted encoder down to the `k_bits` most
    /// class-discriminative bit positions.
    ///
    /// Encodes the selected rows (training rows — pass the same selection
    /// used for [`HdcFeatureExtractor::fit`] to avoid leaking test-set
    /// statistics), accumulates per-class per-bit set counts, ranks bits by
    /// the [`discrimination_scores`] margin and keeps the top `k_bits`.
    /// The returned [`DistilledExtractor`] encodes new records *directly*
    /// at the pruned dimensionality — no full-width detour.
    pub fn distill(
        &self,
        table: &Table,
        rows: Option<&[usize]>,
        k_bits: usize,
    ) -> Result<DistilledExtractor, HyperfexError> {
        let _span = crate::obs::span("core/distill");
        let hvs = self.transform(table, rows)?;
        let labels: Vec<usize> = match rows {
            Some(r) => r.iter().map(|&i| table.labels()[i]).collect(),
            None => table.labels().to_vec(),
        };
        let mut acc = ClassAccumulators::new(self.dim);
        acc.add_batch(&hvs, &labels)?;
        let scores = discrimination_scores(&acc)
            .map_err(|e| HyperfexError::Pipeline(format!("distillation ranking failed: {e}")))?;
        let selection = BitSelection::top_k(self.dim, &scores, k_bits)
            .map_err(|e| HyperfexError::Pipeline(format!("distillation selection failed: {e}")))?;
        self.distill_with(&selection)
    }

    /// Distils the fitted encoder with an externally supplied selection
    /// (e.g. a random control selection for ranked-vs-random ablations, or
    /// a selection loaded from a serving snapshot).
    pub fn distill_with(
        &self,
        selection: &BitSelection,
    ) -> Result<DistilledExtractor, HyperfexError> {
        let encoder = self
            .encoder
            .as_ref()
            .ok_or_else(|| HyperfexError::Pipeline("distill called before fit".into()))?;
        Ok(DistilledExtractor {
            encoder: encoder.prune(selection)?,
            selection: selection.clone(),
        })
    }

    /// Converts hypervectors into a dense 0/1 `f32` matrix — the "use the
    /// hypervectors to train classification models" step (§II).
    ///
    /// Every input must share one dimensionality; a mixed-dimension slice
    /// is reported as an error up front rather than panicking mid-copy.
    /// Rows are unpacked straight from the packed words (one 64-bit load
    /// per 64 matrix cells), split across `rayon::map_chunks_mut` workers
    /// in contiguous row blocks.
    pub fn to_matrix(hypervectors: &[BinaryHypervector]) -> Result<Matrix, HyperfexError> {
        let _span = crate::obs::span("core/to_matrix");
        let Some(first) = hypervectors.first() else {
            return Ok(Matrix::zeros(0, 0));
        };
        let d = first.len();
        for (i, hv) in hypervectors.iter().enumerate() {
            if hv.len() != d {
                return Err(HyperfexError::Pipeline(format!(
                    "to_matrix: hypervector {i} has dimensionality {} but hypervector 0 has {d}",
                    hv.len()
                )));
            }
        }
        let mut m = Matrix::zeros(hypervectors.len(), d);
        let mut rows: Vec<&mut [f32]> = m.as_mut_slice().chunks_mut(d.max(1)).collect();
        rayon::map_chunks_mut(&mut rows, MIN_CHUNK_ROWS, |offset, block| {
            for (row, hv) in block.iter_mut().zip(&hypervectors[offset..]) {
                unpack_bits_into(hv, row);
            }
        });
        Ok(m)
    }

    /// Packs hypervectors into a [`BitMatrix`] — the same design matrix as
    /// [`HdcFeatureExtractor::to_matrix`] but kept in its native packed
    /// form (64 features per storage word), which the ML layer's popcount
    /// fast paths consume directly without ever materialising f32 cells.
    ///
    /// Mixed-dimension slices are reported as an error up front, mirroring
    /// `to_matrix`; an empty slice yields an empty `0 × 0` matrix.
    pub fn to_bit_matrix(hypervectors: &[BinaryHypervector]) -> Result<BitMatrix, HyperfexError> {
        let _span = crate::obs::span("core/to_bit_matrix");
        if hypervectors.is_empty() {
            return Ok(BitMatrix::zeros(0, Dim::new(1)));
        }
        let d = hypervectors[0].len();
        BitMatrix::from_hypervectors(hypervectors).map_err(|_| {
            let bad = hypervectors
                .iter()
                .position(|hv| hv.len() != d)
                .unwrap_or(0);
            HyperfexError::Pipeline(format!(
                "to_bit_matrix: hypervector {bad} has dimensionality {} but hypervector 0 has {d}",
                hypervectors[bad].len()
            ))
        })
    }
}

/// A fitted extractor remapped into a distilled bit space: encodes records
/// directly at the pruned dimensionality and can gather already-encoded
/// full-width hypervectors into the same space (bit-identically — majority
/// bundling commutes with column gather).
#[derive(Debug, Clone)]
pub struct DistilledExtractor {
    encoder: RecordEncoder,
    selection: BitSelection,
}

impl DistilledExtractor {
    /// The pruned output dimensionality.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.encoder.dim()
    }

    /// The bit selection this extractor was distilled with.
    #[must_use]
    pub fn selection(&self) -> &BitSelection {
        &self.selection
    }

    /// The pruned record encoder.
    #[must_use]
    pub fn encoder(&self) -> &RecordEncoder {
        &self.encoder
    }

    /// Encodes the selected rows (or all rows) straight into pruned-space
    /// hypervectors.
    pub fn transform(
        &self,
        table: &Table,
        rows: Option<&[usize]>,
    ) -> Result<Vec<BinaryHypervector>, HyperfexError> {
        let _span = crate::obs::span("core/distilled_transform");
        Ok(encode_table(&self.encoder, table, rows, true)?.hypervectors)
    }

    /// Gathers already-encoded full-width hypervectors into the pruned
    /// space. Equal to re-encoding the same records through
    /// [`DistilledExtractor::transform`], bit for bit.
    pub fn gather(
        &self,
        hypervectors: &[BinaryHypervector],
    ) -> Result<Vec<BinaryHypervector>, HyperfexError> {
        hypervectors
            .iter()
            .map(|hv| Ok(self.selection.gather_hypervector(hv)?))
            .collect()
    }
}

/// The outcome of [`HdcFeatureExtractor::transform_lenient`]: hypervectors
/// for the rows that survived encoding, which table rows they came from,
/// and why the rest were quarantined.
#[derive(Debug, Clone)]
pub struct LenientTransform {
    /// One hypervector per surviving row, in ascending row order.
    pub hypervectors: Vec<BinaryHypervector>,
    /// Original table index of each surviving hypervector.
    pub kept_rows: Vec<usize>,
    /// Per-record quarantine accounting (entry rows index the requested
    /// selection, not the table).
    pub report: QuarantineReport,
}

/// Adapts a [`Table`] (or a row selection of one) into a [`RecordStream`],
/// yielding each row's values and its label. Lets in-memory cohorts flow
/// through the same single-pass [`HdcFeatureExtractor::transform_stream`]
/// path as unbounded sources, which is how the streaming-vs-batch
/// equivalence tests drive both pipelines from one table.
#[derive(Debug)]
pub struct TableStream<'a> {
    table: &'a Table,
    rows: Option<&'a [usize]>,
    pos: usize,
}

impl<'a> TableStream<'a> {
    /// Streams the given row selection, or every row when `rows` is `None`.
    ///
    /// Out-of-bounds indices in the selection are reported up front, so
    /// `next_record` never panics mid-stream.
    pub fn new(table: &'a Table, rows: Option<&'a [usize]>) -> Result<Self, HyperfexError> {
        if let Some(&bad) = rows
            .unwrap_or_default()
            .iter()
            .find(|&&i| i >= table.n_rows())
        {
            return Err(out_of_bounds(bad, table));
        }
        Ok(Self {
            table,
            rows,
            pos: 0,
        })
    }

    /// Number of records this stream will yield in total.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.map_or(self.table.n_rows(), <[usize]>::len)
    }

    /// Whether the stream yields no records at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rewinds to the first record, so one adapter can drive a fit pass
    /// and then an encode pass without rebuilding it.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }
}

impl RecordStream for TableStream<'_> {
    fn next_record(&mut self, values: &mut Vec<f64>) -> Option<usize> {
        let row = match self.rows {
            Some(selection) => *selection.get(self.pos)?,
            None => {
                if self.pos >= self.table.n_rows() {
                    return None;
                }
                self.pos
            }
        };
        self.pos += 1;
        values.extend_from_slice(self.table.row(row));
        Some(self.table.labels()[row])
    }
}

/// The error for a row selection index past the end of `table`.
fn out_of_bounds(row: usize, table: &Table) -> HyperfexError {
    HyperfexError::Pipeline(format!(
        "row selection index {row} is out of bounds for a table of {} rows",
        table.n_rows()
    ))
}

/// The error for table row `row`, which failed to encode.
fn record_error(row: usize, error: &HdcError) -> HyperfexError {
    HyperfexError::Pipeline(format!(
        "row {row} cannot be encoded ({error}); impute or drop missing values before encoding"
    ))
}

/// The one table encode behind [`HdcFeatureExtractor::transform`],
/// [`HdcFeatureExtractor::transform_lenient`] and
/// [`DistilledExtractor::transform`]: the selected rows stream through the
/// encode driver as one micro-batch. A missing (`NaN`) or otherwise
/// non-finite value fails its record; strict mode then returns an error
/// naming the table row, lenient mode quarantines the record.
fn encode_table(
    encoder: &RecordEncoder,
    table: &Table,
    rows: Option<&[usize]>,
    strict: bool,
) -> Result<LenientTransform, HyperfexError> {
    let mut stream = TableStream::new(table, rows)?;
    let mut sink = CollectSink::new();
    let outcome = StreamEncoder::new(encoder)
        .with_micro_batch(stream.len())
        .encode_batch(&mut stream, &mut sink, strict)?;
    let table_row = |seq: usize| rows.map_or(seq, |selection| selection[seq]);
    let failed = outcome.report.entries();
    if let (true, Some(entry)) = (strict, failed.first()) {
        return Err(record_error(table_row(entry.row), &entry.error));
    }
    let kept_rows = (0..outcome.report.total())
        .filter(|seq| failed.binary_search_by_key(seq, |entry| entry.row).is_err())
        .map(table_row)
        .collect();
    Ok(LenientTransform {
        hypervectors: sink.into_parts().0,
        kept_rows,
        report: outcome.report,
    })
}

/// Writes the bits of `hv` into `row` as 0.0/1.0, reading the packed words
/// directly instead of the per-bit getter.
fn unpack_bits_into(hv: &BinaryHypervector, row: &mut [f32]) {
    let words = hv.words();
    for (w, chunk) in row.chunks_mut(64).enumerate() {
        let word = words[w];
        for (j, cell) in chunk.iter_mut().enumerate() {
            *cell = ((word >> j) & 1) as f32;
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-aligned assertions read clearer
mod tests {
    use super::*;
    use hyperfex_data::ColumnSpec;

    fn mixed_table() -> Table {
        Table::new(
            vec![
                ColumnSpec::continuous("glucose"),
                ColumnSpec::binary("polyuria"),
            ],
            vec![
                vec![90.0, 0.0],
                vec![120.0, 1.0],
                vec![180.0, 1.0],
                vec![100.0, 0.0],
            ],
            vec![0, 1, 1, 0],
        )
        .unwrap()
    }

    #[test]
    fn fit_transform_produces_one_hv_per_row() {
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(1_000), 5);
        let hvs = ext.fit_transform(&table).unwrap();
        assert_eq!(hvs.len(), 4);
        assert!(hvs.iter().all(|hv| hv.dim() == Dim::new(1_000)));
    }

    #[test]
    fn transform_before_fit_errors() {
        let table = mixed_table();
        let ext = HdcFeatureExtractor::new(Dim::new(256), 0);
        assert!(matches!(
            ext.transform(&table, None),
            Err(HyperfexError::Pipeline(_))
        ));
    }

    #[test]
    fn ranges_come_from_training_rows_only() {
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(2_000), 9);
        // Fit on rows 0 and 3 (glucose 90..100), transform row 2 (180):
        // it must clamp to the max code, i.e. equal the encoding of 100.
        ext.fit(&table, Some(&[0, 3])).unwrap();
        let out = ext.transform(&table, Some(&[2, 3])).unwrap();
        let clamped = &out[0];
        let boundary =
            Table::new(table.columns().to_vec(), vec![vec![100.0, 1.0]], vec![1]).unwrap();
        let expected = ext.transform(&boundary, None).unwrap();
        assert_eq!(clamped, &expected[0]);
    }

    #[test]
    fn missing_values_are_rejected_with_row_context() {
        let table = Table::new(
            vec![ColumnSpec::continuous("a")],
            vec![vec![1.0], vec![f64::NAN], vec![2.0]],
            vec![0, 1, 0],
        )
        .unwrap();
        let mut ext = HdcFeatureExtractor::new(Dim::new(128), 0);
        ext.fit(&table, Some(&[0, 2])).unwrap();
        let err = ext.transform(&table, None).unwrap_err();
        assert!(err.to_string().contains("row 1"));
    }

    #[test]
    fn lenient_transform_quarantines_missing_rows() {
        let table = Table::new(
            vec![ColumnSpec::continuous("a")],
            vec![vec![1.0], vec![f64::NAN], vec![2.0], vec![f64::NAN]],
            vec![0, 1, 0, 1],
        )
        .unwrap();
        let mut ext = HdcFeatureExtractor::new(Dim::new(128), 0);
        ext.fit(&table, Some(&[0, 2])).unwrap();
        let lenient = ext.transform_lenient(&table, None).unwrap();
        assert_eq!(lenient.kept_rows, vec![0, 2]);
        assert_eq!(lenient.hypervectors.len(), 2);
        assert_eq!(lenient.report.quarantined(), 2);
        assert_eq!(lenient.report.total(), 4);
        // Survivors are identical to the strict path over the same rows.
        let strict = ext.transform(&table, Some(&[0, 2])).unwrap();
        assert_eq!(lenient.hypervectors, strict);
        // Selections are honoured and report rows index the selection.
        let subset = ext.transform_lenient(&table, Some(&[3, 2])).unwrap();
        assert_eq!(subset.kept_rows, vec![2]);
        assert_eq!(subset.report.entries()[0].row, 0);
    }

    #[test]
    fn out_of_range_rows_are_typed_errors() {
        let table = Table::new(
            vec![ColumnSpec::continuous("a")],
            vec![vec![1.0], vec![2.0]],
            vec![0, 1],
        )
        .unwrap();
        let mut ext = HdcFeatureExtractor::new(Dim::new(128), 0);
        assert!(ext.fit(&table, Some(&[0, 2])).is_err());
        ext.fit(&table, None).unwrap();
        let bad: &[usize] = &[1, 2];
        assert!(ext.transform(&table, Some(bad)).is_err());
        assert!(ext.transform_lenient(&table, Some(bad)).is_err());
        assert!(ext.distill(&table, Some(bad), 16).is_err());
        let distilled = ext.distill(&table, None, 16).unwrap();
        assert!(distilled.transform(&table, Some(bad)).is_err());
    }

    #[test]
    fn constant_column_is_tolerated() {
        let table = Table::new(
            vec![ColumnSpec::continuous("const"), ColumnSpec::continuous("x")],
            vec![vec![5.0, 1.0], vec![5.0, 2.0]],
            vec![0, 1],
        )
        .unwrap();
        let mut ext = HdcFeatureExtractor::new(Dim::new(512), 1);
        let hvs = ext.fit_transform(&table).unwrap();
        assert_eq!(hvs.len(), 2);
    }

    #[test]
    fn to_matrix_is_binary_and_aligned() {
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(640), 2);
        let hvs = ext.fit_transform(&table).unwrap();
        let m = HdcFeatureExtractor::to_matrix(&hvs).unwrap();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 640);
        for i in 0..4 {
            for (j, bit) in hvs[i].iter_bits().enumerate() {
                assert_eq!(m.get(i, j), f32::from(u8::from(bit)));
            }
        }
    }

    #[test]
    fn to_matrix_of_empty_slice_is_empty() {
        let m = HdcFeatureExtractor::to_matrix(&[]).unwrap();
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_cols(), 0);
    }

    #[test]
    fn to_matrix_rejects_mixed_dimensions() {
        // Regression: this used to index out of bounds (panic) when a later
        // hypervector was longer than the first; now it is a Pipeline error
        // naming the offending index.
        let hvs = vec![
            BinaryHypervector::zeros(Dim::new(128)),
            BinaryHypervector::zeros(Dim::new(256)),
        ];
        let err = HdcFeatureExtractor::to_matrix(&hvs).unwrap_err();
        assert!(matches!(err, HyperfexError::Pipeline(_)));
        assert!(err.to_string().contains("hypervector 1"));
        // Shorter-than-first also errors instead of leaving silent zeros.
        let hvs = vec![
            BinaryHypervector::zeros(Dim::new(256)),
            BinaryHypervector::zeros(Dim::new(128)),
        ];
        assert!(HdcFeatureExtractor::to_matrix(&hvs).is_err());
    }

    #[test]
    fn same_seed_same_codes_across_extractors() {
        let table = mixed_table();
        let mut a = HdcFeatureExtractor::new(Dim::new(512), 11);
        let mut b = HdcFeatureExtractor::new(Dim::new(512), 11);
        assert_eq!(
            a.fit_transform(&table).unwrap(),
            b.fit_transform(&table).unwrap()
        );
        let mut c = HdcFeatureExtractor::new(Dim::new(512), 12);
        assert_ne!(
            a.fit_transform(&table).unwrap(),
            c.fit_transform(&table).unwrap()
        );
    }

    #[test]
    fn distill_prunes_and_matches_gathered_encoding() {
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(1_000), 5);
        let hvs = ext.fit_transform(&table).unwrap();
        let distilled = ext.distill(&table, None, 200).unwrap();
        assert_eq!(distilled.dim(), Dim::new(200));
        assert_eq!(distilled.selection().len(), 200);
        // Direct pruned-space encoding equals gathering the full encoding.
        let direct = distilled.transform(&table, None).unwrap();
        let gathered = distilled.gather(&hvs).unwrap();
        assert_eq!(direct, gathered);
        assert!(direct.iter().all(|hv| hv.dim() == Dim::new(200)));
    }

    #[test]
    fn distill_with_accepts_external_selections() {
        use hyperfex_hdc::distill::BitSelection;
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(512), 3);
        ext.fit(&table, None).unwrap();
        let random = BitSelection::random(Dim::new(512), 64, 9).unwrap();
        let distilled = ext.distill_with(&random).unwrap();
        assert_eq!(distilled.dim(), Dim::new(64));
        assert_eq!(distilled.selection(), &random);
        // Unfitted extractor refuses.
        let unfitted = HdcFeatureExtractor::new(Dim::new(512), 3);
        assert!(unfitted.distill_with(&random).is_err());
        assert!(unfitted.distill(&table, None, 10).is_err());
    }

    #[test]
    fn distilled_ranking_prefers_discriminative_bits() {
        // Ranked selection at k bits should classify at least as well as
        // chance and its selection must be a valid ascending subset.
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(2_000), 7);
        ext.fit(&table, None).unwrap();
        let d = ext.distill(&table, None, 500).unwrap();
        let indices = d.selection().indices();
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        assert!(indices.iter().all(|&i| i < 2_000));
    }

    #[test]
    fn empty_table_rejected() {
        let table = Table::new(vec![ColumnSpec::continuous("a")], vec![], vec![]).unwrap();
        let mut ext = HdcFeatureExtractor::new(Dim::new(64), 0);
        assert!(ext.fit(&table, None).is_err());
    }

    #[test]
    fn fit_stream_matches_batch_fit_bit_exactly() {
        let table = mixed_table();
        let mut batch = HdcFeatureExtractor::new(Dim::new(1_000), 5);
        batch.fit(&table, None).unwrap();
        let batch_hvs = batch.transform(&table, None).unwrap();

        let mut streamed = HdcFeatureExtractor::new(Dim::new(1_000), 5);
        let mut fit_pass = TableStream::new(&table, None).unwrap();
        streamed.fit_stream(table.columns(), &mut fit_pass).unwrap();
        let mut encode_pass = TableStream::new(&table, None).unwrap();
        let mut sink = hyperfex_hdc::stream::CollectSink::default();
        let absorbed = streamed
            .transform_stream(&mut encode_pass, &mut sink)
            .unwrap();
        assert_eq!(absorbed, table.n_rows());
        assert_eq!(sink.labels(), table.labels());
        let (stream_hvs, _) = sink.into_parts();
        assert_eq!(stream_hvs, batch_hvs);
    }

    #[test]
    fn table_stream_respects_row_selection_and_rewind() {
        let table = mixed_table();
        let rows = [2usize, 0];
        let mut stream = TableStream::new(&table, Some(&rows)).unwrap();
        assert_eq!(stream.len(), 2);
        let mut values = Vec::new();
        assert_eq!(stream.next_record(&mut values), Some(table.labels()[2]));
        assert_eq!(values, table.row(2));
        stream.rewind();
        values.clear();
        assert_eq!(stream.next_record(&mut values), Some(table.labels()[2]));
        assert!(TableStream::new(&table, Some(&[99])).is_err());
    }

    #[test]
    fn transform_stream_lenient_quarantines_bad_rows() {
        let table = Table::new(
            vec![
                ColumnSpec::continuous("glucose"),
                ColumnSpec::binary("polyuria"),
            ],
            vec![vec![90.0, 0.0], vec![f64::NAN, 1.0], vec![180.0, 1.0]],
            vec![0, 1, 1],
        )
        .unwrap();
        let mut ext = HdcFeatureExtractor::new(Dim::new(512), 3);
        // Range fitting skips the NaN row's bad cell but still sees row 3.
        let mut fit_pass = TableStream::new(&table, None).unwrap();
        ext.fit_stream(table.columns(), &mut fit_pass).unwrap();

        let mut strict_pass = TableStream::new(&table, None).unwrap();
        let mut sink = hyperfex_hdc::stream::CollectSink::default();
        assert!(ext.transform_stream(&mut strict_pass, &mut sink).is_err());

        let mut lenient_pass = TableStream::new(&table, None).unwrap();
        let mut sink = hyperfex_hdc::stream::CollectSink::default();
        let outcome = ext
            .transform_stream_lenient(&mut lenient_pass, &mut sink)
            .unwrap();
        assert_eq!(outcome.report.total(), 3);
        assert_eq!(outcome.report.kept(), 2);
        assert_eq!(outcome.report.quarantined(), 1);
        assert_eq!(outcome.absorbed, 2);
        assert_eq!(sink.labels(), &[0, 1]);
    }

    #[test]
    fn fit_stream_rejects_empty_streams_and_schemas() {
        let table = mixed_table();
        let mut ext = HdcFeatureExtractor::new(Dim::new(64), 0);
        let mut stream = TableStream::new(&table, Some(&[])).unwrap();
        assert!(ext.fit_stream(table.columns(), &mut stream).is_err());
        let mut stream = TableStream::new(&table, None).unwrap();
        assert!(ext.fit_stream(&[], &mut stream).is_err());
    }
}
