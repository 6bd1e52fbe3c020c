//! Cross-crate property tests: invariants that must hold for *any* table
//! the pipeline can encode, not just the two study datasets.

use hyperfex::prelude::*;
use hyperfex_hdc::bundle::try_weighted_majority;
use hyperfex_hdc::encoding::LinearEncoder;
use hyperfex_hdc::reference;
use hyperfex_hdc::rng::SplitMix64;
use hyperfex_hdc::BinaryHypervector;
use proptest::prelude::*;

/// Dimensionalities that stress the packed representation: single-word,
/// exact-word-boundary, tail-word and paper-scale cases.
const TAIL_DIMS: [usize; 9] = [1, 63, 64, 65, 101, 127, 128, 1_000, 10_000];

/// Strategy: a dimensionality drawn either from [`TAIL_DIMS`] or uniformly
/// from 2..512 (odd and non-multiple-of-64 values included).
fn dim_strategy() -> impl Strategy<Value = usize> {
    (0usize..TAIL_DIMS.len(), 2usize..512, any::<bool>()).prop_map(|(i, free, pick_fixed)| {
        if pick_fixed {
            TAIL_DIMS[i]
        } else {
            free
        }
    })
}

/// Strategy: a random mixed-schema table with 6–40 rows, 1–5 continuous +
/// 0–4 binary columns, and both classes present.
fn table_strategy() -> impl Strategy<Value = Table> {
    (2usize..6, 0usize..5, 6usize..40, any::<u64>())
        .prop_flat_map(|(n_cont, n_bin, n_rows, seed)| {
            let cont_values =
                prop::collection::vec(prop::collection::vec(-100.0f64..100.0, n_cont), n_rows);
            let bin_values = prop::collection::vec(prop::collection::vec(0usize..2, n_bin), n_rows);
            (cont_values, bin_values, Just((n_cont, n_bin, n_rows, seed)))
        })
        .prop_map(|(cont, bin, (n_cont, n_bin, n_rows, seed))| {
            let mut columns: Vec<ColumnSpec> = (0..n_cont)
                .map(|i| ColumnSpec::continuous(format!("c{i}")))
                .collect();
            columns.extend((0..n_bin).map(|i| ColumnSpec::binary(format!("b{i}"))));
            let rows: Vec<Vec<f64>> = cont
                .into_iter()
                .zip(bin)
                .map(|(c, b)| {
                    let mut row = c;
                    row.extend(b.into_iter().map(|v| v as f64));
                    row
                })
                .collect();
            // Deterministic labels with both classes guaranteed.
            let labels: Vec<usize> = (0..n_rows)
                .map(|i| usize::from((i as u64).wrapping_add(seed) % 3 == 0 || i == 0))
                .collect();
            let mut labels = labels;
            labels[n_rows - 1] = 0;
            labels[0] = 1;
            Table::new(columns, rows, labels).expect("constructed consistently")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every encodable table produces one balanced-ish hypervector per
    /// row, and encoding is deterministic.
    #[test]
    fn encoding_any_table_is_total_and_deterministic(table in table_strategy()) {
        let dim = Dim::new(256);
        let mut e1 = HdcFeatureExtractor::new(dim, 7);
        let mut e2 = HdcFeatureExtractor::new(dim, 7);
        let h1 = e1.fit_transform(&table).unwrap();
        let h2 = e2.fit_transform(&table).unwrap();
        prop_assert_eq!(&h1, &h2);
        prop_assert_eq!(h1.len(), table.n_rows());
        let arity = table.n_cols();
        for hv in &h1 {
            // Majority bundling of balanced codes: odd arity stays
            // near-balanced; even arity skews dense because the paper's
            // tie → 1 rule fires on every split vote (for two features
            // majority-with-tie-to-1 *is* bitwise OR, density ≈ 0.75).
            let density = hv.count_ones() as f64 / 256.0;
            if arity % 2 == 1 {
                prop_assert!((0.30..=0.70).contains(&density), "odd-arity density {}", density);
            } else {
                prop_assert!((0.40..=0.85).contains(&density), "even-arity density {}", density);
            }
        }
    }

    /// Identical rows encode identically; the encoding is a function of
    /// the row values.
    #[test]
    fn equal_rows_get_equal_codes(table in table_strategy()) {
        let mut ext = HdcFeatureExtractor::new(Dim::new(192), 3);
        let hvs = ext.fit_transform(&table).unwrap();
        for i in 0..table.n_rows() {
            for j in (i + 1)..table.n_rows() {
                if table.row(i) == table.row(j) {
                    prop_assert_eq!(&hvs[i], &hvs[j]);
                }
            }
        }
    }

    /// LOOCV accuracy is invariant to relabeling classes 0↔1 (symmetry of
    /// the distance rule).
    #[test]
    fn loocv_is_class_symmetric(table in table_strategy()) {
        let model = HammingModel::new(Dim::new(192), 5);
        let a = model.evaluate_loocv(&table).unwrap().accuracy();
        let flipped = Table::new(
            table.columns().to_vec(),
            table.rows().to_vec(),
            table.labels().iter().map(|&l| 1 - l).collect(),
        ).unwrap();
        let b = model.evaluate_loocv(&flipped).unwrap().accuracy();
        prop_assert!((a - b).abs() < 1e-12);
    }

    /// Hypervector feature matrices are always strictly 0/1 and the
    /// pairwise Hamming distances survive the matrix round trip.
    #[test]
    fn matrix_roundtrip_preserves_distances(table in table_strategy()) {
        let mut ext = HdcFeatureExtractor::new(Dim::new(128), 1);
        let hvs = ext.fit_transform(&table).unwrap();
        let m = HdcFeatureExtractor::to_matrix(&hvs).unwrap();
        prop_assert!(m.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        for i in 0..hvs.len().min(4) {
            for j in (i + 1)..hvs.len().min(4) {
                let hamming = hvs[i].try_hamming(&hvs[j]).unwrap() as f32;
                let euclid_sq = hyperfex_ml::Matrix::squared_distance(m.row(i), m.row(j));
                // On 0/1 vectors, squared Euclidean distance = Hamming.
                prop_assert!((hamming - euclid_sq).abs() < 1e-3);
            }
        }
    }

    /// Normalized Hamming distance between any two encoded rows stays at
    /// or below ~0.5 + noise: record bundles of the same schema share the
    /// categorical codes, so they can never be anti-correlated.
    #[test]
    fn encoded_records_are_never_anticorrelated(table in table_strategy()) {
        let mut ext = HdcFeatureExtractor::new(Dim::new(256), 9);
        let hvs = ext.fit_transform(&table).unwrap();
        for i in 0..hvs.len().min(6) {
            for j in (i + 1)..hvs.len().min(6) {
                let d = hvs[i].try_hamming(&hvs[j]).unwrap() as f64 / 256.0;
                prop_assert!(d < 0.75, "distance {} suggests anti-correlation", d);
            }
        }
    }

    /// The word-level rotation kernel agrees bit-for-bit with the scalar
    /// per-bit reference on every dimensionality, including rotations far
    /// larger than `d`.
    #[test]
    fn permute_kernel_matches_scalar_reference(
        d in dim_strategy(),
        k in 0usize..25_000,
        seed in any::<u64>(),
    ) {
        let dim = Dim::new(d);
        let hv = BinaryHypervector::random(dim, &mut SplitMix64::new(seed));
        prop_assert_eq!(hv.permute(k), reference::permute(&hv, k));
        // Inverse really inverts under the kernel too.
        prop_assert_eq!(hv.permute(k).permute_inverse(k), hv);
    }

    /// The checkpoint-mask level-encoding kernel agrees bit-for-bit with
    /// the flip-one-bit-at-a-time reference, including values outside the
    /// encoder's range (clamping path).
    #[test]
    fn linear_encode_kernel_matches_scalar_reference(
        d in dim_strategy(),
        t in -250.0f64..250.0,
        seed in any::<u64>(),
    ) {
        let enc = LinearEncoder::new(Dim::new(d), -100.0, 100.0, seed).unwrap();
        prop_assert_eq!(enc.encode(t), reference::linear_encode(&enc, t));
    }

    /// The bit-sliced bundling kernel agrees with the per-bit counting
    /// reference for arbitrary weights (including zero) on every
    /// dimensionality; error cases (all-zero weights) agree as well.
    #[test]
    fn bundle_kernel_matches_scalar_reference(
        d in dim_strategy(),
        seed in any::<u64>(),
        weights in prop::collection::vec(0u32..9, 1..8),
    ) {
        let dim = Dim::new(d);
        let mut r = SplitMix64::new(seed);
        let inputs: Vec<(BinaryHypervector, u32)> = weights
            .iter()
            .map(|&w| (BinaryHypervector::random(dim, &mut r), w))
            .collect();
        prop_assert_eq!(
            try_weighted_majority(&inputs),
            reference::weighted_majority(&inputs)
        );
    }

    /// Batch record encoding (chunked parallel, per-thread scratch) equals
    /// row-by-row sequential encoding on arbitrary tables.
    #[test]
    fn batch_encoding_matches_sequential_on_any_table(table in table_strategy()) {
        let mut ext = HdcFeatureExtractor::new(Dim::new(101), 17);
        let batch = ext.fit_transform(&table).unwrap();
        for (i, hv) in batch.iter().enumerate() {
            let single = ext.transform(&table, Some(&[i])).unwrap();
            prop_assert_eq!(hv, &single[0]);
        }
    }
}
