//! Hamming-distance classification (§II-C of the paper).
//!
//! * [`HammingKnnClassifier`] — k-nearest-neighbour under Hamming distance
//!   (the paper's model is the `k = 1` special case), with optional
//!   distance-weighted voting.
//! * [`CentroidClassifier`] — bundled class prototypes ("associative
//!   memory") with optional perceptron-style retraining, the standard HDC
//!   baseline from Kleyko et al. that the paper cites as \[39\].
//! * [`LeaveOneOut`] — the paper's leave-one-out validation harness: one
//!   symmetric distance sweep that computes each unordered pair once, in
//!   tile pairs split across `rayon::map_chunks` workers.
//! * [`trainer`] — online mistake-driven trainers (perceptron,
//!   passive-aggressive, LVQ) sharing the [`OnlineTrainer`] streaming
//!   `partial_fit`/`update` API over integer class accumulators.

mod centroid;
mod knn;
mod loocv;
pub mod trainer;

pub use centroid::CentroidClassifier;
pub use knn::HammingKnnClassifier;
pub use loocv::{LeaveOneOut, LoocvOutcome};
pub use trainer::{
    fit_pocketed, ClassAccumulators, LvqTrainer, OnlineTrainer, PassiveAggressiveTrainer,
    PerceptronTrainer,
};
