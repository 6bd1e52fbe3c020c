//! Hamming-distance classification (§II-C of the paper).
//!
//! * [`HammingKnnClassifier`] — k-nearest-neighbour under Hamming distance
//!   with majority voting (the paper's model is the `k = 1` special case).
//! * [`LeaveOneOut`] — the paper's leave-one-out validation harness: one
//!   symmetric distance sweep that computes each unordered pair once, in
//!   tile pairs split across `rayon::map_chunks` workers.
//! * [`ClassAccumulators`] — bundled class prototypes ("associative
//!   memory", the standard HDC baseline from Kleyko et al. that the paper
//!   cites as \[39\]): one signed per-bit counter per class.
//! * [`trainer`] — online mistake-driven trainers (perceptron,
//!   passive-aggressive, LVQ) sharing the [`OnlineTrainer`] streaming
//!   `partial_fit`/`update` API over those accumulators, and
//!   [`fit_pocketed`], the one multi-epoch pocket loop.
//!
//! Both k-NN paths select neighbours with the shared [`crate::topk::TopK`]
//! under the `(distance, training index)` order and take a majority vote
//! whose ties go to the lowest class index.

mod knn;
mod loocv;
pub mod trainer;

pub use knn::HammingKnnClassifier;
pub use loocv::{LeaveOneOut, LoocvOutcome};
pub use trainer::{
    fit_pocketed, ClassAccumulators, LvqTrainer, OnlineTrainer, PassiveAggressiveTrainer,
    PerceptronTrainer,
};

/// Majority vote over neighbour labels: the class with the most votes, the
/// lowest class index among equal counts. Every label must be below
/// `n_classes`.
pub(crate) fn majority_vote(labels: impl Iterator<Item = usize>, n_classes: usize) -> usize {
    let mut votes = vec![0u32; n_classes];
    for label in labels {
        votes[label] += 1;
    }
    votes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(c, _)| c)
}
