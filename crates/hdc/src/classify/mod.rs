//! Hamming-distance classification (§II-C of the paper).
//!
//! * [`LeaveOneOut`] — the paper's leave-one-out validation harness: 1-NN
//!   under Hamming distance (k-NN with majority voting through
//!   [`LeaveOneOut::with_k`]), one symmetric distance sweep that computes
//!   each unordered pair once, in tile pairs split across
//!   `rayon::map_chunks` workers.
//! * [`ClassAccumulators`] — bundled class prototypes ("associative
//!   memory", the standard HDC baseline from Kleyko et al. that the paper
//!   cites as \[39\]): one signed per-bit counter per class.
//! * [`trainer`] — online mistake-driven trainers (perceptron,
//!   passive-aggressive, LVQ) sharing the [`OnlineTrainer`] streaming
//!   `partial_fit`/`update` API over those accumulators, and
//!   [`fit_pocketed`], the one multi-epoch pocket loop.
//!
//! LOOCV selects neighbours with the shared [`crate::topk::TopK`] under
//! the `(distance, training index)` order and takes a majority vote whose
//! ties go to the lowest class index.

mod loocv;
pub mod trainer;

pub use loocv::{LeaveOneOut, LoocvOutcome};
pub use trainer::{
    fit_pocketed, ClassAccumulators, LvqTrainer, OnlineTrainer, PassiveAggressiveTrainer,
    PerceptronTrainer,
};
