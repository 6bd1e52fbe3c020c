//! Hamming-distance classification (§II-C of the paper).
//!
//! * [`LeaveOneOut`] — the paper's leave-one-out validation harness: 1-NN
//!   under Hamming distance (k-NN with majority voting through
//!   [`LeaveOneOut::with_k`]), one symmetric distance sweep that computes
//!   each unordered pair at most once, in tile pairs split across
//!   `rayon::map_chunks` workers, and stops reading a pair that can enter
//!   neither row's k nearest.
//! * [`ClassAccumulators`] — bundled class prototypes ("associative
//!   memory", the standard HDC baseline from Kleyko et al. that the paper
//!   cites as \[39\]): one signed per-bit counter per class.
//! * [`trainer`] — [`OnlineTrainer`], one streaming `partial_fit`/`update`
//!   trainer over those accumulators whose [`UpdateRule`] (perceptron,
//!   passive-aggressive or LVQ) picks the mistake-driven correction, and
//!   [`fit_pocketed`], the one multi-epoch pocket loop.
//!
//! LOOCV selects neighbours with the shared [`crate::topk::TopK`] under
//! the `(distance, training index)` order and takes a majority vote whose
//! ties go to the lowest class index.

mod loocv;
pub mod trainer;

pub use loocv::{LeaveOneOut, LoocvOutcome};
pub use trainer::{fit_pocketed, ClassAccumulators, OnlineTrainer, UpdateRule, MAX_CLASSES};
