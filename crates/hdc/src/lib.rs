//! # hyperfex-hdc
//!
//! Hyperdimensional computing (HDC) substrate for the `hyperfex` workspace.
//!
//! This crate implements the computational model described by Kanerva
//! ("Hyperdimensional computing: an introduction to computing in distributed
//! representation with high-dimensional random vectors", Cognitive Computation
//! 2009) as used by Watkinson et al. (IPDPSW 2023) to extract features for
//! type 2 diabetes detection:
//!
//! * [`BinaryHypervector`] — dense, bit-packed binary hypervectors (default
//!   dimensionality 10,000) with XOR binding, rotation permutation and
//!   Hamming distance computed via word-level popcount.
//! * [`bundle`] — per-bit majority-vote bundling with the paper's tie → 1
//!   rule, plus streaming [`bundle::Bundler`] accumulators.
//! * [`encoding`] — the paper's linear (level) encoder for continuous
//!   features, the categorical encoder for binary features, and the record
//!   encoder that bundles one hypervector per patient.
//! * [`topk`] — the bounded k-nearest selection every Hamming k-NN path
//!   shares. Its scans read each row through
//!   [`bitmatrix::hamming_within`] and stop once the row cannot enter the
//!   k nearest, with results identical to full-distance scans.
//! * [`classify`] — the signed per-bit class accumulators behind every
//!   class prototype, online mistake-driven trainers (perceptron /
//!   passive-aggressive / LVQ) with streaming `partial_fit`, and the
//!   Hamming 1-NN / k-NN leave-one-out harness that sweeps each pair of
//!   records at most once, in parallel, and stops reading a pair that can
//!   enter neither record's k nearest.
//! * [`distill`] — dimension distillation: rank bit positions by class
//!   discrimination and gather the top-k columns into a dense pruned space
//!   for low-latency serving.
//!
//! ## Quick example
//!
//! ```
//! use hyperfex_hdc::prelude::*;
//!
//! // Encode a continuous feature (e.g. plasma glucose 56..=198 mg/dl).
//! let enc = LinearEncoder::new(Dim::new(10_000), 56.0, 198.0, 42)?;
//! let low = enc.encode(60.0);
//! let high = enc.encode(195.0);
//! let mid = enc.encode(128.0);
//!
//! // Level encoding preserves order: closer values are closer in Hamming space.
//! assert!(low.try_hamming(&mid)? < low.try_hamming(&high)?);
//!
//! // Bundle several feature hypervectors into one record hypervector.
//! let record = bundle::try_majority(&[low.clone(), mid.clone(), high.clone()])?;
//! assert!(record.try_hamming(&mid)? <= record.try_hamming(&high)?);
//! # Ok::<(), hyperfex_hdc::HdcError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binary;
pub mod bitmatrix;
pub mod bundle;
pub mod classify;
pub mod distill;
pub mod encoding;
pub mod error;
pub mod failpoint;
pub mod obs;
pub mod reference;
pub mod rng;
pub mod stream;
pub mod topk;

pub use binary::{BinaryHypervector, Dim};
pub use bitmatrix::BitMatrix;
pub use distill::BitSelection;
pub use error::HdcError;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::binary::{BinaryHypervector, Dim};
    pub use crate::bitmatrix::BitMatrix;
    pub use crate::bundle;
    pub use crate::classify::{
        fit_pocketed, LeaveOneOut, LoocvOutcome, LvqTrainer, OnlineTrainer,
        PassiveAggressiveTrainer, PerceptronTrainer,
    };
    pub use crate::distill::{discrimination_scores, BitSelection};
    pub use crate::encoding::{
        CategoricalEncoder, FeatureEncoder, LinearEncoder, PrunedLinearEncoder, QuarantineEntry,
        QuarantineReport, RecordEncoder, RecordSchema, RecordScratch,
    };
    pub use crate::error::HdcError;
    pub use crate::rng::SplitMix64;
    pub use crate::stream::{
        BundlerSink, ClassAccumulatorSink, CollectSink, FnStream, RecordStream, RowStream,
        StreamEncoder, StreamOutcome, StreamSink,
    };
}

/// The dimensionality used throughout the paper (10,000 bits).
pub const PAPER_DIM: usize = 10_000;
