//! # hyperfex-serve
//!
//! Crash-safe serving plane for trained hypervector stores.
//!
//! The upstream crates turn patient records into bit-packed hypervectors
//! and train Hamming-space classifiers over them; this crate is what keeps
//! those artifacts *servable* when the disk, the process, or the caller
//! misbehaves:
//!
//! * [`snapshot`] — a versioned, length-prefixed on-disk format with a
//!   CRC32 checksum per section: shard files grow by appended row batches
//!   and one fsynced manifest commits them, so a commit is durable once it
//!   returns, a crash mid-commit never destroys the previous one, and a
//!   flipped bit never reaches a popcount kernel.
//! * [`store`] — the sharded [`store::HvStore`]: build from encoded
//!   records, save one self-describing file per shard, and reopen with
//!   per-shard quarantine — corrupted or missing shards land in a
//!   [`store::RecoveryReport`] (`kept + quarantined == total`, mirroring
//!   the encoder's `QuarantineReport`), class totals are reconciled with
//!   the kept rows, and top-k Hamming retrieval keeps answering from the
//!   survivors.
//! * [`admission`] — a bounded-queue batch front end with typed overload
//!   shedding ([`error::ServeError::Overloaded`]) and per-request
//!   deadlines, including a logical-tick deadline variant so admission
//!   behaviour is testable without wall clocks.
//! * [`ingest`] — [`ingest::StoreAppendSink`], the streaming-encode
//!   endpoint: micro-batched [`store::HvStore::append_batch`] ingestion
//!   with an optional per-flush [`store::HvStore::save_dirty`] rolling
//!   snapshot that writes only the rows each flush adds, so an unbounded
//!   cohort streams into a servable store with O(buffer) transient state.
//! * [`cohort`] — deterministic synthetic cohorts (class prototypes plus
//!   seeded bit-flip noise) for throughput benchmarks and recovery sweeps.
//!
//! The serving seams (`serve/snapshot_write`, `serve/snapshot_load`,
//! `serve/batch_predict`) are armed through the shared
//! `hyperfex_hdc::failpoint` hook behind the `fault-injection` feature, so
//! the `hyperfex-faults` chaos harness schedules them like every other
//! pipeline seam.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod cohort;
pub mod error;
pub mod ingest;
pub mod snapshot;
pub mod store;

pub use admission::{AdmissionConfig, BatchFrontend, Completion, Deadline};
pub use cohort::SyntheticCohort;
pub use error::ServeError;
pub use hyperfex_hdc::obs;
pub use ingest::StoreAppendSink;
pub use snapshot::ShardRecord;
pub use store::{AppendReport, HvStore, QuarantinedShard, RecoveryReport};
