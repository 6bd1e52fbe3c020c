//! Violation records and reporting.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which lint produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unwrap()`/`expect(`/`panic!`/`todo!`/`unimplemented!` in library code.
    Panic,
    /// Slice indexing in a word-level kernel without an `index-ok` annotation.
    KernelIndex,
    /// A packed-word mutation path without re-mask, exit assert or `tail-ok`.
    TailInvariant,
    /// A registry dependency or a path dependency outside vendor//crates/.
    Vendor,
    /// The allowlist itself is invalid (stale entry, budget exceeded, …).
    Allowlist,
    /// A closure passed to `scope`/`join`/`spawn`/`par_*`/`map_chunks*`/
    /// `map_ranges` mutates a capture from outside the parallel region
    /// without a lock or atomic.
    ConcurrencyCapture,
    /// `Ordering::Relaxed` in library code without a `relaxed-ok` reason.
    RelaxedOrdering,
    /// A raw `scope(…)`/`spawn(…)` call outside tests: parallel work goes
    /// through the vendored rayon's ordered fan-out helper instead.
    ParallelEntry,
    /// A numeric `as` cast in a kernel/trainer hot path that is not
    /// provably widening and carries no `cast-ok` reason.
    CastSafety,
    /// A cfg-gated pub item without a matching counterpart in the other
    /// build, a shim signature mismatch, or a failpoint seam armed at the
    /// wrong number of sites.
    FeatureGate,
    /// `let _ = <fallible call>` silently discarding a `Result` in library
    /// code without propagation or a `discard-ok` reason.
    Discard,
}

impl Rule {
    /// Short tag used in diagnostics.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::KernelIndex => "kernel-index",
            Self::TailInvariant => "tail-invariant",
            Self::Vendor => "vendor",
            Self::Allowlist => "allowlist",
            Self::ConcurrencyCapture => "concurrency-capture",
            Self::RelaxedOrdering => "relaxed-ordering",
            Self::ParallelEntry => "parallel-entry",
            Self::CastSafety => "cast-safety",
            Self::FeatureGate => "feature-gate",
            Self::Discard => "discard",
        }
    }
}

/// One lint finding, anchored to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Raw text of the offending line (used for allowlist matching).
    pub line_text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.tag(),
            self.message
        )
    }
}

/// Normalises a path under `root` to a forward-slash relative string.
pub fn rel(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
