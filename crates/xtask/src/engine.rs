//! The lint engine: workspace walking, rule dispatch, allowlisting, and the
//! seeded-violation selftest that keeps the linter honest.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{rel, Rule, Violation};
use crate::source::Analysis;
use crate::{allowlist, casts, concur, gates, panics, tail, vendorcheck};

/// Runs every rule against the workspace at `root` and applies the
/// allowlist. Returns the surviving violations, sorted by file and line.
pub fn run_lint(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();

    // Pass 1: per-file rules over the audited crates' library sources,
    // collecting failpoint arm sites for the workspace-level pass.
    let mut arm_sites: Vec<(String, Vec<(usize, String)>)> = Vec::new();
    for crate_name in panics::AUDITED_CRATES {
        let src_dir = root.join("crates").join(crate_name).join("src");
        for path in rust_files(&src_dir) {
            let contents = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel_path = rel(root, &path);
            let analysis = Analysis::new(&contents);
            violations.extend(panics::check_file(&rel_path, &analysis));
            violations.extend(panics::check_discards(&rel_path, &analysis));
            violations.extend(concur::check_file(&rel_path, &analysis));
            violations.extend(gates::check_file(&rel_path, &analysis));
            if crate_name == "hdc" {
                violations.extend(tail::check_file(&rel_path, &analysis));
            }
            if casts::applies_to(&rel_path) {
                violations.extend(casts::check_file(&rel_path, &analysis));
            }
            let sites = gates::failpoint_arm_sites(&analysis);
            if !sites.is_empty() {
                arm_sites.push((rel_path, sites));
            }
        }
    }

    // Pass 1b: the parallel-entry rule covers every crate's sources under
    // `crates/`, audited or not.
    for crate_dir in child_dirs(&root.join("crates")) {
        for path in rust_files(&crate_dir.join("src")) {
            let contents = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let analysis = Analysis::new(&contents);
            violations.extend(concur::check_entry_points(&rel(root, &path), &analysis));
        }
    }

    // Pass 2: workspace-level failpoint arity against the chaos plan
    // registry (skipped when the tree has no faults crate, e.g. selftest
    // scratch workspaces).
    let plan_path = root.join("crates/faults/src/plan.rs");
    if plan_path.is_file() {
        let plan_src = fs::read_to_string(&plan_path)
            .map_err(|e| format!("reading {}: {e}", plan_path.display()))?;
        violations.extend(gates::check_failpoint_arity(
            &rel(root, &plan_path),
            &plan_src,
            &arm_sites,
        ));
    }

    // Pass 3: vendor hygiene over every manifest in the workspace.
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        manifests.extend(child_manifests(&root.join(dir)));
    }
    for path in manifests {
        if !path.is_file() {
            continue;
        }
        let contents =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        violations.extend(vendorcheck::check_manifest(&rel(root, &path), &contents));
    }

    // The allowlist waives recorded panic/kernel-index sites and reports its
    // own integrity problems (budget breaches, stale entries).
    let allow_path = root.join("crates/xtask/allow.toml");
    let list = if allow_path.is_file() {
        let contents = fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        match allowlist::parse(&contents) {
            Ok(list) => list,
            Err(msg) => {
                violations.push(Violation {
                    file: "crates/xtask/allow.toml".to_string(),
                    line: 0,
                    rule: Rule::Allowlist,
                    message: msg,
                    line_text: String::new(),
                });
                allowlist::Allowlist {
                    initial_audit: 0,
                    budget: 0,
                    entries: Vec::new(),
                }
            }
        }
    } else {
        allowlist::Allowlist {
            initial_audit: 0,
            budget: 0,
            entries: Vec::new(),
        }
    };
    let (mut remaining, integrity) = allowlist::apply(&list, violations);
    remaining.extend(integrity);
    remaining.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(remaining)
}

/// Walks `dir` recursively collecting `.rs` files in sorted order.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// `Cargo.toml` files one level below `dir` (e.g. `crates/*/Cargo.toml`).
pub fn child_manifests(dir: &Path) -> Vec<PathBuf> {
    child_dirs(dir)
        .into_iter()
        .map(|d| d.join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect()
}

/// Directories one level below `dir`, sorted.
fn child_dirs(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    out
}

/// Locates the workspace root: `CARGO_MANIFEST_DIR/../..` when run via
/// cargo, otherwise walking up from the current directory looking for a
/// manifest with a `[workspace]` table.
pub fn workspace_root() -> Option<PathBuf> {
    if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(&manifest_dir).join("../..");
        if let Ok(root) = candidate.canonicalize() {
            if is_workspace_root(&root) {
                return Some(root);
            }
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|c| c.contains("[workspace]"))
}

/// One selftest expectation: the seeded violation the engine must report.
struct Seed {
    rule: Rule,
    file: &'static str,
    line: usize,
    needle: &'static str,
}

/// Builds a scratch workspace with one seeded violation per rule family
/// and asserts the lint engine reports each with its exact file and line.
pub fn run_selftest(scratch: &Path) -> Result<String, String> {
    let write = |rel_path: &str, contents: &str| -> Result<(), String> {
        let path = scratch.join(rel_path);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
        fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
    };

    // Internal sanity check first: the lexer must reconstruct the engine's
    // own largest source byte-for-byte before it is trusted to lint.
    let self_src = include_str!("structure.rs");
    let toks = crate::lex::lex(self_src);
    if crate::lex::reconstruct(self_src, &toks) != self_src {
        return Err("lexer round-trip failed on crates/xtask/src/structure.rs".to_string());
    }

    // Seed 1: a registry dependency — the workspace must be offline.
    write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.dependencies]\nserde = \"1.0\"\n",
    )?;
    // Seed 2: an unmasked tail write in a word-level kernel.
    write(
        "crates/hdc/src/binary.rs",
        "pub struct Hv { words: Vec<u64> }\n\
         impl Hv {\n\
             pub fn ones(&mut self) {\n\
                 self.words.fill(u64::MAX);\n\
             }\n\
         }\n",
    )?;
    // Seed 3: a library unwrap outside test code.
    write(
        "crates/ml/src/lib.rs",
        "pub fn first(xs: &[u32]) -> u32 {\n    *xs.first().unwrap()\n}\n",
    )?;
    // Seed 4 (concurrency family): a fan-out closure mutating a capture
    // from outside the parallel region, and an unjustified Relaxed load.
    write(
        "crates/hdc/src/bitmatrix.rs",
        "pub fn count_all(rows: &[u64]) -> u64 {\n\
             let mut total = 0u64;\n\
             rayon::map_ranges(rows.len(), 1, |r| {\n\
                 if !r.is_empty() {\n\
                     total += 1;\n\
                 }\n\
             });\n\
             let c = std::sync::atomic::AtomicU64::new(total);\n\
             c.load(std::sync::atomic::Ordering::Relaxed)\n\
         }\n",
    )?;
    // Seed 5 (cast family): a narrowing usize→u32 cast in a kernel file.
    write(
        "crates/hdc/src/bundle.rs",
        "pub fn vote_threshold(n_inputs: usize) -> u32 {\n\
             n_inputs as u32\n\
         }\n",
    )?;
    // Seed 6 (gate family): a pub item gated on a feature with no shim on
    // the not() side — the default build silently loses the name.
    write(
        "crates/hdc/src/obs.rs",
        "#[cfg(feature = \"obs\")]\n\
         pub fn span(name: &'static str) -> u32 {\n\
             name.len() as u32\n\
         }\n",
    )?;
    // Seed 7 (discard rule): a silently dropped fallible call.
    write(
        "crates/data/src/lib.rs",
        "pub fn cleanup(path: &std::path::Path) {\n\
             let _ = std::fs::remove_file(path);\n\
         }\n",
    )?;

    // Seed 8 (parallel-entry rule): a hand-rolled scope/spawn block in a
    // crate outside the audited set — the rule covers all of `crates/`.
    write(
        "crates/experiments/src/lib.rs",
        "pub fn lengths(xs: &[Vec<u64>]) {\n\
             std::thread::scope(|s| {\n\
                 s.spawn(|| xs.len());\n\
             });\n\
         }\n",
    )?;

    let violations = run_lint(scratch)?;
    let mut report = String::from("seeded violations detected:\n");
    for v in &violations {
        report.push_str(&format!("  {v}\n"));
    }

    let seeds = [
        Seed {
            rule: Rule::Vendor,
            file: "Cargo.toml",
            line: 5,
            needle: "registry",
        },
        Seed {
            rule: Rule::TailInvariant,
            file: "crates/hdc/src/binary.rs",
            line: 4,
            needle: "re-masking",
        },
        Seed {
            rule: Rule::Panic,
            file: "crates/ml/src/lib.rs",
            line: 2,
            needle: ".unwrap()",
        },
        Seed {
            rule: Rule::ConcurrencyCapture,
            file: "crates/hdc/src/bitmatrix.rs",
            line: 5,
            needle: "total",
        },
        Seed {
            rule: Rule::RelaxedOrdering,
            file: "crates/hdc/src/bitmatrix.rs",
            line: 9,
            needle: "Relaxed",
        },
        Seed {
            rule: Rule::CastSafety,
            file: "crates/hdc/src/bundle.rs",
            line: 2,
            needle: "as u32",
        },
        Seed {
            rule: Rule::FeatureGate,
            file: "crates/hdc/src/obs.rs",
            line: 2,
            needle: "span",
        },
        Seed {
            rule: Rule::Discard,
            file: "crates/data/src/lib.rs",
            line: 2,
            needle: "discard",
        },
        Seed {
            rule: Rule::ParallelEntry,
            file: "crates/experiments/src/lib.rs",
            line: 2,
            needle: "`scope(…)`",
        },
    ];
    for seed in &seeds {
        let hit = violations.iter().find(|v| {
            v.rule == seed.rule && v.file == seed.file && v.message.contains(seed.needle)
        });
        let Some(hit) = hit else {
            return Err(format!(
                "expected a [{}] violation in {} mentioning `{}`; got:\n{report}",
                seed.rule.tag(),
                seed.file,
                seed.needle
            ));
        };
        if hit.line != seed.line {
            return Err(format!(
                "[{}] violation in {} reported at line {}, expected line {}",
                seed.rule.tag(),
                seed.file,
                hit.line,
                seed.line
            ));
        }
    }
    if violations.len() < seeds.len() {
        return Err(format!(
            "expected at least {} violations, got:\n{report}",
            seeds.len()
        ));
    }

    // Negative control: the same rule patterns placed inside string
    // literals and comments must produce zero findings.
    let decoy_root = scratch.join("decoy");
    let decoy = "pub fn decoy() -> &'static str {\n\
                     // total += 1; x as u32; .unwrap(); Ordering::Relaxed\n\
                     /* rayon::scope(|s| { hits += 1; }) */\n\
                     \"let _ = remove_file(p); n_inputs as u32; panic!()\"\n\
                 }\n";
    let write_decoy = |rel_path: &str| -> Result<(), String> {
        let path = decoy_root.join(rel_path);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
        fs::write(&path, decoy).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write_decoy("crates/hdc/src/binary.rs")?;
    write_decoy("crates/ml/src/lib.rs")?;
    fs::write(decoy_root.join("Cargo.toml"), "[workspace]\n")
        .map_err(|e| format!("write decoy manifest: {e}"))?;
    let decoy_violations = run_lint(&decoy_root)?;
    if !decoy_violations.is_empty() {
        let mut msg = String::from("patterns inside strings/comments must not be reported; got:\n");
        for v in &decoy_violations {
            msg.push_str(&format!("  {v}\n"));
        }
        return Err(msg);
    }
    report.push_str("string/comment decoys produced zero findings\n");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_catches_every_seeded_violation() {
        let scratch =
            std::env::temp_dir().join(format!("xtask-selftest-ut-{}", std::process::id()));
        let result = run_selftest(&scratch);
        let _ = fs::remove_dir_all(&scratch);
        let report = result.expect("selftest must pass");
        assert!(report.contains("crates/ml/src/lib.rs:2"));
        assert!(report.contains("crates/hdc/src/binary.rs:4"));
        assert!(report.contains("crates/hdc/src/bitmatrix.rs:5"));
        assert!(report.contains("crates/hdc/src/bundle.rs:2"));
        assert!(report.contains("crates/hdc/src/obs.rs:2"));
        assert!(report.contains("crates/data/src/lib.rs:2"));
        assert!(report.contains("crates/experiments/src/lib.rs:2"));
        assert!(report.contains("zero findings"));
    }
}
