//! Rule 1: panic audit, plus the slice-index-in-kernel check.
//!
//! Library (non-`#[cfg(test)]`) code of the production crates must not
//! contain `unwrap()`, `expect(`, `panic!`, `todo!`, `unimplemented!` or
//! `unreachable!`. Existing, justified offenders live in the shrink-only
//! allowlist (`crates/xtask/allow.toml`); new ones fail the build.
//!
//! In the word-level kernel files, bracket indexing is additionally
//! forbidden unless the enclosing function carries an explicit
//! `// lint: index-ok (<reason>)` annotation: every indexing expression in
//! a kernel is a potential panic *and* a bounds check the optimiser must
//! prove away, so each one carries a written justification.

use crate::diag::{Rule, Violation};
use crate::lex::TokenKind;
use crate::source::Analysis;

/// Crates whose `src/` trees are panic-audited.
pub const AUDITED_CRATES: [&str; 8] = [
    "hdc", "ml", "data", "eval", "core", "faults", "obs", "serve",
];

/// Kernel files where slice indexing requires an annotation.
pub const KERNEL_FILES: [&str; 9] = [
    "crates/hdc/src/binary.rs",
    "crates/hdc/src/bitmatrix.rs",
    "crates/hdc/src/bundle.rs",
    "crates/hdc/src/distill.rs",
    "crates/hdc/src/encoding/linear.rs",
    "crates/hdc/src/encoding/pruned.rs",
    "crates/hdc/src/classify/trainer/accumulator.rs",
    "crates/serve/src/snapshot.rs",
    "crates/hdc/src/stream.rs",
];

const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "todo!",
    "unimplemented!",
    "unreachable!",
];

/// Audits one analysed file. `rel_path` is workspace-relative with forward
/// slashes.
pub fn check_file(rel_path: &str, analysis: &Analysis) -> Vec<Violation> {
    let mut out = Vec::new();
    let is_kernel = KERNEL_FILES.contains(&rel_path);
    for (idx, stripped) in analysis.stripped.iter().enumerate() {
        if analysis.in_test[idx] {
            continue;
        }
        let line = idx + 1;
        for pat in PANIC_PATTERNS {
            if let Some(col) = stripped.find(pat) {
                // `debug_assert…` and `assert…` are allowed; make sure the
                // match is not inside an identifier (e.g. `expect_fn(`).
                if col > 0 && pat.starts_with(|c: char| c.is_alphabetic()) {
                    let prev = stripped.as_bytes()[col - 1] as char;
                    if prev.is_alphanumeric() || prev == '_' {
                        continue;
                    }
                }
                out.push(Violation {
                    file: rel_path.to_string(),
                    line,
                    rule: Rule::Panic,
                    message: format!(
                        "`{pat}` in library code — return a typed error or add it to \
                         crates/xtask/allow.toml with a reason (shrink-only)"
                    ),
                    line_text: analysis.raw[idx].clone(),
                });
            }
        }
        if is_kernel {
            for col in index_sites(stripped) {
                let annotated = analysis
                    .enclosing_fn(line)
                    .is_some_and(|f| analysis.fn_has_annotation(f, "lint: index-ok ("));
                if !annotated {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line,
                        rule: Rule::KernelIndex,
                        message: format!(
                            "slice indexing at column {col} in a word-level kernel — \
                             use iterators, or annotate the function with \
                             `// lint: index-ok (<why the index is in bounds>)`"
                        ),
                        line_text: analysis.raw[idx].clone(),
                    });
                    break; // one finding per line is enough
                }
            }
        }
    }
    out
}

/// Rule: `let _ = call(…);` silently discarding a value in library code.
///
/// A discarded call result is how `Result`s vanish: the error path compiles
/// away without a trace. Library code must propagate (`?`), handle, or
/// justify with `// lint: discard-ok (<reason>)`. Plain binding discards
/// without a call (`let _ = guard;`) are not flagged — they have no error
/// path to lose.
pub fn check_discards(rel_path: &str, analysis: &Analysis) -> Vec<Violation> {
    let ctx = analysis.ctx();
    let mut out = Vec::new();
    let mut si = 0;
    while si + 2 < ctx.sig.len() {
        let is_discard = ctx.kind(si) == TokenKind::Ident
            && ctx.text(si) == "let"
            && ctx.kind(si + 1) == TokenKind::Ident
            && ctx.text(si + 1) == "_"
            && ctx.is_punct(si + 2, '=');
        if !is_discard {
            si += 1;
            continue;
        }
        // Scan the discarded expression (to `;` at depth 0) for a call.
        let mut depth = 0i64;
        let mut has_call = false;
        let mut propagates = false;
        let mut sj = si + 3;
        while sj < ctx.sig.len() {
            if ctx.kind(sj) == TokenKind::Punct {
                match ctx.text(sj).as_bytes().first() {
                    Some(b';') if depth == 0 => break,
                    Some(b'(') => {
                        depth += 1;
                        // A call: `(` directly after an ident or `.method`.
                        if sj >= 1 && ctx.kind(sj - 1) == TokenKind::Ident {
                            has_call = true;
                        }
                    }
                    Some(b'[' | b'{') => depth += 1,
                    Some(b')' | b']' | b'}') => depth -= 1,
                    // `let _ = expr?;` propagates the error — only the Ok
                    // payload is dropped, which is deliberate (warmups etc).
                    Some(b'?') if depth == 0 => propagates = true,
                    _ => {}
                }
            }
            sj += 1;
        }
        let line = ctx.line(si);
        si = sj + 1;
        if !has_call
            || propagates
            || analysis.in_test.get(line - 1).copied().unwrap_or(false)
            || analysis.line_has_annotation(line, "lint: discard-ok (")
        {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line,
            rule: Rule::Discard,
            message: "`let _ = …(…)` discards a call result in library code — propagate \
                      with `?`, handle the error, or annotate with \
                      `// lint: discard-ok (<reason>)`"
                .to_string(),
            line_text: analysis.raw.get(line - 1).cloned().unwrap_or_default(),
        });
    }
    out
}

/// Columns of bracket-indexing expressions: `ident[`, `)[`, `][`. Macro
/// invocations (`vec![`), attributes (`#[`) and slice *types* (`&[u64]`,
/// `[u64; 4]`) never match because their `[` is not preceded by an
/// identifier character or closing bracket.
fn index_sites(stripped: &str) -> Vec<usize> {
    let bytes = stripped.as_bytes();
    let mut sites = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            sites.push(i);
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, &Analysis::new(src))
    }

    #[test]
    fn library_unwrap_is_flagged_with_file_and_line() {
        let v = audit(
            "crates/ml/src/lib.rs",
            "fn f() {\n    let x = y.unwrap();\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, Rule::Panic);
    }

    #[test]
    fn test_code_and_comments_and_strings_are_exempt() {
        let src = "fn f() -> &'static str {\n\
                       // a comment mentioning .unwrap()\n\
                       \"a string with panic!\"\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); panic!(\"boom\"); }\n\
                   }\n";
        assert!(audit("crates/data/src/lib.rs", src).is_empty());
    }

    #[test]
    fn all_panic_macros_are_caught() {
        let src = "fn f() {\n    todo!()\n}\nfn g() {\n    unimplemented!()\n}\nfn h() {\n    unreachable!()\n}\n";
        let v = audit("crates/eval/src/lib.rs", src);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn expect_fn_identifiers_are_not_confused_with_expect() {
        let v = audit("crates/core/src/lib.rs", "fn f() { what_to_expect(1); }\n");
        assert!(v.is_empty());
    }

    #[test]
    fn kernel_indexing_requires_annotation() {
        let bad = "fn kernel(w: &mut [u64], i: usize) {\n    w[i] |= 1;\n}\n";
        let v = audit("crates/hdc/src/binary.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::KernelIndex);

        let good = "// lint: index-ok (i is asserted in bounds by the caller)\n\
                    fn kernel(w: &mut [u64], i: usize) {\n    w[i] |= 1;\n}\n";
        assert!(audit("crates/hdc/src/binary.rs", good).is_empty());

        // Non-kernel files may index freely.
        assert!(audit("crates/ml/src/tree.rs", bad).is_empty());
    }

    #[test]
    fn discarded_call_results_require_a_reason() {
        let bad = "fn f(path: &str) {\n    let _ = std::fs::remove_file(path);\n}\n";
        let v = check_discards("crates/data/src/lib.rs", &Analysis::new(bad));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Discard);
        assert_eq!(v[0].line, 2);

        let good = "fn f(path: &str) {\n\
                        // lint: discard-ok (best-effort cleanup; absence is fine)\n\
                        let _ = std::fs::remove_file(path);\n\
                    }\n";
        assert!(check_discards("crates/data/src/lib.rs", &Analysis::new(good)).is_empty());

        // No call → no error path to lose; tests are exempt.
        let plain = "fn f(g: Guard) {\n    let _ = g;\n}\n\
                     #[cfg(test)]\nmod tests {\n    fn t() { let _ = go(); }\n}\n";
        assert!(check_discards("crates/data/src/lib.rs", &Analysis::new(plain)).is_empty());

        // `?` propagates the error; only the Ok payload is dropped.
        let warmup = "fn f(m: &M, x: &X) -> Result<(), E> {\n\
                          let _ = m.predict(x)?;\n\
                          Ok(())\n\
                      }\n";
        assert!(check_discards("crates/core/src/lib.rs", &Analysis::new(warmup)).is_empty());
    }

    #[test]
    fn macros_attributes_and_slice_types_are_not_indexing() {
        let src =
            "fn f(x: &[u64]) -> Vec<u64> {\n    let v: [u64; 2] = [0, 1];\n    vec![0u64; 4]\n}\n";
        assert!(audit("crates/hdc/src/binary.rs", src).is_empty());
    }
}
