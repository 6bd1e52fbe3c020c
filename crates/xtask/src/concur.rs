//! Rule family 4: concurrency-capture, relaxed-ordering and parallel-entry
//! lints.
//!
//! **Capture rule.** Inside any closure passed to the vendored rayon's
//! fan-out helper (`map_chunks`, `map_chunks_mut`, `map_ranges`, `join`),
//! to `scope`/`in_place_scope`/`spawn` or to a `par_*` iterator chain,
//! mutating state captured from *outside* the parallel region is a
//! violation: every worker would race on the same location. Legitimate
//! mutation goes through per-task scratch (anything bound inside the
//! region — a `chunks_mut` chunk, a `let` local, a closure parameter),
//! atomics (method calls like `fetch_add` are not assignments and never
//! match), or lock guards (`.lock()`/`.write()`/`.borrow_mut()` in the
//! assignment chain are recognised and exempt). Sites with a justified
//! exception carry `// lint: capture-ok (<reason>)`.
//!
//! **Relaxed rule.** `Ordering::Relaxed` provides no happens-before edge:
//! correct uses (monotone counters, saturating maxima) must say why with
//! `// lint: relaxed-ok (<reason>)` on the line, the line above, or the
//! enclosing function's annotation block; everything else is a violation.
//! The annotation is the allowlist — there is no separate file.
//!
//! **Entry rule.** Outside tests, code under `crates/` enters parallelism
//! only through the fan-out helper. Any raw `scope(…)` or `spawn(…)` call
//! (`std::thread::scope`, `thread::spawn`, a scope handle's `s.spawn`) is
//! a violation, with no waiver: the helper caps the
//! threads at the worker count, runs one chunk on the calling thread and
//! returns results in order, and a hand-rolled block would have to get
//! all three right again.

use crate::diag::{Rule, Violation};
use crate::lex::TokenKind;
use crate::source::Analysis;
use crate::structure::{self, Ctx};

/// Chain methods that make a mutation lock- or cell-mediated.
const GUARD_METHODS: [&str; 5] = ["lock", "write", "borrow_mut", "get_mut", "entry"];

const CAPTURE_ANNOTATION: &str = "lint: capture-ok (";
const RELAXED_ANNOTATION: &str = "lint: relaxed-ok (";

/// Checks one analysed file for both rules.
pub fn check_file(rel_path: &str, analysis: &Analysis) -> Vec<Violation> {
    let ctx = analysis.ctx();
    let mut out = check_captures(rel_path, analysis, &ctx);
    out.extend(check_relaxed(rel_path, analysis, &ctx));
    out
}

fn check_captures(rel_path: &str, analysis: &Analysis, ctx: &Ctx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for region in structure::parallel_regions(ctx) {
        let bound = structure::bound_names(ctx, region.sig_range);
        let (start, end) = region.sig_range;
        let lent = direct_arg_starts(ctx, start);
        let mut si = start;
        while si <= end {
            // `map_chunks_mut(&mut rows, …)`: a borrow handed to the helper
            // itself, which splits it into disjoint per-task parts.
            if ctx.is_punct(si, '&') && lent.contains(&si) {
                si += 1;
                continue;
            }
            if let Some(m) = mutation_at(ctx, si, end) {
                si = m.resume_si;
                let line = m.line;
                if analysis.in_test.get(line - 1).copied().unwrap_or(false) {
                    continue;
                }
                if bound.iter().any(|b| b == &m.head) {
                    continue; // per-task scratch bound inside the region
                }
                if m.chain_methods
                    .iter()
                    .any(|c| GUARD_METHODS.contains(&c.as_str()))
                {
                    continue; // lock/cell-guarded access
                }
                if analysis.line_has_annotation(line, CAPTURE_ANNOTATION) {
                    continue;
                }
                out.push(Violation {
                    file: rel_path.to_string(),
                    line,
                    rule: Rule::ConcurrencyCapture,
                    message: format!(
                        "`{}` is mutated inside a closure passed to `{}` but is captured \
                         from outside the parallel region — use per-task scratch bound \
                         inside the region, an atomic, a lock, or annotate with \
                         `// lint: capture-ok (<reason>)`",
                        m.head, region.callee
                    ),
                    line_text: analysis.raw.get(line - 1).cloned().unwrap_or_default(),
                });
            } else {
                si += 1;
            }
        }
    }
    out
}

/// Sig-indices where a direct argument of the call opened at `open` starts
/// (bracket depth 0 inside its parentheses; a comma inside closure bars
/// also counts, which only over-approximates).
fn direct_arg_starts(ctx: &Ctx<'_>, open: usize) -> Vec<usize> {
    let mut starts = vec![open + 1];
    let Some(close) = ctx.matching_close(open) else {
        return starts;
    };
    let mut depth = 0i64;
    for si in open + 1..close {
        if ctx.kind(si) != TokenKind::Punct {
            continue;
        }
        match ctx.text(si).as_bytes().first() {
            Some(b'(' | b'[' | b'{') => depth += 1,
            Some(b')' | b']' | b'}') => depth -= 1,
            Some(b',') if depth == 0 => starts.push(si + 1),
            _ => {}
        }
    }
    starts
}

/// One detected mutation: the head identifier of the assignment target (or
/// `&mut` borrow), the methods in its access chain, and where to resume.
struct Mutation {
    head: String,
    chain_methods: Vec<String>,
    line: usize,
    resume_si: usize,
}

/// If sig-index `si` starts a mutation (`target = …`, `target op= …`,
/// `&mut target`), returns it.
fn mutation_at(ctx: &Ctx<'_>, si: usize, end: usize) -> Option<Mutation> {
    // `&mut ident` borrow of a non-local.
    if ctx.is_punct(si, '&')
        && si + 2 <= end
        && ctx.kind(si + 1) == TokenKind::Ident
        && ctx.text(si + 1) == "mut"
        && ctx.kind(si + 2) == TokenKind::Ident
        && ctx.text(si + 2) != "self"
    {
        return Some(Mutation {
            head: ctx.text(si + 2).to_string(),
            chain_methods: Vec::new(),
            line: ctx.line(si + 2),
            resume_si: si + 3,
        });
    }
    // Assignment operators. Find a `=` that is genuinely assignment.
    if !ctx.is_punct(si, '=') || si == 0 {
        return None;
    }
    // Exclude `==`, `=>`, `<=`, `>=`, `!=` and the second `=` of `==`.
    if si < end && (ctx.is_punct(si + 1, '=') || ctx.is_punct(si + 1, '>')) {
        return None;
    }
    let mut target_end = si - 1; // last token of the assignment target
    if ctx.kind(si - 1) == TokenKind::Punct {
        match ctx.text(si - 1).as_bytes().first() {
            // Compound assignment `x += …`: target sits before the operator.
            Some(b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^') if si >= 2 => {
                target_end = si - 2;
            }
            // `<<=` / `>>=`: two identical shift puncts before the `=`.
            Some(b'<' | b'>') if si >= 3 && ctx.text(si - 2) == ctx.text(si - 1) => {
                target_end = si - 3;
            }
            // `<=` / `>=` / `==` / `!=`, or no room for a target.
            _ => return None,
        }
    }
    if ctx.kind(target_end) != TokenKind::Ident && !ctx.is_punct(target_end, ']') {
        return None;
    }
    // Walk the target chain backwards to its head identifier, collecting
    // method names along the way (`*m.lock().unwrap()[i] = …` → head `m`,
    // methods [lock, unwrap]).
    let mut chain_methods = Vec::new();
    let mut ti = target_end;
    let head = loop {
        match ctx.kind(ti) {
            TokenKind::Ident => {
                // Preceded by `.`: a field/method step — keep walking left.
                if ti >= 2 && ctx.is_punct(ti - 1, '.') {
                    ti -= 2;
                } else {
                    break ctx.text(ti).to_string();
                }
            }
            TokenKind::Punct if matches!(ctx.text(ti).as_bytes().first(), Some(b']' | b')')) => {
                let open = matching_open(ctx, ti)?;
                if ctx.is_punct(ti, ')')
                    && open >= 3
                    && ctx.kind(open - 1) == TokenKind::Ident
                    && ctx.is_punct(open - 2, '.')
                {
                    chain_methods.push(ctx.text(open - 1).to_string());
                    ti = open - 3;
                } else if open >= 1 {
                    ti = open - 1;
                } else {
                    return None;
                }
            }
            _ => return None,
        }
        if ti == 0 && ctx.kind(0) != TokenKind::Ident {
            return None;
        }
    };
    // Statement-position check: the token before the whole target must not
    // suggest we are mid-expression binding (`let x = …` is handled by the
    // bound-names pass; struct literals `Foo { x: 1 }` have `:` before the
    // value, never before the target ident at statement level).
    Some(Mutation {
        head,
        chain_methods,
        line: ctx.line(si),
        resume_si: si + 1,
    })
}

/// Backward bracket matching: sig-index of the opener for the closer at
/// `close_si`.
fn matching_open(ctx: &Ctx<'_>, close_si: usize) -> Option<usize> {
    let mut depth = 0i64;
    for si in (0..=close_si).rev() {
        if ctx.kind(si) != TokenKind::Punct {
            continue;
        }
        match ctx.text(si).as_bytes().first() {
            Some(b')' | b']' | b'}') => depth += 1,
            Some(b'(' | b'[' | b'{') => {
                depth -= 1;
                if depth == 0 {
                    return Some(si);
                }
            }
            _ => {}
        }
    }
    None
}

/// The entry rule: every raw `scope(`/`spawn(` call outside test code.
pub fn check_entry_points(rel_path: &str, analysis: &Analysis) -> Vec<Violation> {
    let ctx = analysis.ctx();
    let mut out = Vec::new();
    for si in 0..ctx.sig.len().saturating_sub(1) {
        let callee = ctx.text(si);
        if ctx.kind(si) != TokenKind::Ident
            || !matches!(callee, "scope" | "spawn")
            || !ctx.is_punct(si + 1, '(')
        {
            continue;
        }
        // `fn scope(` declares rather than calls.
        if si > 0 && ctx.text(si - 1) == "fn" {
            continue;
        }
        let line = ctx.line(si);
        if analysis.in_test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line,
            rule: Rule::ParallelEntry,
            message: format!(
                "raw `{callee}(…)` call — fan work out through `rayon::map_chunks` \
                 (or `map_chunks_mut`/`map_ranges`/`join`), the one way into \
                 parallelism"
            ),
            line_text: analysis.raw.get(line - 1).cloned().unwrap_or_default(),
        });
    }
    out
}

fn check_relaxed(rel_path: &str, analysis: &Analysis, ctx: &Ctx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for si in 2..ctx.sig.len() {
        if ctx.kind(si) != TokenKind::Ident || ctx.text(si) != "Relaxed" {
            continue;
        }
        if !(ctx.is_punct(si - 1, ':')
            && ctx.is_punct(si - 2, ':')
            && si >= 3
            && ctx.kind(si - 3) == TokenKind::Ident
            && ctx.text(si - 3) == "Ordering")
        {
            continue;
        }
        let line = ctx.line(si);
        if analysis.in_test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        if analysis.line_has_annotation(line, RELAXED_ANNOTATION) {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line,
            rule: Rule::RelaxedOrdering,
            message: "`Ordering::Relaxed` provides no happens-before edge — justify it \
                      with `// lint: relaxed-ok (<reason>)` or use Acquire/Release"
                .to_string(),
            line_text: analysis.raw.get(line - 1).cloned().unwrap_or_default(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Violation> {
        check_file("crates/hdc/src/lib.rs", &Analysis::new(src))
    }

    #[test]
    fn outer_capture_mutation_in_scope_closure_is_flagged() {
        let src = "fn f() {\n\
                       let mut hits = 0u64;\n\
                       rayon::scope(|s| {\n\
                           s.spawn(|_| { hits += 1; });\n\
                       });\n\
                   }\n";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ConcurrencyCapture);
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("hits"));
    }

    #[test]
    fn per_task_scratch_bound_inside_the_region_is_clean() {
        let src = "fn f(out: &mut [u64], n: usize) {\n\
                       rayon::scope(|s| {\n\
                           for chunk in out.chunks_mut(n) {\n\
                               s.spawn(move |_| {\n\
                                   let mut acc = 0;\n\
                                   acc += 1;\n\
                                   chunk[0] = acc;\n\
                               });\n\
                           }\n\
                       });\n\
                   }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn slot_deref_writes_to_region_bound_names_are_clean() {
        let src = "fn f(slots: &mut [Vec<u32>], rows: &[u32]) {\n\
                       rayon::scope(|s| {\n\
                           for (slot, chunk) in slots.iter_mut().zip(rows.chunks(2)) {\n\
                               s.spawn(move |_| { *slot = chunk.to_vec(); });\n\
                           }\n\
                       });\n\
                   }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn lock_guarded_mutation_is_clean() {
        let src = "fn f(m: &std::sync::Mutex<u64>) {\n\
                       rayon::scope(|s| {\n\
                           s.spawn(|_| { *m.lock().unwrap_or_else(|e| e.into_inner()) = 3; });\n\
                       });\n\
                   }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn annotation_waives_the_capture() {
        let src = "fn f() {\n\
                       let mut hits = 0u64;\n\
                       rayon::scope(|s| {\n\
                           // lint: capture-ok (single spawn: no concurrent writer exists)\n\
                           s.spawn(|_| { hits += 1; });\n\
                       });\n\
                   }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn relaxed_ordering_requires_a_reason() {
        let bad = "fn f(c: &std::sync::atomic::AtomicU64) {\n\
                       c.fetch_add(1, Ordering::Relaxed);\n\
                   }\n";
        let v = check(bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RelaxedOrdering);
        assert_eq!(v[0].line, 2);

        let good = "fn f(c: &std::sync::atomic::AtomicU64) {\n\
                        // lint: relaxed-ok (monotone counter; no ordering needed)\n\
                        c.fetch_add(1, Ordering::Relaxed);\n\
                    }\n";
        assert!(check(good).is_empty());
    }

    #[test]
    fn relaxed_in_strings_comments_and_tests_is_invisible() {
        let src = "fn f() -> &'static str {\n\
                       // Ordering::Relaxed in a comment\n\
                       \"Ordering::Relaxed in a string\"\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n\
                   }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn raw_scope_and_spawn_calls_are_flagged_outside_tests() {
        let src = "fn f(xs: &mut [u64]) {\n\
                       rayon::scope(|s| {\n\
                           s.spawn(|_| {});\n\
                       });\n\
                       std::thread::spawn(|| {});\n\
                   }\n\
                   pub fn scope(x: u32) -> u32 { x }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n\
                   }\n";
        let v = check_entry_points("crates/hdc/src/lib.rs", &Analysis::new(src));
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 5], "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::ParallelEntry));
        assert!(v[0].message.contains("`scope(…)`"));
    }

    #[test]
    fn the_fan_out_helper_is_the_allowed_entry_and_a_capture_region() {
        let clean = "fn f(xs: &[u64]) -> Vec<u64> {\n\
                         rayon::map_chunks(xs, 1, |_, c| c.iter().sum())\n\
                     }\n";
        assert!(check_entry_points("crates/hdc/src/lib.rs", &Analysis::new(clean)).is_empty());
        let racy = "fn f(xs: &[u64]) {\n\
                        let mut total = 0;\n\
                        rayon::map_ranges(xs.len(), 1, |r| { total += r.len(); });\n\
                    }\n";
        let v = check(racy);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ConcurrencyCapture);
        assert!(v[0].message.contains("map_ranges"));
    }

    #[test]
    fn a_mutable_slice_lent_to_the_helper_is_not_a_capture() {
        let src = "fn f(rows: &mut Vec<u64>) {\n\
                       rayon::map_chunks_mut(&mut rows[..], 1, |_, c| c.fill(0));\n\
                       rayon::map_ranges(4, 1, |_| helper(&mut rows));\n\
                   }\n";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("rows"));
    }

    #[test]
    fn comparisons_inside_regions_are_not_assignments() {
        let src = "fn f(xs: &[u64]) -> bool {\n\
                       let mut any = false;\n\
                       rayon::scope(|s| {\n\
                           s.spawn(|_| { let ok = xs[0] <= 3 && xs[1] >= 2 && xs[2] == 1; drop(ok); });\n\
                       });\n\
                       any\n\
                   }\n";
        let v = check(src);
        assert!(v.is_empty(), "{v:?}");
    }
}
