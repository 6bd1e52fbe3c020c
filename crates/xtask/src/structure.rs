//! Structural recovery on top of the token stream: item boundaries with
//! their `#[cfg(...)]` attributes, function extents, test masking, and the
//! closure regions of parallel call sites (`scope`/`join`/`spawn`/`par_*`).
//!
//! This is still not a parser — no expression trees, no name resolution.
//! It recovers exactly the shape the rules need: which tokens form an item,
//! which cfg gates guard it, where a function's body starts and ends, and
//! which names are bound inside a parallel region (so mutable captures from
//! *outside* the region can be told apart from per-task scratch).

use crate::lex::{LineMap, Token, TokenKind};

/// One `feature = "…"` predicate inside a `#[cfg(...)]` attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgGate {
    /// The feature name.
    pub feature: String,
    /// `true` when the predicate sits under an odd number of `not(...)`s.
    pub negated: bool,
}

/// What kind of item a declaration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Use,
    Struct,
    Enum,
    Mod,
    Trait,
    Impl,
    Type,
    Const,
    Static,
    Macro,
}

/// One recovered item: attributes + declaration + body extent.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Declared name; `None` for `impl` blocks and `use` items.
    pub name: Option<String>,
    /// `pub` in any form (`pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// Parsed `feature = "…"` gates from the item's cfg attributes.
    pub cfg: Vec<CfgGate>,
    /// Guarded by `cfg(test)` (including `all(test, …)` / `any(test, …)`).
    pub is_test_gated: bool,
    /// 1-based line of the first attribute (or the item keyword).
    pub attr_start_line: usize,
    /// 1-based line of the item keyword.
    pub start_line: usize,
    /// 1-based line of the closing `}` or terminating `;`.
    pub end_line: usize,
    /// Normalised signature text for `fn` items: tokens from `fn` to the
    /// body `{` (exclusive), joined with single spaces.
    pub sig_text: Option<String>,
    /// Leaf names exported by a `use` item (`a::b::{c, d as e}` → c, e).
    pub use_names: Vec<String>,
    /// Nesting: 0 = module root of the file, +1 per enclosing mod/impl.
    pub depth: usize,
    /// `true` when every enclosing `mod` is itself `pub` (items inside
    /// `impl` blocks inherit the impl's facade visibility).
    pub parents_pub: bool,
}

/// Extent of one `fn`, found by a flat scan (nested fns included).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub header_line: usize,
    /// 1-based line of the body's opening `{`.
    pub body_start_line: usize,
    /// 1-based line of the body's closing `}`.
    pub end_line: usize,
}

/// One parallel call site: `map_chunks(…)` and its shapes, `scope(…)`,
/// `join(…)`, `spawn(…)` or a `par_*` iterator chain, with everything the
/// capture rule needs.
#[derive(Debug, Clone)]
pub struct ParRegion {
    /// The callee identifier (`scope`, `spawn`, `par_chunks`, …).
    pub callee: String,
    /// 1-based line of the callee.
    pub line: usize,
    /// Significant-token index range of the region (argument list plus any
    /// chained method calls), inclusive of the brackets.
    pub sig_range: (usize, usize),
}

/// Indices of significant tokens: everything except whitespace/comments.
pub fn significant(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect()
}

/// Context shared by the structural passes of one file.
pub struct Ctx<'s> {
    pub src: &'s str,
    pub tokens: &'s [Token],
    /// Indices into `tokens` of significant tokens.
    pub sig: Vec<usize>,
    pub linemap: LineMap,
}

impl<'s> Ctx<'s> {
    pub fn new(src: &'s str, tokens: &'s [Token]) -> Self {
        Self {
            src,
            tokens,
            sig: significant(tokens),
            linemap: LineMap::new(src),
        }
    }

    /// Text of the significant token at sig-index `si`.
    pub fn text(&self, si: usize) -> &'s str {
        self.tokens[self.sig[si]].text(self.src)
    }

    pub fn kind(&self, si: usize) -> TokenKind {
        self.tokens[self.sig[si]].kind
    }

    /// 1-based line of the significant token at sig-index `si`.
    pub fn line(&self, si: usize) -> usize {
        self.linemap.line_of(self.tokens[self.sig[si]].start)
    }

    /// Is the significant token at `si` the single punctuation byte `c`?
    pub fn is_punct(&self, si: usize, c: char) -> bool {
        self.kind(si) == TokenKind::Punct && self.text(si).starts_with(c)
    }

    /// Given the sig-index of an opening bracket, returns the sig-index of
    /// its matching closer, tracking all three bracket kinds jointly.
    pub fn matching_close(&self, open_si: usize) -> Option<usize> {
        let mut depth = 0i64;
        for si in open_si..self.sig.len() {
            if self.kind(si) != TokenKind::Punct {
                continue;
            }
            match self.text(si).as_bytes().first() {
                Some(b'(' | b'[' | b'{') => depth += 1,
                Some(b')' | b']' | b'}') => {
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
}

/// Flat scan for every `fn` with a brace body (trait method signatures
/// terminated by `;` are skipped). Nested fns are found too; callers pick
/// the innermost span containing a line.
pub fn find_fn_spans(ctx: &Ctx<'_>) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for si in 0..ctx.sig.len() {
        if ctx.kind(si) != TokenKind::Ident || ctx.text(si) != "fn" {
            continue;
        }
        let Some(name_si) = (si + 1 < ctx.sig.len()).then_some(si + 1) else {
            continue;
        };
        if ctx.kind(name_si) != TokenKind::Ident {
            continue;
        }
        // Walk to the body `{` (depth 0) or a terminating `;`.
        let mut depth = 0i64;
        let mut body_open = None;
        for sj in name_si + 1..ctx.sig.len() {
            if ctx.kind(sj) != TokenKind::Punct {
                continue;
            }
            match ctx.text(sj).as_bytes().first() {
                Some(b';') if depth == 0 => break,
                Some(b'{') if depth == 0 => {
                    body_open = Some(sj);
                    break;
                }
                Some(b'(' | b'[') => depth += 1,
                Some(b')' | b']') => depth -= 1,
                // `->` return types and generic `<...>` never contain
                // braces at depth 0 before the body in valid code.
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        let Some(close) = ctx.matching_close(open) else {
            continue;
        };
        spans.push(FnSpan {
            name: ctx.text(name_si).to_string(),
            header_line: ctx.line(si),
            body_start_line: ctx.line(open),
            end_line: ctx.line(close),
        });
    }
    spans
}

/// Parses the items of a file, recursing into `mod` and `impl` bodies (but
/// not into function bodies or struct/enum definitions).
pub fn parse_items(ctx: &Ctx<'_>) -> Vec<Item> {
    let mut items = Vec::new();
    parse_items_in(ctx, 0, ctx.sig.len(), 0, true, &mut items);
    items
}

const ITEM_KEYWORDS: [(&str, ItemKind); 11] = [
    ("fn", ItemKind::Fn),
    ("use", ItemKind::Use),
    ("struct", ItemKind::Struct),
    ("enum", ItemKind::Enum),
    ("mod", ItemKind::Mod),
    ("trait", ItemKind::Trait),
    ("impl", ItemKind::Impl),
    ("type", ItemKind::Type),
    ("const", ItemKind::Const),
    ("static", ItemKind::Static),
    ("macro_rules", ItemKind::Macro),
];

#[allow(clippy::too_many_lines)]
fn parse_items_in(
    ctx: &Ctx<'_>,
    start: usize,
    end: usize,
    depth: usize,
    parents_pub: bool,
    out: &mut Vec<Item>,
) {
    let mut si = start;
    while si < end {
        // Collect leading attributes.
        let attr_start = si;
        let mut cfg = Vec::new();
        let mut is_test_gated = false;
        while si + 1 < end && ctx.is_punct(si, '#') {
            // `#[...]` or `#![...]`
            let bracket = if ctx.is_punct(si + 1, '!') {
                si + 2
            } else {
                si + 1
            };
            if bracket >= end || !ctx.is_punct(bracket, '[') {
                si += 1;
                continue;
            }
            let Some(close) = ctx.matching_close(bracket) else {
                return;
            };
            let (gates, test) = parse_cfg_attr(ctx, bracket + 1, close);
            cfg.extend(gates);
            is_test_gated |= test;
            si = close + 1;
        }
        if si >= end {
            return;
        }
        // Optional visibility.
        let mut is_pub = false;
        if ctx.kind(si) == TokenKind::Ident && ctx.text(si) == "pub" {
            is_pub = true;
            si += 1;
            if si < end && ctx.is_punct(si, '(') {
                let Some(close) = ctx.matching_close(si) else {
                    return;
                };
                si = close + 1;
            }
        }
        // Skip modifiers before the item keyword.
        while si < end
            && ctx.kind(si) == TokenKind::Ident
            && matches!(
                ctx.text(si),
                "unsafe" | "async" | "const" | "extern" | "default"
            )
        {
            // `const` is both a modifier (`const fn`) and an item keyword
            // (`const X: u32 = …`): treat it as an item unless a `fn`
            // follows within the next two tokens (allowing `const unsafe`).
            if ctx.text(si) == "const" {
                let followed_by_fn = (si + 1..=(si + 2).min(end.saturating_sub(1)))
                    .any(|sj| ctx.kind(sj) == TokenKind::Ident && ctx.text(sj) == "fn");
                if !followed_by_fn {
                    break;
                }
            }
            if ctx.text(si) == "extern" && si + 1 < end && ctx.kind(si + 1) == TokenKind::Str {
                si += 2; // `extern "C" fn`
            } else {
                si += 1;
            }
        }
        if si >= end {
            return;
        }
        let keyword = ctx.text(si);
        let Some(&(_, kind)) = ITEM_KEYWORDS
            .iter()
            .find(|(k, _)| ctx.kind(si) == TokenKind::Ident && *k == keyword)
        else {
            // Not an item start (an expression, a brace, a stray token):
            // resynchronise at the next `;` or balanced `}` sibling.
            si = skip_statement(ctx, si, end);
            continue;
        };
        let kw_si = si;
        si += 1;
        // Name (not for impl/use; macro_rules has a `!` before the name).
        let mut name = None;
        if kind == ItemKind::Macro && si < end && ctx.is_punct(si, '!') {
            si += 1;
        }
        if !matches!(kind, ItemKind::Impl | ItemKind::Use)
            && si < end
            && ctx.kind(si) == TokenKind::Ident
        {
            name = Some(ctx.text(si).to_string());
        }
        // Find the item's extent: first `{` at depth 0 opens the body,
        // a `;` at depth 0 ends a body-less item. `=` at depth 0 (type
        // alias, const) means the `;` form.
        let mut bdepth = 0i64;
        let mut body_open = None;
        let mut item_end = None;
        let mut sj = kw_si + 1;
        while sj < end {
            if ctx.kind(sj) == TokenKind::Punct {
                match ctx.text(sj).as_bytes().first() {
                    Some(b';') if bdepth == 0 => {
                        item_end = Some(sj);
                        break;
                    }
                    Some(b'{')
                        if bdepth == 0
                            && !matches!(
                                kind,
                                ItemKind::Const | ItemKind::Static | ItemKind::Type
                            ) =>
                    {
                        body_open = Some(sj);
                        break;
                    }
                    Some(b'(' | b'[' | b'{') => bdepth += 1,
                    Some(b')' | b']' | b'}') => bdepth -= 1,
                    _ => {}
                }
            }
            sj += 1;
        }
        let (end_si, body) = match (body_open, item_end) {
            (Some(open), _) => match ctx.matching_close(open) {
                Some(close) => (close, Some((open, close))),
                None => return,
            },
            (None, Some(e)) => (e, None),
            (None, None) => return,
        };
        let sig_text = (kind == ItemKind::Fn).then(|| {
            (kw_si..body.map_or(end_si, |(open, _)| open))
                .map(|k| ctx.text(k))
                .collect::<Vec<_>>()
                .join(" ")
        });
        let use_names = if kind == ItemKind::Use {
            use_leaf_names(ctx, kw_si + 1, end_si)
        } else {
            Vec::new()
        };
        out.push(Item {
            kind,
            name,
            is_pub,
            cfg,
            is_test_gated,
            attr_start_line: ctx.line(attr_start.min(kw_si)),
            start_line: ctx.line(kw_si),
            end_line: ctx.line(end_si),
            sig_text,
            use_names,
            depth,
            parents_pub,
        });
        // Recurse into mod/impl bodies to find nested items.
        if let Some((open, close)) = body {
            if matches!(kind, ItemKind::Mod | ItemKind::Impl) {
                let child_parents_pub = parents_pub && (kind == ItemKind::Impl || is_pub);
                parse_items_in(ctx, open + 1, close, depth + 1, child_parents_pub, out);
            }
        }
        si = end_si + 1;
    }
}

/// Skips a non-item statement: advances past the next `;` at depth 0 or a
/// balanced brace group, whichever comes first.
fn skip_statement(ctx: &Ctx<'_>, start: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut si = start;
    while si < end {
        if ctx.kind(si) == TokenKind::Punct {
            match ctx.text(si).as_bytes().first() {
                Some(b';') if depth == 0 => return si + 1,
                Some(b'(' | b'[' | b'{') => depth += 1,
                Some(b')' | b']' | b'}') => {
                    depth -= 1;
                    if depth == 0 && ctx.text(si).starts_with('}') {
                        return si + 1;
                    }
                    if depth < 0 {
                        return si + 1;
                    }
                }
                _ => {}
            }
        }
        si += 1;
    }
    end
}

/// Parses one attribute's tokens (between `[` and `]`) for cfg gates.
/// Returns the feature gates and whether the attribute test-gates the item.
fn parse_cfg_attr(ctx: &Ctx<'_>, start: usize, end: usize) -> (Vec<CfgGate>, bool) {
    if start >= end || ctx.kind(start) != TokenKind::Ident || ctx.text(start) != "cfg" {
        return (Vec::new(), false);
    }
    let mut gates = Vec::new();
    let mut test = false;
    // Walk the predicate tracking `not(` nesting. `not_depth` counts how
    // many enclosing not-groups are open; a gate under an odd count is
    // negated. Paren closes pop not-levels recorded on a stack.
    let mut not_stack: Vec<usize> = Vec::new(); // paren depth at each `not(`
    let mut paren_depth = 0usize;
    let mut si = start + 1;
    while si < end {
        match ctx.kind(si) {
            TokenKind::Punct if ctx.is_punct(si, '(') => paren_depth += 1,
            TokenKind::Punct if ctx.is_punct(si, ')') => {
                paren_depth = paren_depth.saturating_sub(1);
                while not_stack.last().is_some_and(|&d| d > paren_depth) {
                    not_stack.pop();
                }
            }
            TokenKind::Ident
                if ctx.text(si) == "not" && si + 1 < end && ctx.is_punct(si + 1, '(') =>
            {
                not_stack.push(paren_depth + 1);
            }
            TokenKind::Ident if ctx.text(si) == "test" && not_stack.is_empty() => {
                test = true;
            }
            TokenKind::Ident
                if ctx.text(si) == "feature"
                    && si + 2 < end
                    && ctx.is_punct(si + 1, '=')
                    && ctx.kind(si + 2) == TokenKind::Str =>
            {
                let lit = ctx.text(si + 2);
                let feature = lit.trim_matches('"').to_string();
                gates.push(CfgGate {
                    feature,
                    negated: !not_stack.is_empty(),
                });
            }
            _ => {}
        }
        si += 1;
    }
    (gates, test)
}

/// Leaf names a `use` item brings into scope: `a::b::{c, d as e, f::g}` →
/// `[c, e, g]`. `*` globs yield no names.
fn use_leaf_names(ctx: &Ctx<'_>, start: usize, end: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut last_ident: Option<&str> = None;
    let mut si = start;
    while si < end {
        match ctx.kind(si) {
            // `x as y`: the alias replaces the original leaf.
            TokenKind::Ident
                if ctx.text(si) == "as" && si + 1 < end && ctx.kind(si + 1) == TokenKind::Ident =>
            {
                last_ident = Some(ctx.text(si + 1));
                si += 2;
                continue;
            }
            TokenKind::Ident => last_ident = Some(ctx.text(si)),
            TokenKind::Punct => match ctx.text(si).as_bytes().first() {
                Some(b',' | b'}') => {
                    if let Some(n) = last_ident.take() {
                        names.push(n.to_string());
                    }
                }
                Some(b'{') => last_ident = None,
                _ => {}
            },
            _ => {}
        }
        si += 1;
    }
    if let Some(n) = last_ident.take() {
        names.push(n.to_string());
    }
    names
}

/// Per-line test mask derived from test-gated items.
pub fn test_mask(_ctx: &Ctx<'_>, items: &[Item], n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    for item in items {
        if item.is_test_gated {
            let lo = item.attr_start_line.saturating_sub(1);
            let hi = item.end_line.min(n_lines);
            for m in &mut mask[lo..hi] {
                *m = true;
            }
        }
    }
    mask
}

/// Callee names that open a parallel region.
fn is_parallel_callee(name: &str) -> bool {
    matches!(
        name,
        "scope"
            | "join"
            | "spawn"
            | "in_place_scope"
            | "spawn_broadcast"
            | "map_chunks"
            | "map_chunks_mut"
            | "map_ranges"
    ) || name.starts_with("par_")
        || name == "into_par_iter"
}

/// Finds parallel call-site regions, keeping only the outermost ones
/// (a `spawn` inside a `scope` is part of the scope's region).
pub fn parallel_regions(ctx: &Ctx<'_>) -> Vec<ParRegion> {
    let mut regions: Vec<ParRegion> = Vec::new();
    for si in 0..ctx.sig.len() {
        if ctx.kind(si) != TokenKind::Ident || !is_parallel_callee(ctx.text(si)) {
            continue;
        }
        let Some(open) = (si + 1 < ctx.sig.len() && ctx.is_punct(si + 1, '(')).then_some(si + 1)
        else {
            continue;
        };
        let Some(mut close) = ctx.matching_close(open) else {
            continue;
        };
        // Extend through chained method calls: `.map(|x| …).sum()`.
        let mut sj = close + 1;
        while sj + 2 < ctx.sig.len()
            && ctx.is_punct(sj, '.')
            && ctx.kind(sj + 1) == TokenKind::Ident
        {
            if ctx.is_punct(sj + 2, '(') {
                match ctx.matching_close(sj + 2) {
                    Some(c) => {
                        close = c;
                        sj = c + 1;
                    }
                    None => break,
                }
            } else {
                sj += 2; // field access / turbofish-less path step
            }
        }
        // Keep only if not contained in an already-recorded region.
        if regions
            .iter()
            .any(|r| r.sig_range.0 <= open && close <= r.sig_range.1)
        {
            continue;
        }
        regions.push(ParRegion {
            callee: ctx.text(si).to_string(),
            line: ctx.line(si),
            sig_range: (open, close),
        });
    }
    regions
}

/// Names bound *inside* a region: `let` patterns, `for` patterns, and
/// closure parameters. Anything mutated inside the region that is not in
/// this set (and not lock/atomic-mediated) is a cross-thread capture.
pub fn bound_names(ctx: &Ctx<'_>, range: (usize, usize)) -> Vec<String> {
    let (start, end) = range;
    let mut names = Vec::new();
    let mut si = start;
    while si <= end {
        if ctx.kind(si) == TokenKind::Ident {
            match ctx.text(si) {
                "let" => {
                    // Collect pattern idents until `=` or `;`.
                    let mut sj = si + 1;
                    while sj <= end && !ctx.is_punct(sj, '=') && !ctx.is_punct(sj, ';') {
                        if ctx.kind(sj) == TokenKind::Ident
                            && !matches!(ctx.text(sj), "mut" | "ref")
                        {
                            names.push(ctx.text(sj).to_string());
                        }
                        sj += 1;
                    }
                    si = sj;
                    continue;
                }
                "for" => {
                    let mut sj = si + 1;
                    while sj <= end && !(ctx.kind(sj) == TokenKind::Ident && ctx.text(sj) == "in") {
                        if ctx.kind(sj) == TokenKind::Ident
                            && !matches!(ctx.text(sj), "mut" | "ref")
                        {
                            names.push(ctx.text(sj).to_string());
                        }
                        sj += 1;
                    }
                    si = sj;
                    continue;
                }
                _ => {}
            }
        }
        // Closure parameter lists: a `|` in closure-head position.
        if ctx.is_punct(si, '|') && closure_head(ctx, si, start) {
            let mut sj = si + 1;
            while sj <= end && !ctx.is_punct(sj, '|') {
                if ctx.kind(sj) == TokenKind::Ident && !matches!(ctx.text(sj), "mut" | "ref") {
                    names.push(ctx.text(sj).to_string());
                }
                sj += 1;
            }
            si = sj + 1;
            continue;
        }
        si += 1;
    }
    names
}

/// Is the `|` at sig-index `si` the start of a closure parameter list
/// (rather than a bitwise/pattern or)? True after `(`, `,`, `=`, `{`, `;`,
/// `move`, `return`, `=>`, `&&`, `||` or at the region start.
fn closure_head(ctx: &Ctx<'_>, si: usize, region_start: usize) -> bool {
    if si == 0 || si == region_start {
        return true;
    }
    let prev = si - 1;
    match ctx.kind(prev) {
        TokenKind::Ident => matches!(ctx.text(prev), "move" | "return" | "else" | "in"),
        TokenKind::Punct => matches!(
            ctx.text(prev).as_bytes().first(),
            Some(b'(' | b',' | b'=' | b'{' | b';' | b'>' | b'&' | b'|' | b':')
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn with_ctx<T>(src: &str, f: impl FnOnce(&Ctx<'_>) -> T) -> T {
        let tokens = lex(src);
        let ctx = Ctx::new(src, &tokens);
        f(&ctx)
    }

    #[test]
    fn items_with_cfg_gates_are_recovered() {
        let src = "#[cfg(feature = \"obs\")]\n\
                   pub use hyperfex_obs::{span, counter_add, SpanGuard};\n\
                   #[cfg(not(feature = \"obs\"))]\n\
                   mod noop {\n\
                       pub fn span(_name: &'static str) {}\n\
                   }\n\
                   #[cfg(not(feature = \"obs\"))]\n\
                   pub use noop::{span, counter_add, SpanGuard};\n";
        with_ctx(src, |ctx| {
            let items = parse_items(ctx);
            let uses: Vec<&Item> = items.iter().filter(|i| i.kind == ItemKind::Use).collect();
            assert_eq!(uses.len(), 2);
            assert_eq!(
                uses[0].cfg,
                vec![CfgGate {
                    feature: "obs".into(),
                    negated: false
                }]
            );
            assert_eq!(uses[0].use_names, ["span", "counter_add", "SpanGuard"]);
            assert_eq!(
                uses[1].cfg,
                vec![CfgGate {
                    feature: "obs".into(),
                    negated: true
                }]
            );
            assert_eq!(uses[1].use_names, ["span", "counter_add", "SpanGuard"]);
            // The fn inside the private noop mod is depth 1, parents not pub.
            let f = items.iter().find(|i| i.kind == ItemKind::Fn).unwrap();
            assert_eq!(f.depth, 1);
            assert!(!f.parents_pub);
        });
    }

    #[test]
    fn impl_methods_keep_facade_visibility() {
        let src = "impl Foo {\n\
                       #[cfg(feature = \"fault-injection\")]\n\
                       pub fn raw_words_mut(&mut self) -> &mut [u64] { &mut self.words }\n\
                       fn private_helper(&self) {}\n\
                   }\n";
        with_ctx(src, |ctx| {
            let items = parse_items(ctx);
            let m = items
                .iter()
                .find(|i| i.name.as_deref() == Some("raw_words_mut"))
                .unwrap();
            assert!(m.is_pub && m.parents_pub);
            assert_eq!(m.cfg.len(), 1);
            assert!(!m.cfg[0].negated);
            assert!(m.sig_text.as_deref().unwrap().contains("raw_words_mut"));
        });
    }

    #[test]
    fn cfg_test_items_mask_their_lines() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() {}\n\
                   }\n";
        with_ctx(src, |ctx| {
            let items = parse_items(ctx);
            let mask = test_mask(ctx, &items, 5);
            assert_eq!(mask, [false, true, true, true, true]);
        });
    }

    #[test]
    fn cfg_all_test_and_not_feature_parse() {
        let src = "#[cfg(all(test, feature = \"fault-injection\"))]\nmod tests {}\n\
                   #[cfg(not(feature = \"obs\"))]\nfn shim() {}\n";
        with_ctx(src, |ctx| {
            let items = parse_items(ctx);
            assert!(items[0].is_test_gated);
            assert_eq!(
                items[0].cfg,
                vec![CfgGate {
                    feature: "fault-injection".into(),
                    negated: false
                }]
            );
            assert!(!items[1].is_test_gated);
            assert!(items[1].cfg[0].negated);
        });
    }

    #[test]
    fn fn_spans_cover_bodies_and_skip_trait_signatures() {
        let src = "trait T {\n    fn sig(&self) -> u32;\n}\n\
                   fn top(x: u32) -> u32 {\n    let y = x + 1;\n    y\n}\n";
        with_ctx(src, |ctx| {
            let spans = find_fn_spans(ctx);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].name, "top");
            assert_eq!(spans[0].header_line, 4);
            assert_eq!(spans[0].end_line, 7);
        });
    }

    #[test]
    fn parallel_regions_find_scope_and_chains() {
        let src = "fn f(xs: &mut [u32]) {\n\
                       rayon::scope(|s| {\n\
                           for chunk in xs.chunks_mut(4) {\n\
                               s.spawn(move |_| { chunk[0] = 1; });\n\
                           }\n\
                       });\n\
                   }\n";
        with_ctx(src, |ctx| {
            let regions = parallel_regions(ctx);
            // spawn is nested inside scope: only the outer region remains.
            assert_eq!(regions.len(), 1);
            assert_eq!(regions[0].callee, "scope");
            let bound = bound_names(ctx, regions[0].sig_range);
            assert!(bound.contains(&"s".to_string()));
            assert!(bound.contains(&"chunk".to_string()));
        });
    }

    #[test]
    fn bound_names_cover_let_for_and_closure_params() {
        let src = "scope(|s| { let mut acc = 0; for (i, x) in ys.iter().enumerate() { } })";
        with_ctx(src, |ctx| {
            let regions = parallel_regions(ctx);
            let bound = bound_names(ctx, regions[0].sig_range);
            for n in ["s", "acc", "i", "x"] {
                assert!(bound.contains(&n.to_string()), "missing {n} in {bound:?}");
            }
        });
    }
}
