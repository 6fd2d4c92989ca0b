//! Tolerant recursive-descent parser: token stream → [`crate::ast`].
//!
//! Design rules, in priority order:
//!
//! 1. **Terminate.** Every loop provably consumes a token or exits; a
//!    stall-failsafe `bump` backs up each loop besides.
//! 2. **Never hide a gap.** Inside function bodies, anything the grammar
//!    subset cannot model (an exotic statement, expression or macro tail)
//!    becomes an `Opaque` node, so lost coverage shows in the tree.
//!    Attributes, generics and where clauses are skipped: no lint reads
//!    them.
//! 3. **Model what lints need.** Calls, method calls, casts, arithmetic,
//!    field/index access, control flow, `let` bindings, macro arguments,
//!    signatures and struct field types. Everything else may be
//!    approximate.
//!
//! The lexer emits *single-character* punctuation, so multi-character
//! operators (`::`, `->`, `<<`, `..=`, …) are reassembled here by source
//! adjacency (same line, contiguous columns).

use crate::ast::*;
use crate::lexer::{Tok, TokKind};

/// Parse one file's token stream (comments included) into an AST.
pub fn parse(toks: &[Tok]) -> File {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut p = Parser { toks, code, i: 0 };
    let mut items = Vec::new();
    while !p.eof() {
        let before = p.i;
        items.push(p.parse_item());
        if p.i == before {
            let t = p.bump();
            items.push(Item::Other(Span::tok(t)));
        }
    }
    File { items }
}

struct Parser<'a> {
    toks: &'a [Tok],
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    /// Cursor into `code`.
    i: usize,
}

const ITEM_KWS: [&str; 12] = [
    "fn",
    "struct",
    "enum",
    "impl",
    "trait",
    "mod",
    "use",
    "static",
    "const",
    "type",
    "union",
    "macro_rules",
];

impl Parser<'_> {
    // ----- cursor primitives -------------------------------------------

    fn eof(&self) -> bool {
        self.i >= self.code.len()
    }

    fn peek(&self, k: usize) -> Option<&Tok> {
        self.code.get(self.i + k).map(|&j| &self.toks[j])
    }

    fn peek_text(&self, k: usize) -> Option<&str> {
        self.peek(k).map(|t| t.text.as_str())
    }

    /// Full-stream token index of `code[i + k]` (clamped at the last token).
    fn tokidx(&self, k: usize) -> usize {
        self.code
            .get(self.i + k)
            .copied()
            .unwrap_or_else(|| self.toks.len().saturating_sub(1))
    }

    /// Full-stream index of the most recently consumed code token.
    fn prev_tokidx(&self) -> usize {
        self.i
            .checked_sub(1)
            .and_then(|p| self.code.get(p).copied())
            .unwrap_or(0)
    }

    fn bump(&mut self) -> usize {
        let j = self.tokidx(0);
        if self.i < self.code.len() {
            self.i += 1;
        }
        j
    }

    fn advance(&mut self, n: usize) {
        self.i = (self.i + n).min(self.code.len());
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_kw(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Are code tokens `i+k-1` and `i+k` adjacent in the source (no
    /// whitespace/comment between them)?
    fn adjacent(&self, k: usize) -> bool {
        let (Some(a), Some(b)) = (self.peek(k - 1), self.peek(k)) else {
            return false;
        };
        a.line == b.line && b.col == a.col + a.text.chars().count() as u32
    }

    /// The multi-character operator starting at the cursor, if any,
    /// longest match first. Returns `(text, token count)`.
    fn op_at(&self) -> Option<(&'static str, usize)> {
        const OPS: [&str; 24] = [
            "<<=", ">>=", "..=", "...", "<<", ">>", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
            "&=", "|=", "^=", "->", "=>", "::", "..",
        ];
        let t0 = self.peek(0)?;
        if t0.kind != TokKind::Punct {
            return None;
        }
        'op: for op in OPS {
            let n = op.len();
            for (k, want) in op.chars().enumerate() {
                if k > 0 && !self.adjacent(k) {
                    continue 'op;
                }
                if !self.peek(k).is_some_and(|t| t.is_punct(want)) {
                    continue 'op;
                }
            }
            return Some((op, n));
        }
        None
    }

    fn at_op(&self, s: &str) -> bool {
        self.op_at().is_some_and(|(op, _)| op == s)
    }

    fn eat_op(&mut self, s: &str) -> bool {
        if let Some((op, n)) = self.op_at() {
            if op == s {
                self.advance(n);
                return true;
            }
        }
        false
    }

    /// Cursor is at the opening delimiter of a `name!` body. `(…)` and
    /// `{…}` bodies parse as comma-separated expressions (assert operands,
    /// format strings and their arguments); `[…]` bodies as an array or
    /// repeat expression (`vec![x; n]` yields element and count).
    /// `matches!` takes its scrutinee, then a pattern and an optional
    /// guard expression. A tail the grammar cannot model becomes one
    /// trailing `Expr::Opaque` argument. Consumes through the matching
    /// closer; returns the arguments and the body span (delimiters
    /// included).
    fn parse_macro_body(&mut self, name: &str, open: char, close: char) -> (Vec<Expr>, Span) {
        let start = self.bump();
        let mut args = Vec::new();
        while !self.eof() && !self.at_punct(close) {
            let (before, parsed) = (self.i, args.len());
            if name == "matches" && parsed == 1 {
                self.parse_pattern(&["if"]);
                if self.at_kw("if") {
                    self.bump();
                    args.push(self.parse_expr(0, true));
                }
            } else {
                args.push(self.parse_expr(0, true));
            }
            if self.i > before && (self.eat_punct(',') || (open == '[' && self.eat_punct(';'))) {
                continue;
            }
            if self.at_punct(close) {
                break;
            }
            // Single-pass, no rewind: the partially consumed argument
            // and the rest of the body become one opaque span.
            args.truncate(parsed);
            if self.i == before {
                self.bump();
            }
            let s = self.code.get(before).copied().unwrap_or(start);
            args.push(Expr::Opaque(Span {
                start: s,
                end: self.consume_to_group_close(open, close),
            }));
        }
        self.eat_punct(close);
        let span = Span {
            start,
            end: self.prev_tokidx(),
        };
        (args, span)
    }

    /// Consume up to (not including) the `close` that ends the group the
    /// cursor is inside of; returns the last consumed token index.
    fn consume_to_group_close(&mut self, open: char, close: char) -> usize {
        let mut depth = 0i32;
        while !self.eof() {
            if self.at_punct(open) {
                depth += 1;
            } else if self.at_punct(close) {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            self.bump();
        }
        self.prev_tokidx()
    }

    /// Consume a balanced `open … close` group (other delimiters pass
    /// through freely). Assumes the cursor is at `open`. Returns the span.
    fn skip_group(&mut self, open: char, close: char) -> Span {
        let start = self.tokidx(0);
        let mut depth = 0i32;
        while !self.eof() {
            if self.at_punct(open) {
                depth += 1;
            } else if self.at_punct(close) {
                depth -= 1;
                if depth == 0 {
                    let end = self.bump();
                    return Span { start, end };
                }
            }
            self.bump();
        }
        Span {
            start,
            end: self.prev_tokidx(),
        }
    }

    /// Consume a generics/turbofish group starting at `<`, tolerating
    /// `->` inside (`Fn() -> T` bounds) and nested groups.
    fn skip_angles(&mut self) -> Span {
        let start = self.tokidx(0);
        let mut depth = 0i32;
        while !self.eof() {
            if self.at_punct('-') && self.adjacent(1) && self.peek(1).is_some_and(|t| t.is_punct('>')) {
                self.advance(2);
                continue;
            }
            if self.at_punct('<') {
                depth += 1;
            } else if self.at_punct('>') {
                depth -= 1;
                if depth == 0 {
                    let end = self.bump();
                    return Span { start, end };
                }
            }
            self.bump();
        }
        Span {
            start,
            end: self.prev_tokidx(),
        }
    }

    /// Skip `#[ … ]` / `#![ … ]` attributes.
    fn skip_attrs(&mut self) {
        while self.at_punct('#') {
            self.bump();
            self.eat_punct('!');
            if self.at_punct('[') {
                self.skip_group('[', ']');
            }
        }
    }

    // ----- items --------------------------------------------------------

    fn parse_item(&mut self) -> Item {
        let start = self.tokidx(0);
        self.skip_attrs();
        if self.at_kw("pub") {
            self.bump();
            if self.at_punct('(') {
                self.skip_group('(', ')');
            }
        }
        // Modifiers that may precede fn / impl / trait.
        let mut k = 0usize;
        loop {
            match self.peek(k) {
                Some(t) if t.kind == TokKind::Str => k += 1, // extern ABI string
                Some(t)
                    if t.kind == TokKind::Ident
                        && matches!(t.text.as_str(), "default" | "const" | "async" | "unsafe" | "extern") =>
                {
                    k += 1
                }
                _ => break,
            }
        }
        match self.peek_text(k) {
            Some("fn") => {
                self.advance(k + 1);
                return self.parse_fn(start);
            }
            Some("impl") => {
                self.advance(k + 1);
                return self.parse_impl(start);
            }
            Some("trait") => {
                self.advance(k + 1);
                return self.parse_trait(start);
            }
            _ => {}
        }
        match self.peek_text(0) {
            Some("mod") => self.parse_mod(start),
            Some("struct") => self.parse_struct(start),
            _ => self.parse_other(start),
        }
    }

    /// Consume an unmodelled item: up to a depth-0 `;`, or through a
    /// depth-0 `{ … }` group (plus a directly trailing `;`).
    fn parse_other(&mut self, start: usize) -> Item {
        let mut depth = 0i32;
        while !self.eof() {
            if depth == 0 && self.at_punct('}') {
                break; // enclosing block's closer — not ours
            }
            let t = self.tokidx(0);
            let tok = &self.toks[t];
            if tok.is_punct('(') || tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') {
                depth -= 1;
            } else if tok.is_punct('{') && depth == 0 {
                self.skip_group('{', '}');
                self.eat_punct(';');
                break;
            } else if tok.is_punct(';') && depth == 0 {
                self.bump();
                break;
            }
            if tok.is_punct('{') || tok.is_punct('}') {
                // inside parens/brackets: plain nesting
                depth += if tok.is_punct('{') { 1 } else { -1 };
            }
            self.bump();
        }
        Item::Other(Span {
            start,
            end: self.prev_tokidx().max(start),
        })
    }

    /// Cursor is just past `fn`.
    fn parse_fn(&mut self, start: usize) -> Item {
        let (name, name_tok) = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                (n, self.bump())
            }
            _ => ("<anon>".to_string(), self.prev_tokidx()),
        };
        if self.at_punct('<') {
            self.skip_angles();
        }
        let params = if self.at_punct('(') {
            self.parse_params()
        } else {
            Vec::new()
        };
        let ret = if self.eat_op("->") {
            Some(self.collect_type(&["{", ";", "where", ","]))
        } else {
            None
        };
        if self.at_kw("where") {
            let mut depth = 0i32;
            while !self.eof() {
                if depth == 0 && (self.at_punct('{') || self.at_punct(';')) {
                    break;
                }
                if self.at_punct('(') || self.at_punct('[') || self.at_punct('<') {
                    depth += 1;
                } else if self.at_punct(')') || self.at_punct(']') || self.at_punct('>') {
                    depth -= 1;
                }
                self.bump();
            }
        }
        let body = if self.at_punct('{') {
            Some(self.parse_block())
        } else {
            self.eat_punct(';');
            None
        };
        Item::Fn(FnItem {
            name,
            name_tok,
            span: Span {
                start,
                end: self.prev_tokidx(),
            },
            params,
            ret,
            body,
        })
    }

    /// Cursor is at `(`.
    fn parse_params(&mut self) -> Vec<Param> {
        self.bump(); // '('
        let mut params = Vec::new();
        while !self.eof() && !self.at_punct(')') {
            let before = self.i;
            self.skip_attrs();
            // Receiver forms: self | mut self | &self | &mut self | &'a self…
            let mut k = 0usize;
            if self.peek(k).is_some_and(|t| t.is_punct('&')) {
                k += 1;
                if self.peek(k).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    k += 1;
                }
            }
            if self.peek(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if self.peek(k).is_some_and(|t| t.is_ident("self")) {
                self.advance(k + 1);
                let ty = if self.eat_punct(':') {
                    Some(self.collect_type(&[",", ")"]))
                } else {
                    None
                };
                params.push(Param {
                    pat: Pat::default(),
                    ty,
                    is_self: true,
                });
            } else {
                let pat = self.parse_pattern(&[":", ",", ")"]);
                let ty = if self.eat_punct(':') {
                    Some(self.collect_type(&[",", ")"]))
                } else {
                    None
                };
                params.push(Param {
                    pat,
                    ty,
                    is_self: false,
                });
            }
            self.eat_punct(',');
            if self.i == before {
                self.bump(); // stall failsafe
            }
        }
        self.eat_punct(')');
        params
    }

    /// Collect a type as raw tokens, stopping at any depth-0 occurrence of
    /// a stop string (single-char puncts or keywords). Angle depth counts;
    /// `->` inside function types passes through.
    fn collect_type(&mut self, stops: &[&str]) -> TypeRef {
        let start = self.tokidx(0);
        let mut toks = Vec::new();
        let mut depth = 0i32;
        while !self.eof() {
            if self.at_punct('-') && self.adjacent(1) && self.peek(1).is_some_and(|t| t.is_punct('>')) {
                toks.push("->".to_string());
                self.advance(2);
                continue;
            }
            let t = self.peek(0).expect("not eof");
            let text = t.text.clone();
            if depth == 0 && stops.contains(&text.as_str()) {
                break;
            }
            match text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => {
                    if depth == 0 {
                        break; // closer of an enclosing group
                    }
                    depth -= 1;
                }
                "{" | "}" | ";" | "=" if depth == 0 => break,
                _ => {}
            }
            toks.push(text);
            self.bump();
        }
        TypeRef {
            toks,
            span: Span {
                start,
                end: self.prev_tokidx().max(start),
            },
        }
    }

    /// Cursor is just past `impl`.
    fn parse_impl(&mut self, start: usize) -> Item {
        if self.at_punct('<') {
            self.skip_angles();
        }
        let first = self.collect_type(&["{", "where", "for"]);
        let (trait_name, self_ty) = if self.at_kw("for") {
            self.bump();
            let second = self.collect_type(&["{", "where"]);
            (
                first.head().map(str::to_string),
                second.head().unwrap_or("<unknown>").to_string(),
            )
        } else {
            (None, first.head().unwrap_or("<unknown>").to_string())
        };
        if self.at_kw("where") {
            while !self.eof() && !self.at_punct('{') {
                self.bump();
            }
        }
        let items = self.parse_braced_items();
        Item::Impl(ImplBlock {
            self_ty,
            trait_name,
            items,
            span: Span {
                start,
                end: self.prev_tokidx(),
            },
        })
    }

    /// Cursor is just past `trait`.
    fn parse_trait(&mut self, start: usize) -> Item {
        let name = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.bump();
                n
            }
            _ => "<anon>".to_string(),
        };
        if self.at_punct('<') {
            self.skip_angles();
        }
        if self.at_punct(':') || self.at_kw("where") {
            let mut depth = 0i32;
            while !self.eof() {
                if depth == 0 && self.at_punct('{') {
                    break;
                }
                if self.at_punct('(') || self.at_punct('[') || self.at_punct('<') {
                    depth += 1;
                } else if self.at_punct(')') || self.at_punct(']') || self.at_punct('>') {
                    depth -= 1;
                }
                self.bump();
            }
        }
        let items = self.parse_braced_items();
        Item::Trait(TraitBlock {
            name,
            items,
            span: Span {
                start,
                end: self.prev_tokidx(),
            },
        })
    }

    /// Cursor is at `mod`.
    fn parse_mod(&mut self, start: usize) -> Item {
        self.bump(); // 'mod'
        let name = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.bump();
                n
            }
            _ => "<anon>".to_string(),
        };
        if self.at_punct('{') {
            let items = self.parse_braced_items();
            Item::Mod(ModBlock {
                name,
                items,
                span: Span {
                    start,
                    end: self.prev_tokidx(),
                },
            })
        } else {
            self.eat_punct(';');
            Item::Other(Span {
                start,
                end: self.prev_tokidx(),
            })
        }
    }

    /// `{ item* }` — consumes both braces.
    fn parse_braced_items(&mut self) -> Vec<Item> {
        let mut items = Vec::new();
        if !self.eat_punct('{') {
            return items;
        }
        while !self.eof() && !self.at_punct('}') {
            let before = self.i;
            items.push(self.parse_item());
            if self.i == before {
                let t = self.bump();
                items.push(Item::Other(Span::tok(t)));
            }
        }
        self.eat_punct('}');
        items
    }

    /// Cursor is at `struct`.
    fn parse_struct(&mut self, start: usize) -> Item {
        self.bump(); // 'struct'
        let name = match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.bump();
                n
            }
            _ => "<anon>".to_string(),
        };
        if self.at_punct('<') {
            self.skip_angles();
        }
        let mut fields = Vec::new();
        if self.at_punct('(') {
            // Tuple struct: fields named "0", "1", …
            self.bump();
            let mut idx = 0usize;
            while !self.eof() && !self.at_punct(')') {
                let before = self.i;
                self.skip_attrs();
                if self.at_kw("pub") {
                    self.bump();
                    if self.at_punct('(') {
                        self.skip_group('(', ')');
                    }
                }
                let ty = self.collect_type(&[",", ")"]);
                fields.push((idx.to_string(), ty));
                idx += 1;
                self.eat_punct(',');
                if self.i == before {
                    self.bump();
                }
            }
            self.eat_punct(')');
            // Optional where clause, then `;`.
            while !self.eof() && !self.at_punct(';') && !self.at_punct('}') {
                self.bump();
            }
            self.eat_punct(';');
        } else {
            if self.at_kw("where") {
                while !self.eof() && !self.at_punct('{') && !self.at_punct(';') {
                    self.bump();
                }
            }
            if self.at_punct('{') {
                self.bump();
                while !self.eof() && !self.at_punct('}') {
                    let before = self.i;
                    self.skip_attrs();
                    if self.at_kw("pub") {
                        self.bump();
                        if self.at_punct('(') {
                            self.skip_group('(', ')');
                        }
                    }
                    if let Some(t) = self.peek(0) {
                        if t.kind == TokKind::Ident {
                            let fname = t.text.clone();
                            self.bump();
                            if self.eat_punct(':') {
                                let ty = self.collect_type(&[",", "}"]);
                                fields.push((fname, ty));
                            }
                        }
                    }
                    self.eat_punct(',');
                    if self.i == before {
                        self.bump();
                    }
                }
                self.eat_punct('}');
            } else {
                self.eat_punct(';'); // unit struct
            }
        }
        Item::Struct(StructDef {
            name,
            fields,
            span: Span {
                start,
                end: self.prev_tokidx(),
            },
        })
    }

    // ----- statements ---------------------------------------------------

    /// Cursor is at `{`.
    fn parse_block(&mut self) -> Block {
        let start = self.tokidx(0);
        self.eat_punct('{');
        let mut stmts = Vec::new();
        while !self.eof() && !self.at_punct('}') {
            let before = self.i;
            stmts.push(self.parse_stmt());
            if self.i == before {
                stmts.push(Stmt::Opaque(Span::tok(self.bump())));
            }
        }
        self.eat_punct('}');
        Block {
            stmts,
            span: Span {
                start,
                end: self.prev_tokidx(),
            },
        }
    }

    fn parse_stmt(&mut self) -> Stmt {
        let start = self.tokidx(0);
        self.skip_attrs();
        if self.eof() || self.at_punct('}') {
            let s = Span {
                start,
                end: self.prev_tokidx().max(start),
            };
            return Stmt::Opaque(s);
        }
        if self.at_punct(';') {
            let t = self.bump();
            return Stmt::Opaque(Span::tok(t));
        }
        if self.at_kw("let") {
            return self.parse_let(start);
        }
        if let Some(t) = self.peek(0) {
            if t.kind == TokKind::Ident && ITEM_KWS.contains(&t.text.as_str()) {
                return Stmt::Item(Box::new(self.parse_item()));
            }
            // `pub` / `unsafe fn` etc. at statement level start items too.
            if t.is_ident("pub") || (t.is_ident("unsafe") && self.peek(1).is_some_and(|n| n.is_ident("fn"))) {
                return Stmt::Item(Box::new(self.parse_item()));
            }
        }
        // Block-leading statements must not take binary continuations
        // (`} *x` is a new statement, not a multiplication). A label
        // (`'outer: loop { … }`) fronts the same block-leading forms.
        let blocky = self.at_punct('{')
            || self
                .peek(0)
                .is_some_and(|t| matches!(t.text.as_str(), "if" | "match" | "while" | "loop" | "for" | "unsafe"))
            || (self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime)
                && self.peek(1).is_some_and(|n| n.is_punct(':')));
        let e = if blocky {
            self.parse_prefix(true)
        } else {
            self.parse_expr(0, true)
        };
        if self.eat_punct(';') || self.at_punct('}') || self.eof() {
            return Stmt::Expr(e);
        }
        if blocky
            || matches!(
                e,
                Expr::If { .. }
                    | Expr::Match { .. }
                    | Expr::While { .. }
                    | Expr::Loop { .. }
                    | Expr::For { .. }
                    | Expr::BlockExpr(_)
            )
        {
            return Stmt::Expr(e);
        }
        // Trailing tokens we don't understand: degrade the statement to an
        // opaque span through the next sync point.
        self.sync();
        Stmt::Opaque(Span {
            start,
            end: self.prev_tokidx().max(start),
        })
    }

    /// Consume up to and including a depth-0 `;`, or stop before a
    /// depth-0 closer.
    fn sync(&mut self) {
        let mut depth = 0i32;
        while !self.eof() {
            if depth == 0 && (self.at_punct('}') || self.at_punct(')') || self.at_punct(']')) {
                return;
            }
            if self.at_punct('(') || self.at_punct('[') || self.at_punct('{') {
                depth += 1;
            } else if self.at_punct(')') || self.at_punct(']') || self.at_punct('}') {
                depth -= 1;
            } else if self.at_punct(';') && depth == 0 {
                self.bump();
                return;
            }
            self.bump();
        }
    }

    /// Cursor is at `let`.
    fn parse_let(&mut self, start: usize) -> Stmt {
        self.bump(); // 'let'
        let pat = self.parse_pattern(&[":", "=", ";"]);
        let ty = if self.at_punct(':') && !self.at_op("::") {
            self.bump();
            Some(self.collect_type(&["=", ";"]))
        } else {
            None
        };
        let init = if self.at_punct('=') && !self.at_op("==") && !self.at_op("=>") {
            self.bump();
            Some(self.parse_expr(0, true))
        } else {
            None
        };
        let els = if self.at_kw("else") {
            self.bump();
            if self.at_punct('{') {
                Some(self.parse_block())
            } else {
                None
            }
        } else {
            None
        };
        if !self.eat_punct(';') {
            self.sync();
        }
        Stmt::Let {
            pat,
            ty,
            init,
            els,
            span: Span {
                start,
                end: self.prev_tokidx(),
            },
        }
    }

    /// Collect a pattern, stopping at a depth-0 stop string, recording
    /// bound names (lowercase-initial identifiers in binding position).
    fn parse_pattern(&mut self, stops: &[&str]) -> Pat {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while !self.eof() {
            // Multi-char operators inside patterns (`..=`, `..`, `::`) are
            // consumed whole so their pieces don't match stop strings.
            if let Some((op, n)) = self.op_at() {
                if depth == 0 && stops.contains(&op) {
                    break;
                }
                if matches!(op, "..=" | "..." | ".." | "::") {
                    self.advance(n);
                    continue;
                }
            }
            let t = self.peek(0).expect("not eof");
            let text = t.text.clone();
            if depth == 0 && stops.contains(&text.as_str()) {
                break;
            }
            match text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            if t.kind == TokKind::Ident {
                let first = text.chars().next().unwrap_or('_');
                let kw = matches!(
                    text.as_str(),
                    "ref" | "mut" | "box" | "self" | "Self" | "true" | "false" | "if" | "in"
                );
                let binds = (first.is_lowercase() || first == '_') && text != "_" && !kw && {
                    // Not a path segment / call / struct / macro head, and
                    // not a struct field name (`f: pat`).
                    match self.peek(1) {
                        Some(n) if n.is_punct('(') || n.is_punct('{') || n.is_punct('!') => false,
                        Some(n) if n.is_punct(':') => {
                            // `path::seg` never binds and `f: pat` inside
                            // braces is a field label, but a name right
                            // before a depth-0 `:` stop is a typed
                            // binding (`q: Q16`).
                            !self.peek(2).is_some_and(|m| m.is_punct(':')) && depth == 0 && stops.contains(&":")
                        }
                        _ => true,
                    }
                };
                if binds {
                    names.push((text.clone(), self.tokidx(0)));
                }
            }
            self.bump();
        }
        Pat { names }
    }

    // ----- expressions --------------------------------------------------

    /// Pratt parser. `min_bp` — minimum binding power to continue;
    /// `allow_struct` — whether `Path { … }` parses as a struct literal
    /// (false in `if`/`while`/`match`-header positions).
    fn parse_expr(&mut self, min_bp: u8, allow_struct: bool) -> Expr {
        let mut lhs = self.parse_prefix(allow_struct);
        loop {
            if self.at_kw("as") {
                let tok = self.bump();
                let ty = self.take_cast_type();
                lhs = Expr::Cast {
                    expr: Box::new(lhs),
                    ty,
                    tok,
                };
                continue;
            }
            let Some((op_text, ntoks, bp, right_bp, kind)) = self.peek_binop() else {
                break;
            };
            if bp < min_bp {
                break;
            }
            let tok = self.tokidx(0);
            self.advance(ntoks);
            match kind {
                OpKind::Range => {
                    let hi = if self.range_hi_follows(allow_struct) {
                        Some(Box::new(self.parse_expr(right_bp, allow_struct)))
                    } else {
                        None
                    };
                    lhs = Expr::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                        tok,
                    };
                }
                OpKind::Assign => {
                    let value = self.parse_expr(right_bp, allow_struct);
                    lhs = Expr::Assign {
                        target: Box::new(lhs),
                        value: Box::new(value),
                        tok,
                    };
                }
                OpKind::Bin(op) => {
                    let _ = op_text;
                    let rhs = self.parse_expr(right_bp, allow_struct);
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        tok,
                    };
                }
            }
        }
        lhs
    }

    fn peek_binop(&self) -> Option<(&'static str, usize, u8, u8, OpKind)> {
        use BinOp::*;
        // Multi-char first.
        if let Some((op, n)) = self.op_at() {
            let (bp, rbp, kind) = match op {
                "<<" => (60, 61, OpKind::Bin(Shl)),
                ">>" => (60, 61, OpKind::Bin(Shr)),
                "==" | "!=" | "<=" | ">=" => (30, 31, OpKind::Bin(Cmp)),
                "&&" => (20, 21, OpKind::Bin(And)),
                "||" => (15, 16, OpKind::Bin(Or)),
                ".." | "..=" => (10, 11, OpKind::Range),
                "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => (5, 5, OpKind::Assign),
                _ => return None, // "->", "=>", "::", "..."
            };
            return Some((op, n, bp, rbp, kind));
        }
        let t = self.peek(0)?;
        if t.kind != TokKind::Punct {
            return None;
        }
        let c = t.text.chars().next()?;
        let (bp, rbp, kind) = match c {
            '*' => (80, 81, OpKind::Bin(Mul)),
            '/' => (80, 81, OpKind::Bin(Div)),
            '%' => (80, 81, OpKind::Bin(Rem)),
            '+' => (70, 71, OpKind::Bin(Add)),
            '-' => (70, 71, OpKind::Bin(Sub)),
            '&' => (50, 51, OpKind::Bin(BitAnd)),
            '^' => (45, 46, OpKind::Bin(BitXor)),
            '|' => (40, 41, OpKind::Bin(BitOr)),
            '<' | '>' => (30, 31, OpKind::Bin(Cmp)),
            '=' => (5, 5, OpKind::Assign),
            _ => return None,
        };
        Some(("", 1, bp, rbp, kind))
    }

    /// After `..`: does an upper bound follow?
    fn range_hi_follows(&self, allow_struct: bool) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => {
                if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') || t.is_punct(',') || t.is_punct(';') {
                    return false;
                }
                if t.is_punct('{') && !allow_struct {
                    return false;
                }
                if self.at_op("=>") {
                    return false;
                }
                if t.is_punct('=') {
                    return false;
                }
                true
            }
        }
    }

    /// A cast target type: `&`/`*const`/`*mut` prefixes, then a path with
    /// optional generics, or a parenthesised/bracketed type.
    fn take_cast_type(&mut self) -> TypeRef {
        let start = self.tokidx(0);
        let mut toks = Vec::new();
        loop {
            if self.at_punct('&') || self.at_punct('*') {
                toks.push(self.toks[self.bump()].text.clone());
                continue;
            }
            if self.at_kw("mut") || self.at_kw("const") || self.at_kw("dyn") {
                toks.push(self.toks[self.bump()].text.clone());
                continue;
            }
            break;
        }
        if self.at_punct('(') {
            let g = self.skip_group('(', ')');
            for j in g.start..=g.end {
                if !matches!(self.toks[j].kind, TokKind::LineComment | TokKind::BlockComment) {
                    toks.push(self.toks[j].text.clone());
                }
            }
        } else if self.at_punct('[') {
            let g = self.skip_group('[', ']');
            for j in g.start..=g.end {
                if !matches!(self.toks[j].kind, TokKind::LineComment | TokKind::BlockComment) {
                    toks.push(self.toks[j].text.clone());
                }
            }
        } else {
            // Path with optional `::` segments and generics. `as _` too.
            while let Some(t) = self.peek(0) {
                if t.kind == TokKind::Ident {
                    toks.push(t.text.clone());
                    self.bump();
                    if self.at_op("::") {
                        toks.push("::".into());
                        self.advance(2);
                        continue;
                    }
                    if self.at_punct('<') {
                        let g = self.skip_angles();
                        for j in g.start..=g.end {
                            if !matches!(self.toks[j].kind, TokKind::LineComment | TokKind::BlockComment) {
                                toks.push(self.toks[j].text.clone());
                            }
                        }
                    }
                }
                break;
            }
        }
        TypeRef {
            toks,
            span: Span {
                start,
                end: self.prev_tokidx().max(start),
            },
        }
    }

    fn parse_prefix(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Opaque(Span::tok(self.prev_tokidx()));
        };
        match t.kind {
            TokKind::Int => {
                let v = int_value(&t.text);
                let tok = self.bump();
                let e = Expr::Lit {
                    kind: LitKind::Int(v),
                    tok,
                };
                self.parse_postfix(e, allow_struct)
            }
            TokKind::Float => {
                let tok = self.bump();
                let e = Expr::Lit {
                    kind: LitKind::Float,
                    tok,
                };
                self.parse_postfix(e, allow_struct)
            }
            TokKind::Str => {
                let tok = self.bump();
                let e = Expr::Lit {
                    kind: LitKind::Str,
                    tok,
                };
                self.parse_postfix(e, allow_struct)
            }
            TokKind::Lifetime => {
                // Loop label: `'outer: loop { … }`.
                if self.peek(1).is_some_and(|n| n.is_punct(':')) {
                    self.advance(2);
                    return self.parse_prefix(allow_struct);
                }
                Expr::Opaque(Span::tok(self.bump()))
            }
            TokKind::Punct => self.parse_prefix_punct(allow_struct),
            TokKind::Ident => self.parse_prefix_ident(allow_struct),
            TokKind::LineComment | TokKind::BlockComment => {
                // Unreachable: `code` filters comments. Consume defensively.
                Expr::Opaque(Span::tok(self.bump()))
            }
        }
    }

    fn parse_prefix_punct(&mut self, allow_struct: bool) -> Expr {
        // Prefix ranges: `..hi`, `..`, `..=hi`.
        if let Some((op @ (".." | "..="), n)) = self.op_at() {
            let _ = op;
            let tok = self.tokidx(0);
            self.advance(n);
            let hi = if self.range_hi_follows(allow_struct) {
                Some(Box::new(self.parse_expr(11, allow_struct)))
            } else {
                None
            };
            return Expr::Range { lo: None, hi, tok };
        }
        let t = self.peek(0).expect("caller checked");
        let c = t.text.chars().next().unwrap_or(' ');
        match c {
            '(' => {
                self.bump();
                let mut elems = Vec::new();
                let mut trailing = false;
                while !self.eof() && !self.at_punct(')') {
                    let before = self.i;
                    elems.push(self.parse_expr(0, true));
                    trailing = self.eat_punct(',');
                    if self.i == before {
                        self.bump();
                    }
                }
                let tok = self.tokidx(0);
                self.eat_punct(')');
                let e = if elems.len() == 1 && !trailing {
                    elems.pop().expect("len checked")
                } else {
                    Expr::Tuple { elems, tok }
                };
                self.parse_postfix(e, allow_struct)
            }
            '[' => {
                let tok = self.bump();
                let mut elems = Vec::new();
                if !self.at_punct(']') {
                    let first = self.parse_expr(0, true);
                    elems.push(first);
                    if self.eat_punct(';') {
                        elems.push(self.parse_expr(0, true));
                    } else {
                        while self.eat_punct(',') {
                            if self.at_punct(']') {
                                break;
                            }
                            let before = self.i;
                            elems.push(self.parse_expr(0, true));
                            if self.i == before {
                                self.bump();
                            }
                        }
                    }
                }
                self.eat_punct(']');
                self.parse_postfix(Expr::Array { elems, tok }, allow_struct)
            }
            '{' => {
                let b = self.parse_block();
                self.parse_postfix(Expr::BlockExpr(Box::new(b)), allow_struct)
            }
            '&' => {
                let tok = self.bump(); // one '&' — `&&x` recurses
                if self.at_kw("mut") {
                    self.bump();
                }
                let inner = self.parse_expr(81, allow_struct);
                Expr::Ref {
                    expr: Box::new(inner),
                    tok,
                }
            }
            '*' | '-' | '!' => {
                let tok = self.bump();
                let inner = self.parse_expr(81, allow_struct);
                Expr::Unary {
                    op: c,
                    expr: Box::new(inner),
                    tok,
                }
            }
            '|' => self.parse_closure(),
            '<' => {
                // Qualified path `<T>::f` / `<T as Trait>::f`: the
                // segments after the type.
                let tok = self.tokidx(0);
                self.skip_angles();
                if self.at_op("::") && self.peek(2).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.advance(2);
                    self.parse_path_like(allow_struct)
                } else {
                    Expr::Opaque(Span {
                        start: tok,
                        end: self.prev_tokidx(),
                    })
                }
            }
            '#' => {
                self.skip_attrs();
                self.parse_prefix(allow_struct)
            }
            _ => Expr::Opaque(Span::tok(self.bump())),
        }
    }

    fn parse_closure(&mut self) -> Expr {
        let tok = self.tokidx(0);
        let mut params = Vec::new();
        if self.at_op("||") {
            self.advance(2);
        } else {
            self.bump(); // '|'
            while !self.eof() && !self.at_punct('|') {
                let before = self.i;
                let pat = self.parse_pattern(&[":", ",", "|"]);
                if self.at_punct(':') && !self.at_op("::") {
                    self.bump();
                    self.collect_type(&[",", "|"]);
                }
                params.push(pat);
                self.eat_punct(',');
                if self.i == before {
                    self.bump();
                }
            }
            self.eat_punct('|');
        }
        if self.eat_op("->") {
            self.collect_type(&["{"]);
        }
        let body = self.parse_expr(0, true);
        Expr::Closure {
            params,
            body: Box::new(body),
            tok,
        }
    }

    fn parse_prefix_ident(&mut self, allow_struct: bool) -> Expr {
        let text = self.peek_text(0).expect("caller checked").to_string();
        match text.as_str() {
            "if" => {
                // `if … { … } else { … }.into()`: a method on the value.
                let e = self.parse_if();
                if self.at_punct('.') {
                    self.parse_postfix(e, allow_struct)
                } else {
                    e
                }
            }
            "match" => self.parse_match(),
            "while" => self.parse_while(),
            "loop" => {
                let tok = self.bump();
                let body = if self.at_punct('{') {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span: Span::tok(tok),
                    }
                };
                self.parse_postfix(
                    Expr::Loop {
                        body: Box::new(body),
                        tok,
                    },
                    allow_struct,
                )
            }
            "for" => {
                let tok = self.bump();
                let pat = self.parse_pattern(&["in"]);
                self.at_kw("in").then(|| self.bump());
                let iter = self.parse_expr(0, false);
                let body = if self.at_punct('{') {
                    self.parse_block()
                } else {
                    Block {
                        stmts: Vec::new(),
                        span: Span::tok(tok),
                    }
                };
                Expr::For {
                    pat,
                    iter: Box::new(iter),
                    body: Box::new(body),
                    tok,
                }
            }
            "unsafe" => {
                let tok = self.bump();
                if self.at_punct('{') {
                    let b = self.parse_block();
                    self.parse_postfix(Expr::BlockExpr(Box::new(b)), allow_struct)
                } else {
                    Expr::Opaque(Span::tok(tok))
                }
            }
            "move" => {
                self.bump();
                self.parse_prefix(allow_struct) // expect a closure next
            }
            "return" => {
                let tok = self.bump();
                let value = if self.expr_can_start() {
                    Some(Box::new(self.parse_expr(0, allow_struct)))
                } else {
                    None
                };
                Expr::Return { value, tok }
            }
            "break" => {
                let tok = self.bump();
                if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump(); // label
                }
                let value = if self.expr_can_start() {
                    Some(Box::new(self.parse_expr(0, allow_struct)))
                } else {
                    None
                };
                Expr::Jump { value, tok }
            }
            "continue" => {
                let tok = self.bump();
                if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump(); // label
                }
                Expr::Jump { value: None, tok }
            }
            "let" | "else" | "in" | "where" => Expr::Opaque(Span::tok(self.bump())),
            _ => self.parse_path_like(allow_struct),
        }
    }

    /// Can the current token start an expression? (Used after `return`,
    /// `break` to decide whether a value follows.)
    fn expr_can_start(&self) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => !(t.is_punct(';') || t.is_punct('}') || t.is_punct(')') || t.is_punct(']') || t.is_punct(',')),
        }
    }

    fn parse_if(&mut self) -> Expr {
        let tok = self.bump(); // 'if'
        let pat = if self.at_kw("let") {
            self.bump();
            let p = self.parse_pattern(&["="]);
            self.eat_punct('=');
            Some(p)
        } else {
            None
        };
        let cond = self.parse_expr(0, false);
        let then = if self.at_punct('{') {
            self.parse_block()
        } else {
            Block {
                stmts: Vec::new(),
                span: Span::tok(tok),
            }
        };
        let alt = if self.at_kw("else") {
            self.bump();
            if self.at_kw("if") {
                Some(Box::new(self.parse_if()))
            } else if self.at_punct('{') {
                Some(Box::new(Expr::BlockExpr(Box::new(self.parse_block()))))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            pat,
            cond: Box::new(cond),
            then: Box::new(then),
            alt,
            tok,
        }
    }

    fn parse_while(&mut self) -> Expr {
        let tok = self.bump(); // 'while'
        let pat = if self.at_kw("let") {
            self.bump();
            let p = self.parse_pattern(&["="]);
            self.eat_punct('=');
            Some(p)
        } else {
            None
        };
        let cond = self.parse_expr(0, false);
        let body = if self.at_punct('{') {
            self.parse_block()
        } else {
            Block {
                stmts: Vec::new(),
                span: Span::tok(tok),
            }
        };
        Expr::While {
            pat,
            cond: Box::new(cond),
            body: Box::new(body),
            tok,
        }
    }

    fn parse_match(&mut self) -> Expr {
        let tok = self.bump(); // 'match'
        let scrutinee = self.parse_expr(0, false);
        let mut arms = Vec::new();
        if self.eat_punct('{') {
            while !self.eof() && !self.at_punct('}') {
                let before = self.i;
                self.skip_attrs();
                self.eat_punct('|'); // leading alternation pipe
                let pat = self.parse_pattern(&["=>", "if"]);
                let guard = if self.at_kw("if") {
                    self.bump();
                    Some(self.parse_expr(0, false))
                } else {
                    None
                };
                if self.eat_op("=>") {
                    let body = self.parse_expr(0, true);
                    self.eat_punct(',');
                    arms.push(Arm { pat, guard, body });
                } else {
                    // Recovery: the rest of the arm becomes an opaque body.
                    let rstart = self.tokidx(0);
                    let mut depth = 0i32;
                    while !self.eof() {
                        if depth == 0 && (self.at_punct(',') || self.at_punct('}')) {
                            break;
                        }
                        if self.at_punct('(') || self.at_punct('[') || self.at_punct('{') {
                            depth += 1;
                        } else if self.at_punct(')') || self.at_punct(']') || self.at_punct('}') {
                            depth -= 1;
                        }
                        self.bump();
                    }
                    if self.prev_tokidx() >= rstart {
                        let body = Expr::Opaque(Span {
                            start: rstart,
                            end: self.prev_tokidx(),
                        });
                        arms.push(Arm { pat, guard, body });
                    }
                    self.eat_punct(',');
                }
                if self.i == before {
                    self.bump();
                }
            }
            self.eat_punct('}');
        }
        let e = Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            tok,
        };
        self.parse_postfix(e, true)
    }

    fn parse_path_like(&mut self, allow_struct: bool) -> Expr {
        let mut segs = Vec::new();
        let first = self.peek(0).expect("caller checked");
        segs.push(PathSeg {
            text: first.text.clone(),
            tok: self.tokidx(0),
        });
        self.bump();
        loop {
            if self.at_op("::") {
                self.advance(2);
                if self.at_punct('<') {
                    // Turbofish: `Vec::<u8>::new`.
                    self.skip_angles();
                    continue;
                }
                if let Some(t) = self.peek(0) {
                    if t.kind == TokKind::Ident {
                        segs.push(PathSeg {
                            text: t.text.clone(),
                            tok: self.tokidx(0),
                        });
                        self.bump();
                        continue;
                    }
                }
                break;
            }
            break;
        }
        // Macro call: `name!(…)` / `name![…]` / `name!{…}`.
        if self.at_punct('!') && !self.at_op("!=") {
            if let Some(d) = self.peek(1) {
                let open = d.text.chars().next().unwrap_or(' ');
                if matches!(open, '(' | '[' | '{') {
                    self.bump(); // '!'
                    let close = match open {
                        '(' => ')',
                        '[' => ']',
                        _ => '}',
                    };
                    let name = segs.last().map(|s| s.text.clone()).unwrap_or_default();
                    let (args, inner) = self.parse_macro_body(&name, open, close);
                    let tok = segs.last().map(|s| s.tok).unwrap_or(inner.start);
                    let e = Expr::MacroCall { name, inner, args, tok };
                    return self.parse_postfix(e, allow_struct);
                }
            }
        }
        // Struct literal: `Path { field: …, .. }`.
        if self.at_punct('{') && allow_struct && self.looks_like_struct_lit() {
            let tok = self.bump(); // '{'
            let mut fields = Vec::new();
            while !self.eof() && !self.at_punct('}') {
                let before = self.i;
                if self.at_op("..") {
                    self.advance(2);
                    let rest = self.parse_expr(0, true);
                    fields.push(("..".to_string(), rest));
                } else if let Some(t) = self.peek(0) {
                    if t.kind == TokKind::Ident || t.kind == TokKind::Int {
                        let fname = t.text.clone();
                        let ftok = self.tokidx(0);
                        self.bump();
                        if self.at_punct(':') && !self.at_op("::") {
                            self.bump();
                            let v = self.parse_expr(0, true);
                            fields.push((fname, v));
                        } else {
                            // Shorthand `Foo { x }` — the field reads `x`.
                            fields.push((
                                fname.clone(),
                                Expr::Path {
                                    segs: vec![PathSeg { text: fname, tok: ftok }],
                                },
                            ));
                        }
                    }
                }
                self.eat_punct(',');
                if self.i == before {
                    self.bump();
                }
            }
            self.eat_punct('}');
            let e = Expr::StructLit {
                path: segs,
                fields,
                tok,
            };
            return self.parse_postfix(e, allow_struct);
        }
        self.parse_postfix(Expr::Path { segs }, allow_struct)
    }

    /// At `{` after a path: is this a struct literal body?
    fn looks_like_struct_lit(&self) -> bool {
        match self.peek(1) {
            Some(n) if n.is_punct('}') => true,
            Some(n) if n.is_punct('.') => true, // `S { ..default }`
            Some(n) if n.kind == TokKind::Ident || n.kind == TokKind::Int => match self.peek(2) {
                Some(m) if m.is_punct(':') => {
                    // Exclude paths in block position: `S { x::y() }` is not
                    // a struct literal — but `x: :` is impossible, so a
                    // single `:` means a field. Check it isn't `::`.
                    !(self.peek(3).is_some_and(|o| o.is_punct(':'))
                        && self.peek(2).map(|m2| m2.line) == self.peek(3).map(|o| o.line))
                }
                Some(m) if m.is_punct(',') || m.is_punct('}') => true,
                _ => false,
            },
            _ => false,
        }
    }

    fn parse_postfix(&mut self, mut e: Expr, allow_struct: bool) -> Expr {
        loop {
            if self.at_punct('.') && !self.at_op("..") && !self.at_op("..=") && !self.at_op("...") {
                let Some(n) = self.peek(1) else { break };
                if n.kind == TokKind::Ident {
                    let name = n.text.clone();
                    let ntok = self.tokidx(1);
                    // Method call if `(` or turbofish follows the name.
                    let calls = self.peek(2).is_some_and(|m| m.is_punct('('))
                        || (self.peek(2).is_some_and(|m| m.is_punct(':'))
                            && self.peek(3).is_some_and(|m| m.is_punct(':')));
                    self.advance(2); // '.' name
                    if calls {
                        if self.at_op("::") {
                            self.advance(2);
                            if self.at_punct('<') {
                                self.skip_angles();
                            }
                        }
                        if self.at_punct('(') {
                            let args = self.parse_args();
                            e = Expr::MethodCall {
                                recv: Box::new(e),
                                method: name,
                                args,
                                tok: ntok,
                            };
                            continue;
                        }
                    }
                    e = Expr::Field {
                        base: Box::new(e),
                        name,
                        tok: ntok,
                    };
                    continue;
                }
                if n.kind == TokKind::Int {
                    let name = n.text.clone();
                    let ntok = self.tokidx(1);
                    self.advance(2);
                    e = Expr::Field {
                        base: Box::new(e),
                        name,
                        tok: ntok,
                    };
                    continue;
                }
                if n.kind == TokKind::Float {
                    // `x.0.1` lexes the trailing `0.1` as a float: split it
                    // into two tuple-index field accesses.
                    let ntok = self.tokidx(1);
                    let parts: Vec<String> = n.text.split('.').map(str::to_string).collect();
                    self.advance(2);
                    for part in parts {
                        e = Expr::Field {
                            base: Box::new(e),
                            name: part,
                            tok: ntok,
                        };
                    }
                    continue;
                }
                break;
            }
            if self.at_punct('(') {
                let tok = self.tokidx(0);
                let args = self.parse_args();
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    tok,
                };
                continue;
            }
            if self.at_punct('[') {
                let tok = self.bump();
                let index = self.parse_expr(0, true);
                self.eat_punct(']');
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    tok,
                };
                continue;
            }
            if self.at_punct('?') {
                let tok = self.bump();
                e = Expr::Try { expr: Box::new(e), tok };
                continue;
            }
            let _ = allow_struct;
            break;
        }
        e
    }

    /// Cursor is at `(`: parse a comma-separated argument list.
    fn parse_args(&mut self) -> Vec<Expr> {
        self.bump(); // '('
        let mut args = Vec::new();
        while !self.eof() && !self.at_punct(')') {
            let before = self.i;
            args.push(self.parse_expr(0, true));
            self.eat_punct(',');
            if self.i == before {
                self.bump();
            }
        }
        self.eat_punct(')');
        args
    }
}

enum OpKind {
    Bin(BinOp),
    Assign,
    Range,
}

/// Parse an integer literal's value: radix prefixes, `_` separators and
/// type suffixes handled. `None` when out of `u128` range.
pub fn int_value(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, digits) = if let Some(rest) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        (16u32, rest)
    } else if let Some(rest) = clean.strip_prefix("0o").or_else(|| clean.strip_prefix("0O")) {
        (8, rest)
    } else if let Some(rest) = clean.strip_prefix("0b").or_else(|| clean.strip_prefix("0B")) {
        (2, rest)
    } else {
        (10, clean.as_str())
    };
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map(|(i, _)| i)
        .unwrap_or(digits.len());
    u128::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src))
    }

    fn first_fn(file: &File) -> &FnItem {
        let mut out: Option<&FnItem> = None;
        for_each_fn(file, &mut |f, _| {
            if out.is_none() {
                out = Some(f);
            }
        });
        out.expect("a fn")
    }

    fn count_exprs(file: &File, pred: impl Fn(&Expr) -> bool) -> usize {
        let mut n = 0;
        for_each_fn(file, &mut |f, _| {
            if let Some(b) = &f.body {
                for_each_expr_in_block(b, &mut |e| {
                    if pred(e) {
                        n += 1;
                    }
                });
            }
        });
        n
    }

    #[test]
    fn parses_items_and_signatures() {
        let f = parse_src(
            "pub struct S { a: u32, b: Vec<Q16> }\n\
             impl S { pub fn get(&self, i: usize) -> Q16 { self.b[i] } }\n\
             pub trait T { fn hook(&self) {} }\n\
             mod inner { pub fn leaf(x: i64) -> i64 { x } }\n\
             const K: u32 = 3;\n",
        );
        assert_eq!(f.items.len(), 5);
        let mut fns = Vec::new();
        for_each_fn(&f, &mut |func, self_ty| {
            fns.push((func.name.clone(), self_ty.map(str::to_string)));
        });
        assert_eq!(
            fns,
            vec![
                ("get".into(), Some("S".into())),
                ("hook".into(), Some("T".into())),
                ("leaf".into(), None),
            ]
        );
        let mut structs = Vec::new();
        for_each_struct(&f, &mut |s| structs.push(s.name.clone()));
        assert_eq!(structs, vec!["S"]);
        if let Item::Struct(s) = &f.items[0] {
            assert_eq!(s.fields[1].0, "b");
            assert_eq!(s.fields[1].1.head(), Some("Vec"));
            assert_eq!(s.fields[1].1.first_arg().unwrap().head(), Some("Q16"));
        } else {
            panic!("expected struct");
        }
    }

    #[test]
    fn parses_method_chains_calls_and_casts() {
        let f = parse_src(
            "fn f(x: Q16, v: Vec<u8>) -> i64 { let y = (x.raw() as i128 * 2) as i64; v.iter().count() as i64 + y }",
        );
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MethodCall { method, .. } if method == "raw")),
            1
        );
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Cast { .. })), 3);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Binary { op: BinOp::Mul, .. })), 1);
    }

    #[test]
    fn struct_literal_vs_block_disambiguation() {
        let f = parse_src("fn f() -> S { if cond { return S { a: 1 }; } S { a: 2 } }");
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::StructLit { .. })), 2);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::If { .. })), 1);
    }

    #[test]
    fn match_arms_guards_and_bindings() {
        let f =
            parse_src("fn f(x: Option<u32>) -> u32 { match x { Some(v) if v > 3 => v, Some(v) => v + 1, None => 0 } }");
        let mut arms = 0;
        for_each_fn(&f, &mut |func, _| {
            if let Some(b) = &func.body {
                for_each_expr_in_block(b, &mut |e| {
                    if let Expr::Match { arms: a, .. } = e {
                        arms = a.len();
                        assert_eq!(a[0].pat.names, vec![("v".to_string(), a[0].pat.names[0].1)]);
                        assert!(a[0].guard.is_some());
                    }
                });
            }
        });
        assert_eq!(arms, 3);
    }

    #[test]
    fn macros_become_lexical_spans() {
        let f = parse_src("fn f(n: usize) { vec![1, 2]; vec![0u8; n]; format!(\"{x}\"); assert_eq!(a, b); }");
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::MacroCall { .. })), 4);
        // `[a, b]` gives its elements, `[x; n]` element and count.
        assert_eq!(
            count_exprs(
                &f,
                |e| matches!(e, Expr::MacroCall { name, args, .. } if name == "vec" && args.len() == 2)
            ),
            2
        );
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { name, args, .. }
                if name == "format" && matches!(args[..], [Expr::Lit { kind: LitKind::Str, .. }]))),
            1
        );
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { args, .. } if args.len() == 2)),
            3
        );
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Opaque(_))), 0);
    }

    #[test]
    fn assert_family_args_are_parsed() {
        let f = parse_src(
            "fn f(i: usize, xs: &[u64]) -> bool { \
               debug_assert!(i < xs.len(), \"oob {} of {}\", i, xs.len()); \
               assert_ne!(xs[i], 0); \
               matches!(xs.first(), Some(&v) if v > 0) }",
        );
        // debug_assert!: cond + format string + two format args.
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { name, args, .. }
                if name == "debug_assert" && args.len() == 4)),
            1
        );
        // The condition and the `matches!` guard are real comparisons
        // the dataflow engine sees.
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Binary { op: BinOp::Cmp, .. })), 2);
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { name, args, .. }
                if name == "assert_ne" && args.len() == 2)),
            1
        );
        // matches!: the scrutinee, then the guard; the pattern is skipped.
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { name, args, .. }
                if name == "matches" && matches!(args[..], [Expr::MethodCall { .. }, Expr::Binary { .. }]))),
            1
        );
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Opaque(_))), 0);
    }

    #[test]
    fn macro_arg_parse_failure_degrades_to_lexical() {
        // A pattern where an expression is expected: the body becomes an
        // opaque argument. A `matches!` pattern without a guard leaves
        // the scrutinee alone.
        let f = parse_src("fn f(x: E) -> bool { debug_assert!(let _ = x); matches!(x, E::A | E::B) }");
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::MacroCall { .. })), 2);
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { name, args, .. }
                if name == "debug_assert" && matches!(args[..], [Expr::Opaque(_)]))),
            1
        );
        assert_eq!(
            count_exprs(&f, |e| matches!(e, Expr::MacroCall { name, args, .. }
                if name == "matches" && args.len() == 1)),
            1
        );
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Opaque(_))), 1);
    }

    #[test]
    fn labeled_statements_do_not_take_binary_continuations() {
        // `'outer: loop { … } *p = 1;` is two statements, not a
        // multiplication of the loop value.
        let f = parse_src("fn f(p: &mut u32) { 'outer: loop { if *p > 3 { break 'outer; } } *p = 1; }");
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Loop { .. })), 1);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Binary { op: BinOp::Mul, .. })), 0);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Assign { .. })), 1);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Opaque(_))), 0);

        // Nested labels, labeled jumps and label-valued breaks all
        // stay structured.
        let f = parse_src(
            "fn g(grid: &[[u8; 4]; 4]) -> u8 { \
               let mut hit = 0; \
               'rows: for row in grid { \
                 'cols: for c in row { \
                   if *c == 9 { hit = *c; break 'rows; } \
                   if *c == 0 { continue 'cols; } \
                 } \
               } \
               hit }",
        );
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::For { .. })), 2);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Jump { .. })), 2);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Opaque(_))), 0);
    }

    #[test]
    fn closures_loops_and_let_else() {
        let f = parse_src(
            "fn f(v: &[u32]) -> u32 { \
               let Some(first) = v.first() else { return 0; }; \
               let mut acc = 0; \
               for (i, x) in v.iter().enumerate() { acc += i as u32 + *x; } \
               let g = |a: u32, b| a + b; \
               while acc > 100 { acc /= 2; } \
               g(acc, *first) }",
        );
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Closure { .. })), 1);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::For { .. })), 1);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::While { .. })), 1);
        let func = first_fn(&f);
        assert_eq!(func.params.len(), 1);
        assert_eq!(func.params[0].pat.names[0].0, "v");
    }

    #[test]
    fn generics_where_clauses_and_trait_impls() {
        let f = parse_src(
            "impl<R: Repr, P: Platform> Service<R, P> where R: Sized { fn tick(&mut self) {} }\n\
             impl Platform for Probe { fn now(&self) -> u64 { 0 } }",
        );
        let mut pairs = Vec::new();
        for_each_fn(&f, &mut |func, self_ty| {
            pairs.push((func.name.clone(), self_ty.unwrap_or("?").to_string()));
        });
        assert_eq!(
            pairs,
            vec![("tick".into(), "Service".into()), ("now".into(), "Probe".into())]
        );
        if let Item::Impl(i) = &f.items[1] {
            assert_eq!(i.trait_name.as_deref(), Some("Platform"));
        } else {
            panic!("expected impl");
        }
    }

    #[test]
    fn opaque_recovery_never_loses_the_rest_of_the_file() {
        // A deliberately weird statement followed by a normal one: the
        // parser must recover and still see the later method call.
        let f = parse_src("fn f() { yield 3 ; x.unwrap(); }");
        assert_eq!(
            count_exprs(
                &f,
                |e| matches!(e, Expr::MethodCall { method, .. } if method == "unwrap")
            ),
            1
        );
    }

    #[test]
    fn int_values_parse_all_radices() {
        assert_eq!(int_value("64"), Some(64));
        assert_eq!(int_value("1_000u32"), Some(1000));
        assert_eq!(int_value("0xFFi64"), Some(255));
        assert_eq!(int_value("0b1010"), Some(10));
        assert_eq!(int_value("0o17"), Some(15));
        assert_eq!(int_value("16"), Some(16));
    }

    #[test]
    fn shifts_and_ranges_do_not_confuse_the_op_merger() {
        let f = parse_src("fn f(x: i64) -> i64 { let r = 0..5; let s = x << 16 >> 2; s + r.start }");
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Binary { op: BinOp::Shl, .. })), 1);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Binary { op: BinOp::Shr, .. })), 1);
        assert_eq!(count_exprs(&f, |e| matches!(e, Expr::Range { .. })), 1);
    }
}
