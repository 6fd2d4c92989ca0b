//! The abstract syntax tree the parser produces and the lints walk.
//!
//! This is a *tolerant* AST: it models exactly the shapes the lint
//! families reason about (items, function signatures, statement
//! sequencing, the expression forms that carry calls, casts, arithmetic
//! and control flow, macro arguments) and collapses everything else into
//! [`Span`]s of raw tokens. Inside function bodies an unmodelled span is
//! an explicit `Opaque` node, so a gap in coverage is visible in the tree
//! rather than silently skipped.
//!
//! All positions are indices into the *full* token stream produced by
//! [`crate::lexer::lex`] (comments included), so exemption masks from
//! [`crate::scope`] apply directly.

/// Inclusive token range `[start, end]` in the full token stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First token index.
    pub start: usize,
    /// Last token index (inclusive).
    pub end: usize,
}

impl Span {
    /// A span covering exactly one token.
    pub fn tok(i: usize) -> Span {
        Span { start: i, end: i }
    }
}

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function (free, method, or trait default).
    Fn(FnItem),
    /// An `impl` block and its items.
    Impl(ImplBlock),
    /// A `trait` block and its items (default bodies included).
    Trait(TraitBlock),
    /// An inline `mod name { … }`.
    Mod(ModBlock),
    /// A `struct` definition (field names and types captured).
    Struct(StructDef),
    /// Anything else (`use`, `enum`, `const`, `static`, `type`,
    /// `macro_rules!`, …) — kept as its token span.
    Other(Span),
}

impl Item {
    /// The token span of this item.
    pub fn span(&self) -> Span {
        match self {
            Item::Fn(f) => f.span,
            Item::Impl(i) => i.span,
            Item::Trait(t) => t.span,
            Item::Mod(m) => m.span,
            Item::Struct(s) => s.span,
            Item::Other(s) => *s,
        }
    }
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Token index of the name (diagnostic anchor).
    pub name_tok: usize,
    /// Span of the whole item, attributes and visibility included.
    pub span: Span,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type, if declared.
    pub ret: Option<TypeRef>,
    /// Body; `None` for trait method declarations without a default.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Names bound by the parameter pattern.
    pub pat: Pat,
    /// Declared type (absent for `self` receivers).
    pub ty: Option<TypeRef>,
    /// Whether this is a `self` / `&self` / `&mut self` receiver.
    pub is_self: bool,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplBlock {
    /// Head identifier of the implemented-for type (`Q16`, `SchedService`).
    pub self_ty: String,
    /// Head identifier of the trait for trait impls.
    pub trait_name: Option<String>,
    /// Items inside the block.
    pub items: Vec<Item>,
    /// Whole-block span.
    pub span: Span,
}

/// A `trait` block.
#[derive(Debug)]
pub struct TraitBlock {
    /// Trait name.
    pub name: String,
    /// Items (method declarations and defaults).
    pub items: Vec<Item>,
    /// Whole-block span.
    pub span: Span,
}

/// An inline module.
#[derive(Debug)]
pub struct ModBlock {
    /// Module name.
    pub name: String,
    /// Items inside.
    pub items: Vec<Item>,
    /// Whole-block span.
    pub span: Span,
}

/// A struct definition with captured field types (tuple-struct fields
/// are named `"0"`, `"1"`, …).
#[derive(Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// `(field name, declared type)` pairs.
    pub fields: Vec<(String, TypeRef)>,
    /// Whole-item span.
    pub span: Span,
}

/// A type as written in the source: its raw tokens, normalised for the
/// abstract-type queries the dataflow passes make.
#[derive(Clone, Debug)]
pub struct TypeRef {
    /// Token texts in order (`["&", "mut", "Vec", "<", "T", ">"]`).
    pub toks: Vec<String>,
    /// Token span of the type.
    pub span: Span,
}

impl TypeRef {
    /// The head identifier: the first path-worthy identifier, skipping
    /// references, `mut`, `dyn`, `impl` and lifetimes — and skipping
    /// *qualifying* path segments, so `std::collections::VecDeque<T>`
    /// heads at `VecDeque`.
    pub fn head(&self) -> Option<&str> {
        let mut head: Option<&str> = None;
        for (i, t) in self.toks.iter().enumerate() {
            let c = t.chars().next().unwrap_or(' ');
            if !(c.is_alphabetic() || c == '_') || t == "mut" || t == "dyn" || t == "impl" {
                if head.is_some() {
                    break; // `<`, `(`, `,` … — the path is over
                }
                continue;
            }
            // A segment followed by `::` qualifies the next one.
            if self.toks.get(i + 1).is_some_and(|n| n == ":") {
                head = None;
                continue;
            }
            head = Some(t);
            break;
        }
        head
    }

    /// Head identifier of the first generic argument (`T` in `Vec<T>`,
    /// `Option<T>`), if any.
    pub fn first_arg(&self) -> Option<TypeRef> {
        let lt = self.toks.iter().position(|t| t == "<")?;
        let mut depth = 0usize;
        let mut end = self.toks.len();
        for (i, t) in self.toks.iter().enumerate().skip(lt) {
            match t.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                "," if depth == 1 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        Some(TypeRef {
            toks: self.toks[lt + 1..end].to_vec(),
            span: self.span,
        })
    }
}

/// Names bound by a pattern (a tolerant approximation: lowercase-initial
/// identifiers in binding position).
#[derive(Clone, Debug, Default)]
pub struct Pat {
    /// `(name, token index)` of each binding.
    pub names: Vec<(String, usize)>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat (: ty)? (= init)? (else { … })?;`
    Let {
        /// Bound pattern.
        pat: Pat,
        /// Declared type annotation.
        ty: Option<TypeRef>,
        /// Initialiser.
        init: Option<Expr>,
        /// `let … else` diverging block.
        els: Option<Block>,
        /// Statement span.
        span: Span,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// A nested item.
    Item(Box<Item>),
    /// Tokens the statement parser could not model.
    Opaque(Span),
}

/// A `{ … }` block.
#[derive(Debug)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span including the braces.
    pub span: Span,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Arm pattern bindings.
    pub pat: Pat,
    /// Optional `if` guard.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// A path segment with its anchor token.
#[derive(Clone, Debug)]
pub struct PathSeg {
    /// Segment text.
    pub text: String,
    /// Token index.
    pub tok: usize,
}

/// Binary operators the dataflow passes distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==` `!=` `<` `>` `<=` `>=`
    Cmp,
}

/// Literal kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LitKind {
    /// Integer literal with its parsed value when representable.
    Int(Option<u128>),
    /// Float literal.
    Float,
    /// String / char / byte literal.
    Str,
}

/// An expression.
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (turbofish arguments skipped).
    Path {
        /// Segments in order.
        segs: Vec<PathSeg>,
    },
    /// A literal.
    Lit {
        /// Kind (and value for integers).
        kind: LitKind,
        /// Token index.
        tok: usize,
    },
    /// `-x`, `!x`, `*x`.
    Unary {
        /// Operator character.
        op: char,
        /// Operand.
        expr: Box<Expr>,
        /// Operator token.
        tok: usize,
    },
    /// `&x` / `&mut x`.
    Ref {
        /// Referent.
        expr: Box<Expr>,
        /// `&` token.
        tok: usize,
    },
    /// `lhs op rhs`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Operator token (first token of multi-char ops).
        tok: usize,
    },
    /// `target = value` and compound assignments.
    Assign {
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
        /// `=` token.
        tok: usize,
    },
    /// `expr as Ty`.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
        /// `as` token.
        tok: usize,
    },
    /// `callee(args)`.
    Call {
        /// Callee (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// `(` token.
        tok: usize,
    },
    /// `recv.method(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Method-name token.
        tok: usize,
    },
    /// `base.field` / `base.0`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        name: String,
        /// Field-name token.
        tok: usize,
    },
    /// `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// `[` token.
        tok: usize,
    },
    /// `name!( … )` / `name![ … ]` / `name!{ … }`. The body parses as
    /// comma-separated expressions (`[…]`: array or repeat elements;
    /// `matches!`: scrutinee, then the guard when present — the pattern
    /// is skipped). A tail the grammar cannot model is a trailing
    /// [`Expr::Opaque`] argument.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Token span of the delimited body (including delimiters).
        inner: Span,
        /// Parsed arguments in source order.
        args: Vec<Expr>,
        /// Name token.
        tok: usize,
    },
    /// `Path { field: expr, … }`.
    StructLit {
        /// Struct path segments.
        path: Vec<PathSeg>,
        /// Field initialisers (shorthand fields repeat the name).
        fields: Vec<(String, Expr)>,
        /// `{` token.
        tok: usize,
    },
    /// `(a, b, …)` — 1-tuples are unwrapped to the inner expression.
    Tuple {
        /// Elements.
        elems: Vec<Expr>,
        /// `(` token.
        tok: usize,
    },
    /// `[a, b]` / `[x; n]`.
    Array {
        /// Elements (repeat syntax contributes element and count).
        elems: Vec<Expr>,
        /// `[` token.
        tok: usize,
    },
    /// A block in expression position.
    BlockExpr(Box<Block>),
    /// `if (let pat =)? cond { … } (else …)?`.
    If {
        /// `if let` pattern.
        pat: Option<Pat>,
        /// Condition or scrutinee.
        cond: Box<Expr>,
        /// Then block.
        then: Box<Block>,
        /// `else` expression (block or chained if).
        alt: Option<Box<Expr>>,
        /// `if` token.
        tok: usize,
    },
    /// `while (let pat =)? cond { … }`.
    While {
        /// `while let` pattern.
        pat: Option<Pat>,
        /// Condition or scrutinee.
        cond: Box<Expr>,
        /// Body.
        body: Box<Block>,
        /// `while` token.
        tok: usize,
    },
    /// `loop { … }`.
    Loop {
        /// Body.
        body: Box<Block>,
        /// `loop` token.
        tok: usize,
    },
    /// `for pat in iter { … }`.
    For {
        /// Loop pattern.
        pat: Pat,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Box<Block>,
        /// `for` token.
        tok: usize,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
        /// `match` token.
        tok: usize,
    },
    /// `|params| body` (`move` included).
    Closure {
        /// Parameter bindings.
        params: Vec<Pat>,
        /// Body expression.
        body: Box<Expr>,
        /// `|` token.
        tok: usize,
    },
    /// `return (expr)?`.
    Return {
        /// Returned value.
        value: Option<Box<Expr>>,
        /// `return` token.
        tok: usize,
    },
    /// `break (expr)?` / `continue`.
    Jump {
        /// Optional break value.
        value: Option<Box<Expr>>,
        /// Keyword token.
        tok: usize,
    },
    /// `expr?`.
    Try {
        /// Inner expression.
        expr: Box<Expr>,
        /// `?` token.
        tok: usize,
    },
    /// `lo .. hi` (either side optional).
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// `..` token.
        tok: usize,
    },
    /// Tokens the expression parser could not model.
    Opaque(Span),
}

impl Expr {
    /// A representative token index for diagnostics.
    pub fn anchor(&self) -> usize {
        match self {
            Expr::Path { segs } => segs.first().map_or(0, |s| s.tok),
            Expr::Lit { tok, .. }
            | Expr::Unary { tok, .. }
            | Expr::Ref { tok, .. }
            | Expr::Binary { tok, .. }
            | Expr::Assign { tok, .. }
            | Expr::Cast { tok, .. }
            | Expr::Call { tok, .. }
            | Expr::MethodCall { tok, .. }
            | Expr::Field { tok, .. }
            | Expr::Index { tok, .. }
            | Expr::MacroCall { tok, .. }
            | Expr::StructLit { tok, .. }
            | Expr::Tuple { tok, .. }
            | Expr::Array { tok, .. }
            | Expr::If { tok, .. }
            | Expr::While { tok, .. }
            | Expr::Loop { tok, .. }
            | Expr::For { tok, .. }
            | Expr::Match { tok, .. }
            | Expr::Closure { tok, .. }
            | Expr::Return { tok, .. }
            | Expr::Jump { tok, .. }
            | Expr::Try { tok, .. }
            | Expr::Range { tok, .. } => *tok,
            Expr::BlockExpr(b) => b.span.start,
            Expr::Opaque(s) => s.start,
        }
    }

    /// Last path segment text, for `Path` expressions.
    pub fn path_last(&self) -> Option<&str> {
        match self {
            Expr::Path { segs } => segs.last().map(|s| s.text.as_str()),
            _ => None,
        }
    }
}

/// Visit every function item in a file (free functions, impl methods,
/// trait defaults, nested modules), with the impl self-type context.
pub fn for_each_fn<'a>(file: &'a File, f: &mut impl FnMut(&'a FnItem, Option<&'a str>)) {
    fn items<'a>(list: &'a [Item], self_ty: Option<&'a str>, f: &mut impl FnMut(&'a FnItem, Option<&'a str>)) {
        for item in list {
            match item {
                Item::Fn(func) => f(func, self_ty),
                Item::Impl(i) => items(&i.items, Some(&i.self_ty), f),
                Item::Trait(t) => items(&t.items, self_ty.or(Some(&t.name)), f),
                Item::Mod(m) => items(&m.items, None, f),
                Item::Struct(_) | Item::Other(_) => {}
            }
        }
    }
    items(&file.items, None, f);
}

/// Visit every struct definition in a file, nested modules included.
pub fn for_each_struct<'a>(file: &'a File, f: &mut impl FnMut(&'a StructDef)) {
    fn items<'a>(list: &'a [Item], f: &mut impl FnMut(&'a StructDef)) {
        for item in list {
            match item {
                Item::Struct(s) => f(s),
                Item::Impl(i) => items(&i.items, f),
                Item::Trait(t) => items(&t.items, f),
                Item::Mod(m) => items(&m.items, f),
                _ => {}
            }
        }
    }
    items(&file.items, f);
}

/// Visit every expression node under `e`, parents before children.
pub fn for_each_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque(_) => {}
        Expr::MacroCall { args, .. } => args.iter().for_each(|a| for_each_expr(a, f)),
        Expr::Unary { expr, .. } | Expr::Ref { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            for_each_expr(expr, f)
        }
        Expr::Binary { lhs, rhs, .. } => {
            for_each_expr(lhs, f);
            for_each_expr(rhs, f);
        }
        Expr::Assign { target, value, .. } => {
            for_each_expr(target, f);
            for_each_expr(value, f);
        }
        Expr::Call { callee, args, .. } => {
            for_each_expr(callee, f);
            args.iter().for_each(|a| for_each_expr(a, f));
        }
        Expr::MethodCall { recv, args, .. } => {
            for_each_expr(recv, f);
            args.iter().for_each(|a| for_each_expr(a, f));
        }
        Expr::Field { base, .. } => for_each_expr(base, f),
        Expr::Index { base, index, .. } => {
            for_each_expr(base, f);
            for_each_expr(index, f);
        }
        Expr::StructLit { fields, .. } => fields.iter().for_each(|(_, v)| for_each_expr(v, f)),
        Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => elems.iter().for_each(|a| for_each_expr(a, f)),
        Expr::BlockExpr(b) => for_each_expr_in_block(b, f),
        Expr::If { cond, then, alt, .. } => {
            for_each_expr(cond, f);
            for_each_expr_in_block(then, f);
            if let Some(a) = alt {
                for_each_expr(a, f);
            }
        }
        Expr::While { cond, body, .. } => {
            for_each_expr(cond, f);
            for_each_expr_in_block(body, f);
        }
        Expr::Loop { body, .. } => for_each_expr_in_block(body, f),
        Expr::For { iter, body, .. } => {
            for_each_expr(iter, f);
            for_each_expr_in_block(body, f);
        }
        Expr::Match { scrutinee, arms, .. } => {
            for_each_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    for_each_expr(g, f);
                }
                for_each_expr(&arm.body, f);
            }
        }
        Expr::Closure { body, .. } => for_each_expr(body, f),
        Expr::Return { value, .. } | Expr::Jump { value, .. } => {
            if let Some(v) = value {
                for_each_expr(v, f);
            }
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(l) = lo {
                for_each_expr(l, f);
            }
            if let Some(h) = hi {
                for_each_expr(h, f);
            }
        }
    }
}

/// Visit every expression in a block, statement by statement.
pub fn for_each_expr_in_block<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    for_each_expr(e, f);
                }
            }
            Stmt::Expr(e) => for_each_expr(e, f),
            Stmt::Item(item) => {
                if let Item::Fn(func) = item.as_ref() {
                    if let Some(body) = &func.body {
                        for_each_expr_in_block(body, f);
                    }
                }
            }
            Stmt::Opaque(_) => {}
        }
    }
}
