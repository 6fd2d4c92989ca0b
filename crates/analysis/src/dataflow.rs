//! Intra-procedural dataflow over the tolerant AST.
//!
//! One generic engine walks a function body in execution order,
//! maintaining an environment of per-variable abstract values, and defers
//! the meaning of values to a [`Domain`]:
//!
//! * the **range domain** ([`RangeDomain`]) is the analyzer's value
//!   domain. Each value is a [`RangeVal`]: an [`AbsTy`] from the type
//!   layer ([`abs_transfer`] over a [`TyCx`]) — enough Rust typing to
//!   know that `self.buf` is a `VecDeque`, that `q.raw()` is the bare
//!   `i64` behind a `Q16`, and that `f.num()` carries `Frac`-numerator
//!   provenance — plus a value or length [`Interval`]. `q16-overflow`,
//!   `ni-no-alloc` and the cost model's receiver probe read the type;
//!   `ni-bounds` and `q16-range` prove obligations on the interval;
//! * the **taint domain** (in `lints.rs`) tracks which values derive
//!   from channel-receive arrival order for `sweep-determinism`.
//!
//! The engine is deliberately simple: flow-sensitive straight-line
//! execution, branch-join at `if`/`match`, and loop bodies walked to a
//! post-fixpoint (twice for the flat taint lattice, with widening for
//! the range domain). Checks ride along a walk through [`Checked`];
//! because loop bodies are walked more than once, callers de-duplicate
//! identical findings afterwards.

use crate::ast::*;
use crate::lexer::Tok;
use std::collections::BTreeMap;

/// Variable environment: name → abstract value.
pub type Env<V> = BTreeMap<String, V>;

/// Provenance of an integer value, for `Frac` truncation checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prov {
    /// No tracked provenance.
    None,
    /// Came from `Frac::num()` (possibly through casts).
    FracNum,
    /// Came from `Frac::den()` (possibly through casts).
    FracDen,
}

/// The abstract types the lints reason about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsTy {
    /// `fixedpt::Q16` (Q16.16 fixed point backed by `i64`).
    Q16,
    /// `fixedpt::Frac` (exact `u32/u32` rational).
    Frac,
    /// The raw `i64` bits of a `Q16` (`.raw()` or `.0`): multiplying two
    /// of these without widening overflows the fractional headroom.
    RawQ16,
    /// A machine integer.
    Int {
        /// Bit width (usize/isize count as 64).
        bits: u16,
        /// Signedness.
        signed: bool,
        /// `Frac` component provenance.
        prov: Prov,
    },
    /// A growable std collection (`Vec`, `VecDeque`, `String`, `BTreeMap`,
    /// `BTreeSet`, `BinaryHeap`, `HashMap`, `HashSet`).
    Coll {
        /// Collection head name.
        head: String,
        /// Element type.
        elem: Box<AbsTy>,
    },
    /// A named struct (fields resolvable through the struct table).
    Named(String),
    /// Anything else.
    Unknown,
}

impl AbsTy {
    /// Bit width of the value, when meaningful for shift checks.
    pub fn width(&self) -> Option<u16> {
        match self {
            AbsTy::RawQ16 => Some(64),
            AbsTy::Int { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    /// `Frac` component provenance, if any.
    pub fn prov(&self) -> Prov {
        match self {
            AbsTy::Int { prov, .. } => *prov,
            _ => Prov::None,
        }
    }

    fn strip_prov(self) -> AbsTy {
        match self {
            AbsTy::Int { bits, signed, .. } => AbsTy::Int {
                bits,
                signed,
                prov: Prov::None,
            },
            t => t,
        }
    }
}

/// Struct table: struct name → (field name, abstract field type).
pub type StructTable = BTreeMap<String, Vec<(String, AbsTy)>>;

/// Shared context for type evaluation.
pub struct TyCx<'a> {
    /// Known struct definitions (from every parsed file, test regions
    /// excluded).
    pub structs: &'a StructTable,
    /// The file's full token stream (for literal suffixes).
    pub toks: &'a [Tok],
}

/// Collection heads whose insertion methods can grow the heap.
pub const GROWABLE: [&str; 8] = [
    "Vec",
    "VecDeque",
    "String",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
];

/// Wrappers that are transparent for our purposes (the interesting type
/// is the first generic argument).
const TRANSPARENT: [&str; 6] = ["Option", "Box", "Rc", "Arc", "RefCell", "Cell"];

fn int_ty(name: &str) -> Option<(u16, bool)> {
    Some(match name {
        "i8" => (8, true),
        "i16" => (16, true),
        "i32" => (32, true),
        "i64" => (64, true),
        "i128" => (128, true),
        "isize" => (64, true),
        "u8" => (8, false),
        "u16" => (16, false),
        "u32" => (32, false),
        "u64" => (64, false),
        "u128" => (128, false),
        "usize" => (64, false),
        _ => return None,
    })
}

/// Abstract type for a bare type name (used for `self` receivers).
pub fn abs_from_name(name: &str) -> AbsTy {
    match name {
        "Q16" => AbsTy::Q16,
        "Frac" => AbsTy::Frac,
        _ => {
            if let Some((bits, signed)) = int_ty(name) {
                AbsTy::Int {
                    bits,
                    signed,
                    prov: Prov::None,
                }
            } else {
                AbsTy::Named(name.to_string())
            }
        }
    }
}

/// Abstract type of a syntactic type reference.
pub fn abs_from_typeref(t: &TypeRef) -> AbsTy {
    abs_from_head(t, 0)
}

fn abs_from_head(t: &TypeRef, depth: u8) -> AbsTy {
    if depth > 4 {
        return AbsTy::Unknown;
    }
    let Some(head) = t.head() else {
        return AbsTy::Unknown;
    };
    if TRANSPARENT.contains(&head) {
        return match t.first_arg() {
            Some(inner) => abs_from_head(&inner, depth + 1),
            None => AbsTy::Unknown,
        };
    }
    if GROWABLE.contains(&head) {
        let elem = t
            .first_arg()
            .map(|a| abs_from_head(&a, depth + 1))
            .unwrap_or(AbsTy::Unknown);
        return AbsTy::Coll {
            head: head.to_string(),
            elem: Box::new(elem),
        };
    }
    abs_from_name(head)
}

/// Join for the flat [`AbsTy`] lattice.
pub fn abs_join(a: &AbsTy, b: &AbsTy) -> AbsTy {
    if a == b {
        return a.clone();
    }
    match (a, b) {
        (AbsTy::Unknown, x) | (x, AbsTy::Unknown) => x.clone(),
        (
            AbsTy::Int { bits, signed, .. },
            AbsTy::Int {
                bits: b2, signed: s2, ..
            },
        ) if bits == b2 && signed == s2 => AbsTy::Int {
            bits: *bits,
            signed: *signed,
            prov: Prov::None,
        },
        (AbsTy::Coll { head, elem }, AbsTy::Coll { head: h2, elem: e2 }) if head == h2 => AbsTy::Coll {
            head: head.clone(),
            elem: Box::new(abs_join(elem, e2)),
        },
        _ => AbsTy::Unknown,
    }
}

/// The shared type-transfer function: abstract type of `e` given its
/// children's types (engine child order). Control-flow nodes never reach
/// here — the engine joins them itself.
pub fn abs_transfer(e: &Expr, children: &[AbsTy], cx: &TyCx) -> AbsTy {
    match e {
        Expr::Lit {
            kind: LitKind::Int(_),
            tok,
        } => {
            // The suffix decides the width; unsuffixed literals default
            // to i32, like rustc's fallback.
            let text = cx.toks.get(*tok).map(|t| t.text.as_str()).unwrap_or("");
            for (suffix, bits, signed) in [
                ("i128", 128u16, true),
                ("u128", 128, false),
                ("i64", 64, true),
                ("u64", 64, false),
                ("usize", 64, false),
                ("isize", 64, true),
                ("i32", 32, true),
                ("u32", 32, false),
                ("i16", 16, true),
                ("u16", 16, false),
                ("i8", 8, true),
                ("u8", 8, false),
            ] {
                if text.ends_with(suffix) {
                    return AbsTy::Int {
                        bits,
                        signed,
                        prov: Prov::None,
                    };
                }
            }
            AbsTy::Int {
                bits: 32,
                signed: true,
                prov: Prov::None,
            }
        }
        Expr::Lit { .. } => AbsTy::Unknown,
        Expr::Path { segs } => match segs.len() {
            0 | 1 => AbsTy::Unknown, // single-segment env hits are resolved by the engine
            _ => {
                // `Q16::ZERO`, `Frac::ONE`, … — associated consts.
                match segs[segs.len() - 2].text.as_str() {
                    "Q16" => AbsTy::Q16,
                    "Frac" => AbsTy::Frac,
                    _ => AbsTy::Unknown,
                }
            }
        },
        Expr::Unary { .. } | Expr::Ref { .. } | Expr::Try { .. } => children.first().cloned().unwrap_or(AbsTy::Unknown),
        Expr::Binary { op, .. } => match op {
            BinOp::Cmp | BinOp::And | BinOp::Or => AbsTy::Unknown,
            _ => {
                // Arithmetic keeps the operand type but drops Frac
                // provenance: `x * f.num() / f.den()` is the exact
                // cross-multiply idiom, not a lossy truncation.
                let l = children.first().cloned().unwrap_or(AbsTy::Unknown);
                let r = children.get(1).cloned().unwrap_or(AbsTy::Unknown);
                if l != AbsTy::Unknown {
                    l.strip_prov()
                } else {
                    r.strip_prov()
                }
            }
        },
        Expr::Assign { .. } => AbsTy::Unknown,
        Expr::Cast { ty, .. } => {
            let src = children.first().cloned().unwrap_or(AbsTy::Unknown);
            match abs_from_typeref(ty) {
                AbsTy::Int { bits, signed, .. } => AbsTy::Int {
                    bits,
                    signed,
                    prov: src.prov(), // casts preserve Frac provenance
                },
                t => t,
            }
        }
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs } = callee.as_ref() {
                let last = segs.last().map(|s| s.text.as_str()).unwrap_or("");
                let qual = if segs.len() >= 2 {
                    Some(segs[segs.len() - 2].text.as_str())
                } else {
                    None
                };
                match (qual, last) {
                    (Some("Q16"), _) | (None, "Q16") => return AbsTy::Q16,
                    (Some("Frac"), _) | (None, "Frac") => return AbsTy::Frac,
                    // `Some(x)` / `Ok(x)` are transparent wrappers.
                    (None, "Some") | (None, "Ok") => {
                        return children.get(1).cloned().unwrap_or(AbsTy::Unknown);
                    }
                    (Some(q), "from") => {
                        if let Some((bits, signed)) = int_ty(q) {
                            return AbsTy::Int {
                                bits,
                                signed,
                                prov: Prov::None,
                            };
                        }
                    }
                    _ => {}
                }
                // Tuple-struct constructor of a known struct.
                if cx.structs.contains_key(last) {
                    return AbsTy::Named(last.to_string());
                }
            }
            AbsTy::Unknown
        }
        Expr::MethodCall { method, .. } => {
            let recv = children.first().cloned().unwrap_or(AbsTy::Unknown);
            match (&recv, method.as_str()) {
                (AbsTy::Q16, "raw") => AbsTy::RawQ16,
                (AbsTy::Q16, "trunc" | "round" | "ceil") => AbsTy::Int {
                    bits: 64,
                    signed: true,
                    prov: Prov::None,
                },
                (
                    AbsTy::Q16,
                    "min" | "max" | "clamp" | "abs" | "shl" | "shr" | "ewma_toward" | "saturating_add"
                    | "saturating_sub",
                ) => AbsTy::Q16,
                (AbsTy::Frac, "num") => AbsTy::Int {
                    bits: 32,
                    signed: false,
                    prov: Prov::FracNum,
                },
                (AbsTy::Frac, "den") => AbsTy::Int {
                    bits: 32,
                    signed: false,
                    prov: Prov::FracDen,
                },
                (AbsTy::Frac, "add" | "mul" | "half" | "shr" | "reduced" | "saturating_sub" | "min" | "max") => {
                    AbsTy::Frac
                }
                (
                    AbsTy::Coll { elem, .. },
                    "pop" | "pop_front" | "pop_back" | "remove" | "front" | "back" | "get" | "first" | "last" | "take",
                ) => elem.as_ref().clone(),
                (AbsTy::Coll { .. }, "iter" | "iter_mut" | "drain" | "into_iter") => recv,
                (AbsTy::Coll { .. }, "len" | "capacity") => AbsTy::Int {
                    bits: 64,
                    signed: false,
                    prov: Prov::None,
                },
                (_, "clone" | "to_owned") => recv,
                (
                    AbsTy::Int { .. } | AbsTy::RawQ16,
                    "min" | "max" | "clamp" | "abs" | "pow" | "wrapping_add" | "wrapping_sub" | "wrapping_mul"
                    | "saturating_add" | "saturating_sub" | "saturating_mul" | "rotate_left" | "rotate_right",
                ) => recv,
                _ => AbsTy::Unknown,
            }
        }
        Expr::Field { name, .. } => {
            let b = children.first().cloned().unwrap_or(AbsTy::Unknown);
            match &b {
                // `.0` of a Q16 is its raw i64 — same hazard as `.raw()`.
                AbsTy::Q16 if name == "0" => AbsTy::RawQ16,
                // `Frac` is abstract to callers, but its own impl reads
                // the `num`/`den` components directly: resolve them
                // through the struct table like any other struct.
                AbsTy::Named(_) | AbsTy::Frac => {
                    let s = if let AbsTy::Named(s) = &b { s } else { "Frac" };
                    cx.structs
                        .get(s)
                        .and_then(|fields| fields.iter().find(|(f, _)| f == name))
                        .map(|(_, t)| t.clone())
                        .unwrap_or(AbsTy::Unknown)
                }
                _ => AbsTy::Unknown,
            }
        }
        Expr::Index { .. } => match children.first() {
            Some(AbsTy::Coll { elem, .. }) => elem.as_ref().clone(),
            _ => AbsTy::Unknown,
        },
        Expr::StructLit { path, .. } => {
            let name = path.last().map(|s| s.text.clone()).unwrap_or_default();
            AbsTy::Named(name)
        }
        _ => AbsTy::Unknown,
    }
}

/// A dataflow domain: the value lattice plus the transfer function.
/// Lint domains carry finding sinks and emit from `transfer`.
pub trait Domain {
    /// Abstract value. `PartialEq` lets the engine detect loop-head
    /// stabilisation for widening domains.
    type V: Clone + PartialEq;
    /// The no-information value.
    fn bottom(&self) -> Self::V;
    /// Lattice join.
    fn join(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Initial value of a parameter (`self_ty` is the surrounding `impl`
    /// type for receivers).
    fn param_value(&mut self, p: &Param, self_ty: Option<&str>) -> Self::V;
    /// Value of expression `e` given its children's values, in the
    /// engine's child order (callee/receiver/base/operands first, then
    /// arguments). Control-flow nodes are joined by the engine and never
    /// reach `transfer`.
    fn transfer(&mut self, e: &Expr, children: &[Self::V], env: &Env<Self::V>) -> Self::V;
    /// Value bound to each name of a multi-name pattern destructuring `v`.
    fn bind_split(&self, v: &Self::V) -> Self::V {
        v.clone()
    }
    /// Value of one element when iterating `v` in a `for` loop.
    fn iter_elem(&self, v: &Self::V) -> Self::V {
        self.bind_split(v)
    }
    /// New value of `x` after `x.f = value`. The default joins the stored
    /// value into the base (a taint domain wants `x` tainted); the range
    /// domain overrides to keep `old` — a field store never changes the
    /// base's type, and joining would dissolve `Named(_)` into `Unknown`
    /// the first time a counter field is bumped.
    fn assign_field(&mut self, old: &Self::V, value: &Self::V) -> Self::V {
        self.join(old, value)
    }
    /// Refine a `let x: T = …` binding with its declared type.
    fn let_decl(&mut self, _ty: &TypeRef, inferred: Self::V) -> Self::V {
        inferred
    }
    /// Loop-head merge. Domains over infinite-ascending-chain lattices
    /// (intervals) override with a widening operator so the engine's
    /// bounded walk reaches a post-fixpoint; the default is the join.
    fn widen(&self, old: &Self::V, new: &Self::V) -> Self::V {
        self.join(old, new)
    }
    /// Narrow `env` given that branch condition `cond` evaluated to
    /// `taken`. Called on the then/else environments of an `if`, the
    /// body and (break-free) exit environments of a `while`, match-arm
    /// guards, and the first argument of `assert!`/`debug_assert!`.
    fn refine(&mut self, _cond: &Expr, _taken: bool, _env: &mut Env<Self::V>) {}
    /// Value bound to pattern position `pos` of an `n`-name `for`
    /// pattern iterating `v` (`for (i, x) in xs.iter().enumerate()`
    /// binds the counter at position 0 and the element at 1).
    fn iter_elem_at(&self, v: &Self::V, _pos: usize, _n: usize) -> Self::V {
        self.iter_elem(v)
    }
    /// New value stored by `place = v` / `place op= v`. `tok` indexes
    /// the first punct token of the operator, so compound assignments
    /// (lost in the AST) can be decoded from the token stream. The
    /// default replicates the engine's historical weak update: join
    /// with the old value.
    fn assign_value(&mut self, _tok: usize, old: Option<&Self::V>, new: Self::V) -> Self::V {
        match old {
            Some(o) => self.join(o, &new),
            None => new,
        }
    }
    /// Called at `flow_fn` entry with the function being walked
    /// (call-summary collection hook).
    fn enter_fn(&mut self, _func: &FnItem, _self_ty: Option<&str>) {}
    /// Observe a `return e` or function-tail value (call-summary hook).
    fn observe_return(&mut self, _v: &Self::V) {}
    /// Track dotted field places (`self.len`) in the environment and
    /// enable path-sensitive joins (diverging `if` branches pruned,
    /// loops iterated to stabilisation). Off by default: the taint
    /// domain has no use for place keys, and divergence pruning changes
    /// join results.
    fn track_places(&self) -> bool {
        false
    }
    /// Does `recv.method(…)` leave the receiver and its tracked field
    /// places unchanged? Consulted only when `track_places()` is on.
    fn method_is_pure(&self, _method: &str) -> bool {
        false
    }
    /// Receiver value after a non-pure `recv.method(…)` (only when
    /// `track_places()` is on). `place` is the receiver's place key so
    /// symbol-minting domains can version it.
    fn method_update(&mut self, _place: &str, recv_old: &Self::V, _method: &str) -> Self::V {
        recv_old.clone()
    }
    /// A call received `&…place` as an argument; `tok` is the `&`
    /// token. Place-tracking domains havoc whatever the callee could
    /// mutate through it.
    fn observe_ref_arg(&mut self, _tok: usize, _place: &str, _env: &mut Env<Self::V>) {}
    /// Sound over-approximation of `v`, applied when a widening loop
    /// fails to stabilise within the iteration cap (only when
    /// `track_places()` is on — the default `clone` is *not* a havoc).
    fn havoc(&self, v: &Self::V) -> Self::V {
        v.clone()
    }
}

/// A lint's checks riding along an inner domain's walk (see [`Checked`]).
pub trait Check<D: Domain> {
    /// Inspect `e` and its children's values before `inner` transfers it.
    fn check(&mut self, inner: &D, e: &Expr, children: &[D::V]);
    /// Inspect a store before `inner` computes it (see
    /// [`Domain::assign_value`]).
    fn check_assign(&mut self, _inner: &D, _tok: usize, _old: Option<&D::V>, _new: &D::V) {}
}

/// A borrowed hook checks as its referent does, so one hook can ride
/// along several walks.
impl<D: Domain, C: Check<D>> Check<D> for &mut C {
    fn check(&mut self, inner: &D, e: &Expr, children: &[D::V]) {
        (**self).check(inner, e, children)
    }
    fn check_assign(&mut self, inner: &D, tok: usize, old: Option<&D::V>, new: &D::V) {
        (**self).check_assign(inner, tok, old, new)
    }
}

/// `inner` with a [`Check`] attached: the values are exactly `inner`'s —
/// every [`Domain`] method forwards to it — and `hook` sees each
/// transfer and store first.
pub struct Checked<D, C> {
    /// The domain computing the values.
    pub inner: D,
    /// The checks.
    pub hook: C,
}

impl<D: Domain, C: Check<D>> Domain for Checked<D, C> {
    type V = D::V;

    fn bottom(&self) -> D::V {
        self.inner.bottom()
    }
    fn join(&self, a: &D::V, b: &D::V) -> D::V {
        self.inner.join(a, b)
    }
    fn param_value(&mut self, p: &Param, self_ty: Option<&str>) -> D::V {
        self.inner.param_value(p, self_ty)
    }
    fn transfer(&mut self, e: &Expr, children: &[D::V], env: &Env<D::V>) -> D::V {
        self.hook.check(&self.inner, e, children);
        self.inner.transfer(e, children, env)
    }
    fn bind_split(&self, v: &D::V) -> D::V {
        self.inner.bind_split(v)
    }
    fn iter_elem(&self, v: &D::V) -> D::V {
        self.inner.iter_elem(v)
    }
    fn assign_field(&mut self, old: &D::V, value: &D::V) -> D::V {
        self.inner.assign_field(old, value)
    }
    fn let_decl(&mut self, ty: &TypeRef, inferred: D::V) -> D::V {
        self.inner.let_decl(ty, inferred)
    }
    fn widen(&self, old: &D::V, new: &D::V) -> D::V {
        self.inner.widen(old, new)
    }
    fn refine(&mut self, cond: &Expr, taken: bool, env: &mut Env<D::V>) {
        self.inner.refine(cond, taken, env)
    }
    fn iter_elem_at(&self, v: &D::V, pos: usize, n: usize) -> D::V {
        self.inner.iter_elem_at(v, pos, n)
    }
    fn assign_value(&mut self, tok: usize, old: Option<&D::V>, new: D::V) -> D::V {
        self.hook.check_assign(&self.inner, tok, old, &new);
        self.inner.assign_value(tok, old, new)
    }
    fn enter_fn(&mut self, func: &FnItem, self_ty: Option<&str>) {
        self.inner.enter_fn(func, self_ty)
    }
    fn observe_return(&mut self, v: &D::V) {
        self.inner.observe_return(v)
    }
    fn track_places(&self) -> bool {
        self.inner.track_places()
    }
    fn method_is_pure(&self, method: &str) -> bool {
        self.inner.method_is_pure(method)
    }
    fn method_update(&mut self, place: &str, recv_old: &D::V, method: &str) -> D::V {
        self.inner.method_update(place, recv_old, method)
    }
    fn observe_ref_arg(&mut self, tok: usize, place: &str, env: &mut Env<D::V>) {
        self.inner.observe_ref_arg(tok, place, env)
    }
    fn havoc(&self, v: &D::V) -> D::V {
        self.inner.havoc(v)
    }
}

/// Run a domain over one function.
pub fn flow_fn<D: Domain>(func: &FnItem, self_ty: Option<&str>, dom: &mut D) {
    dom.enter_fn(func, self_ty);
    let mut env: Env<D::V> = Env::new();
    for p in &func.params {
        let v = dom.param_value(p, self_ty);
        if p.is_self {
            env.insert("self".to_string(), v);
        } else if p.pat.names.len() == 1 {
            env.insert(p.pat.names[0].0.clone(), v);
        } else {
            for (name, _) in &p.pat.names {
                env.insert(name.clone(), dom.bind_split(&v));
            }
        }
    }
    if let Some(body) = &func.body {
        let tail = flow_block(body, &mut env, dom, self_ty);
        dom.observe_return(&tail);
    }
}

/// Dotted place path of `e` (`self.q.len` → `"self.q.len"`), if it is
/// a chain of field accesses rooted at a single-segment path.
pub fn place_key(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs } if segs.len() == 1 => Some(segs[0].text.clone()),
        Expr::Field { base, name, .. } => Some(format!("{}.{}", place_key(base)?, name)),
        _ => None,
    }
}

/// Does evaluating `e` always leave the enclosing function or panic?
/// (`break`/`continue` deliberately do *not* count: their environments
/// still reach the enclosing loop's exit.)
fn expr_diverges(e: &Expr) -> bool {
    match e {
        Expr::Return { .. } => true,
        Expr::MacroCall { name, .. } => {
            matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        }
        Expr::BlockExpr(b) => block_diverges(b),
        Expr::If { then, alt: Some(a), .. } => block_diverges(then) && expr_diverges(a),
        _ => false,
    }
}

fn block_diverges(b: &Block) -> bool {
    b.stmts.iter().any(|s| matches!(s, Stmt::Expr(e) if expr_diverges(e)))
}

/// Does the loop body contain any `break`/`continue`? If so the loop's
/// exit environment is not simply `¬cond`.
fn block_has_jump(b: &Block) -> bool {
    let mut found = false;
    for_each_expr_in_block(b, &mut |e| {
        if matches!(e, Expr::Jump { .. }) {
            found = true;
        }
    });
    found
}

/// Remove the tracked field places under `place` (`"xs"` drops
/// `"xs.len"`, `"xs.head.gen"`, …).
fn drop_places<V>(env: &mut Env<V>, place: &str) {
    let pref = format!("{place}.");
    let stale: Vec<String> = env.keys().filter(|k| k.starts_with(&pref)).cloned().collect();
    for k in stale {
        env.remove(&k);
    }
}

fn flow_block<D: Domain>(b: &Block, env: &mut Env<D::V>, dom: &mut D, self_ty: Option<&str>) -> D::V {
    let mut last = dom.bottom();
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { pat, ty, init, els, .. } => {
                let mut v = match init {
                    Some(e) => eval(e, env, dom, self_ty),
                    None => dom.bottom(),
                };
                if let Some(t) = ty {
                    v = dom.let_decl(t, v);
                }
                if pat.names.len() == 1 {
                    env.insert(pat.names[0].0.clone(), v);
                } else {
                    for (name, _) in &pat.names {
                        env.insert(name.clone(), dom.bind_split(&v));
                    }
                }
                if let Some(e) = els {
                    flow_block(e, &mut env.clone(), dom, self_ty);
                }
                last = dom.bottom();
            }
            Stmt::Expr(e) => {
                last = eval(e, env, dom, self_ty);
            }
            Stmt::Item(item) => {
                if let Item::Fn(f2) = item.as_ref() {
                    flow_fn(f2, self_ty, dom);
                }
                last = dom.bottom();
            }
            Stmt::Opaque(_) => {
                last = dom.bottom();
            }
        }
    }
    last
}

fn join_env<D: Domain>(mut a: Env<D::V>, b: Env<D::V>, dom: &D) -> Env<D::V> {
    for (k, v) in b {
        match a.get(&k) {
            Some(av) => {
                let j = dom.join(av, &v);
                a.insert(k, j);
            }
            None => {
                a.insert(k, v);
            }
        }
    }
    a
}

/// Loop-head merge: widen each binding of `env` with its end-of-body
/// value (the default widening is the join, so non-widening domains
/// keep the historical behaviour).
fn merge_widen<D: Domain>(env: &mut Env<D::V>, other: Env<D::V>, dom: &D) {
    let mut a = std::mem::take(env);
    for (k, v) in other {
        let nv = match a.get(&k) {
            Some(av) => dom.widen(av, &v),
            None => v,
        };
        a.insert(k, nv);
    }
    *env = a;
}

/// Walk a loop body to a post-fixpoint: non-place-tracking domains get
/// the historical two join passes; place-tracking (widening) domains
/// iterate until the environment stabilises, with a havoc fallback if
/// the cap is hit (deep widening chains propagate one step per pass).
fn flow_loop<D: Domain>(env: &mut Env<D::V>, dom: &mut D, mut walk: impl FnMut(&mut Env<D::V>, &mut D) -> Env<D::V>) {
    let track = <D as Domain>::track_places(dom);
    let cap = if track { 12 } else { 2 };
    let mut stable = false;
    for _ in 0..cap {
        let snapshot = track.then(|| env.clone());
        let env_b = walk(env, dom);
        merge_widen::<D>(env, env_b, dom);
        if snapshot.is_some_and(|s| &s == env) {
            stable = true;
            break;
        }
    }
    if track && !stable {
        let keys: Vec<String> = env.keys().cloned().collect();
        for k in keys {
            let h = dom.havoc(&env[&k]);
            env.insert(k, h);
        }
        let env_b = walk(env, dom);
        merge_widen::<D>(env, env_b, dom);
    }
}

fn eval<D: Domain>(e: &Expr, env: &mut Env<D::V>, dom: &mut D, self_ty: Option<&str>) -> D::V {
    match e {
        Expr::Path { segs } if segs.len() == 1 => match env.get(&segs[0].text) {
            Some(v) => v.clone(),
            None => dom.transfer(e, &[], env),
        },
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque(_) => dom.transfer(e, &[], env),
        Expr::MacroCall { args, name, .. } => {
            let vs: Vec<D::V> = args.iter().map(|a| eval(a, env, dom, self_ty)).collect();
            let v = dom.transfer(e, &vs, env);
            // Assertions are branch facts: downstream of
            // `debug_assert!(cond)` the condition holds (release builds
            // compile the check out, but the *invariant* is the
            // author's claim either way — see DESIGN.md §16).
            if matches!(name.as_str(), "assert" | "debug_assert") {
                if let Some(cond) = args.first() {
                    dom.refine(cond, true, env);
                }
            }
            v
        }
        Expr::Unary { expr, .. } | Expr::Ref { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            let v = eval(expr, env, dom, self_ty);
            dom.transfer(e, &[v], env)
        }
        Expr::Binary { op, lhs, rhs, .. } if matches!(op, BinOp::And | BinOp::Or) => {
            // Short-circuit: the rhs only runs where the lhs was true
            // (`&&`) / false (`||`), so it is evaluated under that fact
            // — `a < n && xs[a] > 0` must not flag the index. The
            // refined environment joins back against the short-circuit
            // path, which skipped the rhs entirely.
            let l = eval(lhs, env, dom, self_ty);
            let mut env_r = env.clone();
            dom.refine(lhs, *op == BinOp::And, &mut env_r);
            let r = eval(rhs, &mut env_r, dom, self_ty);
            let v = dom.transfer(e, &[l, r], env);
            *env = join_env::<D>(std::mem::take(env), env_r, dom);
            v
        }
        Expr::Binary { lhs, rhs, .. } => {
            let l = eval(lhs, env, dom, self_ty);
            let r = eval(rhs, env, dom, self_ty);
            dom.transfer(e, &[l, r], env)
        }
        Expr::Assign { target, value, tok } => {
            let v = eval(value, env, dom, self_ty);
            match target.as_ref() {
                Expr::Path { segs } if segs.len() == 1 => {
                    let name = segs[0].text.clone();
                    let old = env.get(&name).cloned();
                    let nv = dom.assign_value(*tok, old.as_ref(), v);
                    env.insert(name, nv);
                }
                Expr::Index { .. } => {
                    // Evaluate the whole Index node so write-side
                    // indexing reaches `transfer` (bounds domains check
                    // stores and loads alike). `base[i] = v` leaves
                    // `base`'s value alone: for `sweep-determinism` the
                    // index-addressed publish is the blessed pattern.
                    eval(target, env, dom, self_ty);
                }
                Expr::Field { base, .. } => {
                    let bv = eval(base, env, dom, self_ty);
                    // `x.f = v` updates `x` itself through the domain.
                    if let Expr::Path { segs } = base.as_ref() {
                        if segs.len() == 1 {
                            let name = segs[0].text.clone();
                            if let Some(old) = env.get(&name).cloned() {
                                let nv = dom.assign_field(&old, &v);
                                env.insert(name, nv);
                            }
                        }
                    }
                    // Place-tracking domains see the dotted key too. An
                    // untracked place's old value is what reading it
                    // gives: the field's declared type.
                    if dom.track_places() {
                        if let Some(pk) = place_key(target) {
                            drop_places(env, &pk);
                            let old = match env.get(&pk) {
                                Some(o) => o.clone(),
                                None => dom.transfer(target, &[bv], env),
                            };
                            let nv = dom.assign_value(*tok, Some(&old), v);
                            env.insert(pk, nv);
                        }
                    }
                }
                other => {
                    eval(other, env, dom, self_ty);
                }
            }
            dom.bottom()
        }
        Expr::Call { callee, args, .. } => {
            let mut vs = vec![eval(callee, env, dom, self_ty)];
            for a in args {
                vs.push(eval(a, env, dom, self_ty));
            }
            let v = dom.transfer(e, &vs, env);
            for a in args {
                if let Expr::Ref { expr, tok } = a {
                    if let Some(pk) = place_key(expr) {
                        dom.observe_ref_arg(*tok, &pk, env);
                    }
                }
            }
            v
        }
        Expr::MethodCall { recv, method, args, .. } => {
            let mut vs = vec![eval(recv, env, dom, self_ty)];
            for a in args {
                vs.push(eval(a, env, dom, self_ty));
            }
            let v = dom.transfer(e, &vs, env);
            for a in args {
                if let Expr::Ref { expr, tok } = a {
                    if let Some(pk) = place_key(expr) {
                        dom.observe_ref_arg(*tok, &pk, env);
                    }
                }
            }
            // A mutating method invalidates the receiver's tracked
            // places and may update the receiver itself (`xs.push(…)`
            // grows the length).
            if dom.track_places() && !dom.method_is_pure(method) {
                if let Some(pk) = place_key(recv) {
                    drop_places(env, &pk);
                    if let Some(old) = env.get(&pk).cloned() {
                        let nv = dom.method_update(&pk, &old, method);
                        env.insert(pk, nv);
                    }
                }
            }
            v
        }
        Expr::Field { base, .. } => {
            let v = eval(base, env, dom, self_ty);
            if dom.track_places() {
                if let Some(pk) = place_key(e) {
                    if let Some(pv) = env.get(&pk) {
                        return pv.clone();
                    }
                }
            }
            dom.transfer(e, &[v], env)
        }
        Expr::Index { base, index, .. } => {
            let b = eval(base, env, dom, self_ty);
            let i = eval(index, env, dom, self_ty);
            dom.transfer(e, &[b, i], env)
        }
        Expr::StructLit { fields, .. } => {
            let vs: Vec<D::V> = fields.iter().map(|(_, fe)| eval(fe, env, dom, self_ty)).collect();
            dom.transfer(e, &vs, env)
        }
        Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
            let vs: Vec<D::V> = elems.iter().map(|el| eval(el, env, dom, self_ty)).collect();
            dom.transfer(e, &vs, env)
        }
        Expr::Range { lo, hi, .. } => {
            let mut vs = Vec::new();
            if let Some(l) = lo {
                vs.push(eval(l, env, dom, self_ty));
            }
            if let Some(h) = hi {
                vs.push(eval(h, env, dom, self_ty));
            }
            dom.transfer(e, &vs, env)
        }
        Expr::BlockExpr(b) => flow_block(b, env, dom, self_ty),
        Expr::If {
            pat, cond, then, alt, ..
        } => {
            let cv = eval(cond, env, dom, self_ty);
            let mut env_then = env.clone();
            if let Some(p) = pat {
                for (name, _) in &p.names {
                    env_then.insert(name.clone(), dom.bind_split(&cv));
                }
            } else {
                dom.refine(cond, true, &mut env_then);
            }
            let v1 = flow_block(then, &mut env_then, dom, self_ty);
            let mut env_alt = env.clone();
            if pat.is_none() {
                dom.refine(cond, false, &mut env_alt);
            }
            let v2 = match alt {
                Some(a) => eval(a, &mut env_alt, dom, self_ty),
                None => dom.bottom(),
            };
            // Path-sensitive domains drop environments of branches
            // that cannot fall through (`if oob { return; } use(i)`
            // sees only the in-range path).
            if dom.track_places() {
                let t_div = block_diverges(then);
                let a_div = alt.as_ref().is_some_and(|a| expr_diverges(a));
                *env = match (t_div, a_div) {
                    (true, false) => env_alt,
                    (false, true) => env_then,
                    _ => join_env::<D>(env_then, env_alt, dom),
                };
            } else {
                *env = join_env::<D>(env_then, env_alt, dom);
            }
            dom.join(&v1, &v2)
        }
        Expr::While { pat, cond, body, .. } => {
            flow_loop(env, dom, |env, dom| {
                let cv = eval(cond, env, dom, self_ty);
                let mut env_b = env.clone();
                if let Some(p) = pat {
                    for (name, _) in &p.names {
                        env_b.insert(name.clone(), dom.bind_split(&cv));
                    }
                } else {
                    dom.refine(cond, true, &mut env_b);
                }
                flow_block(body, &mut env_b, dom, self_ty);
                env_b
            });
            // A break-free `while` exits with the condition false.
            if pat.is_none() && !block_has_jump(body) {
                dom.refine(cond, false, env);
            }
            dom.bottom()
        }
        Expr::Loop { body, .. } => {
            flow_loop(env, dom, |env, dom| {
                let mut env_b = env.clone();
                flow_block(body, &mut env_b, dom, self_ty);
                env_b
            });
            dom.bottom()
        }
        Expr::For { pat, iter, body, .. } => {
            let it = eval(iter, env, dom, self_ty);
            let n = pat.names.len();
            flow_loop(env, dom, |env, dom| {
                let mut env_b = env.clone();
                for (pos, (name, _)) in pat.names.iter().enumerate() {
                    env_b.insert(name.clone(), dom.iter_elem_at(&it, pos, n));
                }
                flow_block(body, &mut env_b, dom, self_ty);
                env_b
            });
            dom.bottom()
        }
        Expr::Match { scrutinee, arms, .. } => {
            let sv = eval(scrutinee, env, dom, self_ty);
            let mut out_env: Option<Env<D::V>> = None;
            let mut val = dom.bottom();
            let prune = dom.track_places();
            for arm in arms {
                let mut env_a = env.clone();
                for (name, _) in &arm.pat.names {
                    env_a.insert(name.clone(), dom.bind_split(&sv));
                }
                if let Some(g) = &arm.guard {
                    eval(g, &mut env_a, dom, self_ty);
                    dom.refine(g, true, &mut env_a);
                }
                let v = eval(&arm.body, &mut env_a, dom, self_ty);
                val = dom.join(&val, &v);
                if prune && expr_diverges(&arm.body) {
                    continue;
                }
                out_env = Some(match out_env {
                    Some(prev) => join_env::<D>(prev, env_a, dom),
                    None => env_a,
                });
            }
            if let Some(oe) = out_env {
                *env = oe;
            }
            val
        }
        Expr::Closure { params, body, .. } => {
            let mut env_c = env.clone();
            for p in params {
                for (name, _) in &p.names {
                    env_c.insert(name.clone(), dom.bottom());
                }
            }
            let v = eval(body, &mut env_c, dom, self_ty);
            dom.transfer(e, &[v], env)
        }
        Expr::Return { value, .. } => {
            let v = match value {
                Some(v) => eval(v, env, dom, self_ty),
                None => dom.bottom(),
            };
            dom.observe_return(&v);
            dom.bottom()
        }
        Expr::Jump { value, .. } => {
            if let Some(v) = value {
                eval(v, env, dom, self_ty);
            }
            dom.bottom()
        }
    }
}

// ---------------------------------------------------------------------
// Value-range (interval) domain
// ---------------------------------------------------------------------

/// One end of an interval. `Len(s, o)` is the symbolic quantity
/// *length-of-collection-`s`* plus offset `o`, where `s` indexes the
/// domain's symbol table; lengths are non-negative and unbounded above,
/// which fixes which comparisons are decidable (see [`bound_le`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// −∞.
    NInf,
    /// An exact integer.
    Int(i128),
    /// `len(sym) + offset`.
    Len(u32, i128),
    /// +∞.
    PInf,
}

/// A closed integer interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound.
    pub lo: Bound,
    /// Upper bound.
    pub hi: Bound,
}

/// Is `a ≤ b` for every valuation of the length symbols? `None` when
/// the symbols make the comparison undecidable.
pub fn bound_le(a: Bound, b: Bound) -> Option<bool> {
    use Bound::*;
    match (a, b) {
        (NInf, _) | (_, PInf) => Some(true),
        (PInf, _) | (_, NInf) => Some(false),
        (Int(x), Int(y)) => Some(x <= y),
        (Len(s, x), Len(t, y)) if s == t => Some(x <= y),
        // len ≥ 0, so len+o ≥ o ≥ c whenever c ≤ o.
        (Int(c), Len(_, o)) if c <= o => Some(true),
        // len is a usize, so len+o never exceeds usize::MAX+o — which
        // keeps guard-derived bounds like `len-8` inside the u64 wrap
        // gate — and never drops below o.
        (Len(_, o), Int(c)) => {
            if o.saturating_add(u64::MAX as i128) <= c {
                Some(true)
            } else if o > c {
                Some(false)
            } else {
                None
            }
        }
        (Int(c), Len(_, o)) if c > o.saturating_add(u64::MAX as i128) => Some(false),
        _ => None,
    }
}

fn badd_const(b: Bound, k: i128) -> Bound {
    match b {
        Bound::Int(x) => Bound::Int(x.saturating_add(k)),
        Bound::Len(s, o) => Bound::Len(s, o.saturating_add(k)),
        inf => inf,
    }
}

/// `a + b`, biased toward `-∞` (`for_hi = false`) or `+∞` on loss.
fn badd(a: Bound, b: Bound, for_hi: bool) -> Bound {
    use Bound::*;
    let inf = if for_hi { PInf } else { NInf };
    match (a, b) {
        (NInf, PInf) | (PInf, NInf) => inf,
        (NInf, _) | (_, NInf) => NInf,
        (PInf, _) | (_, PInf) => PInf,
        (Int(x), Int(y)) => Int(x.saturating_add(y)),
        (Len(s, o), Int(c)) | (Int(c), Len(s, o)) => Len(s, o.saturating_add(c)),
        // Both lengths ≥ 0: the offsets alone are a valid lower bound.
        (Len(_, o1), Len(_, o2)) if !for_hi => Int(o1.saturating_add(o2)),
        _ => inf,
    }
}

/// `a - b`, biased like [`badd`].
fn bsub(a: Bound, b: Bound, for_hi: bool) -> Bound {
    use Bound::*;
    let inf = if for_hi { PInf } else { NInf };
    match (a, b) {
        (NInf, NInf) | (PInf, PInf) => inf,
        (NInf, _) | (_, PInf) => NInf,
        (PInf, _) | (_, NInf) => PInf,
        (Int(x), Int(y)) => Int(x.saturating_sub(y)),
        (Len(s, o), Int(c)) => Len(s, o.saturating_sub(c)),
        // Same symbol cancels exactly.
        (Len(s, o1), Len(t, o2)) if s == t => Int(o1.saturating_sub(o2)),
        // c - (len+o) ≤ c - o since len ≥ 0: valid as an upper bound.
        (Int(c), Len(_, o)) if for_hi => Int(c.saturating_sub(o)),
        _ => inf,
    }
}

// The arithmetic combinators below are transfer functions over
// intervals, deliberately named after the operations they model — they
// are not operator overloads (no Output; `Interval::add(a, b)` and
// `a.add(b)` both read as the interval operation).
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// `(-∞, +∞)`.
    pub const TOP: Interval = Interval {
        lo: Bound::NInf,
        hi: Bound::PInf,
    };

    /// The singleton `[c, c]`.
    pub const fn of(c: i128) -> Interval {
        Interval {
            lo: Bound::Int(c),
            hi: Bound::Int(c),
        }
    }

    /// `[lo, hi]`.
    pub const fn new(lo: i128, hi: i128) -> Interval {
        Interval {
            lo: Bound::Int(lo),
            hi: Bound::Int(hi),
        }
    }

    /// The exact constant, if the interval is a singleton.
    pub fn as_const(&self) -> Option<i128> {
        match (self.lo, self.hi) {
            (Bound::Int(a), Bound::Int(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Representable range of an integer type.
    pub fn of_ty(bits: u16, signed: bool) -> Interval {
        if signed {
            match bits {
                128 => Interval::new(i128::MIN, i128::MAX),
                b => {
                    let h = (1i128 << (b - 1)) - 1;
                    Interval::new(-h - 1, h)
                }
            }
        } else {
            match bits {
                128 => Interval {
                    lo: Bound::Int(0),
                    hi: Bound::PInf,
                },
                b => Interval::new(0, (1i128 << b) - 1),
            }
        }
    }

    /// Convex hull.
    pub fn join(self, b: Interval) -> Interval {
        let a = self;
        let lo = if bound_le(a.lo, b.lo) == Some(true) {
            a.lo
        } else if bound_le(b.lo, a.lo) == Some(true) {
            b.lo
        } else {
            Bound::NInf
        };
        let hi = if bound_le(a.hi, b.hi) == Some(true) {
            b.hi
        } else if bound_le(b.hi, a.hi) == Some(true) {
            a.hi
        } else {
            Bound::PInf
        };
        Interval { lo, hi }
    }

    /// Standard interval widening: any growing bound jumps to ±∞, so
    /// loop iteration stabilises in a bounded number of steps.
    pub fn widen(old: Interval, new: Interval) -> Interval {
        Interval {
            lo: if bound_le(old.lo, new.lo).unwrap_or(false) {
                old.lo
            } else {
                Bound::NInf
            },
            hi: if bound_le(new.hi, old.hi).unwrap_or(false) {
                old.hi
            } else {
                Bound::PInf
            },
        }
    }

    /// Refinement meet. Incomparable bounds prefer the symbolic side
    /// (index-vs-length proofs need the `Len` form).
    pub fn meet(a: Interval, b: Interval) -> Interval {
        let lo = if bound_le(a.lo, b.lo) == Some(true) {
            b.lo
        } else if bound_le(b.lo, a.lo) == Some(true) {
            a.lo
        } else if matches!(b.lo, Bound::Len(..)) {
            b.lo
        } else {
            a.lo
        };
        let hi = if bound_le(a.hi, b.hi) == Some(true) {
            a.hi
        } else if bound_le(b.hi, a.hi) == Some(true) || matches!(b.hi, Bound::Len(..)) {
            b.hi
        } else {
            a.hi
        };
        Interval { lo, hi }
    }

    /// `a + b`.
    pub fn add(self, b: Interval) -> Interval {
        let a = self;
        Interval {
            lo: badd(a.lo, b.lo, false),
            hi: badd(a.hi, b.hi, true),
        }
    }

    /// `a - b`.
    pub fn sub(a: Interval, b: Interval) -> Interval {
        Interval {
            lo: bsub(a.lo, b.hi, false),
            hi: bsub(a.hi, b.lo, true),
        }
    }

    /// `-a`.
    pub fn neg(a: Interval) -> Interval {
        Interval::sub(Interval::of(0), a)
    }

    fn scale(a: Interval, c: i128) -> Interval {
        if c == 0 {
            return Interval::of(0);
        }
        if c == 1 {
            return a;
        }
        let f = |b: Bound, for_hi: bool| match b {
            Bound::Int(x) => Bound::Int(x.saturating_mul(c)),
            _ if for_hi => Bound::PInf,
            _ => Bound::NInf,
        };
        if c > 0 {
            Interval {
                lo: f(a.lo, false),
                hi: f(a.hi, true),
            }
        } else {
            Interval {
                lo: f(a.hi, false),
                hi: f(a.lo, true),
            }
        }
    }

    /// `a * b`: exact when one side is constant, coarse (but sound)
    /// when both are non-negative, top otherwise.
    pub fn mul(self, b: Interval) -> Interval {
        let a = self;
        if let Some(c) = b.as_const() {
            return Interval::scale(a, c);
        }
        if let Some(c) = a.as_const() {
            return Interval::scale(b, c);
        }
        if bound_le(Bound::Int(0), a.lo) == Some(true) && bound_le(Bound::Int(0), b.lo) == Some(true) {
            let hi = match (a.hi, b.hi) {
                (Bound::Int(x), Bound::Int(y)) => Bound::Int(x.saturating_mul(y)),
                _ => Bound::PInf,
            };
            return Interval { lo: Bound::Int(0), hi };
        }
        // Signed finite × finite: the extrema sit at the four corner
        // products. A corner that overflows i128 escapes the bound space
        // entirely, so that case stays top.
        if let (Bound::Int(al), Bound::Int(ah), Bound::Int(bl), Bound::Int(bh)) = (a.lo, a.hi, b.lo, b.hi) {
            let corners = [
                al.checked_mul(bl),
                al.checked_mul(bh),
                ah.checked_mul(bl),
                ah.checked_mul(bh),
            ];
            if let [Some(p), Some(q), Some(r), Some(s)] = corners {
                return Interval {
                    lo: Bound::Int(p.min(q).min(r).min(s)),
                    hi: Bound::Int(p.max(q).max(r).max(s)),
                };
            }
        }
        Interval::TOP
    }

    /// `a / b` (Rust truncating division; caller checks `0 ∉ b`).
    pub fn div(a: Interval, b: Interval) -> Interval {
        if let Some(c) = b.as_const() {
            if c != 0 {
                let f = |x: Bound, for_hi: bool| match x {
                    Bound::Int(v) => Bound::Int(v / c),
                    _ if for_hi => Bound::PInf,
                    _ => Bound::NInf,
                };
                return if c > 0 {
                    Interval {
                        lo: f(a.lo, false),
                        hi: f(a.hi, true),
                    }
                } else {
                    Interval {
                        lo: f(a.hi, false),
                        hi: f(a.lo, true),
                    }
                };
            }
        }
        // Non-constant positive divisor shrinks a non-negative dividend.
        if bound_le(Bound::Int(0), a.lo) == Some(true) && bound_le(Bound::Int(1), b.lo) == Some(true) {
            return Interval {
                lo: Bound::Int(0),
                hi: a.hi,
            };
        }
        Interval::TOP
    }

    /// `a % b`.
    pub fn rem(a: Interval, b: Interval) -> Interval {
        let nonneg = bound_le(Bound::Int(0), a.lo) == Some(true);
        if let Some(c) = b.as_const() {
            if c != 0 {
                let m = c.abs() - 1;
                return if nonneg {
                    Interval {
                        lo: Bound::Int(0),
                        hi: if bound_le(a.hi, Bound::Int(m)) == Some(true) {
                            a.hi
                        } else {
                            Bound::Int(m)
                        },
                    }
                } else {
                    Interval::new(-m, m)
                };
            }
        }
        // `x % len` with x ≥ 0, len ≥ 1: the ring-index pattern.
        if nonneg && bound_le(Bound::Int(1), b.lo) == Some(true) {
            return Interval {
                lo: Bound::Int(0),
                hi: badd_const(b.hi, -1),
            };
        }
        Interval::TOP
    }

    /// `a << k` / `a >> k` for a constant shift.
    pub fn shl_const(a: Interval, k: i128) -> Interval {
        if !(0..63).contains(&k) {
            return Interval::TOP;
        }
        Interval::scale(a, 1i128 << k)
    }

    /// `a >> k` (arithmetic shift: monotone, floor).
    pub fn shr_const(a: Interval, k: i128) -> Interval {
        if !(0..127).contains(&k) {
            return Interval::TOP;
        }
        let f = |b: Bound, for_hi: bool| match b {
            Bound::Int(x) => Bound::Int(x >> k),
            _ if for_hi => Bound::PInf,
            _ => Bound::NInf,
        };
        Interval {
            lo: f(a.lo, false),
            hi: f(a.hi, true),
        }
    }

    /// `min(a, b)` as values (not lattice meet).
    pub fn min_v(a: Interval, b: Interval) -> Interval {
        let lo = if bound_le(a.lo, b.lo) == Some(true) {
            a.lo
        } else if bound_le(b.lo, a.lo) == Some(true) {
            b.lo
        } else {
            Bound::NInf
        };
        // min(a,b) ≤ a, so a.hi alone is already sound.
        let hi = if bound_le(a.hi, b.hi) == Some(true) {
            a.hi
        } else if bound_le(b.hi, a.hi) == Some(true) {
            b.hi
        } else {
            a.hi
        };
        Interval { lo, hi }
    }

    /// `max(a, b)` as values.
    pub fn max_v(a: Interval, b: Interval) -> Interval {
        let hi = if bound_le(a.hi, b.hi) == Some(true) {
            b.hi
        } else if bound_le(b.hi, a.hi) == Some(true) {
            a.hi
        } else {
            Bound::PInf
        };
        // max(a,b) ≥ a, so a.lo alone is already sound.
        let lo = if bound_le(a.lo, b.lo) == Some(true) { b.lo } else { a.lo };
        Interval { lo, hi }
    }

    /// Does the interval certainly exclude zero?
    pub fn excludes_zero(&self) -> bool {
        bound_le(Bound::Int(1), self.lo) == Some(true) || bound_le(self.hi, Bound::Int(-1)) == Some(true)
    }

    /// Is the interval certainly inside `[t.lo, t.hi]`?
    pub fn within(&self, t: Interval) -> bool {
        bound_le(t.lo, self.lo) == Some(true) && bound_le(self.hi, t.hi) == Some(true)
    }
}

/// Iterator payload for `.iter()` / `.enumerate()` chains.
#[derive(Clone, Debug, PartialEq)]
pub struct IterVal {
    /// Value interval of the yielded element.
    pub elem: RangeVal,
    /// Counter interval after `.enumerate()`.
    pub idx: Option<Interval>,
    /// Length symbol of the source collection, if exact.
    pub len_sym: Option<u32>,
    /// Remaining-length interval.
    pub len: Interval,
}

/// Abstract value of the range domain: the abstract type plus a value
/// interval (for integers) or a length interval (for collections).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeVal {
    /// Abstract type (the [`abs_transfer`] layer).
    pub ty: AbsTy,
    /// Value interval; for collections, the *length* interval.
    pub rng: Interval,
    /// Exact-length symbol, for collections whose length is otherwise
    /// only bounded.
    pub len_sym: Option<u32>,
    /// Iterator payload (`.iter()`, `.enumerate()`, …).
    pub iter: Option<Box<IterVal>>,
    /// `a..b` endpoints, for range expressions.
    pub pair: Option<Box<PairIdx>>,
}

/// Abstract `a..b` / `a..=b` / `a..` range value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairIdx {
    /// Start interval.
    pub a: Interval,
    /// End interval (unused when `open_hi`).
    pub b: Interval,
    /// `..=` rather than `..`.
    pub inclusive: bool,
    /// Syntactically-proven constant `b - a`, when the two ends are
    /// correlated (`base..base + K`).
    pub width: Option<i128>,
    /// `a..` — the end is the collection's own length.
    pub open_hi: bool,
}

impl RangeVal {
    /// No-information value.
    pub fn top() -> RangeVal {
        RangeVal {
            ty: AbsTy::Unknown,
            rng: Interval::TOP,
            len_sym: None,
            iter: None,
            pair: None,
        }
    }

    /// Value of type `ty` constrained to `rng`.
    pub fn of(ty: AbsTy, rng: Interval) -> RangeVal {
        RangeVal {
            ty,
            rng,
            len_sym: None,
            iter: None,
            pair: None,
        }
    }

    /// Is this a collection-like value (length semantics in `rng`)?
    pub fn is_coll(&self) -> bool {
        matches!(self.ty, AbsTy::Coll { .. }) || self.len_sym.is_some()
    }
}

/// Full representable range of an abstract type (raw `i64` for `Q16`).
pub fn ty_full_range(ty: &AbsTy) -> Interval {
    match ty {
        AbsTy::Int { bits, signed, .. } => Interval::of_ty(*bits, *signed),
        AbsTy::Q16 | AbsTy::RawQ16 => Interval::of_ty(64, true),
        _ => Interval::TOP,
    }
}

/// The non-negative half-line `[0, +∞)`.
pub const NONNEG: Interval = Interval {
    lo: Bound::Int(0),
    hi: Bound::PInf,
};

/// Clamp a computed interval into a type's representable range when it
/// provably fits, otherwise fall to the full range: Rust release builds
/// wrap, so an interval that escapes the type proves nothing about the
/// stored value. An unknown type has an unknown wrap width — top.
fn fit_or(iv: Interval, ty: &AbsTy) -> Interval {
    let full = ty_full_range(ty);
    if full == Interval::TOP {
        return Interval::TOP;
    }
    if iv.within(full) {
        iv
    } else {
        full
    }
}

/// Saturating clamp of each bound into `full` (exact model of the
/// `saturating_*` methods: values outside pin to the boundary).
fn saturate(iv: Interval, full: Interval) -> Interval {
    let clamp = |b: Bound| {
        if bound_le(full.hi, b) == Some(true) {
            full.hi
        } else if bound_le(b, full.lo) == Some(true) {
            full.lo
        } else {
            b
        }
    };
    match (clamp(iv.lo), clamp(iv.hi)) {
        (lo @ (Bound::Int(_) | Bound::Len(..)), hi) | (lo, hi @ (Bound::Int(_) | Bound::Len(..)))
            if bound_le(lo, hi) != Some(false) =>
        {
            Interval { lo, hi }
        }
        _ => full,
    }
}

/// `a & b`: a non-negative mask bounds the result regardless of the
/// other side (two's complement — the result's bits are a subset).
fn band_rng(a: Interval, b: Interval) -> Interval {
    if let Some(m) = b.as_const() {
        if m >= 0 {
            return Interval::new(0, m);
        }
    }
    if let Some(m) = a.as_const() {
        if m >= 0 {
            return Interval::new(0, m);
        }
    }
    if bound_le(Bound::Int(0), a.lo) == Some(true) && bound_le(Bound::Int(0), b.lo) == Some(true) {
        return Interval {
            lo: Bound::Int(0),
            hi: Interval::min_v(a, b).hi,
        };
    }
    Interval::TOP
}

/// `a | b` / `a ^ b` for non-negative operands: both below `2^k` keeps
/// the result below `2^k`.
fn bor_rng(a: Interval, b: Interval) -> Interval {
    if bound_le(Bound::Int(0), a.lo) == Some(true) && bound_le(Bound::Int(0), b.lo) == Some(true) {
        if let (Bound::Int(x), Bound::Int(y)) = (a.hi, b.hi) {
            let m = x.max(y).max(0) as u128;
            let cover = (u128::MAX >> m.leading_zeros().min(127)) as i128;
            return Interval::new(0, cover);
        }
        return NONNEG;
    }
    Interval::TOP
}

/// Weaken length-symbol bounds for use outside their function (`len ≥ 0`
/// keeps `len + o` as a lower bound `o`; upper bounds are lost).
fn strip_len(iv: Interval) -> Interval {
    Interval {
        lo: match iv.lo {
            Bound::Len(_, o) => Bound::Int(o),
            b => b,
        },
        hi: match iv.hi {
            Bound::Len(..) => Bound::PInf,
            b => b,
        },
    }
}

/// Structural equality of two simple expressions (paths, literals,
/// fields, arithmetic) — used to spot correlated `base..base + K` slice
/// bounds that plain interval arithmetic decorrelates.
pub fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Path { segs: s1 }, Expr::Path { segs: s2 }) => {
            s1.len() == s2.len() && s1.iter().zip(s2).all(|(x, y)| x.text == y.text)
        }
        (
            Expr::Lit {
                kind: LitKind::Int(v1), ..
            },
            Expr::Lit {
                kind: LitKind::Int(v2), ..
            },
        ) => v1.is_some() && v1 == v2,
        (Expr::Field { base: b1, name: n1, .. }, Expr::Field { base: b2, name: n2, .. }) => n1 == n2 && expr_eq(b1, b2),
        (
            Expr::Binary {
                op: o1,
                lhs: l1,
                rhs: r1,
                ..
            },
            Expr::Binary {
                op: o2,
                lhs: l2,
                rhs: r2,
                ..
            },
        ) => o1 == o2 && expr_eq(l1, l2) && expr_eq(r1, r2),
        (Expr::Unary { op: o1, expr: e1, .. }, Expr::Unary { op: o2, expr: e2, .. }) => o1 == o2 && expr_eq(e1, e2),
        (
            Expr::Index {
                base: b1, index: i1, ..
            },
            Expr::Index {
                base: b2, index: i2, ..
            },
        ) => expr_eq(b1, b2) && expr_eq(i1, i2),
        (
            Expr::MethodCall {
                recv: r1,
                method: m1,
                args: a1,
                ..
            },
            Expr::MethodCall {
                recv: r2,
                method: m2,
                args: a2,
                ..
            },
        ) => m1 == m2 && a1.is_empty() && a2.is_empty() && expr_eq(r1, r2),
        _ => false,
    }
}

/// Are two tokens glued in the source (multi-char operator halves)?
fn toks_adjacent(a: &Tok, b: &Tok) -> bool {
    a.line == b.line && b.col == a.col + a.text.chars().count() as u32
}

/// The six comparison relations `BinOp::Cmp` collapses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rel {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl Rel {
    fn negate(self) -> Rel {
        match self {
            Rel::Lt => Rel::Ge,
            Rel::Le => Rel::Gt,
            Rel::Gt => Rel::Le,
            Rel::Ge => Rel::Lt,
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
        }
    }
}

/// Decode the comparator whose first punct token is `toks[tok]`.
fn cmp_rel_at(toks: &[Tok], tok: usize) -> Option<Rel> {
    let a = toks.get(tok)?;
    let eq_next = toks
        .get(tok + 1)
        .is_some_and(|b| b.is_punct('=') && toks_adjacent(a, b));
    match (a.text.as_str(), eq_next) {
        ("<", false) => Some(Rel::Lt),
        ("<", true) => Some(Rel::Le),
        (">", false) => Some(Rel::Gt),
        (">", true) => Some(Rel::Ge),
        ("=", true) => Some(Rel::Eq),
        ("!", true) => Some(Rel::Ne),
        _ => None,
    }
}

/// Is the range whose `..` starts at `toks[tok]` inclusive (`..=`)?
fn range_is_inclusive(toks: &[Tok], tok: usize) -> bool {
    match (toks.get(tok + 1), toks.get(tok + 2)) {
        (Some(b), Some(c)) => b.is_punct('.') && c.is_punct('=') && toks_adjacent(b, c),
        _ => false,
    }
}

/// `const NAME: Ty = <int literal>;` items, collected lexically so the
/// range domain can fold module-level constants (`ARITY`, lint bounds)
/// that the expression grammar never binds. Value + declared type head.
fn collect_consts(toks: &[Tok]) -> BTreeMap<String, (i128, Option<String>)> {
    use crate::lexer::TokKind;
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i + 3 < toks.len() {
        if !toks[i].is_ident("const") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let mut j = i + 2;
        let mut ty = None;
        if toks.get(j).is_some_and(|t| t.is_punct(':')) {
            j += 1;
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
                ty = Some(toks[j].text.clone());
                j += 1;
            }
        }
        if toks.get(j).is_some_and(|t| t.is_punct('=')) {
            j += 1;
            let neg = toks.get(j).is_some_and(|t| t.is_punct('-'));
            if neg {
                j += 1;
            }
            if let (Some(t), true) = (toks.get(j), toks.get(j + 1).is_some_and(|t| t.is_punct(';'))) {
                if t.kind == TokKind::Int {
                    if let Some(v) = crate::parser::int_value(&t.text) {
                        if let Ok(v) = i128::try_from(v) {
                            out.insert(name, (if neg { -v } else { v }, ty));
                        }
                    }
                }
            }
        }
        i = j + 1;
    }
    out
}

/// Interval value of `{int}::MAX`-style associated constants and the
/// `Q16` named constants (raw-bit view).
fn assoc_const_interval(segs: &[PathSeg]) -> Option<Interval> {
    if segs.len() < 2 {
        return None;
    }
    let t = segs[segs.len() - 2].text.as_str();
    let c = segs[segs.len() - 1].text.as_str();
    if let Some((bits, signed)) = int_ty(t) {
        let full = Interval::of_ty(bits, signed);
        return match c {
            "MAX" => match full.hi {
                Bound::Int(h) => Some(Interval::of(h)),
                _ => Some(NONNEG),
            },
            "MIN" => match full.lo {
                Bound::Int(l) => Some(Interval::of(l)),
                _ => Some(full),
            },
            "BITS" => Some(Interval::of(bits as i128)),
            _ => None,
        };
    }
    if t == "Q16" {
        return match c {
            "ZERO" => Some(Interval::of(0)),
            "ONE" => Some(Interval::of(1 << 16)),
            "MAX" => Some(Interval::of(i64::MAX as i128)),
            "MIN" => Some(Interval::of(i64::MIN as i128)),
            _ => None,
        };
    }
    None
}

/// The interprocedural value-range domain: integer bindings carry an
/// [`Interval`] (raw-bit view for `Q16`), collections carry a *length*
/// interval plus an exact-length symbol, branch guards narrow both, and
/// return intervals feed bottom-up call summaries. `ni-bounds` and
/// `q16-range` wrap it and call the `*_proof` helpers.
pub struct RangeDomain<'a> {
    /// Type evaluation context.
    pub cx: TyCx<'a>,
    /// Module-level integer constants of the file (name → value and
    /// declared type).
    pub consts: BTreeMap<String, (i128, Option<String>)>,
    /// Length-symbol display names, indexed by `Bound::Len` symbol id.
    pub syms: Vec<String>,
    sym_ids: BTreeMap<String, u32>,
    gens: BTreeMap<String, u32>,
    /// Bottom-up return-interval summaries. Methods are stored under
    /// both `SelfTy::name` (precise) and the bare name (joined across
    /// impls — conservative on collision); call sites that know the
    /// receiver type prefer the qualified key.
    pub summaries: BTreeMap<String, Interval>,
    epoch: u32,
    cur_fn: String,
    cur_self: Option<String>,
}

impl<'a> RangeDomain<'a> {
    /// New domain over one file's types and tokens (its module-level
    /// constants are collected from the tokens).
    pub fn new(cx: TyCx<'a>) -> Self {
        RangeDomain {
            consts: collect_consts(cx.toks),
            cx,
            syms: Vec::new(),
            sym_ids: BTreeMap::new(),
            gens: BTreeMap::new(),
            summaries: BTreeMap::new(),
            epoch: 0,
            cur_fn: String::new(),
            cur_self: None,
        }
    }

    fn sym(&mut self, name: String) -> u32 {
        if let Some(&id) = self.sym_ids.get(&name) {
            return id;
        }
        let id = self.syms.len() as u32;
        self.syms.push(name.clone());
        self.sym_ids.insert(name, id);
        id
    }

    /// Stable symbol for `place`'s *current* length: epoch-qualified so
    /// nested-fn walks never alias, generation-qualified so mutation
    /// retires old symbols instead of aliasing the new length.
    fn place_sym(&mut self, place: &str) -> u32 {
        let key = format!("{}#{}", self.epoch, place);
        let gen = self.gens.get(&key).copied().unwrap_or(0);
        let disp = format!("{place}@{gen}#{}", self.epoch);
        self.sym(disp)
    }

    fn bump_gen(&mut self, place: &str) {
        let key = format!("{}#{}", self.epoch, place);
        *self.gens.entry(key).or_insert(0) += 1;
    }

    fn render_bound(&self, b: Bound) -> String {
        match b {
            Bound::NInf => "-inf".to_string(),
            Bound::PInf => "+inf".to_string(),
            Bound::Int(v) => v.to_string(),
            Bound::Len(s, o) => {
                let name = self
                    .syms
                    .get(s as usize)
                    .map(|n| n.split('@').next().unwrap_or(n).to_string())
                    .unwrap_or_else(|| format!("s{s}"));
                match o {
                    0 => format!("len({name})"),
                    o if o > 0 => format!("len({name})+{o}"),
                    o => format!("len({name}){o}"),
                }
            }
        }
    }

    /// Human-readable `[lo, hi]` for findings.
    pub fn render(&self, iv: &Interval) -> String {
        format!("[{}, {}]", self.render_bound(iv.lo), self.render_bound(iv.hi))
    }

    fn const_of(&self, e: &Expr) -> Option<i128> {
        match e {
            Expr::Lit {
                kind: LitKind::Int(Some(v)),
                ..
            } => i128::try_from(*v).ok(),
            Expr::Path { segs } if segs.len() == 1 => self.consts.get(&segs[0].text).map(|(v, _)| *v),
            Expr::Unary { op: '-', expr, .. } => self.const_of(expr).map(|v| -v),
            Expr::Cast { expr, .. } => self.const_of(expr),
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, b) = (self.const_of(lhs)?, self.const_of(rhs)?);
                match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    // --- proofs -------------------------------------------------------

    /// Prove `base[idx]` in-range. `Err` carries the offending interval,
    /// rendered for the finding message.
    pub fn index_proof(&self, base: &RangeVal, idx: &RangeVal) -> Result<(), String> {
        // Candidate lower bounds on the collection's length.
        let len_lo = base.rng.lo;
        let sym_len = base.len_sym.map(|s| Bound::Len(s, 0));
        // `b ≤ len`? (exclusive end / one-past-the-last-index)
        let le_len =
            |b: Bound| bound_le(b, len_lo) == Some(true) || sym_len.is_some_and(|l| bound_le(b, l) == Some(true));
        if let Some(p) = &idx.pair {
            // Slicing `base[a..b]`: need 0 ≤ a, a ≤ b, b ≤ len
            // (`b+1 ≤ len` when inclusive; `b = len` when open).
            let lo_ok = bound_le(Bound::Int(0), p.a.lo) == Some(true);
            let extra = i128::from(p.inclusive);
            let (ord_ok, end_hi) = if p.open_hi {
                // `base[a..]`: in range iff a ≤ len.
                (true, p.a.hi)
            } else if let Some(w) = p.width {
                // Correlated `a..a+w` beats decorrelated subtraction.
                (w + extra >= 0, badd_const(p.a.hi, w + extra))
            } else {
                (
                    bound_le(p.a.hi, badd_const(p.b.lo, extra)) == Some(true),
                    badd_const(p.b.hi, extra),
                )
            };
            if lo_ok && ord_ok && le_len(end_hi) {
                return Ok(());
            }
            return Err(format!(
                "range {}..{} over length {}",
                self.render(&p.a),
                if p.open_hi {
                    "len".to_string()
                } else {
                    self.render(&p.b)
                },
                self.render(&base.rng)
            ));
        }
        let lo_ok = bound_le(Bound::Int(0), idx.rng.lo) == Some(true);
        let hi_ok = le_len(badd_const(idx.rng.hi, 1));
        if lo_ok && hi_ok {
            return Ok(());
        }
        Err(format!(
            "index {} over length {}",
            self.render(&idx.rng),
            self.render(&base.rng)
        ))
    }

    /// Prove an unsigned `l - r` cannot underflow (`l ≥ r` for every
    /// valuation — same-symbol `len-k` bounds cancel exactly).
    pub fn sub_proof(&self, l: &RangeVal, r: &RangeVal) -> Result<(), String> {
        let d = Interval::sub(l.rng, r.rng);
        if bound_le(Bound::Int(0), d.lo) == Some(true) {
            return Ok(());
        }
        Err(format!(
            "{} - {} may underflow",
            self.render(&l.rng),
            self.render(&r.rng)
        ))
    }

    /// Prove a divisor (or modulus) cannot be zero.
    pub fn div_proof(&self, r: &RangeVal) -> Result<(), String> {
        if r.rng.excludes_zero() {
            return Ok(());
        }
        Err(format!("divisor {} may be zero", self.render(&r.rng)))
    }

    /// Prove a shift amount is within the value's bit width.
    pub fn shift_proof(&self, width: u16, r: &RangeVal) -> Result<(), String> {
        let ok = bound_le(Bound::Int(0), r.rng.lo) == Some(true)
            && bound_le(r.rng.hi, Bound::Int(width as i128 - 1)) == Some(true);
        if ok {
            return Ok(());
        }
        Err(format!("shift amount {} exceeds width {width}", self.render(&r.rng)))
    }

    /// Syntactically-correlated width of `lo..hi` (`base..base + K` is
    /// exactly `K` long), which interval arithmetic alone decorrelates.
    fn const_width(&self, lo: &Expr, hi: &Expr) -> Option<i128> {
        if let (Some(a), Some(b)) = (self.const_of(lo), self.const_of(hi)) {
            return Some(b - a);
        }
        if let Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
            ..
        } = hi
        {
            if expr_eq(lo, lhs) {
                return self.const_of(rhs);
            }
            if expr_eq(lo, rhs) {
                return self.const_of(lhs);
            }
        }
        if let Expr::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
            ..
        } = lo
        {
            if expr_eq(hi, lhs) {
                return self.const_of(rhs);
            }
        }
        if expr_eq(lo, hi) {
            return Some(0);
        }
        None
    }
}

/// A value about which only the type is known: its full representable
/// range.
pub fn top_of(ty: AbsTy) -> RangeVal {
    let rng = ty_full_range(&ty);
    RangeVal {
        ty,
        rng,
        len_sym: None,
        iter: None,
        pair: None,
    }
}

fn rv_join(a: &RangeVal, b: &RangeVal) -> RangeVal {
    RangeVal {
        ty: abs_join(&a.ty, &b.ty),
        rng: Interval::join(a.rng, b.rng),
        len_sym: if a.len_sym == b.len_sym { a.len_sym } else { None },
        iter: match (&a.iter, &b.iter) {
            (Some(x), Some(y)) if x == y => a.iter.clone(),
            _ => None,
        },
        pair: match (&a.pair, &b.pair) {
            (Some(x), Some(y)) if x == y => a.pair.clone(),
            _ => None,
        },
    }
}

fn rv_widen(a: &RangeVal, b: &RangeVal) -> RangeVal {
    RangeVal {
        ty: abs_join(&a.ty, &b.ty),
        rng: Interval::widen(a.rng, b.rng),
        len_sym: if a.len_sym == b.len_sym { a.len_sym } else { None },
        iter: match (&a.iter, &b.iter) {
            (Some(x), Some(y)) if x == y => a.iter.clone(),
            _ => None,
        },
        pair: match (&a.pair, &b.pair) {
            (Some(x), Some(y)) if x == y => a.pair.clone(),
            _ => None,
        },
    }
}

/// Methods that cannot change a tracked place's length (query methods,
/// iterator adapters, arithmetic). `iter_mut`/`get_mut` qualify: they
/// expose elements, never the length, and the domain does not track
/// element values per collection.
const LEN_PURE: [&str; 54] = [
    "len",
    "is_empty",
    "capacity",
    "iter",
    "iter_mut",
    "into_iter",
    "get",
    "get_mut",
    "first",
    "last",
    "front",
    "back",
    "peek",
    "contains",
    "contains_key",
    "binary_search",
    "as_slice",
    "as_mut_slice",
    "as_ref",
    "as_bytes",
    "clone",
    "to_owned",
    "to_vec",
    "enumerate",
    "skip",
    "take",
    "rev",
    "copied",
    "cloned",
    "zip",
    "chain",
    "map",
    "filter",
    "position",
    "find",
    "sum",
    "count",
    "fold",
    "min",
    "max",
    "clamp",
    "abs",
    "pow",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "raw",
    "trunc",
    "round",
    "ceil",
    "floor",
];

/// Interval of a binary integer op. Widening ops (`+ - * <<`) are
/// gated through [`fit_or`] — release builds wrap, so an interval that
/// escapes the type proves nothing; narrowing ops (`/ % & >>`…) cannot
/// leave the operand type and keep their raw result.
fn binary_rng(op: BinOp, a: Interval, b: Interval, ty: &AbsTy) -> Interval {
    match op {
        BinOp::Add => fit_or(Interval::add(a, b), ty),
        BinOp::Sub => fit_or(Interval::sub(a, b), ty),
        BinOp::Mul => fit_or(Interval::mul(a, b), ty),
        BinOp::Div => Interval::div(a, b),
        BinOp::Rem => Interval::rem(a, b),
        BinOp::Shl => match b.as_const() {
            Some(k) => fit_or(Interval::shl_const(a, k), ty),
            None => fit_or(Interval::TOP, ty),
        },
        BinOp::Shr => match b.as_const() {
            Some(k) => Interval::shr_const(a, k),
            None if bound_le(Bound::Int(0), a.lo) == Some(true) => Interval {
                lo: Bound::Int(0),
                hi: a.hi,
            },
            None => Interval::TOP,
        },
        BinOp::BitAnd => band_rng(a, b),
        BinOp::BitOr | BinOp::BitXor => bor_rng(a, b),
        BinOp::And | BinOp::Or | BinOp::Cmp => Interval::TOP,
    }
}

impl RangeDomain<'_> {
    /// Best-effort value interval of a *guard* expression — a read-only
    /// mini-evaluator for [`Domain::refine`], which has no engine `eval`
    /// to lean on. Uses the same wrap gating as `transfer`, so facts
    /// derived here hold for the runtime (possibly wrapped) values.
    fn peek(&mut self, e: &Expr, env: &Env<RangeVal>) -> RangeVal {
        match e {
            Expr::Lit {
                kind: LitKind::Int(Some(v)),
                ..
            } => {
                let ty = abs_transfer(e, &[], &self.cx);
                match i128::try_from(*v) {
                    Ok(c) => RangeVal::of(ty, Interval::of(c)),
                    Err(_) => RangeVal::top(),
                }
            }
            Expr::Unary { op: '-', expr, .. } => {
                let v = self.peek(expr, env);
                let rng = fit_or(Interval::neg(v.rng), &v.ty);
                RangeVal::of(v.ty, rng)
            }
            Expr::Path { segs } if segs.len() == 1 => match env.get(&segs[0].text) {
                Some(v) if !v.is_coll() => v.clone(),
                Some(_) => RangeVal::top(),
                None => match self.consts.get(&segs[0].text) {
                    Some((c, ty)) => {
                        let t = ty.as_deref().map(abs_from_name).unwrap_or(AbsTy::Unknown);
                        RangeVal::of(t, Interval::of(*c))
                    }
                    None => RangeVal::top(),
                },
            },
            Expr::Path { segs } => match assoc_const_interval(segs) {
                Some(iv) => RangeVal::of(abs_transfer(e, &[], &self.cx), iv),
                None => RangeVal::top(),
            },
            Expr::Field { .. } => match place_key(e).and_then(|pk| env.get(&pk)) {
                Some(v) if !v.is_coll() => v.clone(),
                _ => RangeVal::top(),
            },
            Expr::MethodCall { recv, method, args, .. } if method == "len" && args.is_empty() => RangeVal::of(
                AbsTy::Int {
                    bits: 64,
                    signed: false,
                    prov: Prov::None,
                },
                self.peek_len(recv, env),
            ),
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.peek(lhs, env);
                let r = self.peek(rhs, env);
                let ty = abs_transfer(e, &[l.ty.clone(), r.ty.clone()], &self.cx);
                RangeVal::of(ty.clone(), binary_rng(*op, l.rng, r.rng, &ty))
            }
            _ => RangeVal::top(),
        }
    }

    /// Length interval of `recv` for `recv.len()` in a guard: the
    /// concrete lower bound plus the exact-length symbol as the upper
    /// bound (both are simultaneously valid, and the mix is what lets
    /// `len ≥ 1` guards prove `len - 1` wrap-free while `i ≤ len - 1`
    /// stays symbolic for the index proof).
    fn peek_len(&mut self, recv: &Expr, env: &Env<RangeVal>) -> Interval {
        let entry = place_key(recv).and_then(|pk| env.get(&pk).cloned());
        let (rng, sym) = match &entry {
            Some(v) if v.is_coll() => (v.rng, v.len_sym),
            _ => (NONNEG, place_key(recv).map(|pk| self.place_sym(&pk))),
        };
        let lo = match rng.lo {
            Bound::Int(c) if c >= 0 => Bound::Int(c),
            _ => Bound::Int(0),
        };
        let hi = match sym {
            Some(s) => Bound::Len(s, 0),
            None => rng.hi,
        };
        Interval { lo, hi }
    }

    /// Meet constraint `c` into the value of `e`, when `e` is a
    /// narrowable place or a `len()` observation.
    fn narrow_to(&mut self, e: &Expr, c: Interval, env: &mut Env<RangeVal>) {
        if let Expr::MethodCall { recv, method, args, .. } = e {
            if method == "len" && args.is_empty() {
                self.narrow_len(recv, c, env);
            }
            return;
        }
        let Some(pk) = place_key(e) else { return };
        match env.get_mut(&pk) {
            Some(v) if !v.is_coll() => {
                v.rng = Interval::meet(v.rng, c);
            }
            None if pk.contains('.') => {
                // First observation of a tracked field place: the guard
                // narrows the field's declared type, whose width later
                // arithmetic on the place wrap-gates against. (A
                // collection's value is its length, which comparing the
                // collection itself does not bound.)
                let ty = self.place_ty(e, env);
                if !matches!(ty, AbsTy::Coll { .. }) {
                    let rng = Interval::meet(ty_full_range(&ty), c);
                    env.insert(pk, RangeVal::of(ty, rng));
                }
            }
            _ => {}
        }
    }

    /// Type of a place expression: its tracked binding, else (for a
    /// field) the declared field type resolved through its base.
    fn place_ty(&self, e: &Expr, env: &Env<RangeVal>) -> AbsTy {
        if let Some(v) = place_key(e).and_then(|pk| env.get(&pk)) {
            return v.ty.clone();
        }
        match e {
            Expr::Field { base, .. } => abs_transfer(e, &[self.place_ty(base, env)], &self.cx),
            _ => AbsTy::Unknown,
        }
    }

    /// Narrow the *length* interval of the collection behind a
    /// `recv.len()` guard (and pin its exact-length symbol).
    fn narrow_len(&mut self, recv: &Expr, c: Interval, env: &mut Env<RangeVal>) {
        let c = Interval::meet(strip_len(c), NONNEG);
        let Some(pk) = place_key(recv) else { return };
        let sym = self.place_sym(&pk);
        match env.get_mut(&pk) {
            Some(v) if v.is_coll() || v.ty == AbsTy::Unknown => {
                v.rng = Interval::meet(v.rng, c);
                if v.len_sym.is_none() {
                    v.len_sym = Some(sym);
                }
            }
            Some(_) => {}
            None if pk.contains('.') => {
                let ty = self.place_ty(recv, env);
                env.insert(
                    pk,
                    RangeVal {
                        ty,
                        rng: c,
                        len_sym: Some(sym),
                        iter: None,
                        pair: None,
                    },
                );
            }
            None => {}
        }
    }

    fn narrow_cmp(&mut self, rel: Rel, lhs: &Expr, rhs: &Expr, env: &mut Env<RangeVal>) {
        let l = self.peek(lhs, env).rng;
        let r = self.peek(rhs, env).rng;
        let line = |lo: Bound, hi: Bound| Interval { lo, hi };
        let (lc, rc) = match rel {
            Rel::Lt => (
                line(Bound::NInf, badd_const(r.hi, -1)),
                line(badd_const(l.lo, 1), Bound::PInf),
            ),
            Rel::Le => (line(Bound::NInf, r.hi), line(l.lo, Bound::PInf)),
            Rel::Gt => (
                line(badd_const(r.lo, 1), Bound::PInf),
                line(Bound::NInf, badd_const(l.hi, -1)),
            ),
            Rel::Ge => (line(r.lo, Bound::PInf), line(Bound::NInf, l.hi)),
            Rel::Eq => (r, l),
            Rel::Ne => {
                // Only singleton exclusion trims an interval edge.
                let trim = |x: Interval, other: Interval| match other.as_const() {
                    Some(c) if x.lo == Bound::Int(c) => line(Bound::Int(c + 1), x.hi),
                    Some(c) if x.hi == Bound::Int(c) => line(x.lo, Bound::Int(c - 1)),
                    _ => Interval::TOP,
                };
                (trim(l, r), trim(r, l))
            }
        };
        self.narrow_to(lhs, lc, env);
        self.narrow_to(rhs, rc, env);
    }

    /// [`Domain::transfer`] for method calls: a table of the std (and
    /// `Q16`) methods whose result interval is computable from the
    /// receiver's, with a bottom-up call-summary fallback.
    fn method_transfer(&mut self, method: &str, nargs: usize, ty: AbsTy, children: &[RangeVal]) -> RangeVal {
        let c0 = &children[0];
        match (method, nargs) {
            ("leading_zeros" | "trailing_zeros" | "count_ones" | "count_zeros", 0) => {
                // Bit counts of a `w`-bit value lie in [0, w]; a receiver
                // proven nonzero pins leading/trailing zeros below `w`.
                let Some(w) = c0.ty.width() else {
                    return top_of(ty);
                };
                let hi = if method != "count_ones" && c0.rng.excludes_zero() {
                    i128::from(w) - 1
                } else {
                    i128::from(w)
                };
                RangeVal::of(ty, Interval::new(0, hi))
            }
            ("len", 0) => {
                let lo = match c0.rng.lo {
                    Bound::Int(c) if c >= 0 && c0.is_coll() => Bound::Int(c),
                    _ => Bound::Int(0),
                };
                let hi = match (c0.len_sym, c0.is_coll()) {
                    (Some(s), _) => Bound::Len(s, 0),
                    (None, true) => c0.rng.hi,
                    (None, false) => Bound::PInf,
                };
                RangeVal::of(ty, Interval { lo, hi })
            }
            ("iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut", 0) | ("drain", _) => {
                let elem = match &c0.ty {
                    AbsTy::Coll { elem, .. } => top_of((**elem).clone()),
                    _ => RangeVal::top(),
                };
                let len = if c0.is_coll() {
                    Interval::meet(c0.rng, NONNEG)
                } else {
                    NONNEG
                };
                RangeVal {
                    ty,
                    rng: Interval::TOP,
                    len_sym: None,
                    iter: Some(Box::new(IterVal {
                        elem,
                        idx: None,
                        len_sym: c0.len_sym,
                        len,
                    })),
                    pair: None,
                }
            }
            ("enumerate", 0) => match &c0.iter {
                Some(it) => {
                    let idx = match it.len_sym {
                        Some(s) => Interval {
                            lo: Bound::Int(0),
                            hi: Bound::Len(s, -1),
                        },
                        None => Interval {
                            lo: Bound::Int(0),
                            hi: badd_const(it.len.hi, -1),
                        },
                    };
                    let mut it2 = it.clone();
                    it2.idx = Some(idx);
                    RangeVal {
                        iter: Some(it2),
                        ..c0.clone()
                    }
                }
                None => top_of(ty),
            },
            ("skip", 1) => match &c0.iter {
                Some(it) => {
                    let k = children[1].rng;
                    let mut it2 = it.clone();
                    it2.len = Interval::meet(Interval::sub(it.len, k), NONNEG);
                    it2.len_sym = None;
                    if let Some(idx) = it.idx {
                        it2.idx = Some(Interval {
                            lo: badd(idx.lo, k.lo, false),
                            hi: idx.hi,
                        });
                    }
                    RangeVal {
                        iter: Some(it2),
                        ..c0.clone()
                    }
                }
                None => top_of(ty),
            },
            ("take", 1) => match &c0.iter {
                Some(it) => {
                    let k = children[1].rng;
                    let mut it2 = it.clone();
                    it2.len = Interval::meet(Interval::min_v(it.len, k), NONNEG);
                    it2.len_sym = None;
                    RangeVal {
                        iter: Some(it2),
                        ..c0.clone()
                    }
                }
                None => top_of(ty),
            },
            (
                "rev" | "copied" | "cloned" | "by_ref" | "peekable" | "as_slice" | "as_mut_slice" | "as_ref" | "as_mut"
                | "to_vec" | "clone" | "to_owned" | "unwrap" | "expect" | "unwrap_or_default",
                _,
            ) => RangeVal { ty, ..c0.clone() },
            ("unwrap_or", 1) => RangeVal::of(ty, Interval::join(c0.rng, children[1].rng)),
            ("min", 1) => RangeVal::of(ty, Interval::min_v(c0.rng, children[1].rng)),
            ("max", 1) => RangeVal::of(ty, Interval::max_v(c0.rng, children[1].rng)),
            ("clamp", 2) => RangeVal::of(
                ty,
                Interval::min_v(Interval::max_v(c0.rng, children[1].rng), children[2].rng),
            ),
            ("abs", 0) => {
                let rng = if bound_le(Bound::Int(0), c0.rng.lo) == Some(true) {
                    c0.rng
                } else {
                    match (c0.rng.lo, c0.rng.hi) {
                        (Bound::Int(l), Bound::Int(h)) => Interval::new(0, l.abs().max(h.abs())),
                        _ => NONNEG,
                    }
                };
                RangeVal::of(ty.clone(), fit_or(rng, &ty))
            }
            ("pow", 1) => {
                let full = ty_full_range(&ty);
                if bound_le(Bound::Int(0), c0.rng.lo) == Some(true) {
                    RangeVal::of(
                        ty,
                        Interval {
                            lo: Bound::Int(0),
                            hi: full.hi,
                        },
                    )
                } else {
                    top_of(ty)
                }
            }
            ("saturating_add" | "saturating_sub" | "saturating_mul", 1) => {
                let full = ty_full_range(&ty);
                let raw = match method {
                    "saturating_add" => Interval::add(c0.rng, children[1].rng),
                    "saturating_sub" => Interval::sub(c0.rng, children[1].rng),
                    _ => Interval::mul(c0.rng, children[1].rng),
                };
                if full == Interval::TOP {
                    top_of(ty)
                } else {
                    RangeVal::of(ty, saturate(raw, full))
                }
            }
            ("trunc" | "round" | "ceil" | "floor", 0) if c0.ty == AbsTy::Q16 => {
                // Integer part of the raw-bit interval, ±1 for rounding.
                let shr = Interval::shr_const(c0.rng, 16);
                RangeVal::of(
                    ty,
                    Interval {
                        lo: shr.lo,
                        hi: badd_const(shr.hi, 1),
                    },
                )
            }
            ("raw", 0) if c0.ty == AbsTy::Q16 => RangeVal::of(ty, c0.rng),
            ("count", 0) => match &c0.iter {
                Some(it) => RangeVal::of(
                    ty,
                    Interval {
                        lo: Bound::Int(0),
                        hi: match it.len_sym {
                            Some(s) => Bound::Len(s, 0),
                            None => it.len.hi,
                        },
                    },
                ),
                None => top_of(ty),
            },
            _ => {
                let recv_ty = match &c0.ty {
                    AbsTy::Named(s) => Some(s.as_str()),
                    AbsTy::Q16 => Some("Q16"),
                    AbsTy::Frac => Some("Frac"),
                    _ => None,
                };
                let hit = recv_ty
                    .and_then(|t| self.summaries.get(&format!("{t}::{method}")))
                    .or_else(|| self.summaries.get(method));
                match hit {
                    Some(s) => RangeVal::of(ty.clone(), Interval::meet(*s, ty_full_range(&ty))),
                    None => top_of(ty),
                }
            }
        }
    }

    /// Slice/array parameter detection straight off the `TypeRef`
    /// tokens (`&[u64]`, `&mut [Q16]`, `[u8; 64]`) — `abs_from_typeref`
    /// heads at the element type for these, so the coll-ness and the
    /// const length live only in the raw tokens.
    fn slice_of_typeref(&mut self, t: &TypeRef, owner: Option<&str>) -> Option<RangeVal> {
        let toks = &t.toks;
        let mut i = 0;
        while i < toks.len() && (toks[i] == "&" || toks[i] == "mut" || toks[i].starts_with('\'')) {
            i += 1;
        }
        if toks.get(i).map(|s| s.as_str()) != Some("[") {
            return None;
        }
        let mut elem = AbsTy::Unknown;
        let mut j = i + 1;
        while j < toks.len() && toks[j] != ";" && toks[j] != "]" {
            let c = toks[j].chars().next().unwrap_or(' ');
            if c.is_alphabetic() || c == '_' {
                elem = abs_from_name(&toks[j]);
                break;
            }
            j += 1;
        }
        let mut rng = NONNEG;
        let mut len_sym = None;
        if let Some(semi) = toks.iter().position(|s| s == ";") {
            let konst = toks.get(semi + 1).and_then(|k| {
                crate::parser::int_value(k)
                    .and_then(|v| i128::try_from(v).ok())
                    .or_else(|| self.consts.get(k.as_str()).map(|(v, _)| *v))
            });
            if let Some(c) = konst {
                rng = Interval::of(c);
            }
        } else if let Some(owner) = owner {
            len_sym = Some(self.place_sym(owner));
        }
        Some(RangeVal {
            ty: AbsTy::Coll {
                head: "Slice".to_string(),
                elem: Box::new(elem),
            },
            rng,
            len_sym,
            iter: None,
            pair: None,
        })
    }
}

/// Is the array literal whose `[` is `toks[tok]` a repeat (`[x; N]`)?
/// The AST flattens both forms to `elems`, so the `;` lives only in
/// the token stream (scanned at bracket depth 1).
fn array_is_repeat(toks: &[Tok], tok: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[tok..] {
        match t.text.as_str() {
            "[" | "(" | "{" => depth += 1,
            "]" | ")" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            ";" if depth == 1 => return true,
            _ => {}
        }
    }
    false
}

impl Domain for RangeDomain<'_> {
    type V = RangeVal;

    fn bottom(&self) -> RangeVal {
        RangeVal::top()
    }

    fn join(&self, a: &RangeVal, b: &RangeVal) -> RangeVal {
        rv_join(a, b)
    }

    fn widen(&self, old: &RangeVal, new: &RangeVal) -> RangeVal {
        rv_widen(old, new)
    }

    fn track_places(&self) -> bool {
        true
    }

    fn param_value(&mut self, p: &Param, self_ty: Option<&str>) -> RangeVal {
        if p.is_self {
            let ty = self_ty.map(abs_from_name).unwrap_or(AbsTy::Unknown);
            return top_of(ty);
        }
        let owner = match p.pat.names.as_slice() {
            [(name, _)] => Some(name.as_str()),
            _ => None,
        };
        let Some(t) = &p.ty else {
            return RangeVal::top();
        };
        if let Some(v) = self.slice_of_typeref(t, owner) {
            return v;
        }
        let ty = abs_from_typeref(t);
        match ty {
            AbsTy::Coll { .. } => RangeVal {
                ty,
                rng: NONNEG,
                len_sym: owner.map(|o| self.place_sym(o)),
                iter: None,
                pair: None,
            },
            _ => top_of(ty),
        }
    }

    fn bind_split(&self, _v: &RangeVal) -> RangeVal {
        RangeVal::top()
    }

    fn iter_elem(&self, v: &RangeVal) -> RangeVal {
        if let Some(p) = &v.pair {
            let extra = i128::from(p.inclusive);
            let hi = if p.open_hi {
                Bound::PInf
            } else if let Some(w) = p.width {
                badd_const(p.a.hi, w - 1 + extra)
            } else {
                badd_const(p.b.hi, extra - 1)
            };
            // The loop variable's Rust type is unknown (literal bounds
            // default-infer), so leave `ty` unknown: arithmetic on it
            // wrap-gates to TOP rather than trusting a guessed width.
            return RangeVal::of(AbsTy::Unknown, Interval { lo: p.a.lo, hi });
        }
        if let Some(it) = &v.iter {
            return it.elem.clone();
        }
        match &v.ty {
            AbsTy::Coll { elem, .. } => top_of((**elem).clone()),
            _ => RangeVal::top(),
        }
    }

    fn iter_elem_at(&self, v: &RangeVal, pos: usize, n: usize) -> RangeVal {
        if n == 2 {
            if let Some(it) = &v.iter {
                if let Some(idx) = it.idx {
                    return match pos {
                        0 => RangeVal::of(
                            AbsTy::Int {
                                bits: 64,
                                signed: false,
                                prov: Prov::None,
                            },
                            idx,
                        ),
                        _ => it.elem.clone(),
                    };
                }
            }
        }
        self.iter_elem(v)
    }

    fn let_decl(&mut self, ty: &TypeRef, inferred: RangeVal) -> RangeVal {
        if let Some(v) = self.slice_of_typeref(ty, None) {
            // Declared `[T; N]` / `&[T]`: the initialiser's value wins
            // when it carries length info, else the declared shape.
            if inferred.is_coll() {
                return inferred;
            }
            return v;
        }
        let dt = abs_from_typeref(ty);
        match dt {
            AbsTy::Unknown => inferred,
            AbsTy::Int { .. } | AbsTy::Q16 | AbsTy::RawQ16 => {
                let rng = fit_or(inferred.rng, &dt);
                RangeVal::of(dt, rng)
            }
            _ => {
                let mut v = inferred;
                if v.ty == AbsTy::Unknown {
                    v.ty = dt;
                }
                v
            }
        }
    }

    fn assign_field(&mut self, old: &RangeVal, _value: &RangeVal) -> RangeVal {
        // A field store never changes the base's own type or length.
        old.clone()
    }

    fn assign_value(&mut self, tok: usize, old: Option<&RangeVal>, new: RangeVal) -> RangeVal {
        let op = self.cx.toks.get(tok).map(|t| t.text.as_str()).unwrap_or("=");
        if op == "=" {
            // Strong update. A store never changes the place's type: an
            // untyped value (an unresolved call) takes the old type.
            return match old {
                Some(o) if new.ty == AbsTy::Unknown && o.ty != AbsTy::Unknown => {
                    let full = if matches!(o.ty, AbsTy::Coll { .. }) {
                        NONNEG
                    } else {
                        ty_full_range(&o.ty)
                    };
                    RangeVal::of(o.ty.clone(), Interval::meet(new.rng, full))
                }
                _ => new,
            };
        }
        let Some(old) = old else {
            // Compound op on an untracked place: value unknown.
            return RangeVal::top();
        };
        let ty = if old.ty == AbsTy::Unknown {
            new.ty.clone()
        } else {
            old.ty.clone()
        };
        let (a, b) = (old.rng, new.rng);
        let rng = match op {
            "+" => fit_or(Interval::add(a, b), &ty),
            "-" => fit_or(Interval::sub(a, b), &ty),
            "*" => fit_or(Interval::mul(a, b), &ty),
            "/" => Interval::div(a, b),
            "%" => Interval::rem(a, b),
            "&" => band_rng(a, b),
            "|" | "^" => bor_rng(a, b),
            "<" => match b.as_const() {
                Some(k) => fit_or(Interval::shl_const(a, k), &ty),
                None => fit_or(Interval::TOP, &ty),
            },
            ">" => match b.as_const() {
                Some(k) => Interval::shr_const(a, k),
                None => ty_full_range(&ty),
            },
            _ => ty_full_range(&ty),
        };
        RangeVal::of(ty, rng)
    }

    fn refine(&mut self, cond: &Expr, taken: bool, env: &mut Env<RangeVal>) {
        match cond {
            Expr::Unary { op: '!', expr, .. } => self.refine(expr, !taken, env),
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } if taken => {
                self.refine(lhs, true, env);
                self.refine(rhs, true, env);
            }
            Expr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
                ..
            } if !taken => {
                self.refine(lhs, false, env);
                self.refine(rhs, false, env);
            }
            Expr::Binary {
                op: BinOp::Cmp,
                lhs,
                rhs,
                tok,
            } => {
                if let Some(rel) = cmp_rel_at(self.cx.toks, *tok) {
                    let rel = if taken { rel } else { rel.negate() };
                    self.narrow_cmp(rel, lhs, rhs, env);
                }
            }
            Expr::MethodCall { recv, method, args, .. } if method == "is_empty" && args.is_empty() => {
                let c = if taken {
                    Interval::of(0)
                } else {
                    Interval {
                        lo: Bound::Int(1),
                        hi: Bound::PInf,
                    }
                };
                self.narrow_len(recv, c, env);
            }
            _ => {}
        }
    }

    fn enter_fn(&mut self, func: &FnItem, self_ty: Option<&str>) {
        // New epoch, NOT `gens.clear()`: a nested-fn walk must never
        // re-mint a symbol that aliases the outer function's places.
        self.epoch += 1;
        self.cur_fn = func.name.clone();
        self.cur_self = self_ty.map(str::to_owned);
    }

    fn observe_return(&mut self, v: &RangeVal) {
        if self.cur_fn.is_empty() {
            return;
        }
        let s = strip_len(v.rng);
        if let Some(ty) = &self.cur_self {
            self.summaries
                .entry(format!("{ty}::{}", self.cur_fn))
                .and_modify(|e| *e = Interval::join(*e, s))
                .or_insert(s);
        }
        self.summaries
            .entry(self.cur_fn.clone())
            .and_modify(|e| *e = Interval::join(*e, s))
            .or_insert(s);
    }

    fn method_is_pure(&self, method: &str) -> bool {
        LEN_PURE.contains(&method)
    }

    fn method_update(&mut self, place: &str, old: &RangeVal, method: &str) -> RangeVal {
        self.bump_gen(place);
        if !old.is_coll() {
            return self.havoc(old);
        }
        let one = Interval::of(1);
        let rng = match method {
            "push" | "push_back" | "push_front" | "insert" => Interval::meet(Interval::add(old.rng, one), NONNEG),
            "pop" | "pop_back" | "pop_front" | "remove" | "swap_remove" => {
                Interval::meet(Interval::sub(old.rng, one), NONNEG)
            }
            "clear" => Interval::of(0),
            "truncate" => Interval {
                lo: Bound::Int(0),
                hi: old.rng.hi,
            },
            _ => NONNEG,
        };
        let sym = self.place_sym(place);
        RangeVal {
            ty: old.ty.clone(),
            rng,
            len_sym: Some(sym),
            iter: None,
            pair: None,
        }
    }

    fn observe_ref_arg(&mut self, tok: usize, place: &str, env: &mut Env<RangeVal>) {
        let is_mut = self.cx.toks.get(tok + 1).is_some_and(|t| t.is_ident("mut"));
        if !is_mut {
            return;
        }
        drop_places(env, place);
        self.bump_gen(place);
        if let Some(old) = env.get(place).cloned() {
            let nv = if old.is_coll() {
                let sym = self.place_sym(place);
                RangeVal {
                    ty: old.ty.clone(),
                    rng: NONNEG,
                    len_sym: Some(sym),
                    iter: None,
                    pair: None,
                }
            } else {
                self.havoc(&old)
            };
            env.insert(place.to_string(), nv);
        }
    }

    fn havoc(&self, v: &RangeVal) -> RangeVal {
        if v.is_coll() {
            // Keeping `len_sym` is sound: if any loop path mutated the
            // collection, `method_update`/`observe_ref_arg` re-minted
            // the symbol on that path and the join already dropped it.
            return RangeVal {
                ty: v.ty.clone(),
                rng: NONNEG,
                len_sym: v.len_sym,
                iter: None,
                pair: None,
            };
        }
        top_of(v.ty.clone())
    }

    fn transfer(&mut self, e: &Expr, children: &[RangeVal], _env: &Env<RangeVal>) -> RangeVal {
        let tys: Vec<AbsTy> = children.iter().map(|c| c.ty.clone()).collect();
        let ty = abs_transfer(e, &tys, &self.cx);
        match e {
            Expr::Lit {
                kind: LitKind::Int(Some(v)),
                ..
            } => match i128::try_from(*v) {
                Ok(c) => RangeVal::of(ty, Interval::of(c)),
                Err(_) => top_of(ty),
            },
            // Only reached on env miss: module-level constants.
            Expr::Path { segs } if segs.len() == 1 => match self.consts.get(&segs[0].text) {
                Some((c, dty)) => {
                    let t = dty.as_deref().map(abs_from_name).unwrap_or(ty);
                    RangeVal::of(t, Interval::of(*c))
                }
                None => top_of(ty),
            },
            Expr::Path { segs } => match assoc_const_interval(segs) {
                Some(iv) => RangeVal::of(ty, iv),
                None => top_of(ty),
            },
            Expr::Unary { op, .. } => match (op, children.first()) {
                ('-', Some(c0)) => {
                    let rng = fit_or(Interval::neg(c0.rng), &ty);
                    RangeVal::of(ty, rng)
                }
                ('*', Some(c0)) => RangeVal { ty, ..c0.clone() },
                _ => top_of(ty),
            },
            Expr::Ref { .. } | Expr::Try { .. } => match children.first() {
                Some(c0) => RangeVal { ty, ..c0.clone() },
                None => top_of(ty),
            },
            Expr::Cast { .. } => {
                let rng = children
                    .first()
                    .map(|c0| fit_or(c0.rng, &ty))
                    .unwrap_or_else(|| ty_full_range(&ty));
                RangeVal::of(ty, rng)
            }
            Expr::Binary { op, .. } => {
                let (a, b) = (&children[0], &children[1]);
                if *op == BinOp::Mul && a.ty == AbsTy::Q16 && b.ty == AbsTy::Q16 {
                    // Q16 × Q16: i128 product of raw bits, then >> 16.
                    let prod = Interval::mul(a.rng, b.rng);
                    let rng = fit_or(Interval::shr_const(prod, 16), &AbsTy::Q16);
                    return RangeVal::of(ty, rng);
                }
                if *op == BinOp::Div && a.ty == AbsTy::Q16 {
                    // Q16 ÷ Q16 pre-shifts the dividend: full range.
                    return top_of(ty);
                }
                RangeVal::of(ty.clone(), binary_rng(*op, a.rng, b.rng, &ty))
            }
            Expr::Range { lo, hi, tok } => {
                let a = if lo.is_some() { children[0].rng } else { Interval::of(0) };
                let bpos = usize::from(lo.is_some());
                let (b, open_hi) = match children.get(bpos) {
                    Some(c) if hi.is_some() => (c.rng, false),
                    _ => (Interval::TOP, true),
                };
                let inclusive = range_is_inclusive(self.cx.toks, *tok);
                let width = match (lo, hi) {
                    (Some(l), Some(h)) => self.const_width(l, h),
                    (None, Some(h)) => self.const_of(h),
                    _ => None,
                };
                RangeVal {
                    ty,
                    rng: Interval::TOP,
                    len_sym: None,
                    iter: None,
                    pair: Some(Box::new(PairIdx {
                        a,
                        b,
                        inclusive,
                        width,
                        open_hi,
                    })),
                }
            }
            Expr::Array { tok, .. } => {
                let rng = if array_is_repeat(self.cx.toks, *tok) && children.len() == 2 {
                    Interval::meet(children[1].rng, NONNEG)
                } else {
                    Interval::of(children.len() as i128)
                };
                let cty = match ty {
                    AbsTy::Coll { .. } => ty,
                    _ => AbsTy::Coll {
                        head: "Array".to_string(),
                        elem: Box::new(AbsTy::Unknown),
                    },
                };
                RangeVal {
                    ty: cty,
                    rng,
                    len_sym: None,
                    iter: None,
                    pair: None,
                }
            }
            Expr::Index { .. } => {
                let base = &children[0];
                let idx = &children[1];
                if let Some(p) = &idx.pair {
                    // Slicing: the result is a collection whose length
                    // is the (syntactic-width-aware) span of the range.
                    let extra = i128::from(p.inclusive);
                    let len = if let Some(w) = p.width {
                        Interval::of((w + extra).max(0))
                    } else if p.open_hi {
                        let whole = Interval {
                            lo: match base.rng.lo {
                                Bound::Int(c) if c >= 0 && base.is_coll() => Bound::Int(c),
                                _ => Bound::Int(0),
                            },
                            hi: match base.len_sym {
                                Some(s) => Bound::Len(s, 0),
                                None if base.is_coll() => base.rng.hi,
                                None => Bound::PInf,
                            },
                        };
                        Interval::meet(Interval::sub(whole, p.a), NONNEG)
                    } else {
                        let end = Interval {
                            lo: badd_const(p.b.lo, extra),
                            hi: badd_const(p.b.hi, extra),
                        };
                        Interval::meet(Interval::sub(end, p.a), NONNEG)
                    };
                    return RangeVal {
                        ty: base.ty.clone(),
                        rng: len,
                        len_sym: None,
                        iter: None,
                        pair: None,
                    };
                }
                top_of(ty)
            }
            Expr::Field { .. } => {
                let base = &children[0];
                if ty == AbsTy::RawQ16 && base.ty == AbsTy::Q16 {
                    // `.0` raw-bit view: same bits, same interval.
                    return RangeVal::of(ty, base.rng);
                }
                if matches!(ty, AbsTy::Coll { .. }) {
                    let len_sym = place_key(e).map(|pk| self.place_sym(&pk));
                    return RangeVal {
                        ty,
                        rng: NONNEG,
                        len_sym,
                        iter: None,
                        pair: None,
                    };
                }
                top_of(ty)
            }
            Expr::Call { callee, .. } => {
                if let Expr::Path { segs } = callee.as_ref() {
                    let first = segs.first().map(|s| s.text.as_str()).unwrap_or("");
                    let last = segs.last().map(|s| s.text.as_str()).unwrap_or("");
                    if matches!(last, "Some" | "Ok") && children.len() == 2 {
                        return RangeVal {
                            ty,
                            ..children[1].clone()
                        };
                    }
                    if last == "from" && children.len() == 2 {
                        return RangeVal::of(ty.clone(), fit_or(children[1].rng, &ty));
                    }
                    if first == "Q16" && last == "from_int" && children.len() == 2 {
                        let rng = fit_or(Interval::shl_const(children[1].rng, 16), &AbsTy::Q16);
                        return RangeVal::of(ty, rng);
                    }
                    if segs.len() == 1 && first == "Q16" && children.len() == 2 {
                        // Tuple-struct ctor over raw bits.
                        return RangeVal::of(ty, children[1].rng);
                    }
                    if matches!(ty, AbsTy::Coll { .. }) && matches!(last, "new" | "default" | "with_capacity") {
                        return RangeVal {
                            ty,
                            rng: Interval::of(0),
                            len_sym: None,
                            iter: None,
                            pair: None,
                        };
                    }
                    if matches!(last, "min" | "max") && children.len() == 3 {
                        let f = if last == "min" {
                            Interval::min_v
                        } else {
                            Interval::max_v
                        };
                        return RangeVal::of(ty, f(children[1].rng, children[2].rng));
                    }
                    if let Some(s) = self.summaries.get(last) {
                        return RangeVal::of(ty.clone(), Interval::meet(*s, ty_full_range(&ty)));
                    }
                }
                top_of(ty)
            }
            Expr::MethodCall { method, args, .. } => self.method_transfer(method, args.len(), ty, children),
            _ => top_of(ty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::for_each_fn;
    use crate::{lexer, parser};

    /// Collect the types inferred for every method-call receiver in
    /// `src`, keyed by method name.
    fn recv_types(src: &str, structs: &StructTable) -> BTreeMap<String, AbsTy> {
        struct Recv(BTreeMap<String, AbsTy>);
        impl Check<RangeDomain<'_>> for Recv {
            fn check(&mut self, _: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
                if let Expr::MethodCall { method, .. } = e {
                    self.0.insert(method.clone(), children[0].ty.clone());
                }
            }
        }
        let toks = lexer::lex(src);
        let file = parser::parse(&toks);
        let mut probe = Checked {
            inner: RangeDomain::new(TyCx { structs, toks: &toks }),
            hook: Recv(BTreeMap::new()),
        };
        for_each_fn(&file, &mut |f, self_ty| flow_fn(f, self_ty, &mut probe));
        probe.hook.0
    }

    #[test]
    fn field_types_resolve_through_the_struct_table() {
        let mut structs = StructTable::new();
        structs.insert(
            "Ring".to_string(),
            vec![(
                "buf".to_string(),
                AbsTy::Coll {
                    head: "VecDeque".to_string(),
                    elem: Box::new(AbsTy::Unknown),
                },
            )],
        );
        // The second input first observes `self.buf` in a `len()` guard,
        // which must keep the field's declared type.
        for src in [
            "impl Ring { fn push(&mut self, ev: u32) { self.buf.push_back(ev); } }",
            "impl Ring { fn push(&mut self, ev: u32) { if self.buf.len() >= self.cap { return; } self.buf.push_back(ev); } }",
        ] {
            let seen = recv_types(src, &structs);
            assert!(
                matches!(seen.get("push_back"), Some(AbsTy::Coll { head, .. }) if head == "VecDeque"),
                "{src}: {seen:?}"
            );
        }
    }

    /// Regression: bumping a counter field (`self.pushed += 1`) must not
    /// dissolve the receiver's type — `self.buf` still resolves after it.
    #[test]
    fn field_store_keeps_the_base_type() {
        let mut structs = StructTable::new();
        structs.insert(
            "Ring".to_string(),
            vec![(
                "buf".to_string(),
                AbsTy::Coll {
                    head: "VecDeque".to_string(),
                    elem: Box::new(AbsTy::Unknown),
                },
            )],
        );
        let seen = recv_types(
            "impl Ring { fn push(&mut self, ev: u32) { self.pushed += 1; self.buf.push_back(ev); } }",
            &structs,
        );
        assert!(matches!(seen.get("push_back"), Some(AbsTy::Coll { head, .. }) if head == "VecDeque"));
    }

    #[test]
    fn q16_raw_and_frac_components_are_tracked() {
        let structs = StructTable::new();
        let seen = recv_types(
            "fn f(q: Q16, r: Frac) -> i64 { let a = q.raw(); let n = r.num(); let lhs = a.wrapping_mul(1); lhs }",
            &structs,
        );
        assert_eq!(seen.get("raw"), Some(&AbsTy::Q16));
        assert_eq!(seen.get("num"), Some(&AbsTy::Frac));
        assert_eq!(seen.get("wrapping_mul"), Some(&AbsTy::RawQ16));
    }

    #[test]
    fn branches_join_and_loops_converge() {
        let structs = StructTable::new();
        let seen = recv_types(
            "fn f(q: Q16, flag: bool) { let mut x = q; if flag { x = q; } else { x = q; } x.raw(); \
             let mut v: Vec<u32> = Vec::new(); while flag { v.push(1); } v.len(); }",
            &structs,
        );
        assert_eq!(seen.get("raw"), Some(&AbsTy::Q16));
        assert!(matches!(seen.get("push"), Some(AbsTy::Coll { head, .. }) if head == "Vec"));
        assert!(matches!(seen.get("len"), Some(AbsTy::Coll { head, .. }) if head == "Vec"));
    }

    #[test]
    fn declared_let_types_beat_unknown_inits() {
        let structs = StructTable::new();
        let seen = recv_types(
            "fn f() { let out: Vec<Option<u64>> = mystery(); out.push(None); }",
            &structs,
        );
        assert!(matches!(seen.get("push"), Some(AbsTy::Coll { head, .. }) if head == "Vec"));
    }

    #[test]
    fn casts_carry_frac_provenance_and_widths() {
        let structs = StructTable::new();
        let seen = recv_types("fn f(r: Frac) { let n = r.num() as u64; n.min(1); }", &structs);
        assert_eq!(
            seen.get("min"),
            Some(&AbsTy::Int {
                bits: 64,
                signed: false,
                prov: Prov::FracNum
            })
        );
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::ast::for_each_fn;
    use crate::{lexer, parser};

    #[test]
    fn interval_algebra_basics() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(Interval::join(a, b), Interval::new(0, 20));
        assert_eq!(Interval::meet(a, b), Interval::new(5, 10));
        assert_eq!(Interval::add(a, b), Interval::new(5, 30));
        assert_eq!(Interval::sub(a, b), Interval::new(-20, 5));
        // Widening blows a growing bound to infinity, never oscillates.
        let w = Interval::widen(a, Interval::new(0, 11));
        assert_eq!(
            w,
            Interval {
                lo: Bound::Int(0),
                hi: Bound::PInf
            }
        );
        assert_eq!(Interval::widen(w, w), w);
    }

    #[test]
    fn symbolic_len_bounds_cancel_and_compare() {
        let len = Interval {
            lo: Bound::Int(0),
            hi: Bound::Len(3, 0),
        };
        let d = Interval::sub(len, Interval::of(1));
        assert_eq!(d.hi, Bound::Len(3, -1));
        // len(s)-1 < len(s), and both fit in a usize.
        assert_eq!(bound_le(Bound::Len(3, -1), Bound::Len(3, 0)), Some(true));
        assert_eq!(bound_le(Bound::Len(3, -8), Bound::Int(u64::MAX as i128)), Some(true));
        assert_eq!(bound_le(Bound::Len(3, 9), Bound::Int(8)), Some(false));
        assert_eq!(bound_le(Bound::Int(5), Bound::Len(3, 5)), Some(true));
        assert_eq!(bound_le(Bound::Int(5), Bound::Len(3, 4)), None);
    }

    /// Run the range domain over `src` exactly as `ni-bounds` will:
    /// prove every integer slice index / range slice and every unsigned
    /// subtraction, returning (proof count, failure messages).
    fn run(src: &str) -> (usize, Vec<String>) {
        /// (proofs, failure messages)
        struct Proofs(usize, Vec<String>);
        impl Check<RangeDomain<'_>> for Proofs {
            fn check(&mut self, d: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
                let res = match e {
                    Expr::Index { .. } if children.len() == 2 => d.index_proof(&children[0], &children[1]),
                    Expr::Binary { op: BinOp::Sub, .. }
                        if matches!(children.first().map(|c| &c.ty), Some(AbsTy::Int { signed: false, .. })) =>
                    {
                        d.sub_proof(&children[0], &children[1])
                    }
                    _ => return,
                };
                match res {
                    Ok(()) => self.0 += 1,
                    Err(m) => self.1.push(m),
                }
            }
        }
        let toks = lexer::lex(src);
        let file = parser::parse(&toks);
        let structs = StructTable::new();
        let mut probe = Checked {
            inner: RangeDomain::new(TyCx {
                structs: &structs,
                toks: &toks,
            }),
            hook: Proofs(0, Vec::new()),
        };
        for_each_fn(&file, &mut |f, self_ty| flow_fn(f, self_ty, &mut probe));
        (probe.hook.0, probe.hook.1)
    }

    #[test]
    fn guarded_index_is_proven_unguarded_is_not() {
        let (oks, errs) = run("fn f(xs: &[u64], i: usize) -> u64 { if i < xs.len() { xs[i] } else { 0 } }");
        assert_eq!((oks, errs.len()), (1, 0), "errs: {errs:?}");
        let (oks, errs) = run("fn f(xs: &[u64], i: usize) -> u64 { xs[i] }");
        assert_eq!((oks, errs.len()), (0, 1));
        assert!(errs[0].contains("index ["), "interval should render: {}", errs[0]);
    }

    #[test]
    fn const_array_literal_indexing() {
        let (oks, errs) = run("fn f() -> u64 { let t = [1u64, 2, 3]; t[2] }");
        assert_eq!((oks, errs.len()), (1, 0), "errs: {errs:?}");
        let (_, errs) = run("fn f() -> u64 { let t = [1u64, 2, 3]; t[3] }");
        assert_eq!(errs.len(), 1);
        let (oks, errs) = run("fn f(i: usize) -> u64 { let t = [0u64; 16]; if i < 16 { t[i] } else { 0 } }");
        assert_eq!((oks, errs.len()), (1, 0), "errs: {errs:?}");
    }

    #[test]
    fn while_loop_guard_renarrows_after_widening() {
        let (oks, errs) = run("fn f(xs: &[u64]) -> u64 { let mut s = 0u64; let mut i = 0usize; \
             while i < xs.len() { s += xs[i]; i += 1; } s }");
        // Loop bodies are re-walked to stabilisation, so proof sites
        // record once per pass — every pass must prove, none may fail.
        assert!(oks >= 1 && errs.is_empty(), "oks: {oks}, errs: {errs:?}");
    }

    #[test]
    fn for_range_and_enumerate_indices_prove() {
        let (oks, errs) = run("fn f(xs: &[u64]) -> u64 { let mut s = 0u64; for i in 0..xs.len() { s += xs[i]; } s }");
        assert!(oks >= 1 && errs.is_empty(), "oks: {oks}, errs: {errs:?}");
        let (oks, errs) = run("fn f(xs: &[u64]) -> u64 { let mut s = 0u64; \
             for (i, _x) in xs.iter().enumerate() { s += xs[i]; } s }");
        assert!(oks >= 1 && errs.is_empty(), "oks: {oks}, errs: {errs:?}");
    }

    #[test]
    fn len_guard_proves_unsigned_sub_wrap_free() {
        let (oks, errs) =
            run("fn f(xs: &[u64]) -> u64 { if xs.len() >= 1 { let last = xs.len() - 1; xs[last] } else { 0 } }");
        // One sub proof + one index proof.
        assert_eq!((oks, errs.len()), (2, 0), "errs: {errs:?}");
        let (_, errs) = run("fn f(xs: &[u64]) -> usize { xs.len() - 1 }");
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn correlated_slice_with_assert_pattern_proves() {
        // The exact `debug_assert!`-shaped guard the BatchSoa cash-in
        // uses: a conjunction narrowing the length first (short-circuit
        // keeps the rhs subtraction wrap-free), then a `base..base+K`
        // slice whose width is recovered syntactically.
        let (oks, errs) = run("const ARITY: usize = 8;\n\
             fn f(xs: &[u64], base: usize) -> u64 {\n\
                 if ARITY <= xs.len() && base <= xs.len() - ARITY {\n\
                     let w = &xs[base..base + ARITY];\n\
                     w[ARITY - 1]\n\
                 } else { 0 }\n\
             }");
        // Two sub proofs (guard rhs, ARITY-1) + two index proofs
        // (range slice, w[7]).
        assert_eq!((oks, errs.len()), (4, 0), "errs: {errs:?}");
    }

    #[test]
    fn call_summaries_flow_bottom_up() {
        let (oks, errs) = run("fn cap() -> usize { 8 }\n\
             fn g(xs: &[u64]) -> u64 { let c = cap(); if xs.len() > c { xs[c] } else { 0 } }");
        assert_eq!((oks, errs.len()), (1, 0), "errs: {errs:?}");
    }

    #[test]
    fn widening_terminates_on_coupled_counters() {
        // Two counters growing at different rates: without widening the
        // interval chain is infinite; the loop must still stabilise
        // inside the engine's iteration cap.
        let (_, errs) = run("fn f(n: u64) -> u64 { let mut i = 0u64; let mut k = 0u64; \
             while i < n { i += 1; k += 2; } k }");
        assert!(errs.is_empty(), "errs: {errs:?}");
    }

    #[test]
    fn is_empty_guard_narrows_length() {
        let (oks, errs) = run("fn f(xs: &[u64]) -> u64 { if xs.is_empty() { return 0; } xs[0] }");
        assert_eq!((oks, errs.len()), (1, 0), "errs: {errs:?}");
    }

    #[test]
    fn mutation_retires_length_facts() {
        // After `push`, the old `len >= 1` fact must not keep proving
        // `v[0]`… it still holds (push only grows), but after `pop` the
        // guard fact is gone and the index must be reported.
        let (_, errs) = run("fn f(v: &mut Vec<u64>) -> u64 { if v.len() >= 1 { v.pop(); return v[0]; } 0 }");
        assert_eq!(errs.len(), 1, "pop must invalidate the len>=1 proof");
    }
}
