//! The eleven lint families.
//!
//! Two kinds of pass coexist:
//!
//! * **Token scans** (`ni-no-float`, `unsafe-hygiene`, and the collection
//!   mentions of `sim-determinism`) — the property is lexical, so the
//!   token stream is the right abstraction and the diagnostics are
//!   byte-compatible with the original lexer-only analyzer.
//! * **AST / dataflow passes** (`ni-no-panic`, `Instant::now` detection,
//!   `ni-no-alloc`, `q16-overflow`, `sweep-determinism`, `ni-bounds`,
//!   `q16-range`) — shape- and type-dependent rules that walk
//!   [`crate::ast`] and run [`crate::dataflow`] domains. The parser
//!   models macro arguments too, so these passes are the only view of
//!   function bodies; `tests/parse_coverage.rs` holds the NI and
//!   simulation file sets free of unparsed spans.
//!
//! Each pass receives the exemption state ([`Scopes`]) and reports
//! [`Finding`]s for non-exempt tokens only. The mapping of lints to paths
//! lives in `analysis.toml`; these functions do not know which crates
//! they run over.

use crate::ast::{self, for_each_expr_in_block, for_each_fn, BinOp, Expr, LitKind, Param};
use crate::callgraph::CallGraph;
use crate::dataflow::{
    abs_from_typeref, bound_le, flow_fn, AbsTy, Bound, Check, Checked, Domain, Env, Interval, Prov, RangeDomain,
    RangeVal, StructTable, TyCx,
};
use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::scope::Scopes;
use crate::FileAnalysis;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `ni-no-float`: the paper's i960RD has no FPU — NI-resident code must not
/// mention `f32`/`f64` (types, `as` casts, suffixed literals) or spell a
/// float literal. Fixed-point (`fixedpt::{Q16, Frac}`) carries all ratios.
pub const NI_NO_FLOAT: &str = "ni-no-float";
/// `ni-no-panic`: firmware must degrade, not die — no `unwrap()`,
/// `expect(…)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` outside
/// tests. Invariants may be annotated with an allow + reason.
pub const NI_NO_PANIC: &str = "ni-no-panic";
/// `sim-determinism`: simulation crates must be replayable — no wall-clock
/// (`Instant::now`, `SystemTime`) and no iteration-order-unstable
/// collections (`HashMap`, `HashSet`).
pub const SIM_DETERMINISM: &str = "sim-determinism";
/// `unsafe-hygiene`: `unsafe` only in allowlisted files, and every use must
/// carry a `// SAFETY:` comment.
pub const UNSAFE_HYGIENE: &str = "unsafe-hygiene";
/// `ni-no-alloc`: no heap allocation reachable from functions marked
/// `// analysis: hot` — the steady-state service pass on a 4 MB card must
/// never touch an allocator. Init-time constructors (`new`,
/// `with_capacity`, `default`) are allowlisted call-graph boundaries.
pub const NI_NO_ALLOC: &str = "ni-no-alloc";
/// `q16-overflow`: dataflow over `fixedpt::{Q16, Frac}` — raw Q16×Q16
/// multiplies must widen through i128, shifts must stay inside the value's
/// width, and `Frac` components must not be truncated back to integers.
pub const Q16_OVERFLOW: &str = "q16-overflow";
/// `sweep-determinism`: in the parallel sweep runner and its callers,
/// published results must not depend on thread identity or channel-recv
/// arrival order; index-addressed publication is the blessed pattern.
pub const SWEEP_DETERMINISM: &str = "sweep-determinism";
/// `ni-cycle-budget`: WCET-style cost analysis — every loop reachable
/// from a `// analysis: hot` root must have a static trip-count bound
/// (counted range or `// analysis: bound N`), and the root's worst-case
/// cycles (the [`crate::costmodel`] interval, i960-calibrated) must fit
/// the configured per-decision budget at 66 MHz.
pub const NI_CYCLE_BUDGET: &str = "ni-cycle-budget";
/// `ni-stack-depth`: hot roots must have bounded call depth, no
/// recursion, no oversized stack locals — NI firmware runs on a small
/// fixed interrupt stack.
pub const NI_STACK_DEPTH: &str = "ni-stack-depth";
/// `ni-bounds`: value-range proofs over the hot path — every slice
/// index/range, unsigned subtraction, division/remainder and shift
/// reachable from a `// analysis: hot` root must be *proven* in-range by
/// the interval domain ([`crate::dataflow::RangeDomain`]), upgrading
/// panic-freedom from token shape to semantics. Failures report the
/// offending interval.
pub const NI_BOUNDS: &str = "ni-bounds";
/// `q16-range`: range-aware overflow proofs over fixed-point arithmetic —
/// integer multiplies, left shifts and narrowing casts must be proven to
/// fit the result width by the interval domain, replacing `q16-overflow`'s
/// type-shape rules ("always widen through i128") with semantic proofs of
/// which widenings are actually required.
pub const Q16_RANGE: &str = "q16-range";

/// All lint names, for config validation.
pub const ALL_LINTS: [&str; 11] = [
    NI_NO_FLOAT,
    NI_NO_PANIC,
    SIM_DETERMINISM,
    UNSAFE_HYGIENE,
    NI_NO_ALLOC,
    Q16_OVERFLOW,
    SWEEP_DETERMINISM,
    NI_CYCLE_BUDGET,
    NI_STACK_DEPTH,
    NI_BOUNDS,
    Q16_RANGE,
];

/// CLI metadata for one lint family (`list-lints`, numeric-key
/// validation).
pub struct LintInfo {
    /// Family name as spelled in `analysis.toml`.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Extra config keys beyond `paths`: `(key, meaning)`.
    pub keys: &'static [(&'static str, &'static str)],
}

/// One entry per family, in [`ALL_LINTS`] order.
pub const LINT_INFO: [LintInfo; 11] = [
    LintInfo {
        name: NI_NO_FLOAT,
        summary: "no f32/f64 types, casts or literals in NI-resident code (i960 has no FPU)",
        keys: &[],
    },
    LintInfo {
        name: NI_NO_PANIC,
        summary: "no unwrap/expect/panic!-family outside tests — firmware degrades, never dies",
        keys: &[],
    },
    LintInfo {
        name: SIM_DETERMINISM,
        summary: "no wall clock or hash-ordered collections in simulation crates",
        keys: &[],
    },
    LintInfo {
        name: UNSAFE_HYGIENE,
        summary: "unsafe only in allowlisted files, always with a // SAFETY: comment",
        keys: &[("allow_files", "files permitted to contain unsafe blocks")],
    },
    LintInfo {
        name: NI_NO_ALLOC,
        summary: "no heap allocation reachable from // analysis: hot roots",
        keys: &[],
    },
    LintInfo {
        name: Q16_OVERFLOW,
        summary: "Q16/Frac arithmetic must widen multiplies and keep shifts in width",
        keys: &[],
    },
    LintInfo {
        name: SWEEP_DETERMINISM,
        summary: "published sweep results independent of thread identity and arrival order",
        keys: &[],
    },
    LintInfo {
        name: NI_CYCLE_BUDGET,
        summary: "worst-case cycles per hot root bounded and within the per-decision budget",
        keys: &[(
            "budget_cycles",
            "worst-case cycles allowed per decision (default 1_000_000)",
        )],
    },
    LintInfo {
        name: NI_STACK_DEPTH,
        summary: "hot roots: bounded call depth, no recursion, no large stack locals",
        keys: &[
            ("max_call_depth", "deepest call chain from a hot root (default 24)"),
            (
                "max_stack_bytes",
                "worst-case stack bytes from a hot root (default 16_384)",
            ),
            ("max_local_bytes", "largest single stack local (default 1_024)"),
        ],
    },
    LintInfo {
        name: NI_BOUNDS,
        summary: "every hot-path index, unsigned sub, division and shift proven in-range by the interval domain",
        keys: &[],
    },
    LintInfo {
        name: Q16_RANGE,
        summary: "fixed-point multiplies, left shifts and narrowing casts proven to fit their width",
        keys: &[],
    },
];

fn finding(lint: &str, file: &Path, tok: &Tok, message: String, note: &str) -> Finding {
    Finding {
        lint: lint.to_string(),
        file: file.to_path_buf(),
        line: tok.line,
        col: tok.col,
        message,
        note: (!note.is_empty()).then(|| note.to_string()),
    }
}

/// Visit every expression in every function body of the file.
fn each_body_expr<'a>(ast: &'a ast::File, f: &mut impl FnMut(&'a Expr)) {
    for_each_fn(ast, &mut |func, _| {
        if let Some(b) = &func.body {
            for_each_expr_in_block(b, f);
        }
    });
}

/// Run `ni-no-float` over one file. Purely lexical: a float literal or an
/// `f32`/`f64` mention is a violation wherever it appears.
pub fn ni_no_float(file: &Path, toks: &[Tok], scopes: &Scopes, out: &mut Vec<Finding>) {
    const NOTE: &str = "NI-resident code runs on an FPU-less i960-class core; \
                        use fixedpt::Q16 or fixedpt::Frac (see DESIGN.md, Static invariants)";
    for (i, t) in toks.iter().enumerate() {
        if scopes.is_exempt(NI_NO_FLOAT, i) {
            continue;
        }
        match t.kind {
            TokKind::Float => out.push(finding(
                NI_NO_FLOAT,
                file,
                t,
                format!("floating-point literal `{}` in NI-resident code", t.text),
                NOTE,
            )),
            TokKind::Ident if t.text == "f32" || t.text == "f64" => out.push(finding(
                NI_NO_FLOAT,
                file,
                t,
                format!("`{}` mentioned in NI-resident code", t.text),
                NOTE,
            )),
            _ => {}
        }
    }
}

/// Run `ni-no-panic` over one file: panicking macros and
/// `.unwrap()`/`.expect(…)` calls, found as AST shapes in every function
/// body (macro arguments included).
pub fn ni_no_panic(file: &Path, toks: &[Tok], scopes: &Scopes, ast: &ast::File, out: &mut Vec<Finding>) {
    const NOTE: &str = "NI firmware must degrade rather than die: return a typed error, \
                        or justify the invariant with `// analysis: allow(ni-no-panic) reason=\"…\"`";
    each_body_expr(ast, &mut |e| match e {
        Expr::MacroCall { name, tok, .. }
            if matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                && !scopes.is_exempt(NI_NO_PANIC, *tok) =>
        {
            out.push(finding(
                NI_NO_PANIC,
                file,
                &toks[*tok],
                format!("`{name}!` in non-test NI code"),
                NOTE,
            ));
        }
        Expr::MethodCall { method, tok, .. }
            if matches!(method.as_str(), "unwrap" | "expect") && !scopes.is_exempt(NI_NO_PANIC, *tok) =>
        {
            out.push(finding(
                NI_NO_PANIC,
                file,
                &toks[*tok],
                format!("`.{method}(…)` in non-test NI code"),
                NOTE,
            ));
        }
        _ => {}
    });
}

/// Run `sim-determinism` over one file. Collection/wall-clock *mentions*
/// stay token scans; `Instant::now` is recognised as an AST path so that
/// mentioning the `Instant` type stays legal.
pub fn sim_determinism(file: &Path, toks: &[Tok], scopes: &Scopes, ast: &ast::File, out: &mut Vec<Finding>) {
    const NOTE: &str = "simulation crates must be replayable from a seed: use the simulated \
                        clock for time and BTreeMap/BTreeSet (stable iteration) for collections";
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || scopes.is_exempt(SIM_DETERMINISM, i) {
            continue;
        }
        if matches!(t.text.as_str(), "HashMap" | "HashSet" | "SystemTime") {
            out.push(finding(
                SIM_DETERMINISM,
                file,
                t,
                format!("`{}` in deterministic-simulation code", t.text),
                NOTE,
            ));
        }
    }
    each_body_expr(ast, &mut |e| {
        if let Expr::Path { segs } = e {
            for w in segs.windows(2) {
                if w[0].text == "Instant" && w[1].text == "now" && !scopes.is_exempt(SIM_DETERMINISM, w[0].tok) {
                    out.push(finding(
                        SIM_DETERMINISM,
                        file,
                        &toks[w[0].tok],
                        "`Instant::now` (wall clock) in deterministic-simulation code".to_string(),
                        NOTE,
                    ));
                }
            }
        }
    });
}

/// Run `unsafe-hygiene` over one file. `allowed` — is this file on the
/// unsafe allowlist?
pub fn unsafe_hygiene(file: &Path, toks: &[Tok], scopes: &Scopes, allowed: bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") || scopes.is_exempt(UNSAFE_HYGIENE, i) {
            continue;
        }
        if !allowed {
            out.push(finding(
                UNSAFE_HYGIENE,
                file,
                t,
                "`unsafe` in a file not on the unsafe allowlist".to_string(),
                "add the file to `allow_files` under [lint.unsafe-hygiene] in analysis.toml \
                 (with review) or remove the unsafe code",
            ));
        }
        // A `// SAFETY:` comment must appear on the same line or the
        // immediately preceding comment lines.
        let mut documented = false;
        for other in toks.iter() {
            if other.kind != TokKind::LineComment && other.kind != TokKind::BlockComment {
                continue;
            }
            let dist_ok = other.line <= t.line && t.line - other.line <= 3;
            if dist_ok && other.text.contains("SAFETY:") {
                documented = true;
                break;
            }
        }
        if !documented {
            out.push(finding(
                UNSAFE_HYGIENE,
                file,
                t,
                "`unsafe` without a `// SAFETY:` comment".to_string(),
                "document why this block is sound in a `// SAFETY:` comment directly above it",
            ));
        }
    }
}

// ---------------------------------------------------------------------
// q16-overflow
// ---------------------------------------------------------------------

struct Q16Check<'a, 'o> {
    toks: &'a [Tok],
    scopes: &'a Scopes,
    file: &'a Path,
    out: &'o mut Vec<Finding>,
}

impl Q16Check<'_, '_> {
    fn emit(&mut self, tok: usize, message: String) {
        const NOTE: &str = "Q16 is an i64 with 16 fractional bits: widen raw values through i128 \
                            before multiplying, and keep `Frac` arithmetic exact \
                            (see DESIGN.md, Static invariants)";
        if self.scopes.is_exempt(Q16_OVERFLOW, tok) {
            return;
        }
        if let Some(t) = self.toks.get(tok) {
            self.out.push(finding(Q16_OVERFLOW, self.file, t, message, NOTE));
        }
    }
}

impl Check<RangeDomain<'_>> for Q16Check<'_, '_> {
    fn check(&mut self, _: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
        let first = children.first().map_or(AbsTy::Unknown, |c| c.ty.clone());
        let second = children.get(1).map(|c| &c.ty);
        match e {
            Expr::Binary {
                op: BinOp::Mul, tok, ..
            } if first == AbsTy::RawQ16 && second == Some(&AbsTy::RawQ16) => {
                self.emit(*tok, "Q16×Q16 raw multiply without i128 widening".to_string());
            }
            Expr::Binary {
                op: BinOp::Shl | BinOp::Shr,
                rhs,
                tok,
                ..
            } => {
                if let Expr::Lit {
                    kind: LitKind::Int(Some(k)),
                    ..
                } = rhs.as_ref()
                {
                    if let Some(w) = first.width() {
                        if *k >= u128::from(w) {
                            self.emit(
                                *tok,
                                format!("shift by {k} exceeds the {w}-bit width of the shifted value"),
                            );
                        }
                    }
                }
            }
            Expr::Binary {
                op: BinOp::Div, tok, ..
            } if first.prov() == Prov::FracNum && second.map(AbsTy::prov) == Some(Prov::FracDen) => {
                self.emit(
                    *tok,
                    "`Frac::num()` / `Frac::den()` floor-division truncates the exact rational".to_string(),
                );
            }
            Expr::Cast { ty, tok, .. } if first.prov() != Prov::None => {
                if let AbsTy::Int { bits, signed, .. } = abs_from_typeref(ty) {
                    // num()/den() are u32: anything under 32 bits, or i32,
                    // cannot hold the full component.
                    if bits < 32 || (bits == 32 && signed) {
                        self.emit(
                            *tok,
                            format!("lossy cast of a `Frac` component to `{}`", ty.head().unwrap_or("?")),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// Run `q16-overflow` over one file.
pub fn q16_overflow(
    file: &Path,
    toks: &[Tok],
    scopes: &Scopes,
    ast: &ast::File,
    structs: &StructTable,
    out: &mut Vec<Finding>,
) {
    let mut dom = Checked {
        inner: RangeDomain::new(TyCx { structs, toks }),
        hook: Q16Check {
            toks,
            scopes,
            file,
            out,
        },
    };
    for_each_fn(ast, &mut |f, self_ty| flow_fn(f, self_ty, &mut dom));
}

// ---------------------------------------------------------------------
// ni-no-alloc
// ---------------------------------------------------------------------

struct AllocCheck<'a, 'o> {
    files: &'a [&'a FileAnalysis],
    file: usize,
    root: String,
    out: &'o mut Vec<Finding>,
}

impl AllocCheck<'_, '_> {
    fn emit(&mut self, tok: usize, message: String) {
        let fa = self.files[self.file];
        if fa.scopes.is_exempt(NI_NO_ALLOC, tok) {
            return;
        }
        let note = format!(
            "reachable from `// analysis: hot` root `{}`: the steady-state pass on the 4 MB card must \
             not allocate — move the allocation to init time or annotate \
             `// analysis: allow(ni-no-alloc) reason=\"…\"`",
            self.root
        );
        if let Some(t) = fa.toks.get(tok) {
            self.out.push(finding(NI_NO_ALLOC, &fa.rel, t, message, &note));
        }
    }
}

impl Check<RangeDomain<'_>> for AllocCheck<'_, '_> {
    fn check(&mut self, _: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
        match e {
            Expr::MacroCall { name, tok, .. } if matches!(name.as_str(), "vec" | "format") => {
                self.emit(*tok, format!("`{name}!` allocates in NI hot code"));
            }
            Expr::Call { callee, .. } => {
                if let Expr::Path { segs } = callee.as_ref() {
                    if segs.len() >= 2 {
                        let qual = segs[segs.len() - 2].text.as_str();
                        let last = &segs[segs.len() - 1];
                        let allocates = matches!(
                            (qual, last.text.as_str()),
                            ("Box" | "Rc" | "Arc", "new") | ("String", "from")
                        ) || (crate::dataflow::GROWABLE.contains(&qual)
                            && last.text == "with_capacity");
                        if allocates {
                            self.emit(last.tok, format!("`{qual}::{}` allocates in NI hot code", last.text));
                        }
                    }
                }
            }
            Expr::MethodCall { method, tok, .. } => {
                let recv = children.first().map(|c| &c.ty);
                match method.as_str() {
                    "to_string" | "to_owned" | "to_vec" | "into_owned" | "collect" => {
                        self.emit(*tok, format!("`.{method}(…)` allocates in NI hot code"));
                    }
                    "clone" if !matches!(recv, Some(AbsTy::Q16 | AbsTy::Frac | AbsTy::RawQ16 | AbsTy::Int { .. })) => {
                        self.emit(*tok, "`.clone()` in NI hot code may allocate".to_string());
                    }
                    "push" | "push_back" | "push_front" | "insert" | "extend" | "append" | "reserve"
                    | "reserve_exact" | "resize" | "resize_with" => {
                        if let Some(AbsTy::Coll { head, .. }) = recv {
                            self.emit(*tok, format!("`.{method}(…)` may grow a `{head}` in NI hot code"));
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

/// Run `ni-no-alloc` over its whole file set at once: scan every
/// function reachable from a `// analysis: hot` root with the allocation
/// check.
pub fn ni_no_alloc(files: &[&FileAnalysis], structs: &StructTable, out: &mut Vec<Finding>) {
    let mut hook = AllocCheck {
        files,
        file: 0,
        root: String::new(),
        out,
    };
    flow_hot(files, structs, NI_NO_ALLOC, &BTreeMap::new(), &mut hook);
}

/// A [`Check`] told where the hot-path walk is before each function.
trait HotCheck: for<'s> Check<RangeDomain<'s>> {
    /// The next function lives in `files[file]` and is reached from hot
    /// root `root`.
    fn enter(&mut self, file: usize, root: &str);
}

impl HotCheck for AllocCheck<'_, '_> {
    fn enter(&mut self, file: usize, root: &str) {
        self.file = file;
        self.root = root.to_string();
    }
}

/// Build `lint`'s name-keyed call graph, walk reachability from every
/// `// analysis: hot` root, and flow each reachable function with the
/// interval domain (seeded with `summaries`) and `hook` riding along.
fn flow_hot(
    files: &[&FileAnalysis],
    structs: &StructTable,
    lint: &str,
    summaries: &BTreeMap<String, Interval>,
    hook: &mut impl HotCheck,
) {
    let pairs: Vec<(&ast::File, &Scopes)> = files.iter().map(|fa| (&fa.ast, &fa.scopes)).collect();
    let graph = CallGraph::build(&pairs, lint);
    let hot = graph.hot_reachable();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(root) = hot.root_of(i) else { continue };
        hook.enter(node.file, root);
        let mut inner = RangeDomain::new(TyCx {
            structs,
            toks: &files[node.file].toks,
        });
        inner.summaries = summaries.clone();
        let hook = &mut *hook;
        flow_fn(node.item, node.self_ty, &mut Checked { inner, hook });
    }
}

// ---------------------------------------------------------------------
// ni-bounds / q16-range (value-range proofs)
// ---------------------------------------------------------------------

/// Which proof obligations a [`RangeCheck`] discharges.
enum RangeChecks {
    /// Panic sites: indexing, unsigned subtraction, division, shifts.
    Bounds,
    /// Overflow sites: multiplies, left shifts, narrowing casts.
    Q16,
}

/// One proof site: a checked operation, merged across every walk that
/// reached it (a site is *proven* only if every reaching context proved
/// it; loop re-walks and multi-root reachability collapse here).
struct Site {
    what: &'static str,
    detail: String,
    ok: bool,
    root: String,
}

/// One row of the `ni-bounds` proof report (CLI `bounds` subcommand and
/// the CI job summary).
pub struct BoundsSite {
    /// File the site lives in.
    pub file: PathBuf,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Hot root the site was reached from (empty for `q16-range`).
    pub root: String,
    /// Obligation kind (message prefix of the finding it would raise).
    pub what: &'static str,
    /// Whether the interval domain discharged the obligation.
    pub proven: bool,
    /// Rendered offending interval, for unproven sites.
    pub detail: String,
    /// Whether an `// analysis: allow(…)` covers the site.
    pub exempt: bool,
}

/// [`Check`] over the [`RangeDomain`] that discharges per-expression
/// proof obligations while flowing, recording one [`Site`] per token.
struct RangeCheck<'o> {
    file_idx: usize,
    root: String,
    checks: RangeChecks,
    sites: &'o mut BTreeMap<(usize, usize), Site>,
}

/// Integer-like width/signedness, treating raw `Q16` bits as `i64`.
fn int_box(ty: &AbsTy) -> Option<(u16, bool)> {
    match ty {
        AbsTy::Int { bits, signed, .. } => Some((*bits, *signed)),
        AbsTy::RawQ16 => Some((64, true)),
        _ => None,
    }
}

impl RangeCheck<'_> {
    fn record(&mut self, tok: usize, what: &'static str, res: Result<(), String>) {
        let (ok, detail) = match res {
            Ok(()) => (true, String::new()),
            Err(m) => (false, m),
        };
        let e = self.sites.entry((self.file_idx, tok)).or_insert(Site {
            what,
            detail: String::new(),
            ok: true,
            root: self.root.clone(),
        });
        if e.ok && !ok {
            e.ok = false;
            e.what = what;
            e.detail = detail;
        }
    }

    /// Panic-site obligations: everything that can fault mid-frame on the
    /// NI (out-of-range index, wrapping subtraction feeding an index,
    /// division by zero, over-wide shift).
    fn check_bounds(&mut self, d: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
        match e {
            Expr::Index { tok, .. } if children.len() == 2 => {
                let res = d.index_proof(&children[0], &children[1]);
                self.record(*tok, "index not proven in range", res);
            }
            Expr::Binary {
                op: BinOp::Sub, tok, ..
            } if matches!(children.first().map(|c| &c.ty), Some(AbsTy::Int { signed: false, .. })) => {
                let res = d.sub_proof(&children[0], &children[1]);
                self.record(*tok, "unsigned subtraction not proven wrap-free", res);
            }
            Expr::Binary {
                op: BinOp::Div | BinOp::Rem,
                tok,
                ..
            } if matches!(
                children.get(1).map(|c| &c.ty),
                Some(AbsTy::Int { .. } | AbsTy::RawQ16 | AbsTy::Q16)
            ) =>
            {
                let res = d.div_proof(&children[1]);
                self.record(*tok, "divisor not proven nonzero", res);
            }
            Expr::Binary {
                op: BinOp::Shl | BinOp::Shr,
                tok,
                ..
            } if children.len() == 2 => {
                if let Some((bits, _)) = children.first().and_then(|c| int_box(&c.ty)) {
                    let res = d.shift_proof(bits, &children[1]);
                    self.record(*tok, "shift amount not proven below the width", res);
                }
            }
            _ => {}
        }
    }

    /// Overflow obligations: the operations that grow magnitude fast
    /// enough to escape a fixed-point word (multiplies double the bit
    /// count, left shifts add `k` bits, narrowing casts drop bits).
    /// Linear ops (`+`/`-`) grow one bit per step and stay under the
    /// documented Q16 magnitude contract.
    fn check_q16(&mut self, d: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
        match e {
            Expr::Binary {
                op: BinOp::Mul, tok, ..
            } if children.len() == 2 => {
                let (Some((bits, signed)), Some(_)) = (
                    children.first().and_then(|c| int_box(&c.ty)),
                    children.get(1).and_then(|c| int_box(&c.ty)),
                ) else {
                    return;
                };
                let full = Interval::of_ty(bits, signed);
                let raw = Interval::mul(children[0].rng, children[1].rng);
                let res = if raw.within(full) {
                    Ok(())
                } else {
                    Err(format!(
                        "product {} over the {bits}-bit range {}",
                        d.render(&raw),
                        d.render(&full)
                    ))
                };
                self.record(*tok, "multiply not proven to fit its width", res);
            }
            Expr::Binary {
                op: BinOp::Shl, tok, ..
            } if children.len() == 2 => {
                let Some((bits, signed)) = children.first().and_then(|c| int_box(&c.ty)) else {
                    return;
                };
                let full = Interval::of_ty(bits, signed);
                let rhs = &children[1];
                let res = match rhs.rng.hi {
                    // Magnitude is monotone in the shift count, so proving
                    // the largest possible count proves them all.
                    Bound::Int(k) if (0..128).contains(&k) && bound_le(Bound::Int(0), rhs.rng.lo) == Some(true) => {
                        let raw = Interval::shl_const(children[0].rng, k);
                        if raw.within(full) {
                            Ok(())
                        } else {
                            Err(format!(
                                "shifted value {} over the {bits}-bit range {}",
                                d.render(&raw),
                                d.render(&full)
                            ))
                        }
                    }
                    _ => Err(format!("shift count {} unbounded", d.render(&rhs.rng))),
                };
                self.record(*tok, "left shift not proven to fit its width", res);
            }
            Expr::Cast { ty, tok, .. } => {
                let (Some(src), AbsTy::Int { bits, signed, .. }) = (children.first(), abs_from_typeref(ty)) else {
                    return;
                };
                let Some((srcb, _)) = int_box(&src.ty) else { return };
                if bits >= srcb {
                    return;
                }
                let full = Interval::of_ty(bits, signed);
                let res = if src.rng.within(full) {
                    Ok(())
                } else {
                    Err(format!(
                        "value {} over the {bits}-bit range {}",
                        d.render(&src.rng),
                        d.render(&full)
                    ))
                };
                self.record(*tok, "narrowing cast not proven lossless", res);
            }
            _ => {}
        }
    }
}

impl HotCheck for RangeCheck<'_> {
    fn enter(&mut self, file: usize, root: &str) {
        self.file_idx = file;
        self.root = root.to_string();
    }
}

impl Check<RangeDomain<'_>> for RangeCheck<'_> {
    fn check(&mut self, d: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
        match self.checks {
            RangeChecks::Bounds => self.check_bounds(d, e, children),
            RangeChecks::Q16 => self.check_q16(d, e, children),
        }
    }

    fn check_assign(&mut self, d: &RangeDomain<'_>, tok: usize, old: Option<&RangeVal>, new: &RangeVal) {
        // Compound assignments never surface as `Expr::Binary`, so their
        // obligations are discharged here from the operator token.
        if let (RangeChecks::Bounds, Some(old)) = (&self.checks, old) {
            let op = d.cx.toks.get(tok).map(|t| t.text.as_str()).unwrap_or("=");
            match op {
                "-" if matches!(old.ty, AbsTy::Int { signed: false, .. }) => {
                    let res = d.sub_proof(old, new);
                    self.record(tok, "unsigned subtraction not proven wrap-free", res);
                }
                "/" | "%" if matches!(new.ty, AbsTy::Int { .. } | AbsTy::RawQ16 | AbsTy::Q16) => {
                    let res = d.div_proof(new);
                    self.record(tok, "divisor not proven nonzero", res);
                }
                "<" | ">" => {
                    if let Some((bits, _)) = int_box(&old.ty) {
                        let res = d.shift_proof(bits, new);
                        self.record(tok, "shift amount not proven below the width", res);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Bottom-up return-interval summaries over a file set: every function of
/// every file is flowed with the plain [`RangeDomain`], and the observed
/// return intervals are carried into the next round. Two rounds propagate
/// facts through the helper→root call shapes the call graph exhibits;
/// cycles simply keep their conservative first-round summary.
fn range_summaries(files: &[&FileAnalysis], structs: &StructTable) -> BTreeMap<String, Interval> {
    let mut summaries = BTreeMap::new();
    for _ in 0..2 {
        for fa in files {
            let mut dom = RangeDomain::new(TyCx {
                structs,
                toks: &fa.toks,
            });
            dom.summaries = summaries.clone();
            for_each_fn(&fa.ast, &mut |f, self_ty| flow_fn(f, self_ty, &mut dom));
            summaries = dom.summaries;
        }
    }
    summaries
}

/// Turn the merged site map into findings (unproven, non-exempt sites)
/// and report rows (every site), in deterministic file/token order.
fn drain_sites(
    lint: &'static str,
    note_for: impl Fn(&Site) -> String,
    files: &[&FileAnalysis],
    sites: BTreeMap<(usize, usize), Site>,
    out: &mut Vec<Finding>,
) -> Vec<BoundsSite> {
    let mut report = Vec::new();
    for ((fi, tok), site) in sites {
        let fa = files[fi];
        let Some(t) = fa.toks.get(tok) else { continue };
        let exempt = fa.scopes.is_exempt(lint, tok);
        if !site.ok && !exempt {
            out.push(finding(
                lint,
                &fa.rel,
                t,
                format!("{}: {}", site.what, site.detail),
                &note_for(&site),
            ));
        }
        report.push(BoundsSite {
            file: fa.rel.clone(),
            line: t.line,
            col: t.col,
            root: site.root,
            what: site.what,
            proven: site.ok,
            detail: site.detail,
            exempt,
        });
    }
    report
}

/// Run `ni-bounds` over its whole file set: collect bottom-up call
/// summaries, then flow every function reachable from a `// analysis:
/// hot` root with the interval domain, proving each index, unsigned
/// subtraction, division and shift in-range. Returns the full proof
/// report (proven and unproven sites) for the CLI `bounds` subcommand.
pub fn ni_bounds(files: &[&FileAnalysis], structs: &StructTable, out: &mut Vec<Finding>) -> Vec<BoundsSite> {
    let summaries = range_summaries(files, structs);
    let mut sites: BTreeMap<(usize, usize), Site> = BTreeMap::new();
    let mut hook = RangeCheck {
        file_idx: 0,
        root: String::new(),
        checks: RangeChecks::Bounds,
        sites: &mut sites,
    };
    flow_hot(files, structs, NI_BOUNDS, &summaries, &mut hook);
    drain_sites(
        NI_BOUNDS,
        |s| {
            format!(
                "reachable from `// analysis: hot` root `{}`: the NI service pass must be \
                 panic-free — add a dominating guard the interval domain can see \
                 (`K <= len && i <= len - K`), or annotate \
                 `// analysis: allow(ni-bounds) reason=\"…\"`",
                s.root
            )
        },
        files,
        sites,
        out,
    )
}

/// Run `q16-range` over its whole file set: collect bottom-up call
/// summaries, then flow every function with the interval domain and prove
/// multiplies, left shifts and narrowing casts within their width.
pub fn q16_range(files: &[&FileAnalysis], structs: &StructTable, out: &mut Vec<Finding>) {
    let summaries = range_summaries(files, structs);
    let mut sites: BTreeMap<(usize, usize), Site> = BTreeMap::new();
    for (file_idx, fa) in files.iter().enumerate() {
        let mut inner = RangeDomain::new(TyCx {
            structs,
            toks: &fa.toks,
        });
        inner.summaries = summaries.clone();
        let mut dom = Checked {
            inner,
            hook: RangeCheck {
                file_idx,
                root: String::new(),
                checks: RangeChecks::Q16,
                sites: &mut sites,
            },
        };
        for_each_fn(&fa.ast, &mut |f, self_ty| flow_fn(f, self_ty, &mut dom));
    }
    drain_sites(
        Q16_RANGE,
        |_| {
            "overflow wraps silently in release builds: bound the operands with a \
             guard the interval domain can see, widen the arithmetic, or annotate \
             `// analysis: allow(q16-range) reason=\"…\"` citing the magnitude contract"
                .to_string()
        },
        files,
        sites,
        out,
    );
}

// ---------------------------------------------------------------------
// ni-cycle-budget / ni-stack-depth
// ---------------------------------------------------------------------

/// Run `ni-cycle-budget` over a whole file set: the interprocedural
/// cost analysis ([`crate::costmodel`]) from every hot root, keeping the
/// cycle-family findings.
pub fn ni_cycle_budget(
    files: &[&FileAnalysis],
    structs: &StructTable,
    cfg: Option<&crate::config::LintConfig>,
    out: &mut Vec<Finding>,
) {
    let opts = crate::costmodel::CostModel::from_config(cfg);
    let report = crate::costmodel::analyze(files, structs, &opts, NI_CYCLE_BUDGET);
    out.extend(report.findings.into_iter().filter(|f| f.lint == NI_CYCLE_BUDGET));
}

/// Run `ni-stack-depth` over a whole file set: same analysis, pruned by
/// this family's allows, keeping the stack-family findings.
pub fn ni_stack_depth(
    files: &[&FileAnalysis],
    structs: &StructTable,
    cfg: Option<&crate::config::LintConfig>,
    out: &mut Vec<Finding>,
) {
    let opts = crate::costmodel::CostModel::from_config(cfg);
    let report = crate::costmodel::analyze(files, structs, &opts, NI_STACK_DEPTH);
    out.extend(report.findings.into_iter().filter(|f| f.lint == NI_STACK_DEPTH));
}

// ---------------------------------------------------------------------
// sweep-determinism
// ---------------------------------------------------------------------

/// Channel-receive methods: their results are ordered by arrival.
const ARRIVAL_SOURCES: [&str; 4] = ["recv", "try_recv", "recv_timeout", "recv_deadline"];
/// Publishing sinks: appending arrival-ordered values bakes the order in.
const PUBLISH_SINKS: [&str; 6] = ["push", "push_back", "push_front", "insert", "extend", "append"];

struct TaintDom<'a, 'o> {
    toks: &'a [Tok],
    scopes: &'a Scopes,
    file: &'a Path,
    out: &'o mut Vec<Finding>,
}

const SWEEP_NOTE: &str = "sweep output must be byte-identical at every thread count: publish \
                          results by cell index, never by arrival order or thread identity";

impl TaintDom<'_, '_> {
    fn emit(&mut self, tok: usize, message: String) {
        if self.scopes.is_exempt(SWEEP_DETERMINISM, tok) {
            return;
        }
        if let Some(t) = self.toks.get(tok) {
            self.out
                .push(finding(SWEEP_DETERMINISM, self.file, t, message, SWEEP_NOTE));
        }
    }
}

impl Domain for TaintDom<'_, '_> {
    /// `true` — the value derives from channel arrival order.
    type V = bool;

    fn bottom(&self) -> bool {
        false
    }
    fn join(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn param_value(&mut self, _p: &Param, _self_ty: Option<&str>) -> bool {
        false
    }

    fn transfer(&mut self, e: &Expr, children: &[bool], _env: &Env<bool>) -> bool {
        if let Expr::MethodCall { method, tok, .. } = e {
            if ARRIVAL_SOURCES.contains(&method.as_str()) {
                return true;
            }
            if PUBLISH_SINKS.contains(&method.as_str()) && children.iter().skip(1).any(|t| *t) {
                self.emit(
                    *tok,
                    format!("channel arrival order flows into published results via `.{method}(…)`"),
                );
                return false;
            }
        }
        // Everything else propagates taint from any operand. `out[i] =
        // value` is the blessed pattern (the slot index, not the arrival
        // order, decides placement): the engine never re-taints `out`.
        children.iter().any(|t| *t)
    }
}

/// Run `sweep-determinism` over one file: direct thread-identity /
/// shared-state mentions as token scans, plus the arrival-order taint
/// pass over every function.
pub fn sweep_determinism(file: &Path, toks: &[Tok], scopes: &Scopes, ast: &ast::File, out: &mut Vec<Finding>) {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for (ci, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || scopes.is_exempt(SWEEP_DETERMINISM, i) {
            continue;
        }
        match t.text.as_str() {
            "ThreadId" => out.push(finding(
                SWEEP_DETERMINISM,
                file,
                t,
                "`ThreadId` in sweep code".to_string(),
                SWEEP_NOTE,
            )),
            "Mutex" | "RwLock" => out.push(finding(
                SWEEP_DETERMINISM,
                file,
                t,
                format!("`{}` (shared mutable state) in sweep code", t.text),
                SWEEP_NOTE,
            )),
            name if name.starts_with("Atomic") && name.len() > 6 => out.push(finding(
                SWEEP_DETERMINISM,
                file,
                t,
                format!("`{name}` (shared mutable state) in sweep code"),
                SWEEP_NOTE,
            )),
            "thread" => {
                let is_current = code.get(ci + 1).is_some_and(|&j| toks[j].is_punct(':'))
                    && code.get(ci + 2).is_some_and(|&j| toks[j].is_punct(':'))
                    && code.get(ci + 3).is_some_and(|&j| toks[j].is_ident("current"));
                if is_current {
                    out.push(finding(
                        SWEEP_DETERMINISM,
                        file,
                        t,
                        "`thread::current` (thread identity) in sweep code".to_string(),
                        SWEEP_NOTE,
                    ));
                }
            }
            _ => {}
        }
    }
    let mut dom = TaintDom {
        toks,
        scopes,
        file,
        out,
    };
    for_each_fn(ast, &mut |f, self_ty| flow_fn(f, self_ty, &mut dom));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::analyze;
    use std::path::PathBuf;

    fn run(lint: &str, src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let scopes = analyze(&toks);
        let ast = crate::parser::parse(&toks);
        let file = PathBuf::from("x.rs");
        let structs = StructTable::new();
        let mut out = Vec::new();
        match lint {
            NI_NO_FLOAT => ni_no_float(&file, &toks, &scopes, &mut out),
            NI_NO_PANIC => ni_no_panic(&file, &toks, &scopes, &ast, &mut out),
            SIM_DETERMINISM => sim_determinism(&file, &toks, &scopes, &ast, &mut out),
            UNSAFE_HYGIENE => unsafe_hygiene(&file, &toks, &scopes, false, &mut out),
            Q16_OVERFLOW => q16_overflow(&file, &toks, &scopes, &ast, &structs, &mut out),
            SWEEP_DETERMINISM => sweep_determinism(&file, &toks, &scopes, &ast, &mut out),
            NI_NO_ALLOC | NI_CYCLE_BUDGET | NI_STACK_DEPTH => {
                let fa = FileAnalysis {
                    rel: file.clone(),
                    toks,
                    scopes,
                    ast,
                };
                match lint {
                    NI_NO_ALLOC => ni_no_alloc(&[&fa], &structs, &mut out),
                    NI_CYCLE_BUDGET => ni_cycle_budget(&[&fa], &structs, None, &mut out),
                    _ => ni_stack_depth(&[&fa], &structs, None, &mut out),
                }
            }
            _ => unreachable!(),
        }
        out.sort_by(|a, b| (a.line, a.col, &a.lint).cmp(&(b.line, b.col, &b.lint)));
        out.dedup();
        out
    }

    #[test]
    fn float_lint_catches_types_literals_and_casts() {
        let hits = run(NI_NO_FLOAT, "fn f(x: f64) -> f32 { (x * 1.5) as f32 as f64 as _ }");
        assert_eq!(hits.len(), 5, "{hits:?}"); // f64, f32, 1.5, f32, f64
        assert!(run(NI_NO_FLOAT, "let s = \"f64 1.5\"; // f64\nlet r = 0..5; let t = x.0;").is_empty());
    }

    #[test]
    fn panic_lint_needs_call_shape() {
        let hits = run(NI_NO_PANIC, "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); }");
        assert_eq!(hits.len(), 3, "{hits:?}");
        // Idents alone (a fn named unwrap, a field expect) do not fire.
        assert!(run(NI_NO_PANIC, "fn unwrap() {} fn g() { let expect = 3; let p = expect; }").is_empty());
    }

    #[test]
    fn panic_lint_reaches_into_macro_arguments() {
        for src in [
            "fn f() { log!(\"x\", v.unwrap()); }",
            "fn f(n: usize) -> Vec<u32> { vec![x.unwrap(); n] }",
            "fn f(f: &mut W) -> R { write!(f, \"{}\", y.expect(\"m\")) }",
            "fn f(x: Option<u32>) -> bool { matches!(x, Some(v) if w.unwrap() > v) }",
        ] {
            let hits = run(NI_NO_PANIC, src);
            assert_eq!(hits.len(), 1, "{src}: {hits:?}");
        }
    }

    #[test]
    fn determinism_lint_allows_instant_type_but_not_now() {
        let hits = run(
            SIM_DETERMINISM,
            "fn f() { use std::collections::HashMap; let t = Instant::now(); }",
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
        let hits = run(
            SIM_DETERMINISM,
            "fn f() -> String { format!(\"{:?}\", Instant::now()) }",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(run(
            SIM_DETERMINISM,
            "fn sig(epoch: Instant) { use std::collections::BTreeMap; }"
        )
        .is_empty());
    }

    #[test]
    fn unsafe_lint_flags_undocumented_and_unlisted() {
        let hits = run(
            UNSAFE_HYGIENE,
            "fn f() { unsafe { core::hint::unreachable_unchecked() } }",
        );
        assert_eq!(hits.len(), 2, "allowlist + SAFETY: {hits:?}");
        // With a SAFETY comment, only the allowlist finding remains.
        let hits = run(UNSAFE_HYGIENE, "// SAFETY: caller checked bounds\nunsafe { go() }");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn q16_range_summaries_span_its_file_set() {
        // One summary pass over the whole `q16-range` file set: a
        // helper's return interval proves a multiply in another file.
        let fa = |rel: &str, src: &str| {
            let toks = lex(src);
            FileAnalysis {
                rel: PathBuf::from(rel),
                scopes: analyze(&toks),
                ast: crate::parser::parse(&toks),
                toks,
            }
        };
        let helper = fa("helper.rs", "pub fn low_bits(x: u64) -> u64 { x & 0xffff }");
        let user = fa(
            "user.rs",
            "pub fn area(a: u64, b: u64) -> u64 { let w: u64 = low_bits(a); let h: u64 = low_bits(b); w * h }",
        );
        let structs = StructTable::new();
        let mut out = Vec::new();
        q16_range(&[&user], &structs, &mut out);
        assert_eq!(out.len(), 1, "without the helper the product is unbounded: {out:?}");
        out.clear();
        q16_range(&[&helper, &user], &structs, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn q16_lint_wants_widening_and_bounded_shifts() {
        let hits = run(
            Q16_OVERFLOW,
            "impl Q16 { fn bad(self, rhs: Q16) -> i64 { self.0 * rhs.0 } }",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("i128"));
        // Widened through casts: clean.
        assert!(run(
            Q16_OVERFLOW,
            "impl Q16 { fn good(self, rhs: Q16) -> i64 { ((self.0 as i128) * (rhs.0 as i128)) as i64 } }",
        )
        .is_empty());
        let hits = run(Q16_OVERFLOW, "fn f(x: u32) -> u32 { x << 32 }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        let hits = run(Q16_OVERFLOW, "fn f(r: Frac) -> u32 { r.num() / r.den() }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        // The exact cross-multiply idiom is clean.
        assert!(run(
            Q16_OVERFLOW,
            "fn f(x: u64, r: Frac) -> u64 { x * r.num() as u64 / r.den() as u64 }",
        )
        .is_empty());
    }

    #[test]
    fn alloc_lint_is_reachability_scoped_and_type_aware() {
        // Not hot: nothing fires.
        assert!(run(NI_NO_ALLOC, "fn cold(v: &mut Vec<u32>) { v.push(1); }").is_empty());
        // Hot + collection growth fires; scalar method names on
        // non-collections do not.
        let hits = run(
            NI_NO_ALLOC,
            "// analysis: hot\nfn service(v: &mut Vec<u32>, s: Scheduler) { v.push(1); s.push(2); }",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("Vec"));
        // Reachability through helpers, stopped by constructors.
        let hits = run(
            NI_NO_ALLOC,
            "// analysis: hot\nfn service() { helper(); }\n\
             fn helper() { let b = Box::new(1); }\n\
             fn new() { let v = vec![1]; }",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("Box::new"));
    }

    #[test]
    fn sweep_lint_blesses_index_publication_only() {
        // The slot-vector pattern: clean.
        assert!(run(
            SWEEP_DETERMINISM,
            "fn gather(rx: Receiver, n: usize) { let mut out = init(n); for _ in 0..n { \
             let (i, value) = rx.recv().expect(\"worker\"); out[i] = Some(value); } }",
        )
        .is_empty());
        // Pushing in arrival order: flagged.
        let hits = run(
            SWEEP_DETERMINISM,
            "fn gather(rx: Receiver, n: usize) { let mut out = init(n); for _ in 0..n { \
             let v = rx.recv().expect(\"worker\"); out.push(v); } }",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("arrival order"));
        // Thread identity mentions.
        let hits = run(SWEEP_DETERMINISM, "fn f() -> u64 { hash(thread::current().id()) }");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }
}
