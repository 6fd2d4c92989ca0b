//! WCET-style interprocedural cost analysis for NI hot paths.
//!
//! The paper's feasibility argument is that a DWCS decision fits a
//! 66 MHz i960 between frame deadlines (§5, ≈78 µs per decision). The
//! dynamic model (`hwsim::I960Core` on the `hwsim::calib` tables)
//! *observes* that; this module *proves a bound*: an abstract
//! interpretation over the tolerant AST that assigns every statement an
//! **interval of cycles** `[best, worst]` and summarises the call graph
//! bottom-up from each `// analysis: hot` root.
//!
//! Three inputs make loops finite:
//!
//! * **Counted loops** — `for _ in a..b` with literal bounds is inferred.
//! * **`// analysis: bound N`** — asserts a worst-case trip count for a
//!   data-dependent loop or iterator drain (`.position(…)`, `.retain(…)`,
//!   …). The annotation covers its own line, or the next statement when
//!   standalone; one no loop claims is itself a finding.
//! * **`// analysis: allow(ni-cycle-budget)`** — excludes a function or
//!   loop from the budget (it contributes one opaque-call charge /
//!   single iteration). Used for host-side code the name-keyed graph
//!   reaches spuriously.
//!
//! Calls resolve name-keyed like [`crate::callgraph`], refined by a
//! receiver-type probe (the [`RangeDomain`] run over each body): a method
//! on a receiver of known struct type prefers candidates in that type's
//! `impl`; a method on a known non-struct receiver (collection, integer)
//! is a std call and gets a default interval; an unknown receiver takes
//! the worst case over every same-name candidate — sound for WCET.
//! Recursion (a call back into an in-progress summary) is a
//! `ni-stack-depth` finding and the back edge is charged as opaque.
//!
//! Cycle weights mirror `hwsim::calib` (the gate test
//! `tests/cycle_budget_gate.rs` cross-checks them against
//! `calib::TABLE`); purely syntactic defaults (branch, call, iterator
//! step) are this module's own, documented on each constant.

use crate::ast::{self, Block, Expr, LitKind, Stmt, TypeRef};
use crate::callgraph::{CallGraph, FnNode, INIT_CTORS};
use crate::config::LintConfig;
use crate::dataflow::{
    abs_join, AbsTy, Bound, Check, Checked, Interval, RangeDomain, RangeVal, StructTable, TyCx, NONNEG,
};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::lints::{NI_CYCLE_BUDGET, NI_STACK_DEPTH};
use crate::FileAnalysis;
use std::collections::BTreeMap;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Constants mirrored from `hwsim::calib` (keep in sync; the gate test
// asserts equality against `calib::TABLE`).

/// i960RD core clock (Hz) — paper §4.
pub const I960_HZ: u64 = 66_000_000;
/// Fixed per-decision overhead outside modelled code (doorbell, I2O
/// descriptor handling) — added once to every hot root's total.
pub const NI_DECISION_BASE_CYCLES: u64 = 3_900;
/// One Q16 cross-multiply compare macro-op.
pub const FIXED_RATIO_CYCLES: u64 = 20;
/// One software-emulated FP macro-op (soft-float build only; NI code is
/// float-free by `ni-no-float`, mirrored for the gate test's pricing).
pub const SOFT_FP_RATIO_CYCLES: u64 = 440;
/// Local-RAM touch, cache hit.
pub const TOUCH_HIT_CYCLES: u64 = 1;
/// Local-RAM touch, cache miss.
pub const TOUCH_MISS_CYCLES: u64 = 13;

// ---------------------------------------------------------------------------
// Analysis-local defaults (syntactic weights, not calibrated by the paper).

/// Integer ALU op (add/sub/shift/bit/compare).
pub const ALU_CYCLES: u64 = 1;
/// Integer multiply (half a cross-multiply compare macro-op).
pub const MUL_CYCLES: u64 = 10;
/// Integer divide / remainder.
pub const DIV_CYCLES: u64 = 40;
/// Taken-or-not conditional branch.
pub const BRANCH_CYCLES: u64 = 2;
/// Call + return + frame setup for a resolved callee.
pub const CALL_CYCLES: u64 = 12;
/// Loop-iterator advance + test per iteration.
pub const ITER_STEP_CYCLES: u64 = 4;
/// A memory access: hit..miss.
pub const TOUCH: Interval = Interval::new(TOUCH_HIT_CYCLES as i128, TOUCH_MISS_CYCLES as i128);
/// A call whose body the analyzer cannot see (std, out-of-set, allowed,
/// init-time constructor): assumed O(1) within this envelope.
pub const OPAQUE_CALL: Interval = Interval::new(4, 160);
/// A method on a known machine-integer receiver (`saturating_add`, …).
pub const INT_METHOD: Interval = Interval::new(1, 8);
/// Stack charged to a call the analyzer cannot see into.
pub const OPAQUE_FRAME_BYTES: u64 = 64;
/// Per-frame bookkeeping bytes (return address, saved registers).
pub const FRAME_BASE_BYTES: u64 = 32;

/// Iterator drains: consume the chain, per-element work × trip count —
/// need a bound on a hot path.
const DRAIN_ADAPTERS: [&str; 24] = [
    "all",
    "any",
    "collect",
    "count",
    "find",
    "find_map",
    "fold",
    "for_each",
    "last",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "position",
    "product",
    "retain",
    "rposition",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
];

/// Std combinators that are a compare and a branch, not a full opaque
/// call: `Ordering::then_with`, `Option::is_some`, `u64::min`, … Closure
/// arguments are still priced once by the caller; only the dispatch
/// itself is charged at [`INT_METHOD`] instead of [`OPAQUE_CALL`].
const CHEAP_STD_METHODS: [&str; 24] = [
    "clamp",
    "is_eq",
    "is_err",
    "is_ge",
    "is_gt",
    "is_le",
    "is_lt",
    "is_ne",
    "is_none",
    "is_none_or",
    "is_ok",
    "is_some",
    "is_some_and",
    "map_or",
    "map_or_else",
    "max",
    "min",
    "ok_or",
    "ok_or_else",
    "reverse",
    "then",
    "then_with",
    "unwrap_or",
    "unwrap_or_else",
];

/// Lazy adapters: O(1) setup; closure arguments are deferred to the
/// drain that eventually consumes the chain.
const LAZY_ADAPTERS: [&str; 25] = [
    "as_mut",
    "as_ref",
    "by_ref",
    "chain",
    "cloned",
    "copied",
    "drain",
    "enumerate",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "into_iter",
    "iter",
    "iter_mut",
    "keys",
    "map",
    "peekable",
    "rev",
    "skip",
    "skip_while",
    "take",
    "take_while",
    "values",
    "zip",
];

// ---------------------------------------------------------------------------
// The cost domain: [`Interval`] over cycle counts. Bounds are
// `Bound::Int` counts; `hi == Bound::PInf` is *unbounded* (an
// unannotated data-dependent loop). Trip counts are exact or `[0, N]`,
// so `mul` scales a per-iteration cost by them exactly.

/// `[n, n]` cycles.
const fn exact_cycles(n: u64) -> Interval {
    Interval::of(n as i128)
}

/// Tunable limits, loaded from `analysis.toml` numeric keys.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// `ni-cycle-budget`: worst-case cycles a hot root may cost per
    /// decision. Default ≈15 ms at 66 MHz — under half the 33 ms NTSC
    /// frame period the paper schedules against.
    pub budget_cycles: u64,
    /// `ni-stack-depth`: deepest permitted call chain from a hot root.
    pub max_call_depth: u64,
    /// `ni-stack-depth`: worst-case stack bytes from a hot root.
    pub max_stack_bytes: u64,
    /// `ni-stack-depth`: largest single stack local (arrays).
    pub max_local_bytes: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            budget_cycles: 1_000_000,
            max_call_depth: 24,
            max_stack_bytes: 16_384,
            max_local_bytes: 1_024,
        }
    }
}

impl CostModel {
    /// Defaults overridden by a lint section's numeric keys.
    pub fn from_config(cfg: Option<&LintConfig>) -> CostModel {
        let mut m = CostModel::default();
        if let Some(c) = cfg {
            if let Some(v) = c.num("budget_cycles") {
                m.budget_cycles = v;
            }
            if let Some(v) = c.num("max_call_depth") {
                m.max_call_depth = v;
            }
            if let Some(v) = c.num("max_stack_bytes") {
                m.max_stack_bytes = v;
            }
            if let Some(v) = c.num("max_local_bytes") {
                m.max_local_bytes = v;
            }
        }
        m
    }
}

/// Bottom-up summary of one function.
#[derive(Clone, Debug)]
pub struct FnSummary {
    /// Body cost, callees included (excludes the caller's `CALL_CYCLES`).
    pub cycles: Interval,
    /// Worst-case frames on the stack, this function included.
    pub depth: u64,
    /// Worst-case stack bytes, this frame included.
    pub stack: u64,
}

/// Per-root result, for the CLI `budget` report and the gate test.
#[derive(Clone, Debug)]
pub struct RootReport {
    /// `Type::name` label of the hot root.
    pub root: String,
    /// Repo-relative file of the root.
    pub file: PathBuf,
    /// 1-based position of the root's name token.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Worst-case decision cost, [`NI_DECISION_BASE_CYCLES`] included.
    pub cycles: Interval,
    /// Worst-case call depth (frames).
    pub call_depth: u64,
    /// Worst-case stack bytes.
    pub stack_bytes: u64,
}

/// Everything one analysis run produced.
#[derive(Debug, Default)]
pub struct CostReport {
    /// One entry per hot root, in file/definition order.
    pub roots: Vec<RootReport>,
    /// `ni-cycle-budget` and `ni-stack-depth` findings (callers filter
    /// by family).
    pub findings: Vec<Finding>,
}

// ---------------------------------------------------------------------------
// The analyzer.

/// Method-name token → receiver abstract type, joined over every walk
/// that reaches the call.
struct RecvTypes(BTreeMap<usize, AbsTy>);

impl Check<RangeDomain<'_>> for RecvTypes {
    fn check(&mut self, _: &RangeDomain<'_>, e: &Expr, children: &[RangeVal]) {
        if let Expr::MethodCall { tok, .. } = e {
            let joined = match self.0.get(tok) {
                None | Some(AbsTy::Unknown) => children[0].ty.clone(),
                Some(old) => abs_join(old, &children[0].ty),
            };
            self.0.insert(*tok, joined);
        }
    }
}

enum St {
    Unvisited,
    InProgress,
    Done(FnSummary),
}

/// Accumulated per-function walk state.
struct FnCx {
    /// Index into the file set of the function's file.
    file: usize,
    /// The enclosing impl/trait type, for `Self::…` call resolution.
    self_ty: Option<String>,
    /// Method-name token → receiver abstract type (from the probe).
    recv: BTreeMap<usize, AbsTy>,
    /// `(anchor token, bound, consumed)` for in-span bound annotations.
    marks: Vec<(usize, u64, bool)>,
    /// Estimated own-frame bytes.
    frame_bytes: u64,
    /// Deepest callee chain seen at any call site.
    callee_depth: u64,
    /// Largest callee stack seen at any call site.
    callee_stack: u64,
}

/// An expression's cost: `total` is charged where it stands; `pending`
/// is per-element work deferred along a lazy iterator chain, multiplied
/// by the drain that consumes it (or folded in once if never drained).
#[derive(Clone, Copy)]
struct Cost {
    total: Interval,
    pending: Interval,
}

impl Cost {
    const ZERO: Cost = Cost {
        total: exact_cycles(0),
        pending: exact_cycles(0),
    };

    fn of(total: Interval) -> Cost {
        Cost {
            total,
            pending: exact_cycles(0),
        }
    }

    /// Consume: an undrained chain's deferred work counts once.
    fn fold(self) -> Interval {
        self.total.add(self.pending)
    }
}

struct Analyzer<'a> {
    files: &'a [&'a FileAnalysis],
    opts: &'a CostModel,
    fns: Vec<FnNode<'a>>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    state: Vec<St>,
    structs: &'a StructTable,
    findings: Vec<Finding>,
    /// The in-progress summarization chain: `(fn, entering edge was a
    /// refined resolution)`. A recursion finding requires *every* edge of
    /// the detected cycle to be refined — a cycle that exists only
    /// through a name-keyed fallback join is a resolution artifact.
    active: Vec<(usize, bool)>,
}

/// Run the cost analysis over one lint's file set. `lint` names the
/// family whose `allow` annotations exclude functions from traversal
/// (`ni-cycle-budget` or `ni-stack-depth`); findings for *both* families
/// are produced and exemption-checked individually.
pub fn analyze(files: &[&FileAnalysis], structs: &StructTable, opts: &CostModel, lint: &str) -> CostReport {
    let pairs: Vec<(&ast::File, &crate::scope::Scopes)> = files.iter().map(|fa| (&fa.ast, &fa.scopes)).collect();
    let graph = CallGraph::build(&pairs, lint);
    let fns = graph.nodes;
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in fns.iter().enumerate() {
        by_name.entry(n.item.name.as_str()).or_default().push(i);
    }
    let state = fns.iter().map(|_| St::Unvisited).collect();
    let mut a = Analyzer {
        files,
        opts,
        fns,
        by_name,
        state,
        structs,
        findings: Vec::new(),
        active: Vec::new(),
    };
    let mut report = CostReport::default();
    for idx in 0..a.fns.len() {
        if !a.fns[idx].hot || a.fns[idx].allowed {
            continue;
        }
        let summary = a.summarize(idx, true);
        let n = &a.fns[idx];
        let label = match n.self_ty {
            Some(ty) => format!("{ty}::{}", n.item.name),
            None => n.item.name.clone(),
        };
        let fa = a.files[n.file];
        let tok = &fa.toks[n.item.name_tok];
        let cycles = summary.cycles.add(exact_cycles(NI_DECISION_BASE_CYCLES));
        report.roots.push(RootReport {
            root: label.clone(),
            file: fa.rel.clone(),
            line: tok.line,
            col: tok.col,
            cycles,
            call_depth: summary.depth,
            stack_bytes: summary.stack,
        });
        a.root_findings(idx, &label, cycles, &summary);
    }
    report.findings = std::mem::take(&mut a.findings);
    report
}

impl<'a> Analyzer<'a> {
    fn emit(&mut self, family: &str, file: usize, tok_idx: usize, message: String, note: &str) {
        let fa = self.files[file];
        if fa.scopes.is_exempt(family, tok_idx) {
            return;
        }
        let t = &fa.toks[tok_idx.min(fa.toks.len().saturating_sub(1))];
        self.findings.push(Finding {
            lint: family.to_string(),
            file: fa.rel.clone(),
            line: t.line,
            col: t.col,
            message,
            note: (!note.is_empty()).then(|| note.to_string()),
        });
    }

    fn root_findings(&mut self, idx: usize, label: &str, cycles: Interval, s: &FnSummary) {
        let (file, name_tok) = (self.fns[idx].file, self.fns[idx].item.name_tok);
        match cycles.hi {
            Bound::Int(hi) if hi <= i128::from(self.opts.budget_cycles) => {}
            Bound::Int(hi) => self.emit(
                NI_CYCLE_BUDGET,
                file,
                name_tok,
                format!(
                    "hot root `{label}` may cost {hi} cycles per decision — over the budget of {} ({} µs at 66 MHz)",
                    self.opts.budget_cycles,
                    self.opts.budget_cycles / (I960_HZ / 1_000_000)
                ),
                "tighten loop bounds, move work off the hot path, or raise budget_cycles in analysis.toml",
            ),
            _ => self.emit(
                NI_CYCLE_BUDGET,
                file,
                name_tok,
                format!("hot root `{label}` has no static cycle bound (see the unbounded-loop findings above)"),
                "every loop reachable from a hot root needs a counted range or `// analysis: bound N`",
            ),
        }
        if s.depth > self.opts.max_call_depth {
            self.emit(
                NI_STACK_DEPTH,
                file,
                name_tok,
                format!(
                    "hot root `{label}` may reach call depth {} — over max_call_depth = {}",
                    s.depth, self.opts.max_call_depth
                ),
                "NI firmware runs on a fixed-size interrupt stack; flatten the call chain",
            );
        }
        if s.stack > self.opts.max_stack_bytes {
            self.emit(
                NI_STACK_DEPTH,
                file,
                name_tok,
                format!(
                    "hot root `{label}` may use {} stack bytes — over max_stack_bytes = {}",
                    s.stack, self.opts.max_stack_bytes
                ),
                "NI firmware runs on a fixed-size interrupt stack; shrink locals or the call chain",
            );
        }
    }

    fn summarize(&mut self, idx: usize, edge_refined: bool) -> FnSummary {
        if let St::Done(s) = &self.state[idx] {
            return s.clone();
        }
        self.state[idx] = St::InProgress;
        self.active.push((idx, edge_refined));
        let item = self.fns[idx].item;
        let file = self.fns[idx].file;
        let self_ty = self.fns[idx].self_ty;
        let summary = match &item.body {
            Some(body) if !self.fns[idx].allowed => {
                let mut cx = FnCx {
                    file,
                    self_ty: self_ty.map(str::to_string),
                    recv: self.recv_types(idx),
                    marks: self.bound_marks(idx),
                    frame_bytes: FRAME_BASE_BYTES + 8 * item.params.len() as u64,
                    callee_depth: 0,
                    callee_stack: 0,
                };
                let cycles = self.cost_block(&mut cx, body).fold();
                for &(tok, n, used) in &cx.marks.clone() {
                    if !used {
                        self.emit(
                            NI_CYCLE_BUDGET,
                            file,
                            tok,
                            format!("`// analysis: bound {n}` does not cover a loop or iterator drain"),
                            "the annotation binds to the loop on its line or the next statement; delete or move it",
                        );
                    }
                }
                FnSummary {
                    cycles,
                    depth: 1 + cx.callee_depth,
                    stack: cx.frame_bytes.saturating_add(cx.callee_stack),
                }
            }
            // Allowed bodies and bodiless trait declarations are opaque:
            // one default call charge, one frame.
            _ => FnSummary {
                cycles: OPAQUE_CALL,
                depth: 1,
                stack: OPAQUE_FRAME_BYTES,
            },
        };
        self.active.pop();
        self.state[idx] = St::Done(summary.clone());
        summary
    }

    /// Receiver types for every method call in `idx`'s body, keyed by
    /// method-name token (a [`RangeDomain`] run that records receivers).
    fn recv_types(&self, idx: usize) -> BTreeMap<usize, AbsTy> {
        let fa = self.files[self.fns[idx].file];
        let mut probe = Checked {
            inner: RangeDomain::new(TyCx {
                structs: self.structs,
                toks: &fa.toks,
            }),
            hook: RecvTypes(BTreeMap::new()),
        };
        crate::dataflow::flow_fn(self.fns[idx].item, self.fns[idx].self_ty, &mut probe);
        probe.hook.0
    }

    /// Bound annotations whose anchor falls inside `idx`'s span.
    fn bound_marks(&self, idx: usize) -> Vec<(usize, u64, bool)> {
        let span = self.fns[idx].item.span;
        let mut marks: Vec<(usize, u64, bool)> = self.files[self.fns[idx].file]
            .scopes
            .bounds
            .iter()
            .filter(|&&(tok, _)| span.start <= tok && tok <= span.end)
            .map(|&(tok, n)| (tok, n, false))
            .collect();
        marks.sort_unstable();
        marks
    }

    /// Trip-count interval for the loop/drain anchored at `tok`:
    /// annotation > counted inference > allow exemption > unbounded
    /// (finding). Must be called *before* walking the loop body so inner
    /// loops cannot steal the outer annotation.
    fn loop_bound(&mut self, cx: &mut FnCx, tok: usize, counted: Option<u64>, what: &str) -> Interval {
        let mark = cx
            .marks
            .iter_mut()
            .rev()
            .find(|&&mut (anchor, _, used)| !used && anchor <= tok);
        if let Some(m) = mark {
            m.2 = true;
            return Interval::new(0, i128::from(m.1));
        }
        if let Some(n) = counted {
            return exact_cycles(n);
        }
        if self.files[cx.file].scopes.is_exempt(NI_CYCLE_BUDGET, tok) {
            // An allowed loop contributes a single iteration.
            return Interval::new(0, 1);
        }
        self.emit(
            NI_CYCLE_BUDGET,
            cx.file,
            tok,
            format!("{what} on an NI hot path has no static trip-count bound"),
            "use a counted range, annotate `// analysis: bound N`, or allow(ni-cycle-budget) with a reason",
        );
        NONNEG
    }

    fn cost_block(&mut self, cx: &mut FnCx, b: &Block) -> Cost {
        let mut total = exact_cycles(0);
        for st in &b.stmts {
            total = total.add(match st {
                Stmt::Let {
                    pat,
                    ty,
                    init,
                    els,
                    span,
                } => {
                    self.note_local(cx, pat, ty.as_ref(), init.as_ref(), span.start);
                    let mut c = init
                        .as_ref()
                        .map(|e| self.cost_expr(cx, e).fold())
                        .unwrap_or(exact_cycles(0));
                    if let Some(eb) = els {
                        let eb = self.cost_block(cx, eb).fold();
                        c = c.add(exact_cycles(BRANCH_CYCLES)).add(exact_cycles(0).join(eb));
                    }
                    c.add(exact_cycles(ALU_CYCLES))
                }
                Stmt::Expr(e) => self.cost_expr(cx, e).fold(),
                Stmt::Item(_) => exact_cycles(0),
                Stmt::Opaque(sp) => self.opaque_span(cx, sp.start, sp.end),
            });
        }
        Cost::of(total)
    }

    /// Frame accounting for one `let`, with the large-local check.
    fn note_local(&mut self, cx: &mut FnCx, pat: &ast::Pat, ty: Option<&TypeRef>, init: Option<&Expr>, at: usize) {
        let mut bytes = 8u64.saturating_mul(pat.names.len().max(1) as u64);
        if let Some(sz) = ty.and_then(array_type_bytes) {
            bytes = sz;
        } else if let Some(Expr::Array { elems, .. }) = init {
            // `[x; N]` parses as element + count; a literal count sizes
            // the local (element size unknown → 8-byte estimate).
            let n = match elems.last() {
                Some(e) if elems.len() == 2 => int_lit(e).unwrap_or(elems.len() as u64),
                _ => elems.len() as u64,
            };
            bytes = n.saturating_mul(8);
        }
        if bytes > self.opts.max_local_bytes {
            self.emit(
                NI_STACK_DEPTH,
                cx.file,
                at,
                format!(
                    "stack local of ~{bytes} bytes — over max_local_bytes = {}",
                    self.opts.max_local_bytes
                ),
                "large buffers belong in pre-allocated stream state, not on the NI interrupt stack",
            );
        }
        cx.frame_bytes = cx.frame_bytes.saturating_add(bytes);
    }

    /// Price unmodelled tokens one ALU cycle per code token; a loop
    /// keyword hiding in there defeats bound analysis and is reported.
    fn opaque_span(&mut self, cx: &mut FnCx, start: usize, end: usize) -> Interval {
        let fa = self.files[cx.file];
        let mut n = 0u64;
        let mut loop_tok = None;
        for (i, t) in fa
            .toks
            .iter()
            .enumerate()
            .take(end.min(fa.toks.len().saturating_sub(1)) + 1)
            .skip(start)
        {
            if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            n += 1;
            if matches!(t.text.as_str(), "for" | "while" | "loop") && loop_tok.is_none() {
                loop_tok = Some(i);
            }
        }
        if let Some(i) = loop_tok {
            if !self.files[cx.file].scopes.is_exempt(NI_CYCLE_BUDGET, i) {
                self.emit(
                    NI_CYCLE_BUDGET,
                    cx.file,
                    i,
                    "a loop inside a statement the analyzer could not model cannot be cycle-bounded".into(),
                    "simplify the statement so the tolerant parser models the loop, or allow(ni-cycle-budget)",
                );
                return Interval {
                    lo: Bound::Int(i128::from(n)),
                    hi: Bound::PInf,
                };
            }
        }
        exact_cycles(n)
    }

    fn cost_expr(&mut self, cx: &mut FnCx, e: &Expr) -> Cost {
        let alu = exact_cycles(ALU_CYCLES);
        let branch = exact_cycles(BRANCH_CYCLES);
        match e {
            Expr::Path { .. } | Expr::Lit { .. } => Cost::ZERO,
            Expr::Unary { expr, .. } | Expr::Ref { expr, .. } | Expr::Cast { expr, .. } => {
                Cost::of(self.cost_expr(cx, expr).fold().add(alu))
            }
            Expr::Try { expr, .. } => Cost::of(self.cost_expr(cx, expr).fold().add(branch)),
            Expr::Binary { op, lhs, rhs, .. } => {
                let c = self.cost_expr(cx, lhs).fold().add(self.cost_expr(cx, rhs).fold());
                let w = match op {
                    ast::BinOp::Mul => MUL_CYCLES,
                    ast::BinOp::Div | ast::BinOp::Rem => DIV_CYCLES,
                    ast::BinOp::And | ast::BinOp::Or => BRANCH_CYCLES,
                    _ => ALU_CYCLES,
                };
                Cost::of(c.add(exact_cycles(w)))
            }
            Expr::Assign { target, value, .. } => {
                let store = match target.as_ref() {
                    Expr::Field { .. } | Expr::Index { .. } => TOUCH,
                    _ => alu,
                };
                Cost::of(
                    self.cost_expr(cx, target)
                        .fold()
                        .add(self.cost_expr(cx, value).fold())
                        .add(store),
                )
            }
            Expr::Field { base, .. } => Cost::of(self.cost_expr(cx, base).fold().add(TOUCH)),
            Expr::Index { base, index, .. } => Cost::of(
                self.cost_expr(cx, base)
                    .fold()
                    .add(self.cost_expr(cx, index).fold())
                    .add(TOUCH)
                    .add(branch),
            ),
            Expr::Call { callee, args, tok } => {
                let mut c = self.cost_expr(cx, callee).fold();
                for a in args {
                    c = c.add(self.cost_expr(cx, a).fold());
                }
                let (name, qual) = match callee.as_ref() {
                    Expr::Path { segs } => (
                        segs.last().map(|s| s.text.as_str()),
                        (segs.len() >= 2).then(|| segs[segs.len() - 2].text.as_str()),
                    ),
                    _ => (None, None),
                };
                Cost::of(c.add(self.call_cost(cx, name, qual, *tok)))
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                tok,
            } => self.method_cost(cx, recv, method, args, *tok),
            Expr::MacroCall { name, inner, .. } => {
                if name.starts_with("debug_assert") {
                    // Compiled out of release firmware.
                    Cost::ZERO
                } else {
                    Cost::of(self.opaque_span(cx, inner.start, inner.end).add(branch))
                }
            }
            Expr::StructLit { fields, .. } => {
                let mut c = exact_cycles(ALU_CYCLES * fields.len().max(1) as u64);
                for (_, f) in fields {
                    c = c.add(self.cost_expr(cx, f).fold());
                }
                Cost::of(c)
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                let mut c = exact_cycles(ALU_CYCLES * elems.len() as u64);
                for el in elems {
                    c = c.add(self.cost_expr(cx, el).fold());
                }
                Cost::of(c)
            }
            Expr::BlockExpr(b) => self.cost_block(cx, b),
            Expr::If { cond, then, alt, .. } => {
                let c = self.cost_expr(cx, cond).fold().add(branch);
                let t = self.cost_block(cx, then).fold();
                let a = alt
                    .as_ref()
                    .map(|a| self.cost_expr(cx, a).fold())
                    .unwrap_or(exact_cycles(0));
                Cost::of(c.add(t.join(a)))
            }
            Expr::Match { scrutinee, arms, .. } => {
                let c = self
                    .cost_expr(cx, scrutinee)
                    .fold()
                    .add(exact_cycles(BRANCH_CYCLES * arms.len().max(1) as u64));
                let mut joined: Option<Interval> = None;
                for arm in arms {
                    let mut ac = arm
                        .guard
                        .as_ref()
                        .map(|g| self.cost_expr(cx, g).fold())
                        .unwrap_or(exact_cycles(0));
                    ac = ac.add(self.cost_expr(cx, &arm.body).fold());
                    joined = Some(joined.map_or(ac, |j| j.join(ac)));
                }
                Cost::of(c.add(joined.unwrap_or(exact_cycles(0))))
            }
            Expr::While { cond, body, tok, .. } => {
                let iters = self.loop_bound(cx, *tok, None, "`while` loop");
                let c = self.cost_expr(cx, cond).fold().add(branch);
                let b = self.cost_block(cx, body).fold();
                Cost::of(c.add(c.add(b).mul(iters)))
            }
            Expr::Loop { body, tok } => {
                let iters = self.loop_bound(cx, *tok, None, "`loop`");
                let b = self.cost_block(cx, body).fold().add(branch);
                Cost::of(b.mul(iters))
            }
            Expr::For { iter, body, tok, .. } => {
                let counted = counted_range(iter, &self.files[cx.file].toks);
                let iters = self.loop_bound(cx, *tok, counted, "`for` loop");
                let ic = self.cost_expr(cx, iter);
                let b = self.cost_block(cx, body).fold();
                Cost::of(
                    ic.total
                        .add(b.add(ic.pending).add(exact_cycles(ITER_STEP_CYCLES)).mul(iters)),
                )
            }
            Expr::Closure { body, .. } => self.cost_expr(cx, body),
            Expr::Return { value, .. } | Expr::Jump { value, .. } => Cost::of(
                value
                    .as_ref()
                    .map(|v| self.cost_expr(cx, v).fold())
                    .unwrap_or(exact_cycles(0))
                    .add(branch),
            ),
            Expr::Range { lo, hi, .. } => {
                let mut c = exact_cycles(0);
                if let Some(l) = lo {
                    c = c.add(self.cost_expr(cx, l).fold());
                }
                if let Some(h) = hi {
                    c = c.add(self.cost_expr(cx, h).fold());
                }
                Cost::of(c)
            }
            Expr::Opaque(sp) => Cost::of(self.opaque_span(cx, sp.start, sp.end)),
        }
    }

    /// A method call: an exact impl match on the receiver's type outranks
    /// everything (a user type's own `position` is its body, not
    /// `Iterator::position`); then lazy adapters defer, drains multiply,
    /// cheap std combinators cost an integer method, and the rest resolve
    /// through the call graph with receiver-type refinement.
    fn method_cost(&mut self, cx: &mut FnCx, recv: &Expr, method: &str, args: &[Expr], tok: usize) -> Cost {
        let r = self.cost_expr(cx, recv);
        let recv_ty = cx.recv.get(&tok).cloned().unwrap_or(AbsTy::Unknown);
        let cands: Vec<usize> = self.by_name.get(method).cloned().unwrap_or_default();
        let exact: Vec<usize> = match &recv_ty {
            AbsTy::Q16 | AbsTy::Frac | AbsTy::Named(_) => {
                let tyname = match &recv_ty {
                    AbsTy::Q16 => "Q16",
                    AbsTy::Frac => "Frac",
                    AbsTy::Named(t) => t.as_str(),
                    _ => unreachable!(),
                };
                cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].self_ty == Some(tyname))
                    .collect()
            }
            _ => Vec::new(),
        };
        if exact.is_empty() {
            if LAZY_ADAPTERS.contains(&method) {
                let mut pending = r.pending;
                for a in args {
                    pending = pending.add(self.cost_expr(cx, a).fold());
                }
                return Cost {
                    total: r.total.add(exact_cycles(ALU_CYCLES)),
                    pending,
                };
            }
            if DRAIN_ADAPTERS.contains(&method) {
                let iters = self.loop_bound(cx, tok, None, &format!("iterator drain `.{method}(…)`"));
                let mut per = r.pending.add(exact_cycles(ITER_STEP_CYCLES));
                for a in args {
                    per = per.add(self.cost_expr(cx, a).fold());
                }
                return Cost::of(r.total.add(per.mul(iters)).add(exact_cycles(CALL_CYCLES)));
            }
        }
        let mut c = r.fold();
        for a in args {
            c = c.add(self.cost_expr(cx, a).fold());
        }
        if exact.is_empty() && CHEAP_STD_METHODS.contains(&method) {
            // `Ordering::then_with`, `Option::is_some`, … — a compare and
            // a branch, not a full opaque call (closure args were just
            // priced once above, which is what these combinators do).
            return Cost::of(c.add(INT_METHOD));
        }
        // `(candidates, refined)`: refined resolution (an exact impl
        // match) is the only method dispatch trusted enough to *report*
        // recursion on; fallback joins still charge the back edge as an
        // opaque call but stay silent — a `.cmp()` on a scalar alias or a
        // tuple must not accuse the same-named user impl.
        let chosen: Option<(Vec<usize>, bool)> = if !exact.is_empty() {
            Some((exact, true))
        } else {
            match &recv_ty {
                AbsTy::Named(t) if is_type_param(t) || self.structs.contains_key(t.as_str()) => {
                    // Generic receivers (`R: ScheduleRepr`) resolve to no
                    // impl by name alone: worst-case over every candidate.
                    (!cands.is_empty()).then_some((cands, false))
                }
                AbsTy::Unknown => (!cands.is_empty()).then_some((cands, false)),
                // Known scalars/collections and scalar aliases: std call.
                _ => None,
            }
        };
        let call = match chosen {
            Some((cand, refined)) => self.candidates_cost(cx, &cand, tok, refined),
            None => {
                let scalar_alias = matches!(&recv_ty, AbsTy::Named(t)
                    if !is_type_param(t) && !self.structs.contains_key(t.as_str()));
                let w = if scalar_alias || matches!(recv_ty, AbsTy::Int { .. } | AbsTy::RawQ16) {
                    INT_METHOD
                } else {
                    OPAQUE_CALL
                };
                self.note_opaque_callee(cx);
                w
            }
        };
        Cost::of(c.add(call))
    }

    fn call_cost(&mut self, cx: &mut FnCx, name: Option<&str>, qual: Option<&str>, tok: usize) -> Interval {
        let Some(name) = name else {
            self.note_opaque_callee(cx);
            return OPAQUE_CALL;
        };
        if qual.is_some_and(is_primitive_ty) {
            // `u64::from(x)`, `u32::try_from(n)`, `i64::max(a, b)` — a
            // width change or compare on a machine scalar.
            return INT_METHOD;
        }
        let all: Vec<usize> = self.by_name.get(name).cloned().unwrap_or_default();
        // `Type::method(…)` / `Self::method(…)` qualifiers narrow by impl.
        let exact: Vec<usize> = match qual {
            Some(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                let q = if q == "Self" {
                    cx.self_ty.clone()
                } else {
                    Some(q.to_string())
                };
                match q {
                    Some(q) => all
                        .iter()
                        .copied()
                        .filter(|&i| self.fns[i].self_ty == Some(q.as_str()))
                        .collect(),
                    None => Vec::new(),
                }
            }
            _ => Vec::new(),
        };
        if INIT_CTORS.contains(&name) && exact.is_empty() {
            // Init-time constructor boundary, same as the alloc lint. An
            // exactly-resolved user ctor (`Frac::new` on the precedence
            // path) is walked for real instead — the hot path pays its
            // actual body, not a pessimistic opaque interval.
            self.note_opaque_callee(cx);
            return OPAQUE_CALL;
        }
        if all.is_empty() {
            self.note_opaque_callee(cx);
            return OPAQUE_CALL;
        }
        let chosen = if exact.is_empty() { all } else { exact };
        self.candidates_cost(cx, &chosen, tok, true)
    }

    /// Worst case over resolved candidates, with recursion detection
    /// (reported only when the resolution was `refined` — an exact impl
    /// match or a direct path call; fallback joins charge the back edge
    /// silently).
    fn candidates_cost(&mut self, cx: &mut FnCx, cands: &[usize], tok: usize, refined: bool) -> Interval {
        let mut joined: Option<Interval> = None;
        let mut depth = 0u64;
        let mut stack = 0u64;
        for &i in cands {
            let (cy, d, s) = if matches!(self.state[i], St::InProgress) {
                let cycle_refined = refined
                    && self
                        .active
                        .iter()
                        .rposition(|&(f, _)| f == i)
                        .is_some_and(|p| self.active[p + 1..].iter().all(|&(_, r)| r));
                if cycle_refined {
                    let label = match self.fns[i].self_ty {
                        Some(ty) => format!("{ty}::{}", self.fns[i].item.name),
                        None => self.fns[i].item.name.clone(),
                    };
                    self.emit(
                        NI_STACK_DEPTH,
                        cx.file,
                        tok,
                        format!("recursive call into `{label}` on an NI hot path"),
                        "recursion has no static stack bound; rewrite as a bounded loop",
                    );
                }
                (OPAQUE_CALL, 1, OPAQUE_FRAME_BYTES)
            } else {
                let s = self.summarize(i, refined);
                (s.cycles, s.depth, s.stack)
            };
            joined = Some(joined.map_or(cy, |j| j.join(cy)));
            depth = depth.max(d);
            stack = stack.max(s);
        }
        cx.callee_depth = cx.callee_depth.max(depth);
        cx.callee_stack = cx.callee_stack.max(stack);
        joined.unwrap_or(OPAQUE_CALL).add(exact_cycles(CALL_CYCLES))
    }

    fn note_opaque_callee(&mut self, cx: &mut FnCx) {
        cx.callee_depth = cx.callee_depth.max(1);
        cx.callee_stack = cx.callee_stack.max(OPAQUE_FRAME_BYTES);
    }
}

/// A generic type parameter by convention (`R`, `T`, `K1`): one ASCII
/// uppercase letter, optionally followed by digits. Anything longer is a
/// concrete name — and one the struct table does not know is a scalar
/// alias (`Time` = u64), whose methods are std calls.
fn is_type_param(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_uppercase()) && name.len() <= 2 && chars.all(|c| c.is_ascii_digit())
}

/// A machine-scalar path qualifier: `u64::from(…)` is a width change, not
/// an opaque call.
fn is_primitive_ty(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "bool"
            | "char"
    )
}

/// `for _ in a..b` / `a..=b` with integer-literal ends.
fn counted_range(iter: &Expr, toks: &[crate::lexer::Tok]) -> Option<u64> {
    if let Expr::Range {
        lo: Some(l),
        hi: Some(h),
        tok,
    } = iter
    {
        let (a, b) = (int_lit(l)?, int_lit(h)?);
        // The lexer emits single-char puncts, so `..=` spans three tokens
        // starting at `tok`; the `=` (when present) is the third.
        let inclusive = toks.get(*tok).is_some_and(|t| t.text.contains('='))
            || toks
                .get(*tok + 2)
                .is_some_and(|t| t.text == "=" && toks[*tok].line == t.line && t.col == toks[*tok].col + 2);
        let n = b.saturating_sub(a);
        return Some(if inclusive { n + 1 } else { n });
    }
    None
}

fn int_lit(e: &Expr) -> Option<u64> {
    match e {
        Expr::Lit {
            kind: LitKind::Int(Some(v)),
            ..
        } => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// Size in bytes of a `[T; N]` type annotation, when statically evident.
fn array_type_bytes(t: &TypeRef) -> Option<u64> {
    let semi = t.toks.iter().position(|s| s == ";")?;
    let elem = t.toks[..semi].iter().find(|s| {
        let c = s.chars().next().unwrap_or(' ');
        c.is_alphabetic() || c == '_'
    })?;
    let count: u64 = t.toks[semi + 1..]
        .iter()
        .find(|s| s.chars().next().is_some_and(|c| c.is_ascii_digit()))?
        .replace('_', "")
        .parse()
        .ok()?;
    Some(count.saturating_mul(scalar_bytes(elem)))
}

/// Byte size of a scalar type name (8 when unknown).
fn scalar_bytes(name: &str) -> u64 {
    match name {
        "bool" | "u8" | "i8" => 1,
        "u16" | "i16" => 2,
        "u32" | "i32" | "f32" | "char" => 4,
        "u128" | "i128" => 16,
        _ => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::bound_le;
    use crate::FileAnalysis;

    // -- interval arithmetic ------------------------------------------------

    #[test]
    fn add_and_scale_saturate_instead_of_wrapping() {
        let big = Interval::new(i128::MAX - 1, i128::MAX);
        let sum = big.add(exact_cycles(10));
        assert_eq!(sum, Interval::of(i128::MAX));
        let prod = big.mul(exact_cycles(3));
        assert_eq!(prod, Interval::of(i128::MAX));
        // Unbounded absorbs through every composition.
        assert_eq!(NONNEG.add(exact_cycles(1)).hi, Bound::PInf);
        assert_eq!(exact_cycles(2).mul(NONNEG).hi, Bound::PInf);
    }

    #[test]
    fn join_is_the_containing_hull() {
        let a = Interval::new(5, 10);
        let b = Interval::new(2, 7);
        assert_eq!(a.join(b), Interval::new(2, 10));
        assert_eq!(a.join(a), a);
        // Commutative.
        assert_eq!(b.join(a), Interval::new(2, 10));
    }

    #[test]
    fn zero_is_the_additive_identity_and_scale_annihilator() {
        let c = Interval::new(3, 9);
        assert_eq!(c.add(exact_cycles(0)), c);
        assert_eq!(c.mul(exact_cycles(0)), exact_cycles(0));
    }

    // -- name classification ------------------------------------------------

    #[test]
    fn type_param_convention_is_one_letter_plus_digits() {
        for p in ["T", "R", "K1"] {
            assert!(is_type_param(p), "{p}");
        }
        for n in ["Time", "Q16", "Frac", "x", "TB"] {
            assert!(!is_type_param(n), "{n}");
        }
    }

    #[test]
    fn primitive_qualifiers_are_recognised() {
        assert!(is_primitive_ty("u64"));
        assert!(is_primitive_ty("bool"));
        assert!(!is_primitive_ty("Time"));
        assert!(!is_primitive_ty("Frac"));
    }

    #[test]
    fn scalar_sizes_match_layout() {
        assert_eq!(scalar_bytes("u8"), 1);
        assert_eq!(scalar_bytes("i16"), 2);
        assert_eq!(scalar_bytes("u32"), 4);
        assert_eq!(scalar_bytes("u64"), 8);
        assert_eq!(scalar_bytes("u128"), 16);
        assert_eq!(scalar_bytes("SomeStruct"), 8);
    }

    // -- whole-analysis behaviour ------------------------------------------

    fn report(src: &str) -> CostReport {
        let fa = FileAnalysis {
            rel: std::path::PathBuf::from("t.rs"),
            toks: crate::lexer::lex(src),
            scopes: crate::scope::analyze(&crate::lexer::lex(src)),
            ast: crate::parser::parse(&crate::lexer::lex(src)),
        };
        let structs = crate::dataflow::StructTable::new();
        analyze(&[&fa], &structs, &CostModel::default(), crate::lints::NI_CYCLE_BUDGET)
    }

    #[test]
    fn counted_loop_needs_no_annotation() {
        let r = report("// analysis: hot\nfn f(mut x: u64) -> u64 { for i in 0..16 { x += i; } x }");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.roots.len(), 1);
        assert_ne!(r.roots[0].cycles.hi, Bound::PInf);
    }

    #[test]
    fn inclusive_range_counts_the_extra_iteration() {
        let half = report("// analysis: hot\nfn f(mut x: u64) { for _ in 0..8 { x += 1; } }");
        let incl = report("// analysis: hot\nfn f(mut x: u64) { for _ in 0..=8 { x += 1; } }");
        assert_eq!(bound_le(incl.roots[0].cycles.hi, half.roots[0].cycles.hi), Some(false));
    }

    #[test]
    fn annotated_while_is_bounded() {
        let r = report(
            "// analysis: hot\nfn f(mut x: u64) -> u64 {\n    // analysis: bound 4\n    while x > 0 { x -= 1; }\n    x\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_ne!(r.roots[0].cycles.hi, Bound::PInf);
    }

    #[test]
    fn unbounded_loop_flags_loop_and_root() {
        let r = report("// analysis: hot\nfn f(mut x: u64) -> u64 { while x > 0 { x -= 1; } x }");
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        assert_eq!(r.roots[0].cycles.hi, Bound::PInf);
    }

    #[test]
    fn exact_impl_match_outranks_iterator_adapter_names() {
        // `self.position(…)` resolves to the user method (a bounded body),
        // not to `Iterator::position` (which would demand a drain bound).
        let r = report(
            "struct S { n: u64 }\nimpl S {\n    fn position(&self) -> u64 { self.n + 1 }\n    // analysis: hot\n    fn f(&self) -> u64 { self.position() }\n}",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_ne!(r.roots[0].cycles.hi, Bound::PInf);
    }

    #[test]
    fn direct_recursion_is_reported_once() {
        let r = report("// analysis: hot\nfn f(n: u64) -> u64 { if n == 0 { 0 } else { f(n - 1) } }");
        let rec: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.message.contains("recursive call"))
            .collect();
        assert_eq!(rec.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn name_join_cycles_stay_silent() {
        // `x.helper()` joins by name only (unknown receiver); the cycle
        // f -> helper -> f exists only through that fallback edge, so no
        // recursion is reported — but the cost still terminates.
        let r = report(
            "struct A;\nstruct B;\nimpl A { fn helper(&self) -> u64 { 1 } }\nimpl B { fn helper(&self) -> u64 { f() } }\n// analysis: hot\nfn f() -> u64 { x.helper() }",
        );
        let rec: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.message.contains("recursive call"))
            .collect();
        assert!(rec.is_empty(), "{:?}", r.findings);
        assert_eq!(r.roots.len(), 1);
    }

    #[test]
    fn large_stack_local_and_frame_are_flagged() {
        let r = report("// analysis: hot\nfn f(seed: u8) -> u8 { let big: [u8; 4096] = [seed; 4096]; big[0] }");
        assert!(
            r.findings
                .iter()
                .any(|f| f.lint == crate::lints::NI_STACK_DEPTH && f.message.contains("~4096 bytes")),
            "{:?}",
            r.findings
        );
        assert!(r.roots[0].stack_bytes >= 4096);
    }

    #[test]
    fn allowed_functions_are_opaque_frames() {
        let r = report(
            "// analysis: allow(ni-cycle-budget) reason=\"host-side\"\nfn spin(mut n: u64) -> u64 { while n > 0 { n -= 1; } n }\n// analysis: hot\nfn f() -> u64 { spin(9) }",
        );
        assert!(
            r.findings.iter().all(|f| f.lint != crate::lints::NI_CYCLE_BUDGET),
            "{:?}",
            r.findings
        );
        assert_ne!(r.roots[0].cycles.hi, Bound::PInf);
    }
}
