//! Property test for the interval domain: on randomly generated
//! straight-line/branch/loop programs, the abstract result interval must
//! contain the concrete execution's result (`abstract ⊇ concrete`), and
//! the fixpoint engine must terminate via widening even when the
//! concrete iteration space is enormous.
//!
//! No external proptest dependency: programs are drawn from a seeded
//! 64-bit LCG, so every failure is reproducible from the case number
//! printed in the panic message.

use nistream_analysis::{ast, dataflow, lexer, parser};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Small signed constant in `-8..=8`.
    fn small(&mut self) -> i64 {
        self.below(17) as i64 - 8
    }
}

/// Binary operators the generator emits. All operands stay tiny, so
/// `i64` never overflows concretely and the abstract transfer is
/// exercised on exact (non-saturated) intervals.
#[derive(Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

/// One generated expression over already-declared variables.
enum Expr {
    Const(i64),
    Var(usize),
    Bin(Op, Box<Expr>, Box<Expr>),
}

impl Expr {
    fn gen(r: &mut Lcg, nvars: usize, depth: u32) -> Expr {
        let pick = if depth == 0 { r.below(2) } else { r.below(4) };
        match pick {
            0 => Expr::Const(r.small()),
            1 if nvars > 0 => Expr::Var(r.below(nvars as u64) as usize),
            1 => Expr::Const(r.small()),
            _ => {
                let op = match r.below(7) {
                    0 => Op::Add,
                    1 => Op::Sub,
                    2 => Op::Mul,
                    3 => Op::Div,
                    4 => Op::Rem,
                    5 => Op::Min,
                    _ => Op::Max,
                };
                let a = Expr::gen(r, nvars, depth - 1);
                let b = match op {
                    // Keep division concrete-total: nonzero constant rhs.
                    Op::Div | Op::Rem => {
                        let mut c = r.small();
                        if c == 0 {
                            c = 3;
                        }
                        Expr::Const(c)
                    }
                    _ => Expr::gen(r, nvars, depth - 1),
                };
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
        }
    }

    fn eval(&self, env: &[i64]) -> i64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(i) => env[*i],
            Expr::Bin(op, a, b) => {
                let (x, y) = (a.eval(env), b.eval(env));
                match op {
                    Op::Add => x + y,
                    Op::Sub => x - y,
                    Op::Mul => x * y,
                    Op::Div => x / y,
                    Op::Rem => x % y,
                    Op::Min => x.min(y),
                    Op::Max => x.max(y),
                }
            }
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Expr::Const(c) => {
                if *c < 0 {
                    let _ = write!(out, "({c})");
                } else {
                    let _ = write!(out, "{c}");
                }
            }
            Expr::Var(i) => {
                let _ = write!(out, "v{i}");
            }
            Expr::Bin(op, a, b) => match op {
                Op::Min | Op::Max => {
                    a.render(out);
                    out.push_str(if matches!(op, Op::Min) { ".min(" } else { ".max(" });
                    b.render(out);
                    out.push(')');
                }
                _ => {
                    out.push('(');
                    a.render(out);
                    out.push_str(match op {
                        Op::Add => " + ",
                        Op::Sub => " - ",
                        Op::Mul => " * ",
                        Op::Div => " / ",
                        Op::Rem => " % ",
                        _ => unreachable!(),
                    });
                    b.render(out);
                    out.push(')');
                }
            },
        }
    }
}

/// One generated statement.
enum Stmt {
    /// `let mut vN: i64 = <e>;`
    Let(Expr),
    /// `if vI <cmp> <c> { vK = <then>; } else { vK = <else>; }` —
    /// exercises branch-guard refinement and the join at the merge.
    If {
        cond_var: usize,
        cmp: &'static str,
        cmp_const: i64,
        target: usize,
        then_e: Expr,
        else_e: Expr,
    },
    /// `for _i in 0..N { vK = vK + c; }` — exercises loop widening and
    /// narrowing on a counted range.
    For { trips: u64, target: usize, delta: i64 },
}

struct Prog {
    stmts: Vec<Stmt>,
    nvars: usize,
}

impl Prog {
    fn gen(r: &mut Lcg) -> Prog {
        let len = 3 + r.below(8) as usize;
        let mut stmts = Vec::with_capacity(len);
        let mut nvars = 0usize;
        for _ in 0..len {
            let kind = if nvars == 0 { 0 } else { r.below(3) };
            match kind {
                0 => {
                    stmts.push(Stmt::Let(Expr::gen(r, nvars, 2)));
                    nvars += 1;
                }
                1 => stmts.push(Stmt::If {
                    cond_var: r.below(nvars as u64) as usize,
                    cmp: ["<", "<=", ">", ">=", "==", "!="][r.below(6) as usize],
                    cmp_const: r.small(),
                    target: r.below(nvars as u64) as usize,
                    then_e: Expr::gen(r, nvars, 2),
                    else_e: Expr::gen(r, nvars, 2),
                }),
                _ => stmts.push(Stmt::For {
                    trips: r.below(6),
                    target: r.below(nvars as u64) as usize,
                    delta: r.small(),
                }),
            }
        }
        Prog { stmts, nvars }
    }

    fn eval(&self) -> i64 {
        let mut env = vec![0i64; self.nvars];
        let mut next = 0usize;
        for s in &self.stmts {
            match s {
                Stmt::Let(e) => {
                    env[next] = e.eval(&env[..next]);
                    next += 1;
                }
                Stmt::If {
                    cond_var,
                    cmp,
                    cmp_const,
                    target,
                    then_e,
                    else_e,
                } => {
                    let v = env[*cond_var];
                    let taken = match *cmp {
                        "<" => v < *cmp_const,
                        "<=" => v <= *cmp_const,
                        ">" => v > *cmp_const,
                        ">=" => v >= *cmp_const,
                        "==" => v == *cmp_const,
                        _ => v != *cmp_const,
                    };
                    env[*target] = if taken {
                        then_e.eval(&env[..next])
                    } else {
                        else_e.eval(&env[..next])
                    };
                }
                Stmt::For { trips, target, delta } => {
                    env[*target] += *trips as i64 * *delta;
                }
            }
        }
        env[self.nvars - 1]
    }

    fn render(&self) -> String {
        let mut out = String::from("fn f() -> i64 {\n");
        let mut next = 0usize;
        for s in &self.stmts {
            match s {
                Stmt::Let(e) => {
                    let _ = write!(out, "    let mut v{next}: i64 = ");
                    e.render(&mut out);
                    out.push_str(";\n");
                    next += 1;
                }
                Stmt::If {
                    cond_var,
                    cmp,
                    cmp_const,
                    target,
                    then_e,
                    else_e,
                } => {
                    let _ = write!(out, "    if v{cond_var} {cmp} {cmp_const} {{ v{target} = ");
                    then_e.render(&mut out);
                    let _ = write!(out, "; }} else {{ v{target} = ");
                    else_e.render(&mut out);
                    out.push_str("; }\n");
                }
                Stmt::For { trips, target, delta } => {
                    let _ = writeln!(out, "    for _i in 0..{trips} {{ v{target} = v{target} + ({delta}); }}");
                }
            }
        }
        let _ = write!(out, "    v{}\n}}\n", self.nvars - 1);
        out
    }
}

// ---------------------------------------------------------------------
// Abstract side
// ---------------------------------------------------------------------

/// Flow `src` through [`dataflow::RangeDomain`] and return the summary
/// interval of `f` (joined over every `return`-position value).
fn abstract_result(src: &str) -> dataflow::Interval {
    let toks = lexer::lex(src);
    let file = parser::parse(&toks);
    let structs = dataflow::StructTable::new();
    let mut dom = dataflow::RangeDomain::new(dataflow::TyCx {
        structs: &structs,
        toks: &toks,
    });
    ast::for_each_fn(&file, &mut |f, self_ty| dataflow::flow_fn(f, self_ty, &mut dom));
    *dom.summaries.get("f").expect("no summary for generated fn")
}

fn contains(iv: dataflow::Interval, v: i64) -> bool {
    let lo_ok = match iv.lo {
        dataflow::Bound::NInf => true,
        dataflow::Bound::Int(x) => x <= i128::from(v),
        // A symbolic bound cannot survive `strip_len` on a scalar return.
        dataflow::Bound::Len(..) => false,
        dataflow::Bound::PInf => false,
    };
    let hi_ok = match iv.hi {
        dataflow::Bound::PInf => true,
        dataflow::Bound::Int(x) => x >= i128::from(v),
        dataflow::Bound::Len(..) => false,
        dataflow::Bound::NInf => false,
    };
    lo_ok && hi_ok
}

#[test]
fn abstract_interval_contains_concrete_result() {
    let mut r = Lcg(0x6e69_7374_7265_616d); // fixed seed: reproducible corpus
    for case in 0..500 {
        let prog = Prog::gen(&mut r);
        let concrete = prog.eval();
        let src = prog.render();
        let iv = abstract_result(&src);
        assert!(
            contains(iv, concrete),
            "case {case}: abstract {iv:?} excludes concrete {concrete}\nprogram:\n{src}"
        );
    }
}

#[test]
fn refinement_respects_both_branch_environments() {
    // Hand-picked shape where an unsound refinement (applying the guard
    // to the wrong side, or refining the merged env) shows up directly.
    let src = "fn f() -> i64 {\n    let mut v0: i64 = 7;\n    if v0 < 3 { v0 = 0; } else { v0 = v0 + 1; }\n    v0\n}\n";
    let iv = abstract_result(src);
    assert!(contains(iv, 8), "abstract {iv:?} excludes the concrete result 8");
}

#[test]
fn widening_terminates_on_huge_counted_loop() {
    // 10^9 concrete iterations: only a widening operator reaches the
    // post-fixpoint in bounded analysis passes. The result must still be
    // a sound (possibly infinite) over-approximation of 10^9.
    let src = "fn f() -> i64 {\n    let mut v0: i64 = 0;\n    for _i in 0..1000000000 { v0 = v0 + 1; }\n    v0\n}\n";
    let iv = abstract_result(src);
    assert!(contains(iv, 1_000_000_000), "abstract {iv:?} excludes 10^9");
}

#[test]
fn widening_terminates_on_data_dependent_while() {
    // `while` with a data-dependent bound: the loop head must widen to
    // +inf (or the guard bound) rather than iterate 2^62 times.
    let src = "fn f() -> i64 {\n    let mut v0: i64 = 0;\n    let n: i64 = 4611686018427387904;\n    while v0 < n {\n        v0 = v0 + 1;\n    }\n    v0\n}\n";
    let iv = abstract_result(src);
    assert!(
        contains(iv, 4611686018427387904),
        "abstract {iv:?} excludes the loop exit value 2^62"
    );
}
