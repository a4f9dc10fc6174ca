//! Compiling `Core` expressions straight to a chunk's op stream.

use crate::chunk::{fresh_chunk_id, lay_out, to, Block, BlockId, Chunk, Op, Pools, NO_POINT};
use pgmp_eval::{Core, CoreKind, Value};
use pgmp_observe as observe;
use pgmp_syntax::{Datum, SourceObject};
use std::ops::Range;
use std::rc::Rc;

struct Builder {
    /// Ops in emission order. A block never becomes current again once
    /// the builder leaves it, so each block's ops are contiguous here.
    ops: Vec<Op>,
    /// Each block's range of `ops`, by block id.
    ranges: Vec<Range<u32>>,
    /// The block table; each block's `start` is set when the blocks are
    /// laid out.
    blocks: Vec<Block>,
    current: BlockId,
    pools: Pools,
    /// Index in `points` of each `GlobalRef`'s source object, by cache
    /// index ([`NO_POINT`] when it has none).
    global_points: Vec<u32>,
    /// Profile points with their `Call` flag, in compile order. Like its
    /// ops, each block's points are contiguous here.
    points: Vec<(SourceObject, bool)>,
}

/// Appends `x` to `pool`, returning its index.
fn pool<T>(pool: &mut Vec<T>, x: T) -> u32 {
    pool.push(x);
    (pool.len() - 1) as u32
}

/// True for datum kinds whose [`Value`] form is immutable and therefore
/// poolable: pushing a clone of a pre-converted value is indistinguishable
/// from converting the datum afresh. String, pair, and vector literals are
/// *mutable* in Scheme, so they must be rebuilt per execution.
fn imm_datum(d: &Datum) -> bool {
    matches!(
        d,
        Datum::Nil
            | Datum::Bool(_)
            | Datum::Int(_)
            | Datum::Float(_)
            | Datum::Char(_)
            | Datum::Sym(_)
    )
}

impl Builder {
    fn new() -> Builder {
        let mut b = Builder {
            ops: Vec::new(),
            ranges: Vec::new(),
            blocks: Vec::new(),
            current: 0,
            pools: Pools::new(),
            global_points: Vec::new(),
            points: Vec::new(),
        };
        b.new_block();
        b
    }

    fn emit(&mut self, op: Op) {
        let range = &mut self.ranges[self.current as usize];
        debug_assert_eq!(
            range.end as usize,
            self.ops.len(),
            "block ops not contiguous"
        );
        self.ops.push(op);
        range.end += 1;
    }

    /// Ends the current block with `Return` when `tail`: the value just
    /// pushed is the activation's result.
    fn ret(&mut self, tail: bool) {
        if tail {
            self.emit(Op::Return);
        }
    }

    fn new_block(&mut self) -> BlockId {
        let id = self.blocks.len() as BlockId;
        self.ranges.push(0..0);
        self.blocks.push(Block {
            start: 0,
            points: 0..0,
            calls: 0,
        });
        id
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
        let at = self.ops.len() as u32;
        self.ranges[b as usize] = at..at;
    }

    /// The op pushing constant `d`: a pooled value when it is immutable,
    /// else a datum converted per execution.
    fn konst(&mut self, d: &Datum) -> Op {
        if imm_datum(d) {
            Op::Imm {
                pool: pool(&mut self.pools.imms, Value::from_datum(d)),
            }
        } else {
            Op::DatumConst {
                pool: pool(&mut self.pools.datums, d.clone()),
            }
        }
    }

    /// The `src` operand for `src`: 0 when there is none.
    fn src(&mut self, src: Option<SourceObject>) -> u32 {
        match src {
            Some(_) => pool(&mut self.pools.srcs, src),
            None => 0,
        }
    }

    /// Records `core`'s profile point, if it has one, in the current
    /// block: its evaluation starts here.
    fn mark(&mut self, core: &Core) {
        if let Some(src) = core.src {
            let call = matches!(
                core.kind,
                CoreKind::Call { .. } | CoreKind::SyntaxMatch { .. }
            );
            let next = self.points.len() as u32;
            let range = &mut self.blocks[self.current as usize].points;
            if range.start == range.end {
                *range = next..next;
            }
            debug_assert_eq!(range.end, next, "block points not contiguous");
            range.end += 1;
            self.points.push((src, call));
        }
    }

    /// The finished point table: each block's points with its calls
    /// moved to the front, recording their number in the block, and the
    /// global references' indexes following their points.
    fn point_table(&mut self) -> Rc<[SourceObject]> {
        let mut table = Vec::with_capacity(self.points.len());
        let mut moved = vec![NO_POINT; self.points.len()];
        for block in &mut self.blocks {
            let start = table.len() as u32;
            for calls in [true, false] {
                for i in block.points.clone() {
                    let (src, call) = self.points[i as usize];
                    if call == calls {
                        moved[i as usize] = table.len() as u32;
                        table.push(src);
                    }
                }
                if calls {
                    block.calls = table.len() as u32 - start;
                }
            }
            block.points = start..table.len() as u32;
        }
        for point in &mut self.global_points {
            if *point != NO_POINT {
                *point = moved[*point as usize];
            }
        }
        table.into()
    }

    /// Lays the blocks out in id order as the chunk's op stream.
    fn finish(mut self, t: Option<observe::SpanTimer>) -> Chunk {
        debug_assert!(
            self.ranges.iter().all(|r| matches!(
                self.ops[r.end as usize - 1],
                Op::Jump { .. }
                    | Op::Branch { .. }
                    | Op::Return
                    | Op::TailCall { .. }
                    | Op::TailCallLocal { .. }
            )),
            "a block without a terminator"
        );
        let points = self.point_table();
        let order: Vec<BlockId> = (0..self.blocks.len() as BlockId).collect();
        Chunk::new(
            t,
            fresh_chunk_id(),
            lay_out(&self.ops, &self.ranges, &self.blocks, &order),
            self.pools,
            self.global_points.into(),
            points,
        )
    }
}

/// Compiles one toplevel `Core` expression to a [`Chunk`]: its blocks
/// laid out in the order the compiler opened them, the entry first.
/// Traced as a `vm_lower` span when observability is armed.
///
/// # Example
///
/// See the crate-level example.
pub fn compile_chunk(core: &Rc<Core>) -> Chunk {
    let t = observe::timer();
    let mut b = Builder::new();
    compile_expr(&mut b, core, true);
    b.finish(t)
}

/// Compiles `core`, leaving its value on the stack. When `tail` is true the
/// expression is in tail position: calls become `TailCall` and the block is
/// terminated by `Return` after the value is produced.
fn compile_expr(b: &mut Builder, core: &Rc<Core>, tail: bool) {
    b.mark(core);
    match &core.kind {
        CoreKind::Const(d) => {
            let op = b.konst(d);
            b.emit(op);
            b.ret(tail);
        }
        CoreKind::SyntaxConst(s) => {
            let pool = pool(&mut b.pools.syntaxes, s.clone());
            b.emit(Op::SyntaxConst { pool });
            b.ret(tail);
        }
        CoreKind::LocalRef { depth, index } => {
            b.emit(Op::LocalRef {
                depth: *depth,
                index: *index,
            });
            b.ret(tail);
        }
        CoreKind::SyntaxMatch {
            matcher,
            depth,
            index,
        } => {
            let pool = pool(&mut b.pools.matchers, matcher.clone());
            let src = b.src(core.src);
            b.emit(Op::SyntaxMatch {
                pool,
                depth: *depth,
                index: *index,
                src,
            });
            b.ret(tail);
        }
        CoreKind::GlobalRef(name) => {
            // `compile_expr` has just marked this node's point, if any.
            let cache = b.global_points.len() as u32;
            let point = match core.src {
                Some(_) => b.points.len() as u32 - 1,
                None => NO_POINT,
            };
            b.global_points.push(point);
            b.emit(Op::GlobalRef { name: *name, cache });
            b.ret(tail);
        }
        CoreKind::SetLocal {
            depth,
            index,
            value,
        } => {
            compile_expr(b, value, false);
            b.emit(Op::SetLocal {
                depth: *depth,
                index: *index,
            });
            b.emit(Op::Unspecified);
            b.ret(tail);
        }
        CoreKind::SetGlobal(name, value) => {
            compile_expr(b, value, false);
            let src = b.src(core.src);
            b.emit(Op::SetGlobal { name: *name, src });
            b.emit(Op::Unspecified);
            b.ret(tail);
        }
        CoreKind::DefineGlobal(name, value) => {
            compile_expr(b, value, false);
            b.emit(Op::DefineGlobal { name: *name });
            b.emit(Op::Unspecified);
            b.ret(tail);
        }
        CoreKind::If(c, t, e) => {
            compile_expr(b, c, false);
            let then_blk = b.new_block();
            let else_blk = b.new_block();
            b.emit(Op::Branch {
                then_: to(then_blk),
                else_: to(else_blk),
            });
            if tail {
                b.switch_to(then_blk);
                compile_expr(b, t, true);
                b.switch_to(else_blk);
                compile_expr(b, e, true);
            } else {
                let join = b.new_block();
                b.switch_to(then_blk);
                compile_expr(b, t, false);
                b.emit(Op::Jump { target: to(join) });
                b.switch_to(else_blk);
                compile_expr(b, e, false);
                b.emit(Op::Jump { target: to(join) });
                b.switch_to(join);
            }
        }
        CoreKind::Lambda(def) => {
            let pool = pool(&mut b.pools.lambdas, def.clone());
            b.emit(Op::MakeClosure { pool });
            b.ret(tail);
        }
        CoreKind::Seq(es) => match es.split_last() {
            None => {
                b.emit(Op::Unspecified);
                b.ret(tail);
            }
            Some((last, init)) => {
                for e in init {
                    compile_expr(b, e, false);
                    b.emit(Op::Pop);
                }
                compile_expr(b, last, tail);
            }
        },
        CoreKind::Let { inits, body } => {
            for init in inits {
                compile_expr(b, init, false);
            }
            b.emit(Op::PushFrame {
                n: inits.len() as u16,
            });
            // In tail position the activation (and its frame register) is
            // discarded on return, so no PopFrame is needed and the body
            // keeps proper tail calls.
            compile_expr(b, body, tail);
            if !tail {
                b.emit(Op::PopFrame);
            }
        }
        CoreKind::LetRec { inits, body } => {
            b.emit(Op::PushFrameUnspec {
                n: inits.len() as u16,
            });
            for (i, init) in inits.iter().enumerate() {
                let index = i as u16;
                if let CoreKind::Lambda(def) = &init.kind {
                    // Not compiled as an expression, but evaluated as one.
                    b.mark(init);
                    let pool = pool(&mut b.pools.lambdas, def.clone());
                    b.emit(Op::BindCode { index, pool });
                } else {
                    compile_expr(b, init, false);
                    b.emit(Op::SetLocal { depth: 0, index });
                }
            }
            compile_expr(b, body, tail);
            if !tail {
                b.emit(Op::PopFrame);
            }
        }
        CoreKind::Call { func, args } => {
            // A local operator may name code, which the call enters
            // without building a closure.
            let local = match func.kind {
                CoreKind::LocalRef { depth, index } => {
                    b.mark(func);
                    b.emit(Op::LocalCallee { depth, index });
                    true
                }
                _ => {
                    compile_expr(b, func, false);
                    false
                }
            };
            for a in args {
                compile_expr(b, a, false);
            }
            let (argc, src) = (args.len() as u16, b.src(core.src));
            b.emit(match (local, tail) {
                (true, true) => Op::TailCallLocal { argc, src },
                (true, false) => Op::CallLocal { argc, src },
                (false, true) => Op::TailCall { argc, src },
                (false, false) => Op::Call { argc, src },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_eval::LambdaDef;
    use pgmp_syntax::{Datum, Symbol};

    fn at(n: u32) -> SourceObject {
        SourceObject::new("points.scm", n, n + 1)
    }

    fn node(kind: CoreKind, n: u32) -> Rc<Core> {
        Rc::new(Core::new(kind, Some(at(n))))
    }

    fn konst(n: i64) -> Rc<Core> {
        Core::rc(CoreKind::Const(Datum::Int(n)), None)
    }

    #[test]
    fn straight_line_is_one_block() {
        let chunk = compile_chunk(&konst(1));
        assert_eq!(chunk.block_count(), 1);
        assert_eq!(chunk.block_ops(0), [Op::Imm { pool: 0 }, Op::Return]);
    }

    #[test]
    fn if_in_tail_position_has_no_join() {
        let e = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let chunk = compile_chunk(&e);
        // entry + then + else.
        assert_eq!(chunk.block_count(), 3);
        assert_eq!(chunk.successors(0), [1, 2]);
        assert_eq!(chunk.block_ops(1).last(), Some(&Op::Return));
        assert_eq!(chunk.block_ops(2).last(), Some(&Op::Return));
    }

    #[test]
    fn nested_if_in_non_tail_position_joins() {
        // (begin (if 1 2 3) 4) — if result discarded, join block needed.
        let iff = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let e = Core::rc(CoreKind::Seq(vec![iff, konst(4)]), None);
        let chunk = compile_chunk(&e);
        assert_eq!(chunk.block_count(), 4);
        assert_eq!(chunk.successors(1), [3]);
        assert_eq!(chunk.successors(2), [3]);
    }

    #[test]
    fn tail_calls_compile_to_tailcall_terminator() {
        let call = Core::rc(
            CoreKind::Call {
                func: Core::rc(CoreKind::GlobalRef(pgmp_syntax::Symbol::intern("f")), None),
                args: vec![konst(1)],
            },
            None,
        );
        let chunk = compile_chunk(&call);
        assert!(matches!(
            chunk.block_ops(0).last(),
            Some(Op::TailCall { argc: 1, .. })
        ));
    }

    #[test]
    fn point_table_groups_points_by_block_with_calls_first() {
        // (if (f 1) 2 3): the `if`, the call and its operands start in the
        // entry block, each branch's constant in its own block.
        let call = node(
            CoreKind::Call {
                func: node(CoreKind::GlobalRef(Symbol::intern("f")), 1),
                args: vec![node(CoreKind::Const(Datum::Int(1)), 2)],
            },
            3,
        );
        let e = node(
            CoreKind::If(
                call,
                node(CoreKind::Const(Datum::Int(2)), 4),
                node(CoreKind::Const(Datum::Int(3)), 5),
            ),
            0,
        );
        let chunk = compile_chunk(&e);
        assert_eq!(chunk.block_points(0, true), [at(3)]);
        assert_eq!(chunk.block_points(0, false), [at(3), at(0), at(1), at(2)]);
        assert_eq!(chunk.block_points(1, false), [at(4)]);
        assert_eq!(chunk.block_points(2, false), [at(5)]);
        assert!(chunk.block_points(1, true).is_empty());
        assert_eq!(chunk.points[chunk.global_points[0] as usize], at(1));
    }

    #[test]
    fn point_table_covers_code_bindings_and_local_operators() {
        // (letrec ([g (lambda () 1)]) (g)): the compiler binds the
        // `lambda` as code and reads `g` as a callee without compiling
        // either as an expression, yet both are evaluated.
        let lambda = node(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 0,
                variadic: false,
                body: node(CoreKind::Const(Datum::Int(1)), 9),
                name: None,
                src: None,
                code: Default::default(),
            })),
            1,
        );
        let call = node(
            CoreKind::Call {
                func: node(CoreKind::LocalRef { depth: 0, index: 0 }, 3),
                args: vec![],
            },
            2,
        );
        let e = node(
            CoreKind::LetRec {
                inits: vec![lambda],
                body: call,
            },
            0,
        );
        let chunk = compile_chunk(&e);
        assert_eq!(chunk.block_points(0, false), [at(2), at(0), at(1), at(3)]);
        assert_eq!(chunk.block_points(0, true), [at(2)]);
    }

    #[test]
    fn mutable_literals_stay_out_of_the_shared_constant_pool() {
        // (begin "mut" '(1 . 2) #(3) 'sym 4): string, pair and vector
        // literals are mutable, so each execution converts its own copy;
        // symbols and numbers are pooled as values.
        let lits = [
            Datum::string("mut"),
            Datum::cons(Datum::Int(1), Datum::Int(2)),
            Datum::Vector(Rc::from([Datum::Int(3)])),
            Datum::Sym(Symbol::intern("sym")),
            Datum::Int(4),
        ];
        let e = Core::rc(
            CoreKind::Seq(
                lits.iter()
                    .map(|d| Core::rc(CoreKind::Const(d.clone()), None))
                    .collect(),
            ),
            None,
        );
        let chunk = compile_chunk(&e);
        let consts: Vec<Op> = chunk
            .block_ops(0)
            .iter()
            .copied()
            .filter(|op| matches!(op, Op::Imm { .. } | Op::DatumConst { .. }))
            .collect();
        assert_eq!(
            consts,
            [
                Op::DatumConst { pool: 0 },
                Op::DatumConst { pool: 1 },
                Op::DatumConst { pool: 2 },
                Op::Imm { pool: 0 },
                Op::Imm { pool: 1 },
            ]
        );
        assert_eq!(chunk.pools.datums, lits[..3]);
        assert_eq!(chunk.pools.imms.len(), 2);
    }

    #[test]
    fn compilation_is_deterministic_modulo_id() {
        let e = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let c1 = compile_chunk(&e);
        let c2 = compile_chunk(&e);
        assert_ne!(c1.id, c2.id);
        assert_eq!(c1.ops, c2.ops);
        assert_eq!(c1.blocks, c2.blocks);
    }
}
