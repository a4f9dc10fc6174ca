//! Lowering `Core` expressions to basic-block bytecode.

use crate::chunk::{fresh_chunk_id, Block, BlockId, Chunk, Instr, Terminator, NO_POINT};
use pgmp_eval::{Core, CoreKind};
use pgmp_syntax::SourceObject;
use std::cell::OnceCell;
use std::rc::Rc;

struct Builder {
    blocks: Vec<Block>,
    current: BlockId,
    /// Index in `points` of each `GlobalRef`'s source object, by cache
    /// index ([`NO_POINT`] when it has none).
    global_points: Vec<u32>,
    /// Profile points with their `Call` flag, in compile order. A block
    /// never becomes current again once the builder leaves it, so each
    /// block's points are contiguous here.
    points: Vec<(SourceObject, bool)>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            blocks: vec![Block {
                instrs: Vec::new(),
                term: Terminator::Return, // patched as we go
                points: 0..0,
                calls: 0,
            }],
            current: 0,
            global_points: Vec::new(),
            points: Vec::new(),
        }
    }

    fn emit(&mut self, i: Instr) {
        self.blocks[self.current as usize].instrs.push(i);
    }

    fn new_block(&mut self) -> BlockId {
        let id = self.blocks.len() as BlockId;
        self.blocks.push(Block {
            instrs: Vec::new(),
            term: Terminator::Return,
            points: 0..0,
            calls: 0,
        });
        id
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

    fn terminate(&mut self, t: Terminator) {
        self.blocks[self.current as usize].term = t;
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }
}

/// Compiles one toplevel `Core` expression to a [`Chunk`].
///
/// # Example
///
/// See the crate-level example.
pub fn compile_chunk(core: &Rc<Core>) -> Chunk {
    let mut b = Builder::new();
    compile_expr(&mut b, core, true);
    let points = b.point_table();
    Chunk {
        id: fresh_chunk_id(),
        blocks: b.blocks,
        entry: 0,
        global_points: b.global_points.into(),
        points,
        lowered: OnceCell::new(),
    }
}

/// Compiles `core`, leaving its value on the stack. When `tail` is true the
/// expression is in tail position: calls become `TailCall` and the block is
/// terminated by `Return` after the value is produced.
fn compile_expr(b: &mut Builder, core: &Rc<Core>, tail: bool) {
    b.mark(core);
    match &core.kind {
        CoreKind::Const(d) => {
            b.emit(Instr::Const(d.clone()));
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::SyntaxConst(s) => {
            b.emit(Instr::SyntaxConst(s.clone()));
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::LocalRef { depth, index } => {
            b.emit(Instr::LocalRef {
                depth: *depth,
                index: *index,
            });
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::SyntaxMatch {
            matcher,
            depth,
            index,
        } => {
            b.emit(Instr::SyntaxMatch {
                matcher: matcher.clone(),
                depth: *depth,
                index: *index,
                src: core.src,
            });
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::GlobalRef(name) => {
            // `compile_expr` has just marked this node's point, if any.
            let cache = b.global_points.len() as u32;
            let point = match core.src {
                Some(_) => b.points.len() as u32 - 1,
                None => NO_POINT,
            };
            b.global_points.push(point);
            b.emit(Instr::GlobalRef { name: *name, cache });
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::SetLocal {
            depth,
            index,
            value,
        } => {
            compile_expr(b, value, false);
            b.emit(Instr::SetLocal {
                depth: *depth,
                index: *index,
            });
            b.emit(Instr::Unspecified);
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::SetGlobal(name, value) => {
            compile_expr(b, value, false);
            b.emit(Instr::SetGlobal {
                name: *name,
                src: core.src,
            });
            b.emit(Instr::Unspecified);
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::DefineGlobal(name, value) => {
            compile_expr(b, value, false);
            b.emit(Instr::DefineGlobal(*name));
            b.emit(Instr::Unspecified);
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::If(c, t, e) => {
            compile_expr(b, c, false);
            let then_blk = b.new_block();
            let else_blk = b.new_block();
            b.terminate(Terminator::Branch(then_blk, else_blk));
            if tail {
                b.switch_to(then_blk);
                compile_expr(b, t, true);
                b.switch_to(else_blk);
                compile_expr(b, e, true);
            } else {
                let join = b.new_block();
                b.switch_to(then_blk);
                compile_expr(b, t, false);
                b.terminate(Terminator::Jump(join));
                b.switch_to(else_blk);
                compile_expr(b, e, false);
                b.terminate(Terminator::Jump(join));
                b.switch_to(join);
            }
        }
        CoreKind::Lambda(def) => {
            b.emit(Instr::MakeClosure(def.clone()));
            if tail {
                b.terminate(Terminator::Return);
            }
        }
        CoreKind::Seq(es) => match es.split_last() {
            None => {
                b.emit(Instr::Unspecified);
                if tail {
                    b.terminate(Terminator::Return);
                }
            }
            Some((last, init)) => {
                for e in init {
                    compile_expr(b, e, false);
                    b.emit(Instr::Pop);
                }
                compile_expr(b, last, tail);
            }
        },
        CoreKind::Let { inits, body } => {
            for init in inits {
                compile_expr(b, init, false);
            }
            b.emit(Instr::PushFrame(inits.len() as u16));
            // In tail position the activation (and its frame register) is
            // discarded on return, so no PopFrame is needed and the body
            // keeps proper tail calls.
            compile_expr(b, body, tail);
            if !tail {
                b.emit(Instr::PopFrame);
            }
        }
        CoreKind::LetRec { inits, body } => {
            b.emit(Instr::PushFrameUnspec(inits.len() as u16));
            for (i, init) in inits.iter().enumerate() {
                let index = i as u16;
                if let CoreKind::Lambda(def) = &init.kind {
                    // Not compiled as an expression, but evaluated as one.
                    b.mark(init);
                    b.emit(Instr::BindCode {
                        index,
                        def: def.clone(),
                    });
                } else {
                    compile_expr(b, init, false);
                    b.emit(Instr::SetLocal { depth: 0, index });
                }
            }
            compile_expr(b, body, tail);
            if !tail {
                b.emit(Instr::PopFrame);
            }
        }
        CoreKind::Call { func, args } => {
            // A local operator may name code, which the call enters
            // without building a closure.
            let local = match func.kind {
                CoreKind::LocalRef { depth, index } => {
                    b.mark(func);
                    b.emit(Instr::LocalCallee { depth, index });
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
            let (argc, src) = (args.len() as u16, core.src);
            match (local, tail) {
                (true, true) => b.terminate(Terminator::TailCallLocal { argc, src }),
                (true, false) => b.emit(Instr::CallLocal { argc, src }),
                (false, true) => b.terminate(Terminator::TailCall { argc, src }),
                (false, false) => b.emit(Instr::Call { argc, src }),
            }
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
        assert_eq!(chunk.blocks[0].term, Terminator::Return);
    }

    #[test]
    fn if_in_tail_position_has_no_join() {
        let e = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let chunk = compile_chunk(&e);
        // entry + then + else.
        assert_eq!(chunk.block_count(), 3);
        assert_eq!(chunk.blocks[0].term, Terminator::Branch(1, 2));
        assert_eq!(chunk.blocks[1].term, Terminator::Return);
        assert_eq!(chunk.blocks[2].term, Terminator::Return);
    }

    #[test]
    fn nested_if_in_non_tail_position_joins() {
        // (begin (if 1 2 3) 4) — if result discarded, join block needed.
        let iff = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let e = Core::rc(CoreKind::Seq(vec![iff, konst(4)]), None);
        let chunk = compile_chunk(&e);
        assert_eq!(chunk.block_count(), 4);
        assert_eq!(chunk.blocks[1].term, Terminator::Jump(3));
        assert_eq!(chunk.blocks[2].term, Terminator::Jump(3));
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
            chunk.blocks[0].term,
            Terminator::TailCall { argc: 1, .. }
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
    fn compilation_is_deterministic_modulo_id() {
        let e = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let c1 = compile_chunk(&e);
        let c2 = compile_chunk(&e);
        assert_ne!(c1.id, c2.id);
        assert_eq!(c1.blocks, c2.blocks);
    }
}
