//! Lowering `Core` expressions to basic-block bytecode.

use crate::chunk::{fresh_chunk_id, Block, BlockId, Chunk, Instr, Terminator};
use pgmp_eval::{Core, CoreKind};
use std::rc::Rc;

struct Builder {
    blocks: Vec<Block>,
    current: BlockId,
    /// Next chunk-local `GlobalRef` cache index.
    global_refs: u32,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            blocks: vec![Block {
                instrs: Vec::new(),
                term: Terminator::Return, // patched as we go
            }],
            current: 0,
            global_refs: 0,
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
        });
        id
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
    Chunk {
        id: fresh_chunk_id(),
        blocks: b.blocks,
        entry: 0,
        global_refs: b.global_refs,
    }
}

/// Compiles `core`, leaving its value on the stack. When `tail` is true the
/// expression is in tail position: calls become `TailCall` and the block is
/// terminated by `Return` after the value is produced.
fn compile_expr(b: &mut Builder, core: &Rc<Core>, tail: bool) {
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
        CoreKind::GlobalRef(name) => {
            let cache = b.global_refs;
            b.global_refs += 1;
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
            b.emit(Instr::SetGlobal(*name));
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
    use pgmp_syntax::Datum;

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
    fn compilation_is_deterministic_modulo_id() {
        let e = Core::rc(CoreKind::If(konst(1), konst(2), konst(3)), None);
        let c1 = compile_chunk(&e);
        let c2 = compile_chunk(&e);
        assert_ne!(c1.id, c2.id);
        assert_eq!(c1.blocks, c2.blocks);
    }
}
