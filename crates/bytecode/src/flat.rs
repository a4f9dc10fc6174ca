//! Flat code streams: the direct-threaded execution form of a [`Chunk`].
//!
//! The block/`Terminator` graph is the *profiling and layout IR* — block
//! counters, [`crate::optimize_layout`], and [`crate::canonical_form`] all
//! operate on it. Execution wants something else entirely: one contiguous
//! `Vec` of fixed-size, fully decoded [`Op`]s that the VM walks by index,
//! with every heap payload (constants, lambda defs, syntax objects) hoisted
//! into side pools at lowering time. The hot loop then copies one small
//! `Copy` op per step — no `Instr::clone()`, no `Datum` re-conversion for
//! immutable constants, no `Option`-checked step budget.
//!
//! [`lower_chunk`] converts a chunk (in its current block layout order)
//! into a [`FlatChunk`]. Jump ops carry the resolved target `pc` *and* the
//! target block id plus a precomputed fall-through flag, so block-counter
//! bumps and [`crate::VmMetrics`] follow the block graph's own edges.
//! Every instruction and terminator lowers to exactly one op, so block
//! boundaries survive lowering unchanged.
//!
//! Rust has no computed goto, so "direct-threaded" here means the next
//! best thing the language allows: a dense `Copy` enum matched in one
//! tight loop, which LLVM compiles to a single indirect jump through a
//! table — one dispatch per decoded op.

use crate::chunk::{BlockId, Chunk, Instr, Terminator};
use pgmp_eval::{LambdaDef, Matcher, Value};
use pgmp_syntax::{Datum, SourceObject, Symbol, Syntax};
use std::cell::Cell;
use std::rc::Rc;

/// A resolved control transfer: where to continue (`pc`), which block that
/// is (for counter bumps), and whether the transfer is a fall-through in
/// the chunk's layout order (for [`crate::VmMetrics`]). Packed to 8 bytes
/// so the two-target [`Op::Branch`] stays small: the fall-through flag
/// rides in the block word's top bit (block ids are interned `u32`s that
/// never approach 2³¹).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JumpTarget {
    /// Index of the target block's first op in [`FlatChunk::ops`].
    pub pc: u32,
    packed: u32,
}

impl JumpTarget {
    const FALLTHROUGH: u32 = 1 << 31;

    /// Builds a target for `block`, flagged as layout fall-through or not.
    pub fn new(pc: u32, block: BlockId, fallthrough: bool) -> JumpTarget {
        debug_assert!(block < Self::FALLTHROUGH, "block id overflows packing");
        JumpTarget {
            pc,
            packed: block | if fallthrough { Self::FALLTHROUGH } else { 0 },
        }
    }

    /// Target block id (in the lowered chunk's layout order).
    #[inline]
    pub fn block(self) -> BlockId {
        self.packed & !Self::FALLTHROUGH
    }

    /// True when the target is the next block in layout order.
    #[inline]
    pub fn fallthrough(self) -> bool {
        self.packed & Self::FALLTHROUGH != 0
    }
}

/// One decoded, fixed-size VM operation. `Copy`: all heap payloads live in
/// the owning [`FlatChunk`]'s pools and are referenced by index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Push a clone of the pre-converted immutable constant
    /// [`FlatChunk::imms`]`[pool]`.
    Imm { pool: u32 },
    /// Push a fresh [`Value`] converted from [`FlatChunk::datums`]`[pool]`.
    /// String/pair/vector literals are mutable, so each execution must
    /// allocate anew — exactly what [`Instr::Const`] does.
    DatumConst { pool: u32 },
    /// Push the syntax object [`FlatChunk::syntaxes`]`[pool]`.
    SyntaxConst { pool: u32 },
    /// Push the unspecified value.
    Unspecified,
    /// Push a local variable.
    LocalRef { depth: u16, index: u16 },
    /// Push a global variable (error if unbound); `cache` indexes the
    /// chunk's global-slot cache exactly as in [`Instr::GlobalRef`].
    GlobalRef { name: Symbol, cache: u32 },
    /// Pop a value into a local slot.
    SetLocal { depth: u16, index: u16 },
    /// Pop a value into a global (which must exist); `src` indexes
    /// [`FlatChunk::srcs`] for the unbound error.
    SetGlobal { name: Symbol, src: u32 },
    /// Pop a value, defining a global.
    DefineGlobal { name: Symbol },
    /// Pop `n` values into a fresh frame.
    PushFrame { n: u16 },
    /// Push a fresh `letrec` frame of `n` unspecified slots
    /// (`Frame::letrec`).
    PushFrameUnspec { n: u16 },
    /// Pop the current frame.
    PopFrame,
    /// Push a closure over the current frame from
    /// [`FlatChunk::lambdas`]`[pool]`.
    MakeClosure { pool: u32 },
    /// Bind [`FlatChunk::lambdas`]`[pool]` as the code of slot `index` of
    /// the current frame.
    BindCode { index: u16, pool: u32 },
    /// Pop `argc` arguments and a callee; push the result. `src` indexes
    /// [`FlatChunk::srcs`] and is resolved only on the slow path (native
    /// application and errors), keeping the op at two words.
    Call { argc: u16, src: u32 },
    /// Read the local variable at `(depth, index)` as a call's operator
    /// (see [`Instr::LocalCallee`]).
    LocalCallee { depth: u16, index: u16 },
    /// Pop `argc` arguments and the callee read by the matching
    /// [`Op::LocalCallee`]; push the result.
    CallLocal { argc: u16, src: u32 },
    /// Match the local variable at `(depth, index)` against
    /// [`FlatChunk::matchers`]`[pool]`; push the bindings vector, or `#f`.
    /// `src` indexes [`FlatChunk::srcs`] for the error.
    SyntaxMatch {
        pool: u32,
        depth: u16,
        index: u16,
        src: u32,
    },
    /// Pop and discard the top of stack.
    Pop,
    /// Unconditional transfer (a lowered [`Terminator::Jump`]).
    Jump { target: JumpTarget },
    /// Pop a value; transfer to `then_` when truthy (a lowered
    /// [`Terminator::Branch`]).
    Branch {
        then_: JumpTarget,
        else_: JumpTarget,
    },
    /// Pop the result and return from the current activation.
    Return,
    /// Pop `argc` arguments and a callee; transfer without growing the
    /// call stack.
    TailCall { argc: u16, src: u32 },
    /// Pop `argc` arguments and tail-call the callee read by the matching
    /// [`Op::LocalCallee`].
    TailCallLocal { argc: u16, src: u32 },
}

/// A chunk lowered to a flat op stream plus side pools. Produced by
/// [`lower_chunk`]; executed by [`crate::Vm`] in flat dispatch mode.
#[derive(Debug)]
pub struct FlatChunk {
    /// The source chunk's id (block counters stay keyed exactly as for the
    /// block form).
    pub id: u32,
    /// The op stream, blocks concatenated in layout order.
    pub ops: Vec<Op>,
    /// Pre-converted immutable constants ([`Op::Imm`]).
    pub imms: Vec<Value>,
    /// Mutable-literal datums, converted per execution
    /// ([`Op::DatumConst`]).
    pub datums: Vec<Datum>,
    /// Syntax constants ([`Op::SyntaxConst`]).
    pub syntaxes: Vec<Rc<Syntax>>,
    /// Lambda definitions ([`Op::MakeClosure`], [`Op::BindCode`]).
    pub lambdas: Vec<Rc<LambdaDef>>,
    /// Compiled `syntax-case` patterns ([`Op::SyntaxMatch`]).
    pub matchers: Vec<Rc<Matcher>>,
    /// Source objects of call sites and `set!`s of globals, indexed by the
    /// `src` field of their ops.
    /// Slot 0 is always `None`, so `src == 0` means "no source recorded"
    /// without an `Option` in the op itself.
    pub srcs: Vec<Option<SourceObject>>,
    /// First-op pc of each block, indexed by block id.
    pub block_starts: Vec<u32>,
    /// Entry block id.
    pub entry_block: BlockId,
    /// Entry pc (`block_starts[entry_block]`).
    pub entry_pc: u32,
    /// Number of blocks (the counter registration width).
    pub block_count: u32,
    /// [`Chunk::points`], shared, for [`FlatChunk::global_src`].
    pub points: Rc<[SourceObject]>,
    /// [`Chunk::global_points`], shared; its length is the global-slot
    /// cache width.
    pub global_points: Rc<[u32]>,
    /// The global-slot cache, one cell per `GlobalRef` cache index: the
    /// interpreter's slot for the name, packed as
    /// `(Interp::id() << 32) | slot` when first executed under that
    /// interpreter (0 = unresolved; interpreter ids start at 1). The tag
    /// keeps code shared by several interpreters from reading one
    /// interpreter's slot in another.
    pub globals: Box<[Cell<u64>]>,
}

impl FlatChunk {
    /// The source object of the global reference with cache index
    /// `cache` (see [`Chunk::global_points`]).
    pub fn global_src(&self, cache: u32) -> Option<SourceObject> {
        let point = *self.global_points.get(cache as usize)?;
        self.points.get(point as usize).copied()
    }
}

struct Lowerer {
    ops: Vec<Op>,
    imms: Vec<Value>,
    datums: Vec<Datum>,
    syntaxes: Vec<Rc<Syntax>>,
    lambdas: Vec<Rc<LambdaDef>>,
    matchers: Vec<Rc<Matcher>>,
    srcs: Vec<Option<SourceObject>>,
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

impl Lowerer {
    fn src_pool(&mut self, src: &Option<SourceObject>) -> u32 {
        if src.is_none() {
            return 0;
        }
        self.srcs.push(*src);
        (self.srcs.len() - 1) as u32
    }

    fn lambda_pool(&mut self, def: &Rc<LambdaDef>) -> u32 {
        self.lambdas.push(def.clone());
        (self.lambdas.len() - 1) as u32
    }

    fn pool_const(&mut self, d: &Datum) -> Op {
        if imm_datum(d) {
            self.imms.push(Value::from_datum(d));
            Op::Imm {
                pool: (self.imms.len() - 1) as u32,
            }
        } else {
            self.datums.push(d.clone());
            Op::DatumConst {
                pool: (self.datums.len() - 1) as u32,
            }
        }
    }

    fn lower_instr(&mut self, instr: &Instr) -> Op {
        match instr {
            Instr::Const(d) => self.pool_const(d),
            Instr::SyntaxConst(s) => {
                self.syntaxes.push(s.clone());
                Op::SyntaxConst {
                    pool: (self.syntaxes.len() - 1) as u32,
                }
            }
            Instr::Unspecified => Op::Unspecified,
            Instr::LocalRef { depth, index } => Op::LocalRef {
                depth: *depth,
                index: *index,
            },
            Instr::GlobalRef { name, cache } => Op::GlobalRef {
                name: *name,
                cache: *cache,
            },
            Instr::SetLocal { depth, index } => Op::SetLocal {
                depth: *depth,
                index: *index,
            },
            Instr::SetGlobal { name, src } => Op::SetGlobal {
                name: *name,
                src: self.src_pool(src),
            },
            Instr::DefineGlobal(name) => Op::DefineGlobal { name: *name },
            Instr::PushFrame(n) => Op::PushFrame { n: *n },
            Instr::PushFrameUnspec(n) => Op::PushFrameUnspec { n: *n },
            Instr::PopFrame => Op::PopFrame,
            Instr::MakeClosure(def) => Op::MakeClosure {
                pool: self.lambda_pool(def),
            },
            Instr::BindCode { index, def } => Op::BindCode {
                index: *index,
                pool: self.lambda_pool(def),
            },
            Instr::Call { argc, src } => Op::Call {
                argc: *argc,
                src: self.src_pool(src),
            },
            Instr::LocalCallee { depth, index } => Op::LocalCallee {
                depth: *depth,
                index: *index,
            },
            Instr::CallLocal { argc, src } => Op::CallLocal {
                argc: *argc,
                src: self.src_pool(src),
            },
            Instr::SyntaxMatch {
                matcher,
                depth,
                index,
                src,
            } => {
                self.matchers.push(matcher.clone());
                Op::SyntaxMatch {
                    pool: (self.matchers.len() - 1) as u32,
                    depth: *depth,
                    index: *index,
                    src: self.src_pool(src),
                }
            }
            Instr::Pop => Op::Pop,
        }
    }
}

/// Placeholder target used during emission; patched to real pcs once every
/// block's start offset is known.
fn pending(block: BlockId, from: BlockId) -> JumpTarget {
    JumpTarget::new(0, block, block == from + 1)
}

/// Lowers `chunk` (in its current block layout order) to a flat op
/// stream. Pure: the chunk is not consumed, and lowering the same chunk
/// twice yields the same stream.
pub fn lower_chunk(chunk: &Chunk) -> FlatChunk {
    let n = chunk.blocks.len();
    let mut lw = Lowerer {
        ops: Vec::new(),
        imms: Vec::new(),
        datums: Vec::new(),
        syntaxes: Vec::new(),
        lambdas: Vec::new(),
        matchers: Vec::new(),
        srcs: vec![None],
    };
    let mut block_starts = vec![0u32; n];
    for (b, block) in chunk.blocks.iter().enumerate() {
        let from = b as BlockId;
        block_starts[b] = lw.ops.len() as u32;
        for instr in &block.instrs {
            let op = lw.lower_instr(instr);
            lw.ops.push(op);
        }
        let op = match &block.term {
            Terminator::Jump(t) => Op::Jump {
                target: pending(*t, from),
            },
            Terminator::Branch(t, e) => Op::Branch {
                then_: pending(*t, from),
                else_: pending(*e, from),
            },
            Terminator::Return => Op::Return,
            Terminator::TailCall { argc, src } => Op::TailCall {
                argc: *argc,
                src: lw.src_pool(src),
            },
            Terminator::TailCallLocal { argc, src } => Op::TailCallLocal {
                argc: *argc,
                src: lw.src_pool(src),
            },
        };
        lw.ops.push(op);
    }
    // Patch every transfer's pc now that block offsets are known.
    let patch = |t: &mut JumpTarget| t.pc = block_starts[t.block() as usize];
    for op in &mut lw.ops {
        match op {
            Op::Jump { target } => patch(target),
            Op::Branch { then_, else_ } => {
                patch(then_);
                patch(else_);
            }
            _ => {}
        }
    }
    let entry_pc = block_starts[chunk.entry as usize];
    FlatChunk {
        id: chunk.id,
        ops: lw.ops,
        imms: lw.imms,
        datums: lw.datums,
        syntaxes: lw.syntaxes,
        lambdas: lw.lambdas,
        matchers: lw.matchers,
        srcs: lw.srcs,
        block_starts,
        entry_block: chunk.entry,
        entry_pc,
        block_count: n as u32,
        points: chunk.points.clone(),
        global_points: chunk.global_points.clone(),
        globals: chunk.global_points.iter().map(|_| Cell::new(0)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{fresh_chunk_id_for_tests, Block};
    use std::cell::OnceCell;

    fn sample() -> Chunk {
        Chunk {
            id: fresh_chunk_id_for_tests(),
            entry: 0,
            global_points: Rc::from([]),
            points: Rc::from([]),
            lowered: OnceCell::new(),
            blocks: vec![
                Block {
                    instrs: vec![Instr::Const(Datum::Int(1))],
                    term: Terminator::Branch(1, 2),
                    points: 0..0,
                    calls: 0,
                },
                Block {
                    instrs: vec![
                        Instr::LocalRef { depth: 0, index: 0 },
                        Instr::LocalRef { depth: 0, index: 1 },
                    ],
                    term: Terminator::Return,
                    points: 0..0,
                    calls: 0,
                },
                Block {
                    instrs: vec![Instr::Const(Datum::string("mut"))],
                    term: Terminator::Jump(1),
                    points: 0..0,
                    calls: 0,
                },
            ],
        }
    }

    #[test]
    fn lowering_resolves_block_starts_and_targets() {
        let chunk = sample();
        let flat = lower_chunk(&chunk);
        assert_eq!(flat.block_count, 3);
        assert_eq!(flat.entry_pc, 0);
        // Ops: [Imm, Branch] [Local, Local, Return] [DatumConst, Jump]
        assert_eq!(flat.ops.len(), 7);
        assert_eq!(flat.block_starts, vec![0, 2, 5]);
        match flat.ops[1] {
            Op::Branch { then_, else_ } => {
                assert_eq!(then_, JumpTarget::new(2, 1, true));
                assert_eq!(else_, JumpTarget::new(5, 2, false));
                assert_eq!((then_.block(), then_.fallthrough()), (1, true));
                assert_eq!((else_.block(), else_.fallthrough()), (2, false));
            }
            other => panic!("expected branch, got {other:?}"),
        }
        // The mutable string literal stays a datum, not a pooled value.
        assert!(matches!(flat.ops[5], Op::DatumConst { .. }));
        assert_eq!(flat.datums.len(), 1);
        assert_eq!(flat.imms.len(), 1);
    }
}
