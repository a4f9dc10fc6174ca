//! Bytecode data structures: the op stream and the chunk that owns it.
//!
//! A chunk's code is one contiguous `Vec` of fixed-size, fully decoded
//! [`Op`]s that the VM walks by index, with every heap payload (constants,
//! lambda defs, syntax objects, matchers, call-site sources) hoisted into
//! side pools ([`Pools`]) by the compiler. The hot loop copies one small
//! `Copy` op per step: no payload clone, no `Datum` re-conversion for
//! immutable constants, no `Option`-checked step budget.
//!
//! The stream is also the profiling and layout form. It is cut into basic
//! blocks by the chunk's block table ([`Block`]): each block is a range of
//! ops whose last op is its terminator (a jump, branch, return or tail
//! call), and it carries the profile points whose evaluation starts in it.
//! Jump ops carry the resolved target `pc` *and* the target block id plus a
//! precomputed fall-through flag, so block-counter bumps and
//! [`crate::VmMetrics`] follow the block graph's own edges.
//!
//! Rust has no computed goto, so "direct-threaded" here means the next
//! best thing the language allows: a dense `Copy` enum matched in one
//! tight loop, which LLVM compiles to a single indirect jump through a
//! table — one dispatch per decoded op.

use pgmp_eval::{LambdaDef, Matcher, Value};
use pgmp_observe as observe;
use pgmp_syntax::{Datum, SourceObject, Symbol, Syntax};
use std::cell::Cell;
use std::fmt::{self, Write as _};
use std::ops::{Deref, Range};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};

/// Index of a basic block within its chunk, in layout order. Block 0 is
/// the entry and starts at pc 0.
pub type BlockId = u32;

/// A [`Code::global_points`] entry for a reference with no source object.
pub const NO_POINT: u32 = u32::MAX;

static NEXT_CHUNK_ID: AtomicU32 = AtomicU32::new(0);

/// Allocates a process-unique chunk id (used to key block profiles).
pub(crate) fn fresh_chunk_id() -> u32 {
    NEXT_CHUNK_ID.fetch_add(1, Ordering::Relaxed)
}

/// A resolved control transfer: where to continue (`pc`), which block that
/// is (for counter bumps), and whether the transfer is a fall-through in
/// the chunk's layout order (for [`crate::VmMetrics`]). Packed to 8 bytes
/// so the two-target [`Op::Branch`] stays small: the fall-through flag
/// rides in the block word's top bit (block ids are interned `u32`s that
/// never approach 2³¹).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JumpTarget {
    /// Index of the target block's first op in [`Code::ops`].
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

    /// Target block id (in the chunk's layout order).
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
/// the owning chunk's [`Pools`] and are referenced by index. All ops
/// communicate through the operand stack and the current frame register.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Push a clone of the pre-converted immutable constant
    /// [`Pools::imms`]`[pool]`.
    Imm { pool: u32 },
    /// Push a fresh [`Value`] converted from [`Pools::datums`]`[pool]`.
    /// String/pair/vector literals are mutable, so each execution must
    /// allocate anew.
    DatumConst { pool: u32 },
    /// Push the syntax object [`Pools::syntaxes`]`[pool]`.
    SyntaxConst { pool: u32 },
    /// Push the unspecified value.
    Unspecified,
    /// Push a local variable.
    LocalRef { depth: u16, index: u16 },
    /// Push a global variable (error if unbound). `cache` is the
    /// reference's dense chunk-local index: it indexes
    /// [`Code::global_points`], and the VM memoizes the interpreter's
    /// global *slot* under it in the chunk's global-slot cache on first
    /// execution, so repeat executions skip the `Symbol` hash entirely.
    GlobalRef { name: Symbol, cache: u32 },
    /// Pop a value into a local slot.
    SetLocal { depth: u16, index: u16 },
    /// Pop a value into a global (which must exist); `src` indexes
    /// [`Pools::srcs`] for the unbound error.
    SetGlobal { name: Symbol, src: u32 },
    /// Pop a value, defining a global.
    DefineGlobal { name: Symbol },
    /// Pop `n` values into a fresh frame.
    PushFrame { n: u16 },
    /// Push a fresh `letrec` frame of `n` unspecified slots
    /// (`Frame::letrec`).
    PushFrameUnspec { n: u16 },
    /// Pop the current frame (restore its parent).
    PopFrame,
    /// Push a closure over the current frame from
    /// [`Pools::lambdas`]`[pool]`. The closure shares the tree-walker's
    /// representation (a [`LambdaDef`] plus environment); the VM compiles
    /// its body to a chunk at its first call.
    MakeClosure { pool: u32 },
    /// Bind [`Pools::lambdas`]`[pool]` as the code of slot `index` of the
    /// current frame (a `letrec` member): no closure is built, so the
    /// frame owns no cycle.
    BindCode { index: u16, pool: u32 },
    /// Pop `argc` arguments and a callee; push the result. `src` indexes
    /// [`Pools::srcs`] and is resolved only on the slow path (native
    /// application and errors), keeping the op at two words.
    Call { argc: u16, src: u32 },
    /// Read the local variable at `(depth, index)` as the operator of an
    /// [`Op::CallLocal`] or [`Op::TailCallLocal`]: a value is pushed as
    /// the callee; code is held aside for the call, with a placeholder
    /// pushed in the callee's place, so no closure is built.
    LocalCallee { depth: u16, index: u16 },
    /// Pop `argc` arguments and the callee read by the matching
    /// [`Op::LocalCallee`]; push the result.
    CallLocal { argc: u16, src: u32 },
    /// Match the syntax object in the local variable at `(depth, index)`
    /// against [`Pools::matchers`]`[pool]`; push the bindings vector, or
    /// `#f`. `src` indexes [`Pools::srcs`] for the error.
    SyntaxMatch {
        pool: u32,
        depth: u16,
        index: u16,
        src: u32,
    },
    /// Pop and discard the top of stack.
    Pop,
    /// Unconditional transfer; ends a block.
    Jump { target: JumpTarget },
    /// Pop a value; transfer to `then_` when truthy. Ends a block.
    Branch {
        then_: JumpTarget,
        else_: JumpTarget,
    },
    /// Pop the result and return from the current activation; ends a
    /// block.
    Return,
    /// Pop `argc` arguments and a callee; transfer without growing the
    /// call stack (proper tail call). Ends a block.
    TailCall { argc: u16, src: u32 },
    /// Pop `argc` arguments and tail-call the callee read by the matching
    /// [`Op::LocalCallee`]. Ends a block.
    TailCallLocal { argc: u16, src: u32 },
}

/// The side pools of a chunk's op stream, indexed by the ops' `pool` and
/// `src` fields.
#[derive(Clone, Debug, Default)]
pub struct Pools {
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
    /// Source objects of call sites, clause tests and `set!`s of globals,
    /// indexed by the `src` field of their ops. Slot 0 is always `None`,
    /// so `src == 0` means "no source recorded" without an `Option` in the
    /// op itself.
    pub srcs: Vec<Option<SourceObject>>,
}

impl Pools {
    /// Empty pools, with the `None` source in slot 0.
    pub(crate) fn new() -> Pools {
        Pools {
            srcs: vec![None],
            ..Pools::default()
        }
    }
}

/// A basic block's entry in its chunk's block table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Index of the block's first op in [`Code::ops`]. The block runs to
    /// the next block's start; its last op is its terminator.
    pub start: u32,
    /// The profile points whose evaluation starts in this block: a range
    /// of [`Code::points`] (see [`Chunk::block_points`]).
    pub points: Range<u32>,
    /// How many of those points, at the front of the range, are `Call`
    /// expressions: the points calls-only profiling counts.
    pub calls: u32,
}

/// The immutable code a [`Chunk`] points to.
#[derive(Debug)]
pub struct Code {
    /// Process-unique id, used to key the block-level profile. A new
    /// layout of the same code keeps it.
    pub id: u32,
    /// The op stream, blocks concatenated in layout order.
    pub ops: Vec<Op>,
    /// The block table, by block id.
    pub blocks: Vec<Block>,
    /// The operands the ops reference by index.
    pub pools: Pools,
    /// For each `GlobalRef`, by cache index, the index of its source
    /// object in [`Code::points`] ([`NO_POINT`] when it has none): where
    /// an unbound-variable error points. The length is the width of the
    /// global-slot cache.
    pub global_points: Rc<[u32]>,
    /// The point table: the profile points of the chunk's expressions,
    /// grouped by the block their evaluation starts in ([`Block::points`]).
    /// The language has no `call/cc` and no error handlers, so on a run
    /// that completes each point is evaluated exactly as often as its
    /// block is entered: the table turns block counts into source-level
    /// counts ([`crate::derive_counts`]). Layout reorders blocks, never
    /// the table.
    pub points: Rc<[SourceObject]>,
    /// The global-slot cache, one cell per `GlobalRef` cache index: the
    /// interpreter's slot for the name, packed as
    /// `(Interp::id() << 32) | slot` when first executed under that
    /// interpreter (0 = unresolved; interpreter ids start at 1). The tag
    /// keeps code shared by several interpreters from reading one
    /// interpreter's slot in another.
    pub(crate) globals: Box<[Cell<u64>]>,
}

/// A compiled code unit: a cheap, shareable handle to immutable [`Code`].
///
/// Clones share the code, so the compile cache, the compiled unit, the
/// VM serving it and a lambda's [`LambdaDef::code`] all hold one copy,
/// and the code is freed with the last of them. Code is never edited; a
/// new layout is a new chunk ([`crate::optimize_layout`]).
#[derive(Clone, Debug)]
pub struct Chunk(pub(crate) Rc<Code>);

impl Deref for Chunk {
    type Target = Code;

    #[inline]
    fn deref(&self) -> &Code {
        &self.0
    }
}

impl Chunk {
    /// Wraps a laid-out op stream and its tables as a chunk, and traces
    /// the stream's construction as a `vm_lower` span (started by `t`).
    /// The event's `fused` field predates the single op set and is
    /// always 0.
    pub(crate) fn new(
        t: Option<observe::SpanTimer>,
        id: u32,
        (ops, blocks): (Vec<Op>, Vec<Block>),
        pools: Pools,
        global_points: Rc<[u32]>,
        points: Rc<[SourceObject]>,
    ) -> Chunk {
        let globals = global_points.iter().map(|_| Cell::new(0)).collect();
        let code = Code {
            id,
            ops,
            blocks,
            pools,
            global_points,
            points,
            globals,
        };
        let ops = code.ops.len() as u64;
        observe::finish(t, |duration_us| observe::EventKind::VmLower {
            chunk: id,
            ops,
            fused: 0,
            duration_us,
        });
        Chunk(Rc::new(code))
    }

    /// True when `a` and `b` share their code.
    pub fn ptr_eq(a: &Chunk, b: &Chunk) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The ops of block `b`, its terminator last.
    pub fn block_ops(&self, b: BlockId) -> &[Op] {
        let range = self.block_range(b);
        &self.ops[range.start as usize..range.end as usize]
    }

    /// Where block `b`'s ops are in [`Code::ops`]: from its start to the
    /// next block's.
    pub(crate) fn block_range(&self, b: BlockId) -> Range<u32> {
        let end = self
            .blocks
            .get(b as usize + 1)
            .map_or(self.ops.len() as u32, |next| next.start);
        self.blocks[b as usize].start..end
    }

    /// The profile points whose evaluation starts in block `b`, its
    /// `Call` expressions' first: every point with `calls_only` false,
    /// only the calls with it true.
    pub fn block_points(&self, b: BlockId, calls_only: bool) -> &[SourceObject] {
        let block = &self.blocks[b as usize];
        let end = if calls_only {
            block.points.start + block.calls
        } else {
            block.points.end
        };
        &self.points[block.points.start as usize..end as usize]
    }

    /// Successor block ids of `b`: the targets of its terminator.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match self.block_ops(b).last() {
            Some(Op::Jump { target }) => vec![target.block()],
            Some(Op::Branch { then_, else_ }) => vec![then_.block(), else_.block()],
            _ => vec![],
        }
    }

    /// The source object of the global reference with cache index
    /// `cache` (see [`Code::global_points`]).
    pub(crate) fn global_src(&self, cache: u32) -> Option<SourceObject> {
        let point = *self.global_points.get(cache as usize)?;
        self.points.get(point as usize).copied()
    }

    /// Writes `op` with every pool operand printed as its value (so two
    /// chunks that differ in a constant print differently) and every jump
    /// target as the label `label` gives its block.
    pub(crate) fn write_op(
        &self,
        out: &mut impl fmt::Write,
        op: Op,
        label: impl Fn(BlockId) -> usize,
    ) -> fmt::Result {
        let pools = &self.pools;
        let src = |i: u32| pools.srcs[i as usize];
        match op {
            Op::Imm { pool } => write!(out, "Const({})", pools.imms[pool as usize].write_string()),
            Op::DatumConst { pool } => write!(out, "Const({})", pools.datums[pool as usize]),
            Op::SyntaxConst { pool } => {
                write!(out, "SyntaxConst({:?})", pools.syntaxes[pool as usize])
            }
            Op::SetGlobal { name, src: s } => write!(out, "SetGlobal({name}, {:?})", src(s)),
            Op::MakeClosure { pool } => {
                write!(out, "MakeClosure({:?})", pools.lambdas[pool as usize])
            }
            Op::BindCode { index, pool } => {
                write!(out, "BindCode({index}, {:?})", pools.lambdas[pool as usize])
            }
            Op::Call { argc, src: s } => write!(out, "Call({argc}, {:?})", src(s)),
            Op::CallLocal { argc, src: s } => write!(out, "CallLocal({argc}, {:?})", src(s)),
            Op::SyntaxMatch {
                pool,
                depth,
                index,
                src: s,
            } => write!(
                out,
                "SyntaxMatch({:?}, {depth}, {index}, {:?})",
                pools.matchers[pool as usize],
                src(s)
            ),
            Op::Jump { target } => write!(out, "jump B{}", label(target.block())),
            Op::Branch { then_, else_ } => write!(
                out,
                "branch B{} B{}",
                label(then_.block()),
                label(else_.block())
            ),
            Op::Return => write!(out, "return"),
            Op::TailCall { argc, src: s } => write!(out, "tailcall {argc} {:?}", src(s)),
            Op::TailCallLocal { argc, src: s } => {
                write!(out, "tailcall local {argc} {:?}", src(s))
            }
            other => write!(out, "{other:?}"),
        }
    }
}

impl fmt::Display for Chunk {
    /// Disassembles the chunk: one section per block in layout order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chunk {}:", self.id)?;
        for b in 0..self.blocks.len() as BlockId {
            writeln!(f, "B{b}:")?;
            for op in self.block_ops(b) {
                f.write_str("  ")?;
                self.write_op(f, *op, |t| t as usize)?;
                f.write_char('\n')?;
            }
        }
        Ok(())
    }
}

/// Lays blocks out into one op stream, in `order` (block ids of `ops`;
/// the entry, block 0, first): copies each block `b`'s ops, `ranges[b]`,
/// and points its terminator at the new ids and starts of its targets,
/// flagging a target that is the next block in `order` as a
/// fall-through. Block `order[i]` becomes block `i`, with the points of
/// `blocks[order[i]]`. Returns the stream and its block table.
pub(crate) fn lay_out(
    ops: &[Op],
    ranges: &[Range<u32>],
    blocks: &[Block],
    order: &[BlockId],
) -> (Vec<Op>, Vec<Block>) {
    debug_assert_eq!(order.first(), Some(&0), "the entry block leads");
    let mut new_id = vec![0; order.len()];
    let mut table = Vec::with_capacity(order.len());
    let mut start = 0;
    for (i, &b) in order.iter().enumerate() {
        new_id[b as usize] = i as BlockId;
        let old = &blocks[b as usize];
        table.push(Block {
            start,
            points: old.points.clone(),
            calls: old.calls,
        });
        start += ranges[b as usize].len() as u32;
    }
    let retarget = |t: JumpTarget, from: usize| {
        let b = new_id[t.block() as usize];
        JumpTarget::new(table[b as usize].start, b, b as usize == from + 1)
    };
    let mut out = Vec::with_capacity(start as usize);
    for (i, &b) in order.iter().enumerate() {
        let range = ranges[b as usize].clone();
        out.extend_from_slice(&ops[range.start as usize..range.end as usize]);
        match out.last_mut() {
            Some(Op::Jump { target }) => *target = retarget(*target, i),
            Some(Op::Branch { then_, else_ }) => {
                *then_ = retarget(*then_, i);
                *else_ = retarget(*else_, i);
            }
            _ => {}
        }
    }
    (out, table)
}

/// A transfer to `block`, resolved when the blocks are laid out.
pub(crate) fn to(block: BlockId) -> JumpTarget {
    JumpTarget::new(0, block, false)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A chunk of hand-written blocks, `ranges[b]` of `ops` for block `b`,
    /// laid out in `order`, with operands `pools` and no profile points.
    pub(crate) fn hand_chunk(
        ops: &[Op],
        ranges: &[Range<u32>],
        order: &[BlockId],
        pools: Pools,
    ) -> Chunk {
        let blocks: Vec<Block> = ranges
            .iter()
            .map(|_| Block {
                start: 0,
                points: 0..0,
                calls: 0,
            })
            .collect();
        Chunk::new(
            None,
            fresh_chunk_id(),
            lay_out(ops, ranges, &blocks, order),
            pools,
            Rc::from([]),
            Rc::from([]),
        )
    }

    #[test]
    fn chunk_ids_are_unique() {
        assert_ne!(fresh_chunk_id(), fresh_chunk_id());
    }

    /// `ops` with one block per range, laid out in `order`.
    fn laid_out(ops: &[Op], ranges: &[Range<u32>], order: &[BlockId]) -> Chunk {
        let mut pools = Pools::new();
        pools.imms.push(Value::Int(1));
        pools.datums.push(Datum::string("mut"));
        hand_chunk(ops, ranges, order, pools)
    }

    /// [Imm, Branch(1, 2)] [Local, Local, Return] [DatumConst, Jump(1)].
    fn sample(order: &[BlockId]) -> Chunk {
        let ops = [
            Op::Imm { pool: 0 },
            Op::Branch {
                then_: to(1),
                else_: to(2),
            },
            Op::LocalRef { depth: 0, index: 0 },
            Op::LocalRef { depth: 0, index: 1 },
            Op::Return,
            Op::DatumConst { pool: 0 },
            Op::Jump { target: to(1) },
        ];
        laid_out(&ops, &[0..2, 2..5, 5..7], order)
    }

    #[test]
    fn layout_resolves_block_starts_and_targets() {
        let chunk = sample(&[0, 1, 2]);
        assert_eq!(chunk.block_count(), 3);
        assert_eq!(chunk.ops.len(), 7);
        let starts: Vec<u32> = chunk.blocks.iter().map(|b| b.start).collect();
        assert_eq!(starts, vec![0, 2, 5]);
        match chunk.ops[1] {
            Op::Branch { then_, else_ } => {
                assert_eq!(then_, JumpTarget::new(2, 1, true));
                assert_eq!(else_, JumpTarget::new(5, 2, false));
                assert_eq!((then_.block(), then_.fallthrough()), (1, true));
                assert_eq!((else_.block(), else_.fallthrough()), (2, false));
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn successors_reflect_terminators() {
        let chunk = sample(&[0, 1, 2]);
        assert_eq!(chunk.successors(0), vec![1, 2]);
        assert_eq!(chunk.successors(2), vec![1]);
        assert!(chunk.successors(1).is_empty());
    }

    #[test]
    fn a_new_order_moves_blocks_and_retargets_their_jumps() {
        // [Imm, Branch] [DatumConst, Jump] [Local, Local, Return]
        let chunk = sample(&[0, 2, 1]);
        assert_eq!(chunk.block_ops(1)[0], Op::DatumConst { pool: 0 });
        assert_eq!(
            chunk.ops[1],
            Op::Branch {
                then_: JumpTarget::new(4, 2, false),
                else_: JumpTarget::new(2, 1, true),
            }
        );
        assert_eq!(
            chunk.ops[3],
            Op::Jump {
                target: JumpTarget::new(4, 2, true)
            }
        );
    }

    #[test]
    fn display_disassembles_blocks() {
        let text = sample(&[0, 1, 2]).to_string();
        assert!(text.contains("B0:"));
        assert!(text.contains("Const(1)"));
        assert!(text.contains("Const(\"mut\")"));
        assert!(text.contains("branch B1 B2"));
        assert!(text.contains("return"));
    }
}
