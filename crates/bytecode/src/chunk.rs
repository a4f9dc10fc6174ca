//! Bytecode data structures.

use crate::flat::FlatChunk;
use pgmp_eval::{LambdaDef, Matcher};
use pgmp_syntax::{Datum, SourceObject, Symbol, Syntax};
use std::cell::OnceCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};

/// Index of a basic block within its chunk.
pub type BlockId = u32;

/// A [`Chunk::global_points`] entry for a reference with no source object.
pub const NO_POINT: u32 = u32::MAX;

static NEXT_CHUNK_ID: AtomicU32 = AtomicU32::new(0);

/// Allocates a process-unique chunk id (used to key block profiles).
pub(crate) fn fresh_chunk_id() -> u32 {
    NEXT_CHUNK_ID.fetch_add(1, Ordering::Relaxed)
}

/// Test-only access to fresh chunk ids from sibling modules.
#[cfg(test)]
pub(crate) fn fresh_chunk_id_for_tests() -> u32 {
    fresh_chunk_id()
}

/// A straight-line instruction. All instructions communicate through the
/// operand stack and the current frame register.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// Push a constant datum.
    Const(Datum),
    /// Push a constant syntax object.
    SyntaxConst(Rc<Syntax>),
    /// Push the unspecified value.
    Unspecified,
    /// Push a local variable.
    LocalRef {
        /// Frames up.
        depth: u16,
        /// Slot index.
        index: u16,
    },
    /// Push a global variable (error if unbound).
    GlobalRef {
        /// Variable name.
        name: Symbol,
        /// Chunk-local cache index (dense, assigned at compile time;
        /// it indexes [`Chunk::global_points`]). The VM memoizes the
        /// interpreter's global *slot* under it in the lowering's cache
        /// ([`crate::FlatChunk::globals`]) on first execution, so repeat
        /// executions skip the `Symbol` hash entirely.
        cache: u32,
    },
    /// Pop a value into a local slot.
    SetLocal {
        /// Frames up.
        depth: u16,
        /// Slot index.
        index: u16,
    },
    /// Pop a value into a global (which must exist).
    SetGlobal {
        /// Variable name.
        name: Symbol,
        /// Source object of the `set!` (for the unbound error).
        src: Option<SourceObject>,
    },
    /// Pop a value, defining a global.
    DefineGlobal(Symbol),
    /// Pop `n` values into a fresh frame pushed on the frame register.
    PushFrame(u16),
    /// Push a fresh `letrec` frame of `n` unspecified slots
    /// (`Frame::letrec`).
    PushFrameUnspec(u16),
    /// Pop the current frame (restore its parent).
    PopFrame,
    /// Push a closure over the current frame. The closure shares the
    /// tree-walker's representation (a [`LambdaDef`] plus environment);
    /// the VM compiles its body to a chunk lazily at first call.
    MakeClosure(Rc<LambdaDef>),
    /// Bind a `lambda` as the code of slot `index` of the current frame
    /// (a `letrec` member): no closure is built, so the frame owns no
    /// cycle.
    BindCode {
        /// Slot index in the current frame.
        index: u16,
        /// The member's code.
        def: Rc<LambdaDef>,
    },
    /// Pop `argc` arguments and a callee; push the result.
    Call {
        /// Argument count.
        argc: u16,
        /// Source object of the call site (for errors and, in
        /// calls-only profiling, the counter).
        src: Option<SourceObject>,
    },
    /// Read the local variable at `(depth, index)` as the operator of a
    /// [`Instr::CallLocal`] or [`Terminator::TailCallLocal`]: a value is
    /// pushed as the callee; code is held aside for the call, with a
    /// placeholder pushed in the callee's place, so no closure is built.
    LocalCallee {
        /// Frames up.
        depth: u16,
        /// Slot index.
        index: u16,
    },
    /// Pop `argc` arguments and the callee read by the matching
    /// [`Instr::LocalCallee`]; push the result.
    CallLocal {
        /// Argument count.
        argc: u16,
        /// Call-site source object.
        src: Option<SourceObject>,
    },
    /// Match the syntax object in the local variable at `(depth, index)`
    /// against `matcher`; push the bindings vector, or `#f`.
    SyntaxMatch {
        /// The clause's compiled pattern.
        matcher: Rc<Matcher>,
        /// Frames up.
        depth: u16,
        /// Slot index.
        index: u16,
        /// Source object of the clause (for errors).
        src: Option<SourceObject>,
    },
    /// Pop and discard the top of stack.
    Pop,
}

/// How a basic block ends.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional transfer.
    Jump(BlockId),
    /// Pop a value; transfer to the first block when truthy.
    Branch(BlockId, BlockId),
    /// Pop the result and return from the current activation.
    Return,
    /// Pop `argc` arguments and a callee; transfer control without growing
    /// the call stack (proper tail call).
    TailCall {
        /// Argument count.
        argc: u16,
        /// Call-site source object.
        src: Option<SourceObject>,
    },
    /// Pop `argc` arguments and tail-call the callee read by the
    /// matching [`Instr::LocalCallee`].
    TailCallLocal {
        /// Argument count.
        argc: u16,
        /// Call-site source object.
        src: Option<SourceObject>,
    },
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Instructions, executed in order.
    pub instrs: Vec<Instr>,
    /// Exit.
    pub term: Terminator,
    /// The profile points whose evaluation starts in this block: a range
    /// of [`Chunk::points`] (see [`Chunk::block_points`]).
    pub points: Range<u32>,
    /// How many of those points, at the front of the range, are `Call`
    /// expressions: the points calls-only profiling counts.
    pub calls: u32,
}

/// A compiled code unit: a CFG of basic blocks with a distinguished entry.
///
/// A chunk owns its execution form: the VM lowers it at its first run and
/// keeps the lowering (with its global-slot cache) in the chunk, so the
/// code is freed with the chunk. A chunk is therefore not edited after it
/// has run; a new layout is a new chunk ([`crate::optimize_layout`]).
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Process-unique id, used to key the block-level profile.
    pub id: u32,
    /// Blocks; ids index into this vector.
    pub blocks: Vec<Block>,
    /// Entry block (always 0 after compilation, may move under layout).
    pub entry: BlockId,
    /// For each `GlobalRef`, by cache index, the index of its source
    /// object in [`Chunk::points`] ([`NO_POINT`] when it has none): where
    /// an unbound-variable error points. The length is the width of the
    /// lowering's global-slot cache.
    pub global_points: Rc<[u32]>,
    /// The point table: the profile points of the chunk's expressions,
    /// grouped by the block their evaluation starts in ([`Block::points`]).
    /// The language has no `call/cc` and no error handlers, so on a run
    /// that completes each point is evaluated exactly as often as its
    /// block is entered: the table turns block counts into source-level
    /// counts ([`crate::derive_counts`]). Layout reorders blocks, never
    /// the table.
    pub points: Rc<[SourceObject]>,
    /// The flat lowering, built at the chunk's first run.
    pub(crate) lowered: OnceCell<Rc<FlatChunk>>,
}

impl std::fmt::Display for Chunk {
    /// Disassembles the chunk: one section per block in layout order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "chunk {} (entry B{}):", self.id, self.entry)?;
        for (i, block) in self.blocks.iter().enumerate() {
            writeln!(f, "B{i}:")?;
            for instr in &block.instrs {
                writeln!(f, "  {instr:?}")?;
            }
            match &block.term {
                Terminator::Jump(t) => writeln!(f, "  jump B{t}")?,
                Terminator::Branch(t, e) => writeln!(f, "  branch B{t} B{e}")?,
                Terminator::Return => writeln!(f, "  return")?,
                Terminator::TailCall { argc, .. } => writeln!(f, "  tailcall {argc}")?,
                Terminator::TailCallLocal { argc, .. } => writeln!(f, "  tailcall local {argc}")?,
            }
        }
        Ok(())
    }
}

impl Chunk {
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

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Successor block ids of `b`.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match &self.blocks[b as usize].term {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch(t, e) => vec![*t, *e],
            Terminator::Return | Terminator::TailCall { .. } | Terminator::TailCallLocal { .. } => {
                vec![]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ids_are_unique() {
        assert_ne!(fresh_chunk_id(), fresh_chunk_id());
    }

    #[test]
    fn display_disassembles_blocks() {
        let chunk = Chunk {
            id: fresh_chunk_id(),
            entry: 0,
            global_points: Rc::from([]),
            points: Rc::from([]),
            lowered: OnceCell::new(),
            blocks: vec![Block {
                instrs: vec![Instr::Const(Datum::Int(7))],
                term: Terminator::Return,
                points: 0..0,
                calls: 0,
            }],
        };
        let text = chunk.to_string();
        assert!(text.contains("B0:"));
        assert!(text.contains("Const(7)"));
        assert!(text.contains("return"));
    }

    #[test]
    fn successors_reflect_terminators() {
        let chunk = Chunk {
            id: fresh_chunk_id(),
            entry: 0,
            global_points: Rc::from([]),
            points: Rc::from([]),
            lowered: OnceCell::new(),
            blocks: vec![
                Block {
                    instrs: vec![Instr::Const(Datum::Bool(true))],
                    term: Terminator::Branch(1, 2),
                    points: 0..0,
                    calls: 0,
                },
                Block {
                    instrs: vec![],
                    term: Terminator::Jump(2),
                    points: 0..0,
                    calls: 0,
                },
                Block {
                    instrs: vec![Instr::Const(Datum::Int(1))],
                    term: Terminator::Return,
                    points: 0..0,
                    calls: 0,
                },
            ],
        };
        assert_eq!(chunk.successors(0), vec![1, 2]);
        assert_eq!(chunk.successors(1), vec![2]);
        assert!(chunk.successors(2).is_empty());
    }
}
