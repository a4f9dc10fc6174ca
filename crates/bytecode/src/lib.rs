//! Basic-block bytecode: the "low-level" compiler of the reproduction.
//!
//! Chez Scheme performs block-level profile-guided optimization beneath the
//! source-level meta-programming the paper adds; §4.3 describes a
//! three-pass protocol keeping the two consistent. This crate supplies the
//! analogous low level for our system:
//!
//! - [`compile_chunk`] compiles a [`pgmp_eval::Core`] expression straight
//!   to a [`Chunk`]: one contiguous stream of fixed-size decoded [`Op`]s
//!   with side pools for their operands, cut into basic blocks by a block
//!   table. The stream is both what the VM executes and what profiling
//!   and layout work on; a chunk is a cheap handle to immutable code;
//! - [`Vm`] executes chunks on a stack machine (sharing values, globals,
//!   and natives with the tree-walking interpreter — closures created by
//!   the VM are compiled at their first call, closures applied inside
//!   higher-order natives fall back to the tree walker, as in real
//!   mixed-mode systems);
//! - [`BlockCounters`] counts block executions (the block-level profile),
//!   and [`derive_counts`] turns block counts into source-level counts
//!   through each chunk's table of the profile points evaluated in each
//!   block;
//! - [`optimize_layout`] is the block-level PGO: a greedy hottest-successor
//!   trace layout that maximizes fall-through on hot paths, measured by
//!   [`VmMetrics`] (taken jumps vs. fall-throughs). A new layout is a new
//!   stream, its blocks' ops copied in the new order and their jumps
//!   re-pointed.
//!
//! # Example
//!
//! ```
//! use pgmp_bytecode::{compile_chunk, Vm};
//! use pgmp_eval::{install_primitives, Interp};
//! use pgmp_expander::{install_expander_support, Expander};
//! use pgmp_reader::read_str;
//!
//! let forms = read_str("(+ 40 2)", "demo.scm").unwrap();
//! let mut exp = Expander::new();
//! let core = exp.expand_program(&forms).unwrap().remove(0);
//! let chunk = compile_chunk(&core);
//!
//! let mut interp = Interp::new();
//! install_primitives(&mut interp);
//! install_expander_support(&mut interp);
//! let mut vm = Vm::new();
//! let v = vm.run_chunk(&mut interp, &chunk).unwrap();
//! assert_eq!(v.to_string(), "42");
//! ```

mod chunk;
mod compile;
mod counters;
mod layout;
mod vm;

pub use chunk::{Block, BlockId, Chunk, Code, JumpTarget, Op, Pools, NO_POINT};
pub use compile::compile_chunk;
pub use counters::{derive_counts, BlockCounters, DerivedCounts};
pub use layout::{canonical_form, optimize_layout};
pub use vm::{DispatchMode, Vm, VmMetrics};
