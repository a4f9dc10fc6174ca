//! Block-level PGO: profile-guided code layout.
//!
//! The classic block-level use of profile data is code positioning: place
//! each hot block's hottest successor immediately after it so control
//! mostly *falls through* instead of jumping (Pettis–Hansen style chains).
//! [`optimize_layout`] implements the greedy variant; [`VmMetrics`]
//! measures the effect as the fall-through ratio.
//!
//! [`VmMetrics`]: crate::VmMetrics

use crate::chunk::{BlockId, Chunk, Terminator};
use crate::counters::BlockCounters;
use std::cell::OnceCell;
use std::collections::HashMap;

/// Reorders `chunk`'s blocks into hot traces using the block profile, and
/// returns the re-laid-out chunk (semantically identical; entry first), or
/// `None` when that order is the current one: `chunk` stays as it is.
///
/// Greedy trace formation: starting from the entry, repeatedly append the
/// current block's most frequently executed unplaced successor; when the
/// trace dies out, restart from the hottest unplaced block.
pub fn optimize_layout(chunk: &Chunk, counters: &BlockCounters) -> Option<Chunk> {
    let n = chunk.blocks.len();
    let hotness = |b: BlockId| counters.count(chunk.id, b);
    let mut placed = vec![false; n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);

    let mut trace_head = Some(chunk.entry);
    while let Some(mut cur) = trace_head {
        // Grow one trace.
        loop {
            placed[cur as usize] = true;
            order.push(cur);
            // Pick the hottest unplaced successor; ties prefer the first
            // (then-) successor so unprofiled chunks keep a stable layout.
            let mut next: Option<BlockId> = None;
            let mut best = 0u64;
            for s in chunk.successors(cur) {
                if placed[s as usize] {
                    continue;
                }
                let h = hotness(s);
                if next.is_none() || h > best {
                    next = Some(s);
                    best = h;
                }
            }
            match next {
                Some(s) => cur = s,
                None => break,
            }
        }
        // Restart from the hottest unplaced block (deterministic tie-break
        // on id).
        trace_head = (0..n as BlockId)
            .filter(|b| !placed[*b as usize])
            .max_by(|a, b| hotness(*a).cmp(&hotness(*b)).then(b.cmp(a)));
    }
    if order.iter().copied().eq(0..n as BlockId) {
        return None;
    }

    let mut remap: HashMap<BlockId, BlockId> = HashMap::with_capacity(n);
    for (new_id, old_id) in order.iter().enumerate() {
        remap.insert(*old_id, new_id as BlockId);
    }
    let mut blocks = Vec::with_capacity(n);
    for old_id in &order {
        let mut block = chunk.blocks[*old_id as usize].clone();
        block.term = match block.term {
            Terminator::Jump(t) => Terminator::Jump(remap[&t]),
            Terminator::Branch(t, e) => Terminator::Branch(remap[&t], remap[&e]),
            other => other,
        };
        blocks.push(block);
    }
    Some(Chunk {
        id: chunk.id,
        blocks,
        entry: remap[&chunk.entry],
        global_points: chunk.global_points.clone(),
        points: chunk.points.clone(),
        lowered: OnceCell::new(),
    })
}

/// A canonical printout of a chunk's CFG, independent of block numbering
/// (blocks are renumbered in DFS order from the entry, taking `then` before
/// `else`). Two chunks with equal canonical forms compute the same
/// function via the same CFG — the §4.3 stability check compares these
/// across compilation passes.
pub fn canonical_form(chunk: &Chunk) -> String {
    let mut order: Vec<BlockId> = Vec::new();
    let mut seen = vec![false; chunk.blocks.len()];
    let mut stack = vec![chunk.entry];
    while let Some(b) = stack.pop() {
        if seen[b as usize] {
            continue;
        }
        seen[b as usize] = true;
        order.push(b);
        // Push in reverse so the first successor is visited first.
        for s in chunk.successors(b).into_iter().rev() {
            stack.push(s);
        }
    }
    let mut remap: HashMap<BlockId, usize> = HashMap::new();
    for (i, b) in order.iter().enumerate() {
        remap.insert(*b, i);
    }
    let mut out = String::new();
    for (i, b) in order.iter().enumerate() {
        let block = &chunk.blocks[*b as usize];
        out.push_str(&format!("B{i}:\n"));
        for instr in &block.instrs {
            out.push_str(&format!("  {instr:?}\n"));
        }
        let term = match &block.term {
            Terminator::Jump(t) => format!("jump B{}", remap[t]),
            Terminator::Branch(t, e) => format!("branch B{} B{}", remap[t], remap[e]),
            Terminator::Return => "return".to_owned(),
            Terminator::TailCall { argc, .. } => format!("tailcall {argc}"),
            Terminator::TailCallLocal { argc, .. } => format!("tailcall local {argc}"),
        };
        out.push_str(&format!("  {term}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{fresh_chunk_id_for_tests, Block, Instr};
    use pgmp_syntax::Datum;
    use std::rc::Rc;

    fn konst_block(n: i64, term: Terminator) -> Block {
        Block {
            instrs: vec![Instr::Const(Datum::Int(n))],
            term,
            points: 0..0,
            calls: 0,
        }
    }

    fn diamond() -> Chunk {
        // 0 -> branch 1 / 2; 1 -> 3; 2 -> 3; 3 return.
        Chunk {
            id: fresh_chunk_id_for_tests(),
            entry: 0,
            global_points: Rc::from([]),
            points: Rc::from([]),
            lowered: OnceCell::new(),
            blocks: vec![
                konst_block(0, Terminator::Branch(1, 2)),
                konst_block(1, Terminator::Jump(3)),
                konst_block(2, Terminator::Jump(3)),
                konst_block(3, Terminator::Return),
            ],
        }
    }

    #[test]
    fn layout_places_hot_successor_next() {
        let chunk = diamond();
        let counters = BlockCounters::new();
        // Block 2 (the else branch) is hot.
        for _ in 0..100 {
            counters.increment(chunk.id, 2);
        }
        counters.increment(chunk.id, 1);
        let opt = optimize_layout(&chunk, &counters).unwrap();
        // Entry first, then the hot else-block as fall-through.
        assert_eq!(opt.entry, 0);
        assert_eq!(opt.blocks[0].instrs, chunk.blocks[0].instrs);
        assert_eq!(opt.blocks[1].instrs, chunk.blocks[2].instrs);
    }

    #[test]
    fn layout_preserves_canonical_form() {
        let chunk = diamond();
        let counters = BlockCounters::new();
        counters.increment(chunk.id, 2);
        let opt = optimize_layout(&chunk, &counters).unwrap();
        assert_eq!(canonical_form(&chunk), canonical_form(&opt));
    }

    #[test]
    fn layout_keeps_all_blocks() {
        let chunk = diamond();
        let opt = optimize_layout(&chunk, &BlockCounters::new()).unwrap();
        assert_eq!(opt.block_count(), chunk.block_count());
    }

    #[test]
    fn canonical_form_distinguishes_different_cfgs() {
        let a = diamond();
        let mut b = diamond();
        b.blocks[1] = konst_block(99, Terminator::Jump(3));
        assert_ne!(canonical_form(&a), canonical_form(&b));
    }
}
