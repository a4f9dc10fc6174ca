//! Block-level PGO: profile-guided code layout.
//!
//! The classic block-level use of profile data is code positioning: place
//! each hot block's hottest successor immediately after it so control
//! mostly *falls through* instead of jumping (Pettis–Hansen style chains).
//! [`optimize_layout`] implements the greedy variant; [`VmMetrics`]
//! measures the effect as the fall-through ratio.
//!
//! [`VmMetrics`]: crate::VmMetrics

use crate::chunk::{lay_out, BlockId, Chunk};
use crate::counters::BlockCounters;
use pgmp_observe as observe;
use std::collections::HashMap;

/// Reorders `chunk`'s blocks into hot traces using the block profile, and
/// returns the re-laid-out chunk (semantically identical; entry first;
/// same id, shared point table, a copy of the pools), or `None` when
/// that order is the current one: `chunk` stays as it is. The new op
/// stream copies each block's ops in the new order and re-points their
/// jumps; it is traced as a `vm_lower` span.
///
/// Greedy trace formation: starting from the entry, repeatedly append the
/// current block's most frequently executed unplaced successor; when the
/// trace dies out, restart from the hottest unplaced block.
pub fn optimize_layout(chunk: &Chunk, counters: &BlockCounters) -> Option<Chunk> {
    let n = chunk.blocks.len();
    let hotness = |b: BlockId| counters.count(chunk.id, b);
    let mut placed = vec![false; n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);

    let mut trace_head = Some(0);
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
    let t = observe::timer();
    let ranges: Vec<_> = (0..n as BlockId).map(|b| chunk.block_range(b)).collect();
    Some(Chunk::new(
        t,
        chunk.id,
        lay_out(&chunk.ops, &ranges, &chunk.blocks, &order),
        chunk.pools.clone(),
        chunk.global_points.clone(),
        chunk.points.clone(),
    ))
}

/// A canonical printout of a chunk's CFG, independent of block numbering
/// (blocks are renumbered in DFS order from the entry, taking `then` before
/// `else`), with every operand printed as its value. Two chunks with equal
/// canonical forms compute the same function via the same CFG — the §4.3
/// stability check compares these across compilation passes.
pub fn canonical_form(chunk: &Chunk) -> String {
    let mut order: Vec<BlockId> = Vec::new();
    let mut seen = vec![false; chunk.block_count()];
    let mut stack = vec![0];
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
        out.push_str(&format!("B{i}:\n"));
        for op in chunk.block_ops(*b) {
            out.push_str("  ");
            chunk
                .write_op(&mut out, *op, |t| remap[&t])
                .expect("writing to a String cannot fail");
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::tests::hand_chunk;
    use crate::chunk::{to, Op, Pools};
    use pgmp_eval::Value;

    /// 0 -> branch 1 / 2; 1 -> 3; 2 -> 3; 3 return. Block `b` pushes
    /// `consts[b]`.
    fn diamond_of(consts: [i64; 4]) -> Chunk {
        let ops = [
            Op::Imm { pool: 0 },
            Op::Branch {
                then_: to(1),
                else_: to(2),
            },
            Op::Imm { pool: 1 },
            Op::Jump { target: to(3) },
            Op::Imm { pool: 2 },
            Op::Jump { target: to(3) },
            Op::Imm { pool: 3 },
            Op::Return,
        ];
        let mut pools = Pools::new();
        pools.imms = consts.iter().map(|n| Value::Int(*n)).collect();
        hand_chunk(&ops, &[0..2, 2..4, 4..6, 6..8], &[0, 1, 2, 3], pools)
    }

    fn diamond() -> Chunk {
        diamond_of([0, 1, 2, 3])
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
        assert_eq!(opt.block_ops(0)[0], chunk.block_ops(0)[0]);
        assert_eq!(opt.block_ops(1)[0], chunk.block_ops(2)[0]);
        assert_eq!(opt.successors(0), [3, 1]);
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
        // The two streams are the same ops; only block 1's constant, a
        // pool entry, differs.
        let a = diamond();
        let b = diamond_of([0, 99, 2, 3]);
        assert_eq!(a.ops, b.ops);
        assert_ne!(canonical_form(&a), canonical_form(&b));
    }
}
