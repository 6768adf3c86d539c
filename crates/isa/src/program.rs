//! Programs: control-flow graphs of basic blocks plus memory-segment
//! metadata used by the compiler's alias analysis.

use std::fmt;

use crate::inst::{Inst, Terminator};

/// The machine word. The simulator is word-addressed: addresses index words,
/// not bytes.
pub type Word = i32;

/// Identifier of a basic block within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id from a raw index.
    pub fn new(index: usize) -> BlockId {
        BlockId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of an idempotent region assigned by the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region id from a raw index.
    pub fn new(index: usize) -> RegionId {
        RegionId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rg{}", self.0)
    }
}

/// A named region of main NVM, used by alias analysis to prove that two
/// memory accesses cannot touch the same word.
///
/// Applications declare their arrays as segments; a `Mov rX, imm` whose
/// immediate falls inside a segment is treated as a pointer into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable name (e.g. `"coeffs"`).
    pub name: String,
    /// First word address of the segment.
    pub start: u32,
    /// Length in words.
    pub len: u32,
    /// Whether the program writes this segment. Read-only segments can never
    /// participate in anti-dependences.
    pub writable: bool,
}

impl Segment {
    /// Whether `addr` falls inside this segment.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.start + self.len
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's instructions, executed in order.
    pub insts: Vec<Inst>,
    /// Control transfer out of the block.
    pub term: Terminator,
    /// Maximum number of times this block can execute per entry of the
    /// enclosing loop, when the block is a loop header. Required by the WCET
    /// pass for programs with loops; `None` means "not a loop header".
    pub loop_bound: Option<u32>,
    /// Optional label for diagnostics.
    pub label: Option<String>,
}

impl Block {
    /// Creates a block with the given instructions and terminator.
    pub fn new(insts: Vec<Inst>, term: Terminator) -> Block {
        Block {
            insts,
            term,
            loop_bound: None,
            label: None,
        }
    }
}

/// A program: an entry block plus a set of basic blocks forming a CFG, and
/// the memory segments its data lives in.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    blocks: Vec<Block>,
    entry: BlockId,
    segments: Vec<Segment>,
}

impl Program {
    /// Assembles a program from parts. Prefer [`crate::ProgramBuilder`],
    /// which also verifies the result.
    pub fn from_parts(
        name: impl Into<String>,
        blocks: Vec<Block>,
        entry: BlockId,
        segments: Vec<Segment>,
    ) -> Program {
        Program {
            name: name.into(),
            blocks,
            entry,
            segments,
        }
    }

    /// The program's name (used in reports and experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Access a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs in index order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i), b))
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Appends a block, returning its id.
    pub fn push_block(&mut self, block: Block) -> BlockId {
        self.blocks.push(block);
        BlockId::new(self.blocks.len() - 1)
    }

    /// The declared memory segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Adds a memory segment (used by app builders).
    pub fn add_segment(&mut self, segment: Segment) {
        self.segments.push(segment);
    }

    /// Finds the segment containing `addr`, if any.
    pub fn segment_of(&self, addr: u32) -> Option<usize> {
        self.segments.iter().position(|s| s.contains(addr))
    }

    /// Successor blocks of `id`.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).term.successors()
    }

    /// Predecessor map: for each block, the blocks that branch to it.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, b) in self.blocks() {
            for s in b.term.successors() {
                preds[s.index()].push(id);
            }
        }
        preds
    }

    /// Total number of (non-pseudo) instructions, a rough program size.
    pub fn inst_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.insts.iter().filter(|i| !i.is_pseudo()).count())
            .sum()
    }

    /// Number of compiler-inserted checkpoint stores.
    pub fn checkpoint_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.insts
                    .iter()
                    .filter(|i| matches!(i, Inst::Checkpoint { .. }))
                    .count()
            })
            .sum()
    }

    /// Number of region boundaries.
    pub fn boundary_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.insts
                    .iter()
                    .filter(|i| matches!(i, Inst::Boundary { .. }))
                    .count()
            })
            .sum()
    }

    /// Blocks in reverse post-order from the entry (a topological-ish order
    /// that visits definitions before uses on acyclic paths).
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit stack to avoid recursion depth
        // limits on large CFGs.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while !stack.is_empty() {
            let (id, next) = {
                let frame = stack.last_mut().expect("stack non-empty");
                let pair = (frame.0, frame.1);
                frame.1 += 1;
                pair
            };
            let succs = self.successors(id);
            if next < succs.len() {
                let s = succs[next];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(id);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// One flag per block: whether it is a loop header by reverse
    /// post-order, the target of an edge `u -> v` with `v` no later than
    /// `u` in [`Program::reverse_post_order`] (a back edge; a self-loop
    /// counts). Blocks unreachable from the entry are never headers.
    pub fn rpo_loop_headers(&self) -> Vec<bool> {
        let rpo = self.reverse_post_order();
        let mut pos = vec![usize::MAX; self.blocks.len()];
        for (i, b) in rpo.iter().enumerate() {
            pos[b.index()] = i;
        }
        let mut headers = vec![false; self.blocks.len()];
        for &u in &rpo {
            for v in self.successors(u) {
                if pos[v.index()] <= pos[u.index()] {
                    headers[v.index()] = true;
                }
            }
        }
        headers
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program {}", self.name)?;
        for seg in &self.segments {
            writeln!(
                f,
                "; segment {} @{}..{} {}",
                seg.name,
                seg.start,
                seg.end(),
                if seg.writable { "rw" } else { "ro" }
            )?;
        }
        for (id, b) in self.blocks() {
            let marker = if id == self.entry { " (entry)" } else { "" };
            let label = b.label.as_deref().unwrap_or("");
            writeln!(f, "{id}{marker}: {label}")?;
            if let Some(bound) = b.loop_bound {
                writeln!(f, "  .loop_bound {bound}")?;
            }
            for i in &b.insts {
                writeln!(f, "  {i}")?;
            }
            writeln!(f, "  {}", b.term)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Operand, Reg};

    fn two_block_program() -> Program {
        let b0 = Block::new(
            vec![Inst::Mov {
                dst: Reg::R1,
                src: Operand::Imm(1),
            }],
            Terminator::Jump(BlockId::new(1)),
        );
        let b1 = Block::new(vec![], Terminator::Halt);
        Program::from_parts("t", vec![b0, b1], BlockId::new(0), vec![])
    }

    #[test]
    fn successors_and_predecessors() {
        let p = two_block_program();
        assert_eq!(p.successors(BlockId::new(0)), vec![BlockId::new(1)]);
        assert!(p.successors(BlockId::new(1)).is_empty());
        let preds = p.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![BlockId::new(0)]);
    }

    #[test]
    fn counts() {
        let p = two_block_program();
        assert_eq!(p.inst_count(), 1);
        assert_eq!(p.checkpoint_count(), 0);
        assert_eq!(p.boundary_count(), 0);
        assert_eq!(p.block_count(), 2);
    }

    #[test]
    fn segment_lookup() {
        let mut p = two_block_program();
        p.add_segment(Segment {
            name: "a".into(),
            start: 100,
            len: 10,
            writable: true,
        });
        p.add_segment(Segment {
            name: "b".into(),
            start: 110,
            len: 5,
            writable: false,
        });
        assert_eq!(p.segment_of(100), Some(0));
        assert_eq!(p.segment_of(109), Some(0));
        assert_eq!(p.segment_of(110), Some(1));
        assert_eq!(p.segment_of(115), None);
        assert_eq!(p.segment_of(99), None);
    }

    #[test]
    fn reverse_post_order_visits_entry_first() {
        let p = two_block_program();
        let rpo = p.reverse_post_order();
        assert_eq!(rpo, vec![BlockId::new(0), BlockId::new(1)]);
    }

    #[test]
    fn rpo_handles_diamonds_and_loops() {
        // 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> 0 | halt (branch back edge)
        let b0 = Block::new(
            vec![],
            Terminator::Branch {
                cond: crate::Cond::Eq,
                lhs: Reg::R0,
                rhs: Operand::Imm(0),
                taken: BlockId::new(1),
                fall: BlockId::new(2),
            },
        );
        let b1 = Block::new(vec![], Terminator::Jump(BlockId::new(3)));
        let b2 = Block::new(vec![], Terminator::Jump(BlockId::new(3)));
        let b3 = Block::new(
            vec![],
            Terminator::Branch {
                cond: crate::Cond::Ne,
                lhs: Reg::R0,
                rhs: Operand::Imm(0),
                taken: BlockId::new(0),
                fall: BlockId::new(4),
            },
        );
        let b4 = Block::new(vec![], Terminator::Halt);
        let p = Program::from_parts("d", vec![b0, b1, b2, b3, b4], BlockId::new(0), vec![]);
        let rpo = p.reverse_post_order();
        assert_eq!(rpo.len(), 5, "all blocks reachable");
        assert_eq!(rpo[0], BlockId::new(0), "entry first");
        // 3 must come after 1 and 2 in RPO.
        let pos = |id: usize| rpo.iter().position(|b| b.index() == id).unwrap();
        assert!(pos(3) > pos(1));
        assert!(pos(3) > pos(2));
        assert!(pos(4) > pos(3));
        // The one back edge, 3 -> 0, makes the entry the only header.
        assert_eq!(p.rpo_loop_headers(), vec![true, false, false, false, false]);
    }

    #[test]
    fn display_contains_blocks() {
        let p = two_block_program();
        let s = p.to_string();
        assert!(s.contains("b0 (entry)"));
        assert!(s.contains("mov r1, 1"));
        assert!(s.contains("halt"));
    }
}
