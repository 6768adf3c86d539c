//! Idempotent region formation (Section VI-B).
//!
//! A region is *idempotent* when re-executing it from its entry produces
//! the same result — which holds exactly when no memory **anti-dependence**
//! (a load followed by a may-aliasing store) lies entirely inside it: the
//! re-executed load must not observe the store of the first attempt.
//!
//! The pass places `Boundary` pseudo-instructions so that:
//!
//! * the program entry starts region 0;
//! * every loop header opens a region (cutting all cyclic paths, which also
//!   makes every region an acyclic subgraph — a property the WCET pass
//!   relies on);
//! * every I/O operation is bracketed by boundaries (the paper treats
//!   interrupts/IO as separate regions);
//! * every anti-dependent load→store path crosses a boundary: a dataflow
//!   over "addresses loaded since the last boundary" inserts a boundary in
//!   front of any store that may alias a pending load;
//! * **WARAW** dependences are exempt (Section VI-B, "Region formation"):
//!   a load that reads an address the *same region* has already written on
//!   every path is protected — re-execution rewrites the value first — so
//!   it never becomes a pending anti-dependence source.

use std::collections::BTreeSet;

use gecko_isa::{BlockId, Inst, Program, RegionId};

use crate::analysis::{loop_headers, AliasAnalysis, Dominators, MemLoc};

/// Pending anti-dependence sources: the abstract addresses loaded since the
/// last region boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Pending {
    /// A load with an unknown address happened (aliases everything).
    any: bool,
    /// Exactly-known loaded addresses.
    addrs: BTreeSet<u32>,
    /// Segments with loads at unknown offsets.
    segs: BTreeSet<usize>,
}

impl Pending {
    fn clear(&mut self) {
        self.any = false;
        self.addrs.clear();
        self.segs.clear();
    }

    fn add(&mut self, loc: MemLoc) {
        match loc {
            MemLoc::Addr(a) => {
                self.addrs.insert(a);
            }
            MemLoc::Seg(s) => {
                self.segs.insert(s);
            }
            MemLoc::Any => self.any = true,
        }
    }

    fn union_with(&mut self, other: &Pending) -> bool {
        let mut changed = false;
        if other.any && !self.any {
            self.any = true;
            changed = true;
        }
        for &a in &other.addrs {
            changed |= self.addrs.insert(a);
        }
        for &s in &other.segs {
            changed |= self.segs.insert(s);
        }
        changed
    }

    fn store_conflicts(&self, store: MemLoc, program: &Program) -> bool {
        if self.any {
            return true;
        }
        match store {
            MemLoc::Any => !self.addrs.is_empty() || !self.segs.is_empty(),
            MemLoc::Addr(a) => {
                self.addrs.contains(&a)
                    || program
                        .segment_of(a)
                        .is_some_and(|s| self.segs.contains(&s))
            }
            MemLoc::Seg(s) => {
                self.segs.contains(&s)
                    || self
                        .addrs
                        .iter()
                        .any(|&a| program.segments()[s].contains(a))
            }
        }
    }
}

/// Must-written addresses since the last boundary (for the WARAW
/// exemption). `None` = "not yet reached" (top of the intersection
/// lattice).
type Written = Option<BTreeSet<u32>>;

fn intersect(a: &mut Written, b: &BTreeSet<u32>) -> bool {
    match a {
        None => {
            *a = Some(b.clone());
            true
        }
        Some(set) => {
            let before = set.len();
            set.retain(|x| b.contains(x));
            set.len() != before
        }
    }
}

/// Places region boundaries into `program` (mutating it), assigning region
/// ids `0..n` with the entry boundary guaranteed to be region 0. Returns
/// the number of regions created.
///
/// This is the *Ratchet-style* formation that also opens a region at every
/// loop header. GECKO instead uses [`form_regions_policy`] with
/// `cut_loop_headers = false` and relies on loop-bound-aware WCET
/// splitting to bound region lengths — that difference is what makes
/// Ratchet ~2.4x and GECKO ~1.06x in Figure 11.
pub fn form_regions(program: &mut Program) -> usize {
    form_regions_policy(program, true)
}

/// [`form_regions`] with the loop-header rule made optional.
pub fn form_regions_policy(program: &mut Program, cut_loop_headers: bool) -> usize {
    insert_mandatory_boundaries(program, cut_loop_headers);
    cut_anti_dependences(program);
    renumber_boundaries(program)
}

/// Step 1: boundaries at the entry, (optionally) every loop header, and
/// around I/O.
fn insert_mandatory_boundaries(program: &mut Program, cut_loop_headers: bool) {
    let placeholder = Inst::Boundary {
        region: RegionId::new(u32::MAX as usize),
    };
    let dom = Dominators::compute(program);
    let headers: BTreeSet<BlockId> = if cut_loop_headers {
        loop_headers(program, &dom).into_iter().collect()
    } else {
        BTreeSet::new()
    };

    for b in program.block_ids().collect::<Vec<_>>() {
        let is_entry = b == program.entry();
        let block = program.block_mut(b);
        let mut out: Vec<Inst> = Vec::with_capacity(block.insts.len() + 2);
        if is_entry || headers.contains(&b) {
            out.push(placeholder);
        }
        for inst in block.insts.drain(..) {
            if matches!(inst, Inst::Io { .. }) {
                // Bracket I/O: boundary before (unless one is already
                // pending) and after.
                if !matches!(out.last(), Some(Inst::Boundary { .. })) {
                    out.push(placeholder);
                }
                out.push(inst);
                out.push(placeholder);
            } else {
                out.push(inst);
            }
        }
        block.insts = out;
    }
}

/// Step 2: dataflow + insertion pass cutting anti-dependences. The new
/// boundaries carry placeholder ids; [`renumber_boundaries`] assigns them.
pub(crate) fn cut_anti_dependences(program: &mut Program) {
    let alias = AliasAnalysis::compute(program);
    let n = program.block_count();
    let preds = program.predecessors();

    // Fixpoint over block-entry states.
    let mut pending_in: Vec<Pending> = vec![Pending::default(); n];
    let mut written_in: Vec<Written> = vec![None; n];
    written_in[program.entry().index()] = Some(BTreeSet::new());

    let transfer = |program: &Program,
                    alias: &AliasAnalysis,
                    b: BlockId,
                    pending: &mut Pending,
                    written: &mut BTreeSet<u32>| {
        for (i, inst) in program.block(b).insts.iter().enumerate() {
            match inst {
                Inst::Boundary { .. } => {
                    pending.clear();
                    written.clear();
                }
                Inst::Load { .. } => {
                    let loc = alias.access_loc(program, b, i);
                    if loc.is_read_only(program) {
                        continue;
                    }
                    // WARAW exemption: reads of addresses this region has
                    // certainly written are safe.
                    if let MemLoc::Addr(a) = loc {
                        if written.contains(&a) {
                            continue;
                        }
                    }
                    pending.add(loc);
                }
                Inst::Store { .. } => {
                    let loc = alias.access_loc(program, b, i);
                    if pending.store_conflicts(loc, program) {
                        // The insertion pass will place a boundary before
                        // this store; model its effect.
                        pending.clear();
                        written.clear();
                    }
                    if let MemLoc::Addr(a) = loc {
                        written.insert(a);
                    }
                }
                _ => {}
            }
        }
    };

    let rpo = program.reverse_post_order();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            let mut pending = pending_in[b.index()].clone();
            let mut written = written_in[b.index()].clone().unwrap_or_default();
            transfer(program, &alias, b, &mut pending, &mut written);
            for s in program.successors(b) {
                changed |= pending_in[s.index()].union_with(&pending);
                changed |= intersect(&mut written_in[s.index()], &written);
            }
        }
        // Unreached-by-intersection blocks (unreachable) settle to empty.
        let _ = &preds;
    }

    // Insertion pass: walk each block with its fixpoint in-state and record
    // the store positions that need a preceding boundary.
    let placeholder = Inst::Boundary {
        region: RegionId::new(u32::MAX as usize),
    };
    for b in program.block_ids().collect::<Vec<_>>() {
        let mut pending = pending_in[b.index()].clone();
        let mut written = written_in[b.index()].clone().unwrap_or_default();
        let mut cuts: Vec<usize> = Vec::new();
        for (i, inst) in program.block(b).insts.iter().enumerate() {
            match inst {
                Inst::Boundary { .. } => {
                    pending.clear();
                    written.clear();
                }
                Inst::Load { .. } => {
                    let loc = alias.access_loc(program, b, i);
                    if loc.is_read_only(program) {
                        continue;
                    }
                    if let MemLoc::Addr(a) = loc {
                        if written.contains(&a) {
                            continue;
                        }
                    }
                    pending.add(loc);
                }
                Inst::Store { .. } => {
                    let loc = alias.access_loc(program, b, i);
                    if pending.store_conflicts(loc, program) {
                        cuts.push(i);
                        pending.clear();
                        written.clear();
                    }
                    if let MemLoc::Addr(a) = loc {
                        written.insert(a);
                    }
                }
                _ => {}
            }
        }
        let block = program.block_mut(b);
        for &i in cuts.iter().rev() {
            block.insts.insert(i, placeholder);
        }
    }
}

/// Check-only verifier: whether every anti-dependent load→store path in
/// `program` already crosses a boundary. Used by the hoisting optimization
/// to validate candidate boundary moves. Unlike the insertion pass, a
/// conflicting store does **not** clear the pending set (we want every
/// violation reported, and a violation means the candidate is rejected
/// anyway).
pub fn anti_dependences_are_cut(program: &Program) -> bool {
    let alias = AliasAnalysis::compute(program);
    let n = program.block_count();
    let mut pending_in: Vec<Pending> = vec![Pending::default(); n];
    let mut written_in: Vec<Written> = vec![None; n];
    written_in[program.entry().index()] = Some(BTreeSet::new());

    let transfer = |pending: &mut Pending,
                    written: &mut BTreeSet<u32>,
                    b: gecko_isa::BlockId,
                    check: &mut bool| {
        for (i, inst) in program.block(b).insts.iter().enumerate() {
            match inst {
                Inst::Boundary { .. } => {
                    pending.clear();
                    written.clear();
                }
                Inst::Load { .. } => {
                    let loc = alias.access_loc(program, b, i);
                    if loc.is_read_only(program) {
                        continue;
                    }
                    if let MemLoc::Addr(a) = loc {
                        if written.contains(&a) {
                            continue;
                        }
                    }
                    pending.add(loc);
                }
                Inst::Store { .. } => {
                    let loc = alias.access_loc(program, b, i);
                    if pending.store_conflicts(loc, program) {
                        *check = false;
                    }
                    if let MemLoc::Addr(a) = loc {
                        written.insert(a);
                    }
                }
                _ => {}
            }
        }
    };

    let rpo = program.reverse_post_order();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            let mut pending = pending_in[b.index()].clone();
            let mut written = written_in[b.index()].clone().unwrap_or_default();
            let mut ok = true;
            transfer(&mut pending, &mut written, b, &mut ok);
            for s in program.successors(b) {
                changed |= pending_in[s.index()].union_with(&pending);
                changed |= intersect(&mut written_in[s.index()], &written);
            }
        }
    }
    let mut all_ok = true;
    for b in program.block_ids() {
        let mut pending = pending_in[b.index()].clone();
        let mut written = written_in[b.index()].clone().unwrap_or_default();
        transfer(&mut pending, &mut written, b, &mut all_ok);
        if !all_ok {
            return false;
        }
    }
    all_ok
}

/// Loop-invariant boundary hoisting: a WAR-cut boundary inside a loop
/// executes once per iteration, but when the anti-dependence it cuts spans
/// loop *iterations of an enclosing loop* (load outside, store inside —
/// dhrystone's record copy is the canonical case), a single boundary in the
/// loop's preheader cuts every path just as well at a fraction of the
/// dynamic cost. Each candidate move is validated with the check-only
/// verifier and reverted if any anti-dependence would go uncut.
///
/// Only plain WAR-cut boundaries are moved: the entry boundary and the I/O
/// brackets stay where region formation put them.
pub fn hoist_war_boundaries(program: &mut Program) -> usize {
    use crate::analysis::natural_loops;
    let mut hoisted = 0usize;
    // Re-derive loops after every successful move; bounded by boundary count.
    for _ in 0..program.boundary_count() + 1 {
        let dom = Dominators::compute(program);
        let loops = natural_loops(program, &dom);
        let preds = program.predecessors();
        let mut moved = false;

        'search: for l in &loops {
            // Unique preheader: the single predecessor of the header from
            // outside the loop.
            let outside: Vec<_> = preds[l.header.index()]
                .iter()
                .copied()
                .filter(|p| !l.blocks.contains(p))
                .collect();
            let [preheader] = outside.as_slice() else {
                continue;
            };
            for &b in &l.blocks {
                let n_insts = program.block(b).insts.len();
                for i in 0..n_insts {
                    if !matches!(program.block(b).insts[i], Inst::Boundary { .. }) {
                        continue;
                    }
                    if is_pinned_boundary(program, b, i) {
                        continue;
                    }
                    // Tentative move: delete here, append to the preheader.
                    let mut trial = program.clone();
                    let boundary = trial.block_mut(b).insts.remove(i);
                    let ph = trial.block_mut(*preheader);
                    ph.insts.push(boundary);
                    if anti_dependences_are_cut(&trial) {
                        *program = trial;
                        hoisted += 1;
                        moved = true;
                        break 'search;
                    }
                }
            }
        }
        if !moved {
            break;
        }
    }
    if hoisted > 0 {
        renumber_boundaries(program);
    }
    hoisted
}

/// Whether the boundary at `(b, i)` must not be moved: the program entry
/// boundary, or an I/O bracket (immediately adjacent to an `Io`
/// instruction).
fn is_pinned_boundary(program: &Program, b: gecko_isa::BlockId, i: usize) -> bool {
    if b == program.entry() && i == 0 {
        return true;
    }
    let insts = &program.block(b).insts;
    let after_io = i > 0 && matches!(insts[i - 1], Inst::Io { .. });
    let before_io = i + 1 < insts.len() && matches!(insts[i + 1], Inst::Io { .. });
    after_io || before_io
}

/// Assigns fresh sequential region ids to every boundary, entry boundary
/// first (id 0), in reverse post-order so ids roughly follow execution
/// order. Returns the region count.
pub fn renumber_boundaries(program: &mut Program) -> usize {
    let mut next = 0usize;
    for b in program.reverse_post_order() {
        let block = program.block_mut(b);
        for inst in &mut block.insts {
            if let Inst::Boundary { region } = inst {
                *region = RegionId::new(next);
                next += 1;
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::{BinOp, Cond, ProgramBuilder, Reg};

    fn boundaries_in(program: &Program, b: BlockId) -> Vec<usize> {
        program
            .block(b)
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Inst::Boundary { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn entry_gets_region_zero() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R1, 1);
        b.halt();
        let mut p = b.finish().unwrap();
        let n = form_regions(&mut p);
        assert_eq!(n, 1);
        assert_eq!(
            p.block(p.entry()).insts[0],
            Inst::Boundary {
                region: RegionId::new(0)
            }
        );
    }

    #[test]
    fn loop_headers_get_boundaries() {
        let mut b = ProgramBuilder::new("t");
        let i = Reg::R1;
        b.mov(i, 0);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.branch(Cond::Lt, i, 8, body, exit);
        b.bind(body);
        b.bin(BinOp::Add, i, i, 1);
        b.jump(head);
        b.bind(exit);
        b.halt();
        let mut p = b.finish().unwrap();
        let n = form_regions(&mut p);
        assert!(n >= 2);
        assert_eq!(boundaries_in(&p, head), vec![0], "header boundary at top");
        assert!(boundaries_in(&p, body).is_empty(), "no WAR in body");
    }

    #[test]
    fn io_is_bracketed() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R1, 1);
        b.send(Reg::R1);
        b.mov(Reg::R2, 2);
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions(&mut p);
        let insts = &p.block(p.entry()).insts;
        // boundary(entry) mov boundary send boundary mov
        let kinds: Vec<bool> = insts
            .iter()
            .map(|i| matches!(i, Inst::Boundary { .. }))
            .collect();
        assert_eq!(kinds, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn same_block_anti_dependence_is_cut() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32);
        b.load(Reg::R2, Reg::R1, 0);
        b.bin(BinOp::Add, Reg::R2, Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0); // anti-dependence with the load
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions(&mut p);
        let insts = &p.block(p.entry()).insts;
        // Find the store; the instruction before it must be a boundary.
        let store_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Store { .. }))
            .unwrap();
        assert!(
            matches!(insts[store_idx - 1], Inst::Boundary { .. }),
            "boundary must precede the anti-dependent store: {insts:?}"
        );
    }

    #[test]
    fn waraw_is_not_cut() {
        // store A; load A; store A  — the load is WARAW-protected.
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32);
        b.mov(Reg::R2, 5);
        b.store(Reg::R2, Reg::R1, 0);
        b.load(Reg::R3, Reg::R1, 0);
        b.bin(BinOp::Add, Reg::R3, Reg::R3, 1);
        b.store(Reg::R3, Reg::R1, 0);
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions(&mut p);
        // Only the entry boundary: the WARAW chain needs no cut.
        assert_eq!(boundaries_in(&p, p.entry()).len(), 1, "{p}");
    }

    #[test]
    fn disjoint_segments_not_cut() {
        let mut b = ProgramBuilder::new("t");
        let a = b.segment("a", 8, true);
        let c = b.segment("c", 8, true);
        b.mov(Reg::R1, a as i32);
        b.mov(Reg::R2, c as i32);
        b.load(Reg::R3, Reg::R1, 0); // load from a
        b.store(Reg::R3, Reg::R2, 0); // store to c: no alias
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions(&mut p);
        assert_eq!(boundaries_in(&p, p.entry()).len(), 1);
    }

    #[test]
    fn read_only_loads_never_pend() {
        let mut b = ProgramBuilder::new("t");
        let ro = b.segment("ro", 8, false);
        let rw = b.segment("rw", 8, true);
        b.mov(Reg::R1, ro as i32);
        b.mov(Reg::R2, rw as i32);
        b.load(Reg::R3, Reg::R1, 0); // read-only load
        b.store(Reg::R3, Reg::R2, 0); // store elsewhere
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions(&mut p);
        assert_eq!(boundaries_in(&p, p.entry()).len(), 1);
    }

    #[test]
    fn cross_block_anti_dependence_is_cut() {
        // Block A loads addr; block B stores it; no boundary between unless
        // inserted by the pass.
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32);
        b.load(Reg::R2, Reg::R1, 0);
        let nxt = b.new_label("next");
        b.jump(nxt);
        b.bind(nxt);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions(&mut p);
        let insts = &p.block(nxt).insts;
        let store_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Store { .. }))
            .unwrap();
        assert!(
            store_idx > 0 && matches!(insts[store_idx - 1], Inst::Boundary { .. }),
            "cross-block WAR must be cut: {insts:?}"
        );
    }

    #[test]
    fn hoisting_moves_cross_iteration_cuts_to_the_preheader() {
        // The dhrystone pattern: an outer loop whose body (an inner copy
        // loop) stores to memory that was loaded *after* the inner loop in
        // the previous outer iteration. The WAR cut lands inside the inner
        // loop; hoisting lifts it out.
        let mut b = ProgramBuilder::new("t");
        let rec = b.segment("rec", 8, false);
        let copy = b.segment("copy", 8, true);
        let (run, k, t, p, q, recb, copyb) = (
            Reg::R1,
            Reg::R2,
            Reg::R3,
            Reg::R4,
            Reg::R5,
            Reg::R10,
            Reg::R11,
        );
        b.mov(recb, rec as i32);
        b.mov(copyb, copy as i32);
        b.mov(run, 0);
        let main = b.new_label("main");
        let body = b.new_label("body");
        let ch = b.new_label("copy_head");
        let cb = b.new_label("copy_body");
        let fields = b.new_label("fields");
        let exit = b.new_label("exit");
        b.bind(main);
        b.set_loop_bound(10);
        b.branch(Cond::Lt, run, 10, body, exit);
        b.bind(body);
        b.mov(k, 0);
        b.jump(ch);
        b.bind(ch);
        b.set_loop_bound(8);
        b.branch(Cond::Lt, k, 8, cb, fields);
        b.bind(cb);
        b.bin(BinOp::Add, p, recb, k);
        b.load(t, p, 0);
        b.bin(BinOp::Add, q, copyb, k);
        b.store(t, q, 0); // WAR with the `fields` load of the previous run
        b.bin(BinOp::Add, k, k, 1);
        b.jump(ch);
        b.bind(fields);
        b.load(t, copyb, 0);
        b.bin(BinOp::Add, run, run, Reg::R3);
        b.jump(main);
        b.bind(exit);
        b.halt();
        let mut p0 = b.finish().unwrap();
        form_regions_policy(&mut p0, false);
        let mut hoisted_prog = p0.clone();
        let hoisted = hoist_war_boundaries(&mut hoisted_prog);
        assert!(hoisted >= 1, "the inner-loop cut must hoist");
        assert!(anti_dependences_are_cut(&hoisted_prog), "still sound");
        // The inner copy-body block no longer contains a boundary.
        let cb_boundaries = hoisted_prog
            .block(cb)
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Boundary { .. }))
            .count();
        assert_eq!(cb_boundaries, 0, "{hoisted_prog}");
    }

    #[test]
    fn hoisting_keeps_same_iteration_cuts_in_place() {
        // load a[j] then store a[j] within the same iteration: the cut must
        // stay inside the loop (moving it would leave the WAR uncut).
        let mut b = ProgramBuilder::new("t");
        let arr = b.segment("arr", 8, true);
        let (i, t, p, base) = (Reg::R1, Reg::R2, Reg::R3, Reg::R10);
        b.mov(base, arr as i32);
        b.mov(i, 0);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(8);
        b.branch(Cond::Lt, i, 8, body, exit);
        b.bind(body);
        b.bin(BinOp::Add, p, base, i);
        b.load(t, p, 0);
        b.bin(BinOp::Add, t, t, 1);
        b.store(t, p, 0);
        b.bin(BinOp::Add, i, i, 1);
        b.jump(head);
        b.bind(exit);
        b.halt();
        let mut p0 = b.finish().unwrap();
        form_regions_policy(&mut p0, false);
        let before = p0.clone();
        let hoisted = hoist_war_boundaries(&mut p0);
        assert!(anti_dependences_are_cut(&p0));
        // The cut stays inside the loop body.
        let body_boundaries = p0
            .block(body)
            .insts
            .iter()
            .filter(|x| matches!(x, Inst::Boundary { .. }))
            .count();
        assert_eq!(body_boundaries, 1, "hoisted={hoisted}\n{before}\n{p0}");
    }

    #[test]
    fn verifier_accepts_formed_programs_and_rejects_stripped_ones() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32);
        b.load(Reg::R2, Reg::R1, 0);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        let mut p = b.finish().unwrap();
        form_regions_policy(&mut p, false);
        assert!(anti_dependences_are_cut(&p));
        // Strip every boundary: the WAR is now uncut.
        for blk in p.block_ids().collect::<Vec<_>>() {
            p.block_mut(blk)
                .insts
                .retain(|i| !matches!(i, Inst::Boundary { .. }));
        }
        assert!(!anti_dependences_are_cut(&p));
    }

    #[test]
    fn renumber_is_dense_and_unique() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32);
        b.load(Reg::R2, Reg::R1, 0);
        b.store(Reg::R2, Reg::R1, 0);
        b.sense(Reg::R3);
        b.halt();
        let mut p = b.finish().unwrap();
        let n = form_regions(&mut p);
        let mut seen = BTreeSet::new();
        for (_, block) in p.blocks() {
            for inst in &block.insts {
                if let Inst::Boundary { region } = inst {
                    assert!(seen.insert(region.index()), "duplicate id");
                }
            }
        }
        assert_eq!(seen.len(), n);
        assert_eq!(*seen.iter().max().unwrap(), n - 1, "dense ids");
        assert!(seen.contains(&0));
    }
}
