//! Time-frame expansion of a netlist into SAT literals.

use crate::cnf::GateBuilder;
use crate::coi::CoiSlice;
use crate::elab::Elab;
use netlist::{BinOp, Netlist, Op, SignalId, UnOp};
use std::collections::HashSet;
use std::sync::Arc;

/// How registers are constrained at frame 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InitMode {
    /// Registers start at their reset values (the paper's "valid reset
    /// state", §V-B).
    Reset,
    /// Registers start fully symbolic (used by the k-induction step).
    Free,
}

/// An incremental unrolling: frame `t` holds one literal per signal bit.
#[derive(Debug)]
pub struct Unrolling<'a> {
    nl: &'a Netlist,
    elab: Arc<Elab>,
    init: InitMode,
    free_regs: HashSet<SignalId>,
    /// Optional cone-of-influence slice: out-of-cone nodes get no literals.
    coi: Option<Arc<CoiSlice>>,
    gate: GateBuilder,
    /// Where each signal's bits sit in a frame: signal `i` owns
    /// `offsets[i]..offsets[i + 1]` (empty outside the cone). Fixed when
    /// the first frame is built.
    offsets: Vec<u32>,
    /// `frames[t]` = the LSB-first literals of every signal at cycle t,
    /// packed at `offsets` — one allocation per frame, not per signal.
    frames: Vec<Vec<sat::Lit>>,
}

impl<'a> Unrolling<'a> {
    /// Creates an unrolling with zero frames; call [`Unrolling::extend_to`].
    ///
    /// # Panics
    /// Panics if the netlist fails validation.
    pub fn new(nl: &'a Netlist, init: InitMode) -> Self {
        Self::with_elab(nl, init, Arc::new(Elab::new(nl)))
    }

    /// Like [`Unrolling::new`], but reuses an already-computed elaboration
    /// (validation + topological order) of the same netlist, e.g. shared by
    /// many checkers over one harness.
    ///
    /// # Panics
    /// Panics if the elaboration does not match the netlist.
    pub fn with_elab(nl: &'a Netlist, init: InitMode, elab: Arc<Elab>) -> Self {
        assert_eq!(
            elab.len(),
            nl.len(),
            "elaboration belongs to a different netlist"
        );
        Self {
            nl,
            elab,
            init,
            free_regs: HashSet::new(),
            coi: None,
            gate: GateBuilder::new(),
            offsets: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Restricts the unrolling to a cone-of-influence slice: nodes outside
    /// the slice are skipped entirely (no literals, no clauses). Reading an
    /// out-of-cone signal's literals afterwards panics, so the slice must
    /// cover every cover/assume signal the caller will reference. Must be
    /// called before any frame is built.
    ///
    /// # Panics
    /// Panics if frames have already been built or the slice belongs to a
    /// different netlist.
    pub fn set_coi(&mut self, coi: Option<Arc<CoiSlice>>) {
        assert!(self.frames.is_empty(), "set_coi after unrolling");
        if let Some(c) = &coi {
            assert_eq!(c.total_nodes, self.nl.len(), "slice of a different netlist");
        }
        self.coi = coi;
    }

    /// The active cone-of-influence slice, if any.
    pub fn coi(&self) -> Option<Arc<CoiSlice>> {
        self.coi.clone()
    }

    /// The shared elaboration backing this unrolling.
    pub fn elab(&self) -> Arc<Elab> {
        Arc::clone(&self.elab)
    }

    /// Marks registers whose *initial* value is symbolic even under
    /// [`InitMode::Reset`] — the paper's "only architectural state is
    /// symbolically initialized" reset discipline (§V-B). Must be called
    /// before any frame is built.
    ///
    /// # Panics
    /// Panics if frames have already been built.
    pub fn set_free_regs(&mut self, regs: &[SignalId]) {
        assert!(self.frames.is_empty(), "set_free_regs after unrolling");
        self.free_regs = regs.iter().copied().collect();
    }

    /// The netlist being unrolled.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Number of built frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Mutable access to the gate builder / solver.
    pub fn gate(&mut self) -> &mut GateBuilder {
        &mut self.gate
    }

    /// The literals of `sig` at `frame` (LSB first).
    ///
    /// # Panics
    /// Panics if the frame has not been built.
    pub fn lits(&self, frame: usize, sig: SignalId) -> &[sat::Lit] {
        &self.frames[frame][self.bits(sig)]
    }

    /// Every literal of one frame (all signals, packed).
    pub(crate) fn frame(&self, frame: usize) -> &[sat::Lit] {
        &self.frames[frame]
    }

    /// The range of `sig`'s bits within a frame.
    fn bits(&self, sig: SignalId) -> std::ops::Range<usize> {
        self.offsets[sig.index()] as usize..self.offsets[sig.index() + 1] as usize
    }

    /// The single literal of a 1-bit signal at `frame`.
    ///
    /// # Panics
    /// Panics if the signal is wider than one bit.
    pub fn lit(&self, frame: usize, sig: SignalId) -> sat::Lit {
        let ls = self.lits(frame, sig);
        assert_eq!(ls.len(), 1, "signal is not 1 bit");
        ls[0]
    }

    /// Builds frames until `frames` exist.
    pub fn extend_to(&mut self, frames: usize) {
        while self.frames.len() < frames {
            self.build_frame();
        }
    }

    fn build_frame(&mut self) {
        let t = self.frames.len();
        if t == 0 {
            let mut at = 0u32;
            self.offsets = Vec::with_capacity(self.nl.len() + 1);
            for (id, node) in self.nl.iter() {
                self.offsets.push(at);
                if self.coi.as_ref().is_none_or(|c| c.keeps(id)) {
                    at += node.width as u32;
                }
            }
            self.offsets.push(at);
        }
        let total = *self.offsets.last().expect("offsets cover every signal") as usize;
        let mut cur: Vec<sat::Lit> = vec![self.gate.false_lit(); total];
        let elab = Arc::clone(&self.elab);
        for &id in elab.order() {
            if self.coi.as_ref().is_some_and(|c| !c.keeps(id)) {
                continue;
            }
            let operand = |s: SignalId| cur[self.bits(s)].to_vec();
            let node = self.nl.node(id);
            let w = node.width;
            let bits = match &node.op {
                Op::Input => self.gate.word_fresh(w),
                Op::Const(v) => self.gate.word_const(*v, w),
                Op::Reg { next, init } => {
                    if t == 0 {
                        match self.init {
                            InitMode::Reset if !self.free_regs.contains(&id) => {
                                self.gate.word_const(*init, w)
                            }
                            _ => self.gate.word_fresh(w),
                        }
                    } else {
                        let nx = next.expect("validated netlist");
                        self.lits(t - 1, nx).to_vec()
                    }
                }
                Op::Unary(op, a) => {
                    let a = operand(*a);
                    match op {
                        UnOp::Not => a.iter().map(|&l| !l).collect(),
                        UnOp::Neg => self.gate.word_neg(&a),
                        UnOp::RedOr => vec![self.gate.or_many(&a)],
                        UnOp::RedAnd => vec![self.gate.and_many(&a)],
                        UnOp::RedXor => {
                            let mut acc = self.gate.constant(false);
                            for &l in &a {
                                acc = self.gate.xor(acc, l);
                            }
                            vec![acc]
                        }
                    }
                }
                Op::Binary(op, a, b) => {
                    let (a, b) = (operand(*a), operand(*b));
                    match op {
                        BinOp::And => self.gate.word_bitwise(&a, &b, GateBuilder::and),
                        BinOp::Or => self.gate.word_bitwise(&a, &b, GateBuilder::or),
                        BinOp::Xor => self.gate.word_bitwise(&a, &b, GateBuilder::xor),
                        BinOp::Add => self.gate.word_add(&a, &b),
                        BinOp::Sub => self.gate.word_sub(&a, &b),
                        BinOp::Mul => self.gate.word_mul(&a, &b),
                        BinOp::Eq => vec![self.gate.word_eq(&a, &b)],
                        BinOp::Ne => {
                            let e = self.gate.word_eq(&a, &b);
                            vec![!e]
                        }
                        BinOp::Ult => vec![self.gate.word_ult(&a, &b)],
                        BinOp::Ule => vec![self.gate.word_ule(&a, &b)],
                        BinOp::Shl => self.gate.word_shl(&a, &b),
                        BinOp::Shr => self.gate.word_shr(&a, &b),
                    }
                }
                Op::Mux { sel, a, b } => {
                    let s = operand(*sel)[0];
                    let (a, b) = (operand(*a), operand(*b));
                    self.gate.word_mux(s, &a, &b)
                }
                Op::Slice { src, hi, lo } => operand(*src)[*lo as usize..=*hi as usize].to_vec(),
                Op::Concat { hi, lo } => {
                    let mut bits = operand(*lo);
                    bits.extend(operand(*hi));
                    bits
                }
            };
            debug_assert_eq!(bits.len(), w as usize);
            let range = self.bits(id);
            cur[range].copy_from_slice(&bits);
        }
        self.frames.push(cur);
    }

    /// Reads a signal's value at a frame out of the most recent SAT model.
    /// Unconstrained bits read as 0.
    pub fn model_value(&self, frame: usize, sig: SignalId) -> u64 {
        let solver = self.gate.solver_ref();
        let mut v = 0u64;
        for (i, &l) in self.lits(frame, sig).iter().enumerate() {
            if solver.lit_model(l) == Some(true) {
                v |= 1 << i;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Builder;
    use sat::SolveResult;

    fn counter(width: u8) -> Netlist {
        let mut b = Builder::new();
        let c = b.reg("c", width, 0);
        let one = b.constant(1, width);
        let n = b.add(c, one);
        b.set_next(c, n).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counter_reaches_value_at_exact_frame() {
        let nl = counter(4);
        let c = nl.find("c").unwrap();
        let mut u = Unrolling::new(&nl, InitMode::Reset);
        u.extend_to(6);
        // c@5 == 5 must be satisfiable; c@5 == 4 unsatisfiable.
        let five = u.gate().word_const(5, 4);
        let lits5 = u.lits(5, c).to_vec();
        let eq5 = u.gate().word_eq(&lits5, &five);
        assert_eq!(u.gate().solver().solve_assuming(&[eq5]), SolveResult::Sat);
        let four = u.gate().word_const(4, 4);
        let eq4 = u.gate().word_eq(&lits5, &four);
        assert_eq!(u.gate().solver().solve_assuming(&[eq4]), SolveResult::Unsat);
    }

    #[test]
    fn free_init_makes_any_value_reachable_at_frame_0() {
        let nl = counter(4);
        let c = nl.find("c").unwrap();
        let mut u = Unrolling::new(&nl, InitMode::Free);
        u.extend_to(1);
        let nine = u.gate().word_const(9, 4);
        let lits0 = u.lits(0, c).to_vec();
        let eq = u.gate().word_eq(&lits0, &nine);
        assert_eq!(u.gate().solver().solve_assuming(&[eq]), SolveResult::Sat);
    }

    #[test]
    fn model_value_reads_inputs() {
        let mut b = Builder::new();
        let x = b.input("x", 8);
        let r = b.reg("r", 8, 0);
        b.set_next(r, x).unwrap();
        let nl = b.finish().unwrap();
        let (x, r) = (nl.find("x").unwrap(), nl.find("r").unwrap());
        let mut u = Unrolling::new(&nl, InitMode::Reset);
        u.extend_to(2);
        let c99 = u.gate().word_const(99, 8);
        let r1 = u.lits(1, r).to_vec();
        let eq = u.gate().word_eq(&r1, &c99);
        assert!(u.gate().solver().solve_assuming(&[eq]).is_sat());
        assert_eq!(u.model_value(0, x), 99);
        assert_eq!(u.model_value(1, r), 99);
    }
}
