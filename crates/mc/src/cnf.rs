//! Tseitin gate encoding: word-level netlist operators lowered onto SAT
//! literals.

use sat::{Lit, Solver};

/// Wraps a [`Solver`] with gate-level encoding helpers and constant folding.
///
/// Maintains distinguished true/false literals so constants never allocate
/// variables.
#[derive(Debug)]
pub struct GateBuilder {
    solver: Solver,
    true_lit: Lit,
    /// Structural-hashing cache: (opcode, a, b) -> output literal.
    cache: std::collections::HashMap<(u8, Lit, Lit), Lit>,
}

/// Cache opcodes for structural hashing.
const OP_AND: u8 = 0;
const OP_XOR: u8 = 1;

impl GateBuilder {
    /// Creates a builder with an underlying fresh solver.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let t = solver.new_var();
        solver.add_clause(&[Lit::pos(t)]);
        Self {
            solver,
            true_lit: Lit::pos(t),
            cache: std::collections::HashMap::new(),
        }
    }

    /// The constant-true literal.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The constant-false literal.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// A literal for a boolean constant.
    pub fn constant(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// Allocates a free variable and returns its positive literal.
    pub fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// Access to the underlying solver (for solve calls and model reads).
    pub fn solver(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Immutable access to the underlying solver.
    pub fn solver_ref(&self) -> &Solver {
        &self.solver
    }

    /// Number of allocated SAT variables.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Runs bounded variable elimination on the solver
    /// ([`Solver::eliminate`]). The structural-hashing cache is dropped
    /// first: its entries may name variables about to be eliminated, and
    /// its memory is better spent on the elimination's working set. Later
    /// frames simply share no gates with the earlier ones. Returns the
    /// number of variables eliminated.
    pub fn eliminate(&mut self) -> usize {
        self.cache = std::collections::HashMap::new();
        self.solver.eliminate()
    }

    /// Adds a clause directly.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
    }

    fn is_const(&self, l: Lit) -> Option<bool> {
        if l == self.true_lit {
            Some(true)
        } else if l == !self.true_lit {
            Some(false)
        } else {
            None
        }
    }

    /// `out = a AND b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ if a == !b => self.constant(false),
            _ => {
                let key = (OP_AND, a.min(b), a.max(b));
                if let Some(&o) = self.cache.get(&key) {
                    return o;
                }
                let o = self.fresh();
                self.add_clause(&[!o, a]);
                self.add_clause(&[!o, b]);
                self.add_clause(&[o, !a, !b]);
                self.cache.insert(key, o);
                o
            }
        }
    }

    /// `out = a OR b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = !a;
        let nb = !b;
        let n = self.and(na, nb);
        !n
    }

    /// `out = a XOR b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => !b,
            (_, Some(true)) => !a,
            _ if a == b => self.constant(false),
            _ if a == !b => self.constant(true),
            _ => {
                // Normalise polarity: xor(a,b) = !xor(!a,b) etc.; cache on
                // positive forms.
                let key = (OP_XOR, a.min(b), a.max(b));
                if let Some(&o) = self.cache.get(&key) {
                    return o;
                }
                let o = self.fresh();
                self.add_clause(&[!o, a, b]);
                self.add_clause(&[!o, !a, !b]);
                self.add_clause(&[o, !a, b]);
                self.add_clause(&[o, a, !b]);
                self.cache.insert(key, o);
                o
            }
        }
    }

    /// `out = sel ? a : b`.
    pub fn mux(&mut self, sel: Lit, a: Lit, b: Lit) -> Lit {
        match self.is_const(sel) {
            Some(true) => return a,
            Some(false) => return b,
            None => {}
        }
        if a == b {
            return a;
        }
        let o = self.fresh();
        self.add_clause(&[!o, !sel, a]);
        self.add_clause(&[!o, sel, b]);
        self.add_clause(&[o, !sel, !a]);
        self.add_clause(&[o, sel, !b]);
        o
    }

    /// AND over a slice (true for empty).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.constant(true);
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// OR over a slice (false for empty).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.constant(false);
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    // ---- word-level helpers (LSB-first bit vectors) ------------------------

    /// A constant word, LSB first.
    pub fn word_const(&self, value: u64, width: u8) -> Vec<Lit> {
        (0..width)
            .map(|i| self.constant((value >> i) & 1 == 1))
            .collect()
    }

    /// A fresh (unconstrained) word.
    pub fn word_fresh(&mut self, width: u8) -> Vec<Lit> {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// Bitwise map of a binary gate over two equal-width words.
    pub fn word_bitwise(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        f: fn(&mut Self, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| f(self, x, y)).collect()
    }

    /// Ripple-carry adder (truncating). Returns the sum word.
    pub fn word_add(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = self.constant(false);
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.xor(a[i], b[i]);
            let s = self.xor(axb, carry);
            let c1 = self.and(a[i], b[i]);
            let c2 = self.and(axb, carry);
            carry = self.or(c1, c2);
            out.push(s);
        }
        out
    }

    /// Two's-complement subtraction (truncating): `a - b`.
    pub fn word_sub(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        // a + ~b + 1: seed the carry chain with 1 by adding the +1 to ~b
        // via an incrementer folded into the ripple chain.
        let mut carry = self.constant(true);
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.xor(a[i], nb[i]);
            let s = self.xor(axb, carry);
            let c1 = self.and(a[i], nb[i]);
            let c2 = self.and(axb, carry);
            carry = self.or(c1, c2);
            out.push(s);
        }
        out
    }

    /// Two's-complement negation.
    pub fn word_neg(&mut self, a: &[Lit]) -> Vec<Lit> {
        let zero = self.word_const(0, a.len() as u8);
        self.word_sub(&zero, a)
    }

    /// Truncating shift-and-add multiplier.
    pub fn word_mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let w = a.len();
        let mut acc = self.word_const(0, w as u8);
        for i in 0..w {
            // partial = (a << i) & replicate(b[i])
            let mut partial = Vec::with_capacity(w);
            for k in 0..w {
                if k < i {
                    partial.push(self.constant(false));
                } else {
                    partial.push(self.and(a[k - i], b[i]));
                }
            }
            acc = self.word_add(&acc, &partial);
        }
        acc
    }

    /// Equality comparison: 1-bit result.
    pub fn word_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let xors: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = self.xor(x, y);
                !d
            })
            .collect();
        self.and_many(&xors)
    }

    /// Unsigned less-than: 1-bit result.
    pub fn word_ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  <=>  borrow out of a - b.
        debug_assert_eq!(a.len(), b.len());
        let mut lt = self.constant(false);
        // Iterate LSB -> MSB, carrying "a[0..i] < b[0..i]".
        for i in 0..a.len() {
            let eq = {
                let d = self.xor(a[i], b[i]);
                !d
            };
            let bit_lt = {
                let na = !a[i];
                self.and(na, b[i])
            };
            let keep = self.and(eq, lt);
            lt = self.or(bit_lt, keep);
        }
        lt
    }

    /// Unsigned less-or-equal: 1-bit result.
    pub fn word_ule(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let gt = self.word_ult(b, a);
        !gt
    }

    /// Barrel shifter, logical left.
    pub fn word_shl(&mut self, a: &[Lit], amount: &[Lit]) -> Vec<Lit> {
        self.barrel(a, amount, true)
    }

    /// Barrel shifter, logical right.
    pub fn word_shr(&mut self, a: &[Lit], amount: &[Lit]) -> Vec<Lit> {
        self.barrel(a, amount, false)
    }

    fn barrel(&mut self, a: &[Lit], amount: &[Lit], left: bool) -> Vec<Lit> {
        let w = a.len();
        let stages = usize::BITS - (w - 1).leading_zeros(); // ceil(log2 w)
        let mut cur: Vec<Lit> = a.to_vec();
        for s in 0..stages as usize {
            let shift = 1usize << s;
            let sel = if s < amount.len() {
                amount[s]
            } else {
                self.constant(false)
            };
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if left {
                    if i >= shift {
                        cur[i - shift]
                    } else {
                        self.constant(false)
                    }
                } else if i + shift < w {
                    cur[i + shift]
                } else {
                    self.constant(false)
                };
                next.push(self.mux(sel, shifted, cur[i]));
            }
            cur = next;
        }
        // Any set amount bit beyond the stage range zeroes the result.
        let high_bits: Vec<Lit> = amount.iter().copied().skip(stages as usize).collect();
        if !high_bits.is_empty() {
            let over = self.or_many(&high_bits);
            let zero = self.constant(false);
            cur = cur.into_iter().map(|l| self.mux(over, zero, l)).collect();
        }
        cur
    }

    /// Word-level mux.
    pub fn word_mux(&mut self, sel: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }
}

impl Default for GateBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::SolveResult;

    /// Constrains a word to a constant value via unit assumptions and checks
    /// the expected output under solving.
    fn assert_word_fn(
        f: impl Fn(&mut GateBuilder, &[Lit], &[Lit]) -> Vec<Lit>,
        a: u64,
        b: u64,
        expect: u64,
        w: u8,
    ) {
        let mut g = GateBuilder::new();
        let wa = g.word_const(a, w);
        let wb = g.word_const(b, w);
        let out = f(&mut g, &wa, &wb);
        let expect_bits = g.word_const(expect, w);
        let eq = g.word_eq(&out, &expect_bits);
        g.add_clause(&[eq]);
        assert_eq!(
            g.solver().solve(),
            SolveResult::Sat,
            "{a} op {b} != {expect}"
        );
    }

    #[test]
    fn adder_and_subtractor() {
        assert_word_fn(|g, a, b| g.word_add(a, b), 200, 100, 44, 8);
        assert_word_fn(|g, a, b| g.word_sub(a, b), 5, 9, 252, 8);
        assert_word_fn(|g, a, b| g.word_sub(a, b), 9, 5, 4, 8);
    }

    #[test]
    fn multiplier() {
        assert_word_fn(|g, a, b| g.word_mul(a, b), 7, 9, 63, 8);
        assert_word_fn(|g, a, b| g.word_mul(a, b), 16, 16, 0, 8);
    }

    #[test]
    fn shifts() {
        let mut g = GateBuilder::new();
        let a = g.word_const(0b1001_0001, 8);
        let amt = g.word_const(2, 4);
        let l = g.word_shl(&a, &amt);
        let r = g.word_shr(&a, &amt);
        let el = g.word_const(0b0100_0100, 8);
        let er = g.word_const(0b0010_0100, 8);
        let eq1 = g.word_eq(&l, &el);
        let eq2 = g.word_eq(&r, &er);
        g.add_clause(&[eq1]);
        g.add_clause(&[eq2]);
        assert!(g.solver().solve().is_sat());
    }

    #[test]
    fn overshift_is_zero() {
        let mut g = GateBuilder::new();
        let a = g.word_const(0xff, 8);
        let amt = g.word_const(9, 4);
        let l = g.word_shl(&a, &amt);
        let zero = g.word_const(0, 8);
        let eq = g.word_eq(&l, &zero);
        g.add_clause(&[eq]);
        assert!(g.solver().solve().is_sat());
    }

    #[test]
    fn comparisons_exhaustive_small() {
        for a in 0u64..8 {
            for b in 0u64..8 {
                let mut g = GateBuilder::new();
                let wa = g.word_const(a, 3);
                let wb = g.word_const(b, 3);
                let lt = g.word_ult(&wa, &wb);
                let le = g.word_ule(&wa, &wb);
                let eq = g.word_eq(&wa, &wb);
                let want = |cond: bool, l: Lit, g: &mut GateBuilder| {
                    if cond {
                        g.add_clause(&[l]);
                    } else {
                        g.add_clause(&[!l]);
                    }
                };
                want(a < b, lt, &mut g);
                want(a <= b, le, &mut g);
                want(a == b, eq, &mut g);
                assert!(g.solver().solve().is_sat(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn mux_gate() {
        let mut g = GateBuilder::new();
        let s = g.fresh();
        let a = g.constant(true);
        let b = g.constant(false);
        let o = g.mux(s, a, b);
        // o <-> s here.
        g.add_clause(&[s]);
        g.add_clause(&[!o]);
        assert!(g.solver().solve().is_unsat());
    }
}
