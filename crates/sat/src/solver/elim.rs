//! Bounded variable elimination (SatELite; Eén & Biere, SAT 2005) with
//! frozen interface variables, and the model extension that undoes it.
//!
//! [`Solver::eliminate`] runs once, at the root, before the first learnt
//! clause exists. It resolves away every unfrozen variable whose
//! clause-by-clause resolution does not grow the database, working in
//! place so its memory stays small: binary clauses stay in their watch
//! lists, long clauses stay in the arena (removed ones leave slots that
//! later resolvents reuse, and the arena is compacted at the end), and
//! only long clauses get occurrence lists, built for one chunk of
//! candidates at a time. The clauses it removes go on an elimination
//! stack; every Sat answer
//! replays that stack backwards (MiniSat's `extendModel`), so
//! [`Solver::value`] reports a model of the original formula,
//! eliminated variables included.

use super::{ActivityHeap, ClauseRef, Solver, Watcher, HDR_WORDS, UNASSIGNED};
use crate::types::{Lit, Var};

/// Literal visits one `eliminate` call may spend on trial resolutions.
const ELIM_WORK_BUDGET: u64 = 20_000_000;
/// A variable is skipped when (positive occurrences × negative
/// occurrences) exceeds this: the resolvent count it would have to beat
/// grows with the product, the clause count it may replace only with the
/// sum.
const ELIM_MAX_OCC_PRODUCT: usize = 400;
/// A variable is kept when any of its resolvents would be longer than
/// this — long clauses propagate late and cost watch-list visits.
const ELIM_MAX_RESOLVENT_LEN: usize = 40;
/// Candidates per chunk: occurrence lists exist only for the chunk being
/// tried, which bounds elimination's working memory.
const ELIM_CHUNK: usize = 4096;
/// `Elim::slot` of a variable outside the current chunk.
const NO_SLOT: u32 = u32::MAX;

/// One clause containing the variable being eliminated.
#[derive(Clone, Copy)]
enum Occ {
    Long(ClauseRef),
    /// A binary clause, by its other literal.
    Binary(Lit),
}

/// The clauses containing one literal of the variable being eliminated,
/// each as the list of its *other* literals.
#[derive(Default)]
struct Side {
    occs: Vec<Occ>,
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl Side {
    fn len(&self) -> usize {
        self.occs.len()
    }

    /// The literals of clause `i` other than the pivot.
    fn others(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.lits[start..self.ends[i] as usize]
    }
}

/// Long-clause occurrence lists of one chunk's literals, packed into one
/// buffer: a list that outgrows its room moves to the end of the buffer
/// with twice as much. One allocation instead of one per literal keeps
/// elimination's working memory small.
#[derive(Default)]
struct OccLists {
    data: Vec<ClauseRef>,
    /// (start, len, room) per list.
    spans: Vec<(u32, u32, u32)>,
}

impl OccLists {
    /// Lists for `counts[list]` occurrences, each with some spare room.
    fn with_counts(counts: &[u32]) -> Self {
        let mut spans = Vec::with_capacity(counts.len());
        let mut start = 0u32;
        for &n in counts {
            let room = n + n / 2;
            spans.push((start, 0, room));
            start += room;
        }
        Self {
            data: vec![0; start as usize],
            spans,
        }
    }

    fn get(&self, list: usize) -> &[ClauseRef] {
        let (start, len, _) = self.spans[list];
        &self.data[start as usize..(start + len) as usize]
    }

    fn push(&mut self, list: usize, c: ClauseRef) {
        let (start, len, room) = self.spans[list];
        let start = if len < room {
            start
        } else {
            let moved = self.data.len() as u32;
            reserve_gently(&mut self.data, 2 * room.max(1) as usize);
            self.data
                .extend_from_within(start as usize..(start + len) as usize);
            self.data
                .resize(moved as usize + 2 * room.max(1) as usize, 0);
            self.spans[list].2 = 2 * room.max(1);
            moved
        };
        self.data[(start + len) as usize] = c;
        self.spans[list].0 = start;
        self.spans[list].1 = len + 1;
    }

    fn remove(&mut self, list: usize, c: ClauseRef) {
        let (start, len, _) = self.spans[list];
        let refs = &mut self.data[start as usize..(start + len) as usize];
        let at = refs
            .iter()
            .position(|&d| d == c)
            .expect("clause is in its literals' lists");
        refs.copy_within(at + 1.., at);
        self.spans[list].1 = len - 1;
    }
}

/// Working state of one `eliminate` call.
#[derive(Default)]
struct Elim {
    /// Occurrence lists of the current chunk: list `2 * slot + polarity`.
    occ: OccLists,
    /// Per variable: its index in the current chunk, or `NO_SLOT`.
    slot: Vec<u32>,
    /// Per variable: the polarity (1 or 0) in which the clause on one
    /// side of a trial resolution holds it, or `UNASSIGNED`.
    mark: Vec<i8>,
    /// Arena slots of removed long clauses, by literal count: resolvents
    /// are written into them before the arena grows.
    free: Vec<Vec<ClauseRef>>,
    pos: Side,
    neg: Side,
    resolvent: Vec<Lit>,
    /// Unit resolvents, posted at the root once elimination is done.
    units: Vec<Lit>,
    /// Variables whose occurrences the last elimination changed.
    touched: Vec<usize>,
    /// Literal visits spent so far.
    work: u64,
}

impl Elim {
    /// Gives `vars` the slots `0..` in order, or takes their slots away.
    fn set_slots(&mut self, vars: &[u32], on: bool) {
        for (i, &v) in vars.iter().enumerate() {
            self.slot[v as usize] = if on { i as u32 } else { NO_SLOT };
        }
    }

    /// The occurrence list of `l`, when its variable is in the chunk.
    fn list(&self, l: Lit) -> Option<usize> {
        let slot = self.slot[l.var().index()];
        (slot != NO_SLOT).then(|| 2 * slot as usize + l.is_pos() as usize)
    }

    fn mark(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.mark[l.var().index()] = l.is_pos() as i8;
        }
    }

    fn unmark(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.mark[l.var().index()] = UNASSIGNED;
        }
    }

    /// How many literals of `lits` a resolvent adds to the marked side,
    /// or `None` when the resolvent is a tautology.
    fn resolvent_extra(&self, lits: &[Lit]) -> Option<usize> {
        let mut extra = 0;
        for &l in lits {
            match self.mark[l.var().index()] {
                UNASSIGNED => extra += 1,
                m if (m == 1) != l.is_pos() => return None,
                _ => {} // shared literal
            }
        }
        Some(extra)
    }
}

/// Makes room for `extra` more elements in steps of an eighth of the
/// capacity instead of the default doubling, which would spike memory by
/// half a buffer for a handful of resolvents.
fn reserve_gently<T>(v: &mut Vec<T>, extra: usize) {
    if v.len() + extra > v.capacity() {
        v.reserve_exact(extra.max(v.capacity() / 8));
    }
}

impl Solver {
    /// Marks `v` as an interface variable that [`Solver::eliminate`] must
    /// keep: one that later clauses or assumptions will name.
    pub fn freeze(&mut self, v: Var) {
        self.frozen[v.index()] = true;
    }

    /// Whether [`Solver::eliminate`] resolved `v` away. An eliminated
    /// variable may not appear in later clauses or assumptions.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    /// Bounded variable elimination over the original clauses. Every
    /// variable that is unfrozen, unassigned and occurs in some clause
    /// is a candidate; candidates are tried in rounds, each ordered by
    /// occurrence product with ties broken by variable index, and a
    /// variable is eliminated only when its non-tautological resolvents
    /// are no more numerous than the clauses they replace, none is longer
    /// than `ELIM_MAX_RESOLVENT_LEN`, and the occurrence product is at
    /// most `ELIM_MAX_OCC_PRODUCT`. A round re-tries only the variables
    /// whose occurrences changed after their last trial; the whole call
    /// stops at `ELIM_WORK_BUDGET` literal visits. Deterministic: the
    /// same formula and frozen set always eliminate the same variables.
    ///
    /// Runs once per solver; later calls do nothing. Returns the number
    /// of variables eliminated by this call.
    ///
    /// # Panics
    /// Panics if learnt clauses exist: elimination must precede search.
    pub fn eliminate(&mut self) -> usize {
        if self.elim_ran {
            return 0;
        }
        self.elim_ran = true;
        assert!(
            self.learnt_refs.is_empty() && self.num_binary_learnt == 0,
            "Solver::eliminate must run before the first learnt clause"
        );
        self.backtrack(0);
        self.retained.clear();
        // Drop root-satisfied clauses and root-false literals, so every
        // literal elimination sees is unassigned.
        self.simplify();
        if !self.ok {
            return 0;
        }
        let n = self.num_vars();
        let mut el = Elim {
            slot: vec![NO_SLOT; n],
            mark: vec![UNASSIGNED; n],
            ..Default::default()
        };
        let before = self.stats.eliminated_vars;
        self.eliminate_rounds(&mut el);
        let units = std::mem::take(&mut el.units);
        drop(el);
        self.compact_arena();
        for u in units {
            match self.lit_value(u) {
                1 => {}
                0 => self.ok = false,
                _ => self.unchecked_enqueue(u, None),
            }
        }
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
        let mut heap = ActivityHeap::default();
        for v in 0..n {
            if !self.eliminated[v] && self.assigns[v] == UNASSIGNED {
                heap.insert(Var(v as u32), &self.activity);
            }
        }
        self.heap = heap;
        (self.stats.eliminated_vars - before) as usize
    }

    /// Slides the live long clauses to the front of the arena, in arena
    /// order, and remaps the watchers in place (watch order, and with it
    /// the search, is what it would be without compaction), returning the
    /// tombstones' memory. Only legal while no learnt clause exists and no
    /// reason points into the arena, as during elimination.
    fn compact_arena(&mut self) {
        let mut old = std::mem::take(&mut self.orig_refs);
        old.retain(|&c| !self.arena.is_deleted(c));
        old.sort_unstable();
        let mut moved = Vec::with_capacity(old.len());
        let mut dst = 0;
        for &c in &old {
            let (src, words) = (c as usize, HDR_WORDS + self.arena.len(c));
            self.arena.data.copy_within(src..src + words, dst);
            moved.push(dst as ClauseRef);
            dst += words;
        }
        self.arena.data.truncate(dst);
        self.arena.data.shrink_to_fit();
        self.wasted = 0;
        for ws in &mut self.watches {
            for w in ws {
                let at = old.binary_search(&w.cref).expect("watched clause is live");
                w.cref = moved[at];
            }
        }
        self.orig_refs = moved;
    }

    fn elim_candidate(&self, v: usize) -> bool {
        !self.frozen[v] && !self.eliminated[v] && self.assigns[v] == UNASSIGNED
    }

    /// Adds long clause `c` to the chunk's occurrence lists.
    fn index_long(&self, el: &mut Elim, c: ClauseRef) {
        for k in 0..self.arena.len(c) {
            if let Some(list) = el.list(self.arena.lit(c, k)) {
                el.occ.push(list, c);
            }
        }
    }

    /// Per occurrence list of the `slotted` variables holding slots: how
    /// many live long clauses contain its literal.
    fn long_counts(&self, el: &Elim, slotted: usize) -> Vec<u32> {
        let mut counts = vec![0u32; 2 * slotted];
        for &c in &self.orig_refs {
            if self.arena.is_deleted(c) {
                continue;
            }
            for k in 0..self.arena.len(c) {
                if let Some(list) = el.list(self.arena.lit(c, k)) {
                    counts[list] += 1;
                }
            }
        }
        counts
    }

    /// Gives the candidates in `chunk` slots and builds their occurrence
    /// lists.
    fn index_chunk(&self, el: &mut Elim, chunk: &[u32]) {
        el.set_slots(chunk, true);
        el.occ = OccLists::with_counts(&self.long_counts(el, chunk.len()));
        for i in 0..self.orig_refs.len() {
            let c = self.orig_refs[i];
            if !self.arena.is_deleted(c) {
                self.index_long(el, c);
            }
        }
    }

    /// The clauses containing `l`, long and binary (`l`'s variable must
    /// be in the chunk).
    fn occurrences(&self, el: &Elim, l: Lit) -> usize {
        let list = el.list(l).expect("occurrences of a chunk variable");
        el.occ.get(list).len() + self.bin_watches[l.code()].len()
    }

    fn eliminate_rounds(&mut self, el: &mut Elim) {
        let n = self.num_vars();
        // A variable is dirty when its occurrences changed since it was
        // last tried; only dirty variables are worth another round.
        let mut dirty = vec![false; n];
        let mut round: Vec<u32> = (0..n as u32)
            .filter(|&v| self.elim_candidate(v as usize))
            .collect();
        while !round.is_empty() && el.work < ELIM_WORK_BUDGET && self.ok {
            // Occurrence product first, then variable index.
            el.set_slots(&round, true);
            let counts = self.long_counts(el, round.len());
            el.set_slots(&round, false);
            let mut keyed: Vec<u64> = round
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let p = counts[2 * i + 1] as usize
                        + self.bin_watches[Lit::pos(Var(v)).code()].len();
                    let q =
                        counts[2 * i] as usize + self.bin_watches[Lit::neg(Var(v)).code()].len();
                    ((p * q).min(u32::MAX as usize) as u64) << 32 | v as u64
                })
                .collect();
            drop(counts);
            keyed.sort_unstable();
            let order: Vec<u32> = keyed.into_iter().map(|key| key as u32).collect();
            let mut next = Vec::new();
            for chunk in order.chunks(ELIM_CHUNK) {
                if el.work >= ELIM_WORK_BUDGET || !self.ok {
                    break;
                }
                self.index_chunk(el, chunk);
                for &v in chunk {
                    if el.work >= ELIM_WORK_BUDGET || !self.ok {
                        break;
                    }
                    dirty[v as usize] = false;
                    if !self.elim_candidate(v as usize) || !self.try_eliminate(el, Var(v)) {
                        continue;
                    }
                    for &u in &el.touched {
                        if !dirty[u] && self.elim_candidate(u) {
                            dirty[u] = true;
                            next.push(u as u32);
                        }
                    }
                }
                el.set_slots(chunk, false);
            }
            el.occ = OccLists::default();
            // A variable touched before its own trial this round was
            // tried on its current occurrences already.
            next.retain(|&u| dirty[u as usize]);
            next.sort_unstable();
            round = next;
        }
    }

    /// Fills `side` with the clauses containing `pivot`.
    fn gather(&self, occ: &[ClauseRef], pivot: Lit, side: &mut Side) {
        side.occs.clear();
        side.lits.clear();
        side.ends.clear();
        for &c in occ {
            side.occs.push(Occ::Long(c));
            for k in 0..self.arena.len(c) {
                let l = self.arena.lit(c, k);
                if l != pivot {
                    side.lits.push(l);
                }
            }
            side.ends.push(side.lits.len() as u32);
        }
        for w in &self.bin_watches[pivot.code()] {
            side.occs.push(Occ::Binary(w.other));
            side.lits.push(w.other);
            side.ends.push(side.lits.len() as u32);
        }
    }

    /// Eliminates `v` if its resolvents pass the bounds, leaving the
    /// variables whose occurrences changed in `el.touched`.
    fn try_eliminate(&mut self, el: &mut Elim, v: Var) -> bool {
        let (p_lit, n_lit) = (Lit::pos(v), Lit::neg(v));
        let p = self.occurrences(el, p_lit);
        let q = self.occurrences(el, n_lit);
        el.work += (p + q) as u64;
        if p + q == 0 || p * q > ELIM_MAX_OCC_PRODUCT {
            return false; // unconstrained (nothing to gain) or too dense
        }
        let mut pos = std::mem::take(&mut el.pos);
        let mut neg = std::mem::take(&mut el.neg);
        let (p_list, n_list) = (el.list(p_lit), el.list(n_lit));
        self.gather(el.occ.get(p_list.expect("chunk variable")), p_lit, &mut pos);
        self.gather(el.occ.get(n_list.expect("chunk variable")), n_lit, &mut neg);
        let ok = self.resolvents_fit(el, &pos, &neg);
        if ok {
            self.commit_elimination(el, v, &pos, &neg);
        }
        el.pos = pos;
        el.neg = neg;
        ok
    }

    /// Trial resolution, allocating nothing: are the non-tautological
    /// resolvents at most as many as the clauses, and none too long?
    fn resolvents_fit(&self, el: &mut Elim, pos: &Side, neg: &Side) -> bool {
        let limit = pos.len() + neg.len();
        let mut count = 0;
        for i in 0..pos.len() {
            let p_lits = pos.others(i);
            el.mark(p_lits);
            for j in 0..neg.len() {
                let q_lits = neg.others(j);
                el.work += (p_lits.len() + q_lits.len()) as u64;
                if let Some(extra) = el.resolvent_extra(q_lits) {
                    count += 1;
                    if p_lits.len() + extra > ELIM_MAX_RESOLVENT_LEN || count > limit {
                        el.unmark(p_lits);
                        return false;
                    }
                }
            }
            el.unmark(p_lits);
        }
        true
    }

    fn commit_elimination(&mut self, el: &mut Elim, v: Var, pos: &Side, neg: &Side) {
        // Model extension needs only one side's clauses plus a default
        // for the other: the stack is replayed backwards, so the default
        // unit (pushed last) sets `v` first and any stored clause left
        // unsatisfied flips it. The resolvents guarantee the other side
        // is then satisfied either way.
        let (stored, default) = if pos.len() > neg.len() {
            (neg, Lit::pos(v))
        } else {
            (pos, Lit::neg(v))
        };
        reserve_gently(&mut self.elim_lits, stored.lits.len() + stored.len() + 1);
        reserve_gently(&mut self.elim_ends, stored.len() + 1);
        for i in 0..stored.len() {
            self.elim_lits.push(!default);
            self.elim_lits.extend_from_slice(stored.others(i));
            self.elim_ends.push(self.elim_lits.len() as u32);
        }
        self.elim_lits.push(default);
        self.elim_ends.push(self.elim_lits.len() as u32);
        self.eliminated[v.index()] = true;
        self.stats.eliminated_vars += 1;
        el.touched.clear();
        el.touched
            .extend(pos.lits.iter().chain(&neg.lits).map(|l| l.var().index()));
        // Remove every clause of `v`.
        for (side, pivot) in [(pos, Lit::pos(v)), (neg, Lit::neg(v))] {
            for &o in &side.occs {
                match o {
                    Occ::Long(c) => {
                        let len = self.arena.len(c);
                        for k in 0..len {
                            let l = self.arena.lit(c, k);
                            if let Some(list) = el.list(l).filter(|_| l.var() != v) {
                                el.occ.remove(list, c);
                            }
                        }
                        self.remove_long(c);
                        if el.free.len() <= len {
                            el.free.resize(len + 1, Vec::new());
                        }
                        el.free[len].push(c);
                    }
                    Occ::Binary(m) => {
                        let list = &mut self.bin_watches[m.code()];
                        let at = list
                            .iter()
                            .position(|w| w.other == pivot)
                            .expect("binary clause sits in both watch lists");
                        list.remove(at);
                        self.num_binary -= 1;
                    }
                }
            }
            // Both watch lists of an eliminated literal are empty for
            // good; hand their memory back.
            self.bin_watches[pivot.code()] = Vec::new();
            self.watches[pivot.code()] = Vec::new();
        }
        // Add the resolvents.
        for i in 0..pos.len() {
            el.mark(pos.others(i));
            for j in 0..neg.len() {
                let q_lits = neg.others(j);
                if el.resolvent_extra(q_lits).is_none() {
                    continue;
                }
                let mut r = std::mem::take(&mut el.resolvent);
                r.clear();
                r.extend_from_slice(pos.others(i));
                r.extend(
                    q_lits
                        .iter()
                        .filter(|l| el.mark[l.var().index()] == UNASSIGNED),
                );
                self.stats.resolvents += 1;
                match r.len() {
                    0 => self.ok = false, // (v) and (!v) were both present
                    1 => {
                        // Posted after elimination; until then its
                        // variable must keep every clause it has.
                        self.frozen[r[0].var().index()] = true;
                        el.units.push(r[0]);
                    }
                    2 => self.attach_binary(r[0], r[1], false),
                    _ => {
                        let c = self.attach_resolvent(el, &r);
                        self.index_long(el, c);
                    }
                }
                el.resolvent = r;
            }
            el.unmark(pos.others(i));
        }
    }

    /// Attaches a long resolvent in the smallest free slot that fits,
    /// growing the arena only when none does.
    fn attach_resolvent(&mut self, el: &mut Elim, r: &[Lit]) -> ClauseRef {
        let slot = (r.len()..el.free.len()).find_map(|len| el.free[len].pop());
        let Some(c) = slot else {
            reserve_gently(&mut self.arena.data, HDR_WORDS + r.len());
            return self.attach_long(r, false, 0);
        };
        // The slot keeps its `orig_refs` entry; it is live again.
        let base = c as usize;
        self.arena.data[base] = r.len() as u32;
        self.arena.data[base + 1] = 0f32.to_bits();
        self.arena.data[base + 2] = 0;
        for (k, &l) in r.iter().enumerate() {
            self.arena.set_lit(c, k, l);
        }
        self.wasted -= HDR_WORDS + r.len();
        self.watches[r[0].code()].push(Watcher {
            cref: c,
            blocker: r[1],
        });
        self.watches[r[1].code()].push(Watcher {
            cref: c,
            blocker: r[0],
        });
        c
    }

    /// Extends the search model over eliminated variables by replaying
    /// the elimination stack backwards (see `commit_elimination`).
    pub(super) fn extend_model(&mut self) {
        let mut end = self.elim_lits.len();
        for i in (0..self.elim_ends.len()).rev() {
            let start = if i == 0 {
                0
            } else {
                self.elim_ends[i - 1] as usize
            };
            let entry = &self.elim_lits[start..end];
            end = start;
            let satisfied = entry[1..].iter().any(|&l| {
                let m = self.model[l.var().index()];
                m != UNASSIGNED && (m == 1) == l.is_pos()
            });
            if !satisfied {
                let pivot = entry[0];
                self.model[pivot.var().index()] = pivot.is_pos() as i8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SolveResult;

    fn random_cnf(num_vars: usize, clauses: usize, len: usize, seed: u64) -> Vec<Vec<Lit>> {
        let mut rng = prng::Rng::new(seed);
        (0..clauses)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        let v = Var(rng.range_usize(0, num_vars) as u32);
                        Lit::new(v, rng.flip())
                    })
                    .collect()
            })
            .collect()
    }

    fn load(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    fn satisfies(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|&l| s.lit_model(l) == Some(true)))
    }

    /// A chain of AND gates over `width` inputs: Tseitin-shaped, so most
    /// internal outputs are eliminable.
    fn and_chain(s: &mut Solver, width: usize) -> (Vec<Var>, Var, Vec<Vec<Lit>>) {
        let ins: Vec<Var> = (0..width).map(|_| s.new_var()).collect();
        let mut clauses = Vec::new();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            let o = s.new_var();
            clauses.push(vec![Lit::neg(o), Lit::pos(acc)]);
            clauses.push(vec![Lit::neg(o), Lit::pos(x)]);
            clauses.push(vec![Lit::pos(o), Lit::neg(acc), Lit::neg(x)]);
            acc = o;
        }
        for c in &clauses {
            s.add_clause(c);
        }
        (ins, acc, clauses)
    }

    #[test]
    fn eliminates_internal_gates_and_extends_the_model() {
        let mut s = Solver::new();
        let (ins, out, clauses) = and_chain(&mut s, 12);
        for &v in &ins {
            s.freeze(v);
        }
        s.freeze(out);
        let gone = s.eliminate();
        assert!(gone >= 5, "only {gone} internal gates eliminated");
        assert_eq!(s.stats().eliminated_vars, gone as u64);
        assert!(ins.iter().all(|&v| !s.is_eliminated(v)) && !s.is_eliminated(out));
        // The output forces every input; denying one is unsat.
        assert!(s.solve_assuming(&[Lit::pos(out)]).is_sat());
        assert!(satisfies(&s, &clauses), "extended model violates a gate");
        assert!(ins.iter().all(|&v| s.value(v) == Some(true)));
        assert!(s
            .solve_assuming(&[Lit::pos(out), Lit::neg(ins[7])])
            .is_unsat());
        assert!(s.solve_assuming(&[Lit::neg(out)]).is_sat());
        assert!(satisfies(&s, &clauses));
    }

    #[test]
    fn verdicts_and_models_survive_elimination_on_random_formulas() {
        for seed in 0..40u64 {
            let clauses = random_cnf(30, 110 + (seed as usize % 30), 3, 0xe11 + seed);
            let want = load(30, &clauses).solve();
            let mut s = load(30, &clauses);
            let mut rng = prng::Rng::new(seed);
            for v in 0..30 {
                if rng.range(0, 3) == 0 {
                    s.freeze(Var(v));
                }
            }
            s.eliminate();
            let got = s.solve();
            assert_eq!(got, want, "seed {seed}");
            if got == SolveResult::Sat {
                assert!(satisfies(&s, &clauses), "seed {seed}: bad extended model");
                assert!((0..30).all(|v| s.value(Var(v)).is_some()));
            }
        }
    }

    #[test]
    fn elimination_is_deterministic() {
        let clauses = random_cnf(60, 200, 3, 0xd17);
        let run = || {
            let mut s = load(60, &clauses);
            s.freeze(Var(3));
            s.eliminate();
            (0..60).map(|v| s.is_eliminated(Var(v))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn frozen_variables_stay_usable_across_incremental_queries() {
        let mut s = Solver::new();
        let (ins, out, mut clauses) = and_chain(&mut s, 10);
        for &v in ins.iter().chain([&out]) {
            s.freeze(v);
        }
        s.eliminate();
        assert!(s.solve_assuming(&[Lit::pos(out)]).is_sat());
        // New clauses over frozen variables after elimination.
        let extra = vec![Lit::neg(ins[0]), Lit::neg(ins[9])];
        s.add_clause(&extra);
        clauses.push(extra);
        assert!(s.solve_assuming(&[Lit::pos(out)]).is_unsat());
        assert!(s.solve_assuming(&[Lit::pos(ins[0])]).is_sat());
        assert!(satisfies(&s, &clauses));
        assert_eq!(s.value(ins[9]), Some(false));
    }

    #[test]
    fn unit_resolvents_are_posted_and_contradictions_found() {
        // Eliminating b leaves (a); eliminating c leaves (!a).
        let mut s = Solver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        for cl in [
            [Lit::pos(a), Lit::pos(b)],
            [Lit::pos(a), Lit::neg(b)],
            [Lit::neg(a), Lit::pos(c)],
            [Lit::neg(a), Lit::neg(c)],
        ] {
            s.add_clause(&cl);
        }
        s.eliminate();
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn chunked_elimination_keeps_verdicts_on_wide_formulas() {
        // More candidates than one chunk holds.
        let mut s = Solver::new();
        let (ins, out, clauses) = and_chain(&mut s, 3 * ELIM_CHUNK);
        s.freeze(out);
        s.freeze(ins[5]);
        assert!(s.eliminate() > ELIM_CHUNK);
        assert!(s.solve_assuming(&[Lit::pos(out)]).is_sat());
        assert!(satisfies(&s, &clauses));
        assert!(ins.iter().all(|&v| s.value(v) == Some(true)));
        assert!(s
            .solve_assuming(&[Lit::pos(out), Lit::neg(ins[5])])
            .is_unsat());
    }

    #[test]
    fn second_call_is_a_no_op() {
        let mut s = Solver::new();
        and_chain(&mut s, 8);
        assert!(s.eliminate() > 0);
        assert_eq!(s.eliminate(), 0);
    }

    #[test]
    #[should_panic(expected = "after Solver::eliminate removed it")]
    fn clause_over_an_eliminated_variable_panics() {
        let mut s = Solver::new();
        let (ins, out, _) = and_chain(&mut s, 6);
        s.freeze(ins[0]);
        s.freeze(out);
        s.eliminate();
        let gone = (0..s.num_vars() as u32)
            .map(Var)
            .find(|&v| s.is_eliminated(v))
            .expect("an internal gate was eliminated");
        s.add_clause(&[Lit::pos(ins[0]), Lit::pos(gone)]);
    }
}
