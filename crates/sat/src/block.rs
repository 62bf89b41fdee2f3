//! Recorded clause blocks: a formula fragment normalised once and
//! appended to solvers many times, each time over fresh variables
//! ([`Solver::add_block`](crate::Solver::add_block)).
//!
//! SAT-based diagnosis stacks one copy of the circuit per test under
//! shared select lines, and the copies differ only by a variable offset.
//! A [`ClauseBlock`] holds one such copy: clauses over *shared* variables
//! (those below the block's base) and over the block's own *local*
//! variables. Every clause is sorted, deduplicated and checked for
//! tautologies once, at recording time, and the block precomputes what
//! attaching its clauses would write into the clause arena and the watch
//! lists, so appending a copy is a handful of bulk copies with the local
//! literals offset.

use crate::clause::CRef;
use crate::lit::{LBool, Lit, Var};
use crate::solver::{grown_capacity, Watcher};
use std::sync::OnceLock;

/// A formula fragment recorded once for bulk appends to solvers.
///
/// Variables below [`ClauseBlock::base`] are *shared*: the block refers
/// to the solver's own variables there. The block's [`ClauseBlock::new_var`]
/// allocates *local* variables from the base up, and every
/// [`Solver::add_block`](crate::Solver::add_block) call appends them as
/// fresh variables of the solver, so recorded variable `base + i` becomes
/// the solver's `first + i` for the `first` that call returns.
///
/// # Examples
///
/// ```
/// use gatediag_sat::{ClauseBlock, SolveResult, Solver};
///
/// let mut solver = Solver::new();
/// let shared = solver.new_var();
/// // A copy: local x, with x <-> shared.
/// let mut block = ClauseBlock::new(solver.num_vars());
/// let x = block.new_var();
/// block.add_clause(&[x.negative(), shared.positive()]);
/// block.add_clause(&[x.positive(), shared.negative()]);
/// let first = solver.add_block(&block);
/// let second = solver.add_block(&block);
/// assert_eq!(second.index(), first.index() + 1);
/// solver.add_clause(&[first.positive()]);
/// assert_eq!(solver.solve(&[second.negative()]), SolveResult::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct ClauseBlock {
    base: usize,
    vars: usize,
    /// The recorded clauses as given, for the clause-by-clause path.
    raw_lits: Vec<Lit>,
    /// End offset of each recorded clause in `raw_lits`.
    raw_ends: Vec<usize>,
    /// The distinct shared variables the recorded clauses mention.
    shared_vars: Vec<Var>,
    shared_seen: Vec<bool>,
    /// `false` once a clause's effect on a solver depends on more than
    /// the block itself (see [`ClauseBlock::add_clause`]); such a block
    /// is always added clause by clause.
    stampable: bool,
    /// Per local variable: the root value an earlier unit clause of the
    /// block gave it.
    fixed: Vec<LBool>,
    /// Per local variable: whether a stored clause mentions it.
    stored: Vec<bool>,
    /// The stored clauses' arena words (header, then literal codes as
    /// recorded), and `!0` at every local literal's word.
    pub(crate) words: Vec<u32>,
    pub(crate) local_mask: Vec<u32>,
    /// Each stored clause's offset in `words`.
    pub(crate) crefs: Vec<u32>,
    /// The unit clauses, in recording order.
    units: Vec<Lit>,
    /// Every watcher attaching the stored clauses pushes, as `(list
    /// code, watcher)` in attach order, per list kind ([`BINARY`],
    /// [`LONG`]); a watcher holds its clause's offset in `words`.
    attached: [Vec<(u32, Watcher)>; 2],
    /// The watch-list images per list kind, computed on first use.
    layout: OnceLock<[WatchImage; 2]>,
    /// Reused buffer for normalising a clause.
    scratch: Vec<Lit>,
}

/// Index of the binary-clause watch lists in per-kind arrays.
pub(crate) const BINARY: usize = 0;
/// Index of the long-clause watch lists in per-kind arrays.
pub(crate) const LONG: usize = 1;

/// The watch-list image of one list kind.
#[derive(Clone, Debug, Default)]
pub(crate) struct WatchImage {
    /// Per local literal code, counted from the block's first local
    /// code: the region's offset in `slab`, its length and capacity.
    pub(crate) start: Vec<u32>,
    pub(crate) len: Vec<u32>,
    pub(crate) cap: Vec<u32>,
    /// The local literals' regions, laid out back to back with the
    /// capacity push-by-push attaching would have grown them to. Watchers
    /// hold the clause's offset in the block's arena words and the
    /// blocker as recorded.
    pub(crate) slab: Vec<Watcher>,
    /// Per shared literal code the block attaches to: `(code, from, to)`
    /// into `shared`, whose watchers are in attach order within a list.
    pub(crate) shared_lists: Vec<(u32, u32, u32)>,
    pub(crate) shared: Vec<Watcher>,
}

impl ClauseBlock {
    /// An empty block whose local variables start at `base`; variables
    /// below `base` are shared with the solvers it is added to.
    pub fn new(base: usize) -> Self {
        ClauseBlock {
            base,
            vars: 0,
            raw_lits: Vec::new(),
            raw_ends: Vec::new(),
            shared_vars: Vec::new(),
            shared_seen: Vec::new(),
            stampable: true,
            fixed: Vec::new(),
            stored: Vec::new(),
            words: Vec::new(),
            local_mask: Vec::new(),
            crefs: Vec::new(),
            units: Vec::new(),
            attached: [Vec::new(), Vec::new()],
            layout: OnceLock::new(),
            scratch: Vec::new(),
        }
    }

    /// The first local variable's index as recorded.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of local variables.
    pub fn num_vars(&self) -> usize {
        self.vars
    }

    /// Number of recorded clauses (tautologies and units included).
    pub fn num_clauses(&self) -> usize {
        self.raw_ends.len()
    }

    /// Allocates a local variable.
    pub fn new_var(&mut self) -> Var {
        self.vars += 1;
        self.fixed.push(LBool::Undef);
        self.stored.push(false);
        Var::from_index(self.base + self.vars - 1)
    }

    /// Records a clause over shared and local variables.
    ///
    /// The clause is normalised as [`Solver::add_clause`](crate::Solver::add_clause)
    /// would normalise it in a solver where no shared variable is
    /// assigned: sorted, deduplicated, dropped if a tautology or
    /// satisfied by an earlier unit of the block, with literals an
    /// earlier unit falsified removed. A clause that normalises to a
    /// single literal is a *unit*: appending the block adds it through
    /// `add_clause` after the stored clauses. That is exact only while
    /// the unit's propagation reaches no other clause, so a unit over a
    /// shared variable, or over a local one a stored clause already
    /// mentions, or a clause that normalises to nothing marks the block
    /// for clause-by-clause appends.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable is neither shared nor allocated by
    /// this block.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.layout = OnceLock::new();
        let end = self.base + self.vars;
        for &lit in lits {
            let v = lit.var().index();
            assert!(v < end, "literal {lit:?} outside the block's variables");
            if v < self.base {
                if self.shared_seen.len() <= v {
                    self.shared_seen.resize(v + 1, false);
                }
                if !self.shared_seen[v] {
                    self.shared_seen[v] = true;
                    self.shared_vars.push(lit.var());
                }
            }
        }
        self.raw_lits.extend_from_slice(lits);
        self.raw_ends.push(self.raw_lits.len());

        let mut clause = std::mem::take(&mut self.scratch);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable();
        clause.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        let mut prev: Option<Lit> = None;
        for i in 0..clause.len() {
            let lit = clause[i];
            // A tautology, or satisfied by an earlier unit.
            if prev == Some(!lit) || self.root_value(lit) == LBool::True {
                satisfied = true;
                break;
            }
            if self.root_value(lit) == LBool::Undef {
                clause[kept] = lit;
                kept += 1;
            }
            prev = Some(lit);
        }
        clause.truncate(kept);
        if !satisfied {
            self.normalised(&clause);
        }
        self.scratch = clause;
    }

    /// Files a normalised, unsatisfied clause: stored, a unit, or (when
    /// empty) the end of stamping.
    fn normalised(&mut self, clause: &[Lit]) {
        match clause.len() {
            0 => self.stampable = false,
            1 => {
                let unit = clause[0];
                match self.local(unit) {
                    Some(i) if !self.stored[i] => {
                        self.fixed[i] = LBool::from_bool(unit.is_positive());
                        self.units.push(unit);
                    }
                    _ => self.stampable = false,
                }
            }
            _ => self.store(clause),
        }
    }

    /// The index of `lit`'s variable among the local variables, if local.
    fn local(&self, lit: Lit) -> Option<usize> {
        lit.var().index().checked_sub(self.base)
    }

    /// `lit`'s value at the root of a solver the block was just appended
    /// to, before its units: only the block's own units assign anything.
    fn root_value(&self, lit: Lit) -> LBool {
        match self.local(lit) {
            Some(i) => self.fixed[i].under(lit),
            None => LBool::Undef,
        }
    }

    /// Appends a normalised clause of two or more literals to the arena
    /// image and records its two watchers, as `ClauseDb::alloc` and
    /// `Solver::attach` would.
    fn store(&mut self, clause: &[Lit]) {
        let cref = self.words.len() as u32;
        self.crefs.push(cref);
        self.words.push((clause.len() as u32) << 2);
        self.local_mask.push(0);
        for &lit in clause {
            self.words.push(lit.code() as u32);
            let local = self.local(lit);
            self.local_mask.push(if local.is_some() { !0 } else { 0 });
            if let Some(i) = local {
                self.stored[i] = true;
            }
        }
        let kind = if clause.len() == 2 { BINARY } else { LONG };
        let (l0, l1) = (clause[0], clause[1]);
        for (watched, blocker) in [(l0, l1), (l1, l0)] {
            let watcher = Watcher {
                cref: CRef::at(cref),
                blocker,
            };
            self.attached[kind].push(((!watched).code() as u32, watcher));
        }
    }

    /// `true` if the block may be stamped (see [`ClauseBlock::add_clause`]).
    pub(crate) fn stampable(&self) -> bool {
        self.stampable
    }

    /// The shared variables the recorded clauses mention.
    pub(crate) fn shared_vars(&self) -> &[Var] {
        &self.shared_vars
    }

    /// The unit clauses, in recording order.
    pub(crate) fn units(&self) -> &[Lit] {
        &self.units
    }

    /// The recorded clauses as given.
    pub(crate) fn raw_clauses(&self) -> impl Iterator<Item = &[Lit]> {
        let starts = std::iter::once(0).chain(self.raw_ends.iter().copied());
        starts
            .zip(&self.raw_ends)
            .map(|(start, &end)| &self.raw_lits[start..end])
    }

    /// `lit` with a local variable moved by `shift` variables.
    #[inline]
    pub(crate) fn shifted(&self, lit: Lit, shift: usize) -> Lit {
        if lit.var().index() >= self.base {
            Lit::from_code(lit.code() + 2 * shift)
        } else {
            lit
        }
    }

    /// The watch-list images per list kind ([`BINARY`], [`LONG`]),
    /// computed once per recorded block.
    pub(crate) fn layout(&self) -> &[WatchImage; 2] {
        self.layout
            .get_or_init(|| [self.image(BINARY), self.image(LONG)])
    }

    fn image(&self, kind: usize) -> WatchImage {
        let attached = &self.attached[kind];
        let first_code = 2 * self.base;
        let codes = 2 * self.vars;
        // Watcher counts per local code, and per shared code below it.
        let mut len = vec![0u32; codes];
        let mut shared_fill = vec![0u32; first_code];
        for &(code, _) in attached {
            match (code as usize).checked_sub(first_code) {
                Some(c) => len[c] += 1,
                None => shared_fill[code as usize] += 1,
            }
        }
        let mut start = Vec::with_capacity(codes);
        let mut cap = Vec::with_capacity(codes);
        let mut offset = 0;
        for &count in &len {
            start.push(offset);
            cap.push(grown_capacity(0, count));
            offset += cap[cap.len() - 1];
        }
        // The shared lists in code order; `shared_fill` turns from counts
        // into each list's next free slot.
        let mut shared_lists = Vec::new();
        let mut from = 0;
        for (code, fill) in shared_fill.iter_mut().enumerate() {
            if *fill > 0 {
                shared_lists.push((code as u32, from, from + *fill));
                (*fill, from) = (from, from + *fill);
            }
        }
        let mut slab = vec![Watcher::DUMMY; offset as usize];
        let mut shared = vec![Watcher::DUMMY; from as usize];
        let mut fill = start.clone();
        for &(code, watcher) in attached {
            match (code as usize).checked_sub(first_code) {
                Some(c) => {
                    slab[fill[c] as usize] = watcher;
                    fill[c] += 1;
                }
                None => {
                    let at = &mut shared_fill[code as usize];
                    shared[*at as usize] = watcher;
                    *at += 1;
                }
            }
        }
        WatchImage {
            start,
            len,
            cap,
            slab,
            shared_lists,
            shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};
    use rand::{Rng, SeedableRng};

    /// A random block over `shared` shared and `locals` local variables:
    /// clauses of two to four literals drawn with repetition, so some
    /// deduplicate and some are tautologies, and a few units.
    fn random_block(
        rng: &mut rand_chacha::ChaCha8Rng,
        shared: usize,
        locals: usize,
    ) -> ClauseBlock {
        let mut block = ClauseBlock::new(shared);
        for _ in 0..locals {
            block.new_var();
        }
        for _ in 0..rng.gen_range(1..40) {
            let len = if rng.gen_bool(0.05) {
                1
            } else {
                rng.gen_range(2..5)
            };
            let clause: Vec<Lit> = (0..len)
                .map(|_| {
                    let v = if rng.gen_bool(0.2) {
                        rng.gen_range(0..shared)
                    } else {
                        shared + rng.gen_range(0..locals)
                    };
                    Var::from_index(v).lit(rng.gen_bool(0.5))
                })
                .collect();
            block.add_clause(&clause);
        }
        block
    }

    /// `block` appended to `solver` clause by clause.
    fn add_directly(solver: &mut Solver, block: &ClauseBlock) {
        let first = solver.new_vars(block.num_vars());
        let shift = first.index() - block.base();
        for clause in block.raw_clauses() {
            let shifted: Vec<Lit> = clause.iter().map(|&l| block.shifted(l, shift)).collect();
            solver.add_clause(&shifted);
        }
    }

    #[test]
    fn stamps_match_clause_by_clause_appends() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let (mut stamped_blocks, mut fallbacks) = (0, 0);
        for _ in 0..300 {
            let shared = rng.gen_range(1..5);
            let locals = rng.gen_range(1..12);
            let block = random_block(&mut rng, shared, locals);
            if block.stampable() {
                stamped_blocks += 1;
            }
            let (mut direct, mut stamped) = (Solver::new(), Solver::new());
            for solver in [&mut direct, &mut stamped] {
                solver.new_vars(shared);
            }
            if rng.gen_bool(0.5) {
                stamped.reserve_blocks(&block, 3);
            }
            for _ in 0..rng.gen_range(1..4) {
                add_directly(&mut direct, &block);
                let first = stamped.add_block(&block);
                assert_eq!(first.index() + block.num_vars(), direct.num_vars());
                // A root unit between copies: on a shared variable it
                // sends the next copies down the clause-by-clause path.
                if rng.gen_bool(0.3) {
                    let v = rng.gen_range(0..direct.num_vars());
                    let unit = [Var::from_index(v).lit(rng.gen_bool(0.5))];
                    if v < shared {
                        fallbacks += 1;
                    }
                    direct.add_clause(&unit);
                    stamped.add_clause(&unit);
                }
                assert_eq!(direct.state_digest(), stamped.state_digest());
            }
            let result = direct.solve(&[]);
            assert_eq!(result, stamped.solve(&[]));
            if result == SolveResult::Sat {
                for v in 0..direct.num_vars() {
                    let lit = Var::from_index(v).positive();
                    assert_eq!(direct.model_value(lit), stamped.model_value(lit));
                }
            }
            assert_eq!(direct.state_digest(), stamped.state_digest());
        }
        assert!(
            stamped_blocks > 50 && fallbacks > 10,
            "{stamped_blocks} stampable blocks, {fallbacks} fallbacks"
        );
    }

    #[test]
    fn units_that_could_propagate_mark_the_block() {
        let mut block = ClauseBlock::new(1);
        let (s, x, y) = (Var::from_index(0), block.new_var(), block.new_var());
        block.add_clause(&[x.positive(), s.positive()]);
        block.add_clause(&[y.negative(), y.negative()]);
        assert!(block.stampable(), "y is in no stored clause");
        // y is false now, so this normalises to the unit !x.
        block.add_clause(&[y.positive(), x.negative()]);
        assert!(!block.stampable(), "x is in a stored clause");
        let mut shared_unit = ClauseBlock::new(1);
        shared_unit.add_clause(&[s.negative()]);
        assert!(!shared_unit.stampable());
    }
}
