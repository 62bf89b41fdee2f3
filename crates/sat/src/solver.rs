//! The CDCL solver: watched-literal propagation, 1UIP learning, VSIDS,
//! phase saving, Luby restarts, learnt-clause reduction and incremental
//! solving under assumptions.
//!
//! # Exactness contract
//!
//! The search this solver performs is part of the crate's observable
//! behaviour, not an implementation detail: campaign records carry every
//! [`SolverStats`] field per instance, served responses carry the
//! conflict count, and truncated model enumerations report whichever
//! models the search meets first. Optimisations of this file must
//! therefore keep every `solve()` bit-identical — result, model,
//! [`Solver::failed_assumptions`] and all statistics. That pins, among
//! other things, the literal order inside stored clauses (watch swaps,
//! the binary `lits[0]` normalisation), the VSIDS heap's tie-breaking,
//! the order of backtracking re-inserts and the learnt-clause ranking. A
//! heuristic change (phases, restarts, clause-database policy) is a
//! behaviour change and needs a deliberate re-pin of everything that
//! depends on it.

use crate::block::{ClauseBlock, WatchImage, BINARY, LONG};
use crate::clause::{CRef, ClauseDb};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::model_value`]).
    Sat,
    /// The instance is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// Aggregate search statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database — a gauge, not a
    /// counter: [`Solver::stats`] reads it off the database, so it falls
    /// when a reduction removes clauses (see `removed_clauses`). Learnt
    /// units are enqueued at the root instead of stored and never count.
    pub learnt_clauses: u64,
    /// Learnt clauses removed by database reductions.
    pub removed_clauses: u64,
    /// Clause-arena garbage collections performed (arena rebuild + watch
    /// list compaction after reductions waste enough space).
    pub gc_runs: u64,
}

impl SolverStats {
    /// Adds `other`'s counters into `self` — for aggregating the search
    /// cost over several solvers (per-test validity engines, per-branch
    /// cover solvers). All fields sum, including the `learnt_clauses`
    /// gauge, which in an aggregate reads as "learnt clauses held across
    /// all solvers".
    pub fn absorb(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.removed_clauses += other.removed_clauses;
        self.gc_runs += other.gc_runs;
    }

    /// Charges the delta from `before` to `self` to the observability
    /// layer's deterministic `sat.*` counters — called once per `solve()`
    /// so the search loop itself carries no instrumentation.
    fn charge_solve(&self, before: &SolverStats) {
        gatediag_obs::count("sat.solves", 1);
        gatediag_obs::count("sat.conflicts", self.conflicts - before.conflicts);
        gatediag_obs::count("sat.decisions", self.decisions - before.decisions);
        gatediag_obs::count("sat.propagations", self.propagations - before.propagations);
        gatediag_obs::count("sat.restarts", self.restarts - before.restarts);
        gatediag_obs::count(
            "sat.removed_clauses",
            self.removed_clauses - before.removed_clauses,
        );
        gatediag_obs::count("sat.gc_runs", self.gc_runs - before.gc_runs);
    }
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct Watcher {
    pub(crate) cref: CRef,
    pub(crate) blocker: Lit,
}

impl Watcher {
    /// Filler for unused capacity slots in [`WatchLists`].
    pub(crate) const DUMMY: Watcher = Watcher {
        cref: CRef::UNDEF,
        blocker: Lit::from_code(0),
    };
}

/// The capacity a watch region of capacity `cap` grows to when watchers
/// are pushed onto it one by one until it holds `count`: doubling, from
/// at least 4.
pub(crate) fn grown_capacity(mut cap: u32, count: u32) -> u32 {
    while cap < count {
        cap = (cap * 2).max(4);
    }
    cap
}

/// CSR-style flat watcher lists: one contiguous `Watcher` buffer with a
/// per-literal `(start, len, cap)` region, so propagation scans one
/// contiguous slice per literal instead of chasing a per-literal heap
/// allocation.
///
/// A region that outgrows its capacity is relocated to the end of the
/// buffer with doubled capacity (amortised O(1) push, like `Vec`); the
/// abandoned slots are tracked in `wasted` and reclaimed when the solver
/// rebuilds the lists during clause-arena garbage collection
/// ([`WatchLists::rebuild_exact`] lays the regions back out tightly in
/// literal order). Relocation never moves *other* regions and the buffer
/// never shrinks between rebuilds, so propagation may push watchers onto
/// other literals' lists mid-scan while holding only `(start, len)`
/// indices into its own region.
#[derive(Clone, Debug, Default)]
struct WatchLists {
    buf: Vec<Watcher>,
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    wasted: usize,
}

impl WatchLists {
    /// Registers `n` more literal codes (empty regions, grown on first
    /// push).
    fn add_literals(&mut self, n: usize) {
        let codes = self.start.len() + n;
        self.start.resize(codes, 0);
        self.len.resize(codes, 0);
        self.cap.resize(codes, 0);
    }

    #[inline]
    fn region(&self, code: usize) -> (usize, usize) {
        (self.start[code] as usize, self.len[code] as usize)
    }

    /// Truncates `code`'s region to its first `len` watchers.
    #[inline]
    fn set_len(&mut self, code: usize, len: usize) {
        self.len[code] = len as u32;
    }

    /// Appends a watcher to `code`'s region, relocating it if full.
    #[inline]
    fn push(&mut self, code: usize, w: Watcher) {
        if self.len[code] == self.cap[code] {
            self.grow(code);
        }
        let at = (self.start[code] + self.len[code]) as usize;
        self.buf[at] = w;
        self.len[code] += 1;
    }

    /// Relocates `code`'s region to the end of the buffer with doubled
    /// capacity, abandoning the old slots until the next rebuild.
    #[cold]
    fn grow(&mut self, code: usize) {
        self.relocate(code, grown_capacity(self.cap[code], self.cap[code] + 1));
    }

    /// Relocates `code`'s region to the end of the buffer with capacity
    /// `new_cap`, abandoning the old slots until the next rebuild.
    fn relocate(&mut self, code: usize, new_cap: u32) {
        let (s, l) = self.region(code);
        let new_start = self.buf.len();
        self.buf.extend_from_within(s..s + l);
        self.buf
            .resize(new_start + new_cap as usize, Watcher::DUMMY);
        self.wasted += self.cap[code] as usize;
        self.start[code] = new_start as u32;
        self.cap[code] = new_cap;
    }

    /// Removes every watcher of `cref` from `code`'s region.
    fn remove(&mut self, code: usize, cref: CRef) {
        let (s, l) = self.region(code);
        let region = &mut self.buf[s..s + l];
        let mut keep = 0usize;
        for i in 0..l {
            if region[i].cref != cref {
                region[keep] = region[i];
                keep += 1;
            }
        }
        self.set_len(code, keep);
    }

    /// Lays the lists back out tightly: region `code` gets exactly
    /// `counts[code]` slots at consecutive offsets, all lengths zeroed for
    /// re-attachment. Reclaims all waste (the GC compaction step).
    fn rebuild_exact(&mut self, counts: &[u32]) {
        debug_assert_eq!(counts.len(), self.start.len());
        let mut offset = 0u32;
        for (code, &count) in counts.iter().enumerate() {
            self.start[code] = offset;
            self.len[code] = 0;
            self.cap[code] = count;
            offset += count;
        }
        self.buf.clear();
        self.buf.resize(offset as usize, Watcher::DUMMY);
        self.wasted = 0;
    }

    /// Appends a [`ClauseBlock`]'s watchers of one list kind: the local
    /// literals' regions (codes from `first_code` on, all empty so far)
    /// become one slab at the end of the buffer, laid out as `image`
    /// says, and each shared list grows once to fit its new watchers and
    /// receives them in attach order. Watcher clause offsets move by
    /// `arena_base`, and blockers from code `local_from` up (the block's
    /// local literals) by `delta` codes.
    fn stamp(
        &mut self,
        first_code: usize,
        image: &WatchImage,
        arena_base: u32,
        local_from: usize,
        delta: usize,
    ) {
        // Unused capacity slots hold `Watcher::DUMMY`, whose `UNDEF`
        // reference wraps to another meaningless value.
        let stamped = |w: &Watcher| {
            let code = w.blocker.code();
            Watcher {
                cref: CRef::at(arena_base.wrapping_add(w.cref.offset())),
                blocker: Lit::from_code(code + if code >= local_from { delta } else { 0 }),
            }
        };
        let slab_base = self.buf.len() as u32;
        let codes = first_code..first_code + image.start.len();
        for (start, &offset) in self.start[codes.clone()].iter_mut().zip(&image.start) {
            *start = slab_base + offset;
        }
        self.len[codes.clone()].copy_from_slice(&image.len);
        self.cap[codes].copy_from_slice(&image.cap);
        self.buf.extend(image.slab.iter().map(stamped));
        for &(code, from, to) in &image.shared_lists {
            let code = code as usize;
            let needed = self.len[code] + (to - from);
            if needed > self.cap[code] {
                self.relocate(code, grown_capacity(self.cap[code], needed));
            }
            let at = (self.start[code] + self.len[code]) as usize;
            let watchers = &image.shared[from as usize..to as usize];
            for (slot, w) in self.buf[at..at + watchers.len()].iter_mut().zip(watchers) {
                *slot = stamped(w);
            }
            self.len[code] = needed;
        }
    }

    /// Reserves room for `codes` more literal codes and `watchers` more
    /// buffer slots, and grows each shared list of `image` once to hold
    /// `copies` more stamps of it.
    fn reserve_stamps(&mut self, codes: usize, watchers: usize, image: &WatchImage, copies: u32) {
        self.start.reserve(codes);
        self.len.reserve(codes);
        self.cap.reserve(codes);
        self.buf.reserve(watchers);
        for &(code, from, to) in &image.shared_lists {
            let code = code as usize;
            let needed = self.len[code] + copies * (to - from);
            if needed > self.cap[code] {
                self.relocate(code, grown_capacity(self.cap[code], needed));
            }
        }
    }

    /// Feeds every region's watchers, in order, to `hasher` — the lists'
    /// content, not their layout in the buffer.
    fn hash_content<H: std::hash::Hasher>(&self, hasher: &mut H) {
        for code in 0..self.start.len() {
            let (s, l) = self.region(code);
            hasher.write_usize(l);
            for w in &self.buf[s..s + l] {
                hasher.write_u32(w.cref.offset());
                hasher.write_usize(w.blocker.code());
            }
        }
    }
}

/// How often the cooperative deadline polls the wall clock: once per this
/// many conflicts (plus once at solve entry). See [`Solver::set_deadline`].
const DEADLINE_CHECK_MASK: u64 = 0x3F;

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;

/// Why and where a variable was assigned. Meaningful only while the
/// variable is assigned (see [`Solver::cancel_until`]); kept together
/// because assignment writes both and conflict analysis reads both.
#[derive(Copy, Clone, Debug)]
struct VarData {
    /// The clause that implied the variable; `UNDEF` for decisions,
    /// assumptions and root units.
    reason: CRef,
    /// The decision level of the assignment.
    level: u32,
}

/// Assigns `lit` true at decision level `level` with `reason`: both
/// polarities' entries of the value table, the variable's [`VarData`]
/// and the trail. Shared by [`Solver::unchecked_enqueue`] and the
/// propagation loop, which holds split borrows of the solver.
#[inline(always)]
fn assign(
    vals: &mut [LBool],
    vardata: &mut [VarData],
    trail: &mut Vec<Lit>,
    lit: Lit,
    reason: CRef,
    level: u32,
) {
    debug_assert_eq!(vals[lit.code()], LBool::Undef);
    vals[lit.code()] = LBool::True;
    vals[(!lit).code()] = LBool::False;
    vardata[lit.var().index()] = VarData { reason, level };
    trail.push(lit);
}

/// The value of a literal stored in a watcher or in the clause arena.
///
/// Every stored literal went through [`Solver::add_clause`]'s checked
/// value lookup, or was copied from one that did (learnt clauses are
/// built from stored literals), so its code indexes inside the table.
#[inline(always)]
fn stored_value(vals: &[LBool], lit: Lit) -> LBool {
    debug_assert!(lit.code() < vals.len());
    // SAFETY: stored literals index inside the table, see above.
    unsafe { *vals.get_unchecked(lit.code()) }
}

/// How many trail entries ahead of the one being scanned
/// [`Solver::propagate`] prefetches watch regions. Enough to hide a cache
/// miss behind the scans in between, few enough that the target is
/// usually already on the trail.
const PREFETCH_AHEAD: usize = 3;

/// Hints the CPU to load the cache line holding `slice[at]`. A prefetch
/// never faults and changes no visible state, so any `at` is fine (an
/// empty region's start may lie at or past the end); on targets without
/// the intrinsic it does nothing.
#[inline(always)]
fn prefetch<T>(slice: &[T], at: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint with no architectural effect and
    // cannot fault on any address; `wrapping_add` forms the address
    // without asserting it is in bounds. SSE is baseline on x86_64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(slice.as_ptr().wrapping_add(at).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, at);
}

/// An incremental CDCL SAT solver.
///
/// The feature set mirrors what the paper's diagnosis engines need from
/// Zchaff: clause addition between solves (blocking clauses), solving under
/// assumptions (incremental cardinality bounds), and model extraction
/// (candidate sets from select lines).
///
/// # Examples
///
/// ```
/// use gatediag_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(&[a.positive(), b.positive()]);
/// solver.add_clause(&[a.negative()]);
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// assert_eq!(solver.model_value(b.positive()), Some(true));
/// // Incremental: keep solving with extra constraints.
/// solver.add_clause(&[b.negative()]);
/// assert_eq!(solver.solve(&[]), SolveResult::Unsat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Solver {
    db: ClauseDb,
    clauses: Vec<CRef>,
    learnts: Vec<CRef>,
    /// Flat CSR watch lists for clauses of three or more literals.
    watches: WatchLists,
    /// Flat CSR watch lists for binary clauses; the watcher's `blocker` is
    /// the *other* literal, so propagation needs no clause-arena access on
    /// the scan (only on enqueue, to normalise `lits[0]`).
    bin_watches: WatchLists,
    /// The current assignment as a per-*literal* value table indexed by
    /// [`Lit::code`]: assigning or unassigning a variable writes both of
    /// its entries, so reading a literal's value is one load with no
    /// polarity branch. A variable's own value is its positive entry.
    vals: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    vardata: Vec<VarData>,
    seen: Vec<bool>,
    ok: bool,
    model: Vec<LBool>,
    failed_assumptions: Vec<Lit>,
    stats: SolverStats,
    max_learnts: f64,
    conflict_budget: Option<u64>,
    deadline: Option<std::time::Instant>,
    deadline_hit: bool,
    /// Scratch for [`Solver::add_clause`] (sort, dedup, filter).
    clause_buf: Vec<Lit>,
    /// Scratch for [`Solver::analyze`]: the clause being learnt.
    learnt: Vec<Lit>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnts: 0.0,
            ..Solver::default()
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.new_vars(1)
    }

    /// Creates `n` fresh variables in one step, in the state `n` calls of
    /// [`Solver::new_var`] leave, and returns the first (the others
    /// follow it consecutively).
    pub fn new_vars(&mut self, n: usize) -> Var {
        let first = self.num_vars();
        let total = first + n;
        self.vals.resize(2 * total, LBool::Undef);
        self.polarity.resize(total, false);
        self.activity.resize(total, 0.0);
        self.vardata.resize(
            total,
            VarData {
                reason: CRef::UNDEF,
                level: 0,
            },
        );
        self.seen.resize(total, false);
        self.watches.add_literals(2 * n);
        self.bin_watches.add_literals(2 * n);
        self.order.grow(total);
        for index in first..total {
            self.order.insert(Var::from_index(index), 0.0);
        }
        Var::from_index(first)
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.activity.len()
    }

    /// Number of problem (non-learnt) clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Search statistics so far. `learnt_clauses` is the current size of
    /// the learnt-clause database.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            learnt_clauses: self.learnts.len() as u64,
            ..self.stats
        }
    }

    /// Limits the next [`Solver::solve`] call to roughly `budget` conflicts;
    /// `None` removes the limit. Exceeding the budget yields
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs a wall-clock deadline for subsequent [`Solver::solve`]
    /// calls; `None` removes it. The clock is polled only at conflict
    /// boundaries (every 64 conflicts, `DEADLINE_CHECK_MASK`) plus once
    /// at solve entry, so the deadline is cooperative and coarse. Exceeding
    /// it yields [`SolveResult::Unknown`], distinguishable from a conflict
    /// budget stop via [`Solver::deadline_hit`].
    ///
    /// A deadline makes results *time-dependent* — use it only in flows
    /// (like campaign preemption) that quarantine nondeterminism.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// `true` when the most recent [`Solver::solve`] call returned
    /// [`SolveResult::Unknown`] because the deadline passed (rather than
    /// because the conflict budget ran out).
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit
    }

    /// Sets the saved phase of `var`, biasing future decisions.
    ///
    /// The hybrid diagnosis flow (paper Sec. 6) seeds these from
    /// simulation results.
    pub fn set_polarity(&mut self, var: Var, phase: bool) {
        self.polarity[var.index()] = phase;
    }

    /// Additively bumps `var`'s VSIDS activity, biasing future decisions.
    ///
    /// The hybrid diagnosis flow seeds these from path-tracing mark counts.
    pub fn bump_variable(&mut self, var: Var, amount: f64) {
        self.activity[var.index()] += amount * self.var_inc;
        if self.activity[var.index()] > RESCALE_LIMIT {
            self.rescale_var_activity();
        }
        self.order.update(var, self.activity[var.index()]);
    }

    /// Current assignment of a literal (during/after search).
    #[inline]
    fn value(&self, lit: Lit) -> LBool {
        self.vals[lit.code()]
    }

    /// The model value of `lit` after a [`SolveResult::Sat`] outcome.
    ///
    /// Returns `None` if no model is stored or the variable was never
    /// assigned in it.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model
            .get(lit.var().index())
            .and_then(|v| v.under(lit).to_bool())
    }

    /// `true` once the clause set has been proven unsatisfiable outright
    /// (no assumptions involved).
    pub fn is_inconsistent(&self) -> bool {
        !self.ok
    }

    /// After an [`SolveResult::Unsat`] outcome caused by assumptions, the
    /// subset of assumption literals that jointly conflict with the clause
    /// set (an unsat "core" over the assumptions; not necessarily
    /// minimal). Empty when the clause set itself is inconsistent.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// MiniSat-style `analyzeFinal`: collect the assumptions responsible
    /// for the falsified assumption literal `p` into
    /// `failed_assumptions`.
    fn analyze_final(&mut self, p: Lit) {
        self.failed_assumptions.clear();
        self.failed_assumptions.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var();
            if !self.seen[v.index()] {
                continue;
            }
            let reason = self.vardata[v.index()].reason;
            if reason.is_defined() {
                for &q in &self.db.lits(reason)[1..] {
                    if self.vardata[q.var().index()].level > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            } else {
                // An assumption pseudo-decision contributing to the
                // conflict. At this point every pseudo-decision on the
                // trail is one of the given assumptions, so the trail
                // literal is the assumption in given form.
                self.failed_assumptions.push(x);
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause; returns `false` if the solver became inconsistent.
    ///
    /// May be called between [`Solver::solve`] invocations (the solver is at
    /// decision level 0 then). Duplicate literals are removed, tautologies
    /// dropped, root-level falsified literals stripped.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "add_clause only at root");
        if !self.ok {
            return false;
        }
        // Sort, dedup and filter in a reused buffer.
        let mut clause = std::mem::take(&mut self.clause_buf);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable();
        clause.dedup();
        let mut kept = 0usize;
        let mut satisfied = false;
        let mut prev: Option<Lit> = None;
        for i in 0..clause.len() {
            let lit = clause[i];
            if prev == Some(!lit) {
                satisfied = true; // tautology
                break;
            }
            match self.value(lit) {
                LBool::True => {
                    satisfied = true; // already satisfied at root
                    break;
                }
                LBool::False => {} // drop falsified literal
                LBool::Undef => {
                    clause[kept] = lit;
                    kept += 1;
                }
            }
            prev = Some(lit);
        }
        clause.truncate(kept);
        let consistent = if satisfied {
            true
        } else {
            match kept {
                0 => {
                    self.ok = false;
                    false
                }
                1 => {
                    self.unchecked_enqueue(clause[0], CRef::UNDEF);
                    self.ok = self.propagate().is_none();
                    self.ok
                }
                _ => {
                    let cref = self.db.alloc(&clause, false);
                    self.clauses.push(cref);
                    self.attach(cref);
                    true
                }
            }
        };
        self.clause_buf = clause;
        consistent
    }

    /// Appends a copy of `block` over fresh variables and returns the
    /// first: the block's recorded variable `block.base() + i` becomes
    /// the returned index plus `i`, and shared variables stay as they are.
    ///
    /// The solver ends in exactly the state that creating the block's
    /// variables and then adding its recorded clauses one by one through
    /// [`Solver::add_clause`] leaves:
    ///
    /// - The variables are created as by [`Solver::new_vars`].
    /// - Every stored clause was normalised at recording time as
    ///   `add_clause` normalises it here. Sorting, deduplication and
    ///   tautology checks commute with the offset (shared codes stay
    ///   below every local code, and local codes move together), and
    ///   the root values `add_clause` would consult are those recording
    ///   assumed: no shared variable is assigned (checked below), and a
    ///   fresh local variable is assigned only by the block's own units.
    /// - The arena words are appended in clause order with the local
    ///   literals offset, so each clause gets the `CRef` that `alloc`
    ///   would give it, and `clauses` lists them in the same order.
    /// - Every watch list gets the watchers `attach` would push, in
    ///   attach order: a local literal's list is empty before the block
    ///   and holds only the block's watchers; a shared literal's list
    ///   keeps its watchers and receives the block's after them. Only the
    ///   lists' capacity and place in the buffer may differ, which no
    ///   search reads.
    /// - Nothing propagates while the clauses are stored. The units then
    ///   go through `add_clause` in recording order. A unit's variable is
    ///   local and mentioned by no stored clause (recording checks it),
    ///   so its propagation visits empty watch lists, as it would have at
    ///   the unit's own position in the stream; the propagation count
    ///   and the trail come out the same.
    ///
    /// When that argument does not apply — the solver is inconsistent, a
    /// shared variable of the block is assigned at the root (an earlier
    /// copy's constraints may force one), or the block cannot be stamped
    /// at all — the recorded clauses go through `add_clause` one by one,
    /// which is exact by definition.
    ///
    /// # Panics
    ///
    /// Panics if the solver has fewer than `block.base()` variables.
    pub fn add_block(&mut self, block: &ClauseBlock) -> Var {
        debug_assert_eq!(self.decision_level(), 0, "add_block only at root");
        let first = self.new_vars(block.num_vars());
        let shift = first
            .index()
            .checked_sub(block.base())
            .expect("the solver holds the block's shared variables");
        let stampable = block.stampable()
            && self.ok
            && block
                .shared_vars()
                .iter()
                .all(|v| self.vals[v.positive().code()] == LBool::Undef);
        if !stampable {
            let mut clause = Vec::new();
            for recorded in block.raw_clauses() {
                clause.clear();
                clause.extend(recorded.iter().map(|&l| block.shifted(l, shift)));
                self.add_clause(&clause);
            }
            return first;
        }
        let delta = (2 * shift) as u32;
        let arena_base = self.db.append_image(&block.words, &block.local_mask, delta);
        self.clauses
            .extend(block.crefs.iter().map(|&c| CRef::at(arena_base + c)));
        let layout = block.layout();
        let first_code = first.positive().code();
        let local_from = 2 * block.base();
        for (lists, image) in [
            (&mut self.bin_watches, &layout[BINARY]),
            (&mut self.watches, &layout[LONG]),
        ] {
            lists.stamp(first_code, image, arena_base, local_from, 2 * shift);
        }
        for &unit in block.units() {
            self.add_clause(&[block.shifted(unit, shift)]);
        }
        first
    }

    /// Reserves room for `copies` more appends of `block`
    /// ([`Solver::add_block`]): the variable, arena and watch arrays grow
    /// once for all of them, and so does each shared watch list the block
    /// attaches to. Only capacities change; no search reads them.
    pub fn reserve_blocks(&mut self, block: &ClauseBlock, copies: usize) {
        let vars = copies * block.num_vars();
        self.vals.reserve(2 * vars);
        self.polarity.reserve(vars);
        self.activity.reserve(vars);
        self.vardata.reserve(vars);
        self.seen.reserve(vars);
        self.order.reserve(vars);
        self.db.reserve(copies * block.words.len());
        self.clauses.reserve(copies * block.crefs.len());
        let layout = block.layout();
        for (lists, image) in [
            (&mut self.bin_watches, &layout[BINARY]),
            (&mut self.watches, &layout[LONG]),
        ] {
            let shared_slots = image.shared_lists.iter().map(|&(code, from, to)| {
                let len = lists.len[code as usize];
                grown_capacity(0, len + copies as u32 * (to - from)) as usize
            });
            let watchers = copies * image.slab.len() + shared_slots.sum::<usize>();
            lists.reserve_stamps(2 * vars, watchers, image, copies as u32);
        }
    }

    /// A digest of the solver's whole state: clause arena, clause lists,
    /// watch lists (their watchers in order, not their place in memory),
    /// assignment, trail, heuristics, decision heap and statistics.
    /// Two solvers with equal digests search alike from here on; tests
    /// use it to check that two ways of building an instance agree.
    #[doc(hidden)]
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.db.hash_words(&mut h);
        for list in [&self.clauses, &self.learnts] {
            list.len().hash(&mut h);
            for cref in list {
                h.write_u32(cref.offset());
            }
        }
        self.watches.hash_content(&mut h);
        self.bin_watches.hash_content(&mut h);
        for v in &self.vals {
            (*v as u8).hash(&mut h);
        }
        self.polarity.hash(&mut h);
        for a in &self.activity {
            a.to_bits().hash(&mut h);
        }
        for x in [self.var_inc, self.cla_inc, self.max_learnts] {
            x.to_bits().hash(&mut h);
        }
        self.order.hash_content(&mut h);
        self.trail.hash(&mut h);
        self.trail_lim.hash(&mut h);
        self.qhead.hash(&mut h);
        for d in &self.vardata {
            h.write_u32(d.reason.offset());
            d.level.hash(&mut h);
        }
        self.ok.hash(&mut h);
        let s = self.stats();
        for x in [
            s.conflicts,
            s.decisions,
            s.propagations,
            s.restarts,
            s.learnt_clauses,
            s.removed_clauses,
            s.gc_runs,
        ] {
            x.hash(&mut h);
        }
        h.finish()
    }

    fn attach(&mut self, cref: CRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        let lists = if lits.len() == 2 {
            &mut self.bin_watches
        } else {
            &mut self.watches
        };
        lists.push((!l0).code(), Watcher { cref, blocker: l1 });
        lists.push((!l1).code(), Watcher { cref, blocker: l0 });
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: CRef) {
        let level_now = self.decision_level();
        assign(
            &mut self.vals,
            &mut self.vardata,
            &mut self.trail,
            lit,
            reason,
            level_now,
        );
    }

    /// Unit propagation; returns the conflicting clause, if any.
    ///
    /// Scans the CSR watch regions of the falsified literal linearly:
    /// binary watchers first (the other literal rides in the watcher
    /// itself, so the scan touches no clause memory), then the long-clause
    /// region, compacted in place as watchers move to new literals. Pushes
    /// onto *other* literals' regions are safe mid-scan — relocation never
    /// moves the region being scanned (see [`WatchLists`]).
    ///
    /// Large instances' watch buffers do not fit in cache, so before each
    /// scan it prefetches the first line of both regions of the literal
    /// [`PREFETCH_AHEAD`] entries further down the trail, when that entry
    /// exists yet. The prefetch is only a hint: every watcher, clause and
    /// trail entry is visited in the same order either way.
    fn propagate(&mut self) -> Option<CRef> {
        let Solver {
            db,
            watches,
            bin_watches,
            vals,
            vardata,
            trail,
            trail_lim,
            qhead,
            stats,
            ..
        } = self;
        let level_now = trail_lim.len() as u32;
        while *qhead < trail.len() {
            if let Some(&ahead) = trail.get(*qhead + PREFETCH_AHEAD) {
                prefetch(&watches.buf, watches.region(ahead.code()).0);
                prefetch(&bin_watches.buf, bin_watches.region(ahead.code()).0);
            }
            let p = trail[*qhead];
            *qhead += 1;
            stats.propagations += 1;
            let false_lit = !p;

            // Binary watchers: nothing is ever moved or removed here, so
            // the region is stable for the whole scan.
            let (bs, bl) = bin_watches.region(p.code());
            for &w in &bin_watches.buf[bs..bs + bl] {
                match stored_value(vals, w.blocker) {
                    LBool::True => {}
                    LBool::False => {
                        // Conflict analysis reads all literals of the
                        // conflict clause, in any order — no normalisation
                        // needed.
                        *qhead = trail.len();
                        return Some(w.cref);
                    }
                    LBool::Undef => {
                        // The learning/locking code expects the enqueued
                        // literal at `lits[0]` of its reason clause.
                        let lits = db.lits_mut(w.cref);
                        if lits[0] != w.blocker {
                            lits.swap(0, 1);
                        }
                        assign(vals, vardata, trail, w.blocker, w.cref, level_now);
                    }
                }
            }

            // Long-clause watchers: in-place compaction of the region
            // `start..end`; `keep <= i` is the compacted prefix's end.
            let (start, len) = watches.region(p.code());
            let end = start + len;
            let (mut i, mut keep) = (start, start);
            while i < end {
                // SAFETY: `keep <= i < end = start + len <= start + cap
                // <= buf.len()` — a region's slots lie inside the buffer,
                // and pushes onto other regions below only ever grow it.
                let w = unsafe { *watches.buf.get_unchecked(i) };
                i += 1;
                // Fast path: blocker already true.
                if stored_value(vals, w.blocker) == LBool::True {
                    // SAFETY: `keep < i <= end`, see above.
                    unsafe { *watches.buf.get_unchecked_mut(keep) = w };
                    keep += 1;
                    continue;
                }
                let cref = w.cref;
                let lits = db.lits_mut(cref);
                let (head, tail) = lits.split_at_mut(2);
                // Ensure the false literal (!p) is at position 1.
                if head[0] == false_lit {
                    head.swap(0, 1);
                }
                debug_assert_eq!(head[1], false_lit);
                let first = head[0];
                let first_val = stored_value(vals, first);
                // The blocker is not true, so a true `first` differs from
                // it and becomes the new blocker.
                let watcher = Watcher {
                    cref,
                    blocker: first,
                };
                if first_val != LBool::True {
                    // Look for a new literal to watch.
                    let free = tail
                        .iter_mut()
                        .find(|lk| stored_value(vals, **lk) != LBool::False);
                    if let Some(slot) = free {
                        let lk = *slot;
                        *slot = false_lit;
                        head[1] = lk;
                        // `lk` is a distinct variable from `p`, so this
                        // push cannot relocate the region being scanned.
                        watches.push((!lk).code(), watcher);
                        continue;
                    }
                }
                // Still watched here: satisfied by `first`, unit or
                // conflicting.
                // SAFETY: `keep < i <= end`, see above.
                unsafe { *watches.buf.get_unchecked_mut(keep) = watcher };
                keep += 1;
                if first_val == LBool::False {
                    *qhead = trail.len();
                    // Keep the unscanned watchers.
                    watches.buf.copy_within(i..end, keep);
                    watches.set_len(p.code(), keep + (end - i) - start);
                    return Some(cref);
                }
                if first_val == LBool::Undef {
                    assign(vals, vardata, trail, first, cref, level_now);
                }
            }
            watches.set_len(p.code(), keep - start);
        }
        None
    }

    /// Backtracks to `target_level`: unassigns the trail above it (saving
    /// phases) and re-inserts the variables into the decision heap, in
    /// reverse trail order.
    ///
    /// The unassigned variables' [`VarData`] is deliberately left stale.
    /// Every reader looks only at assigned variables (`analyze`,
    /// `analyze_final` and `literal_redundant` walk trail or learnt-clause
    /// literals, all assigned) or checks the value first (`locked`
    /// requires its literal to be true), and garbage collection remaps a
    /// stale reason like any other — to the clause's new location, or to
    /// `UNDEF` if it was deleted — so no stale entry is ever dereferenced.
    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let lim = self.trail_lim[target_level as usize];
        for &lit in self.trail[lim..].iter().rev() {
            let v = lit.var();
            self.vals[lit.code()] = LBool::Undef;
            self.vals[(!lit).code()] = LBool::Undef;
            self.polarity[v.index()] = lit.is_positive();
            // Checked here so that a variable still in the heap costs no
            // activity load.
            if !self.order.contains(v) {
                self.order.insert(v, self.activity[v.index()]);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn rescale_var_activity(&mut self) {
        for a in &mut self.activity {
            *a *= 1e-100;
        }
        self.order.scale(1e-100);
        self.var_inc *= 1e-100;
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > RESCALE_LIMIT {
            self.rescale_var_activity();
        }
        self.order.update(var, self.activity[var.index()]);
    }

    fn bump_clause(&mut self, cref: CRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let a = self.db.activity(cref) + self.cla_inc as f32;
        self.db.set_activity(cref, a);
        if a > 1e20 {
            for &c in &self.learnts {
                let scaled = self.db.activity(c) * 1e-20;
                self.db.set_activity(c, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// 1UIP conflict analysis; leaves the learnt clause (asserting literal
    /// first, a literal of the backtrack level second) in `self.learnt`
    /// and returns the backtrack level.
    fn analyze(&mut self, confl: CRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;

        loop {
            self.bump_clause(cref);
            let start = usize::from(p.is_some());
            let size = self.db.size(cref);
            for k in start..size {
                let q = self.db.lits(cref)[k];
                let v = q.var();
                let level = self.vardata[v.index()].level;
                if !self.seen[v.index()] && level > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if level >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            cref = self.vardata[pl.var().index()].reason;
            debug_assert!(cref.is_defined(), "non-decision must have a reason");
        }

        // Mark remaining seen for minimisation bookkeeping.
        for lit in &learnt[1..] {
            self.seen[lit.var().index()] = true;
        }
        // Basic self-subsumption minimisation: drop literals whose reason is
        // fully covered by the learnt clause. Kept literals move to the
        // front in order; dropped ones collect behind them, still marked,
        // so the unmarking pass below sees every literal.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.literal_redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }
        for lit in &learnt[1..] {
            self.seen[lit.var().index()] = false;
        }
        learnt.truncate(kept);

        // Compute backtrack level; move the max-level literal to slot 1.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level_of(learnt[i]) > self.level_of(learnt[max_i]) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level_of(learnt[1])
        };
        self.learnt = learnt;
        backtrack
    }

    /// `true` if `lit`'s reason clause is entirely made of seen/root
    /// literals, i.e. `lit` is implied by the rest of the learnt clause.
    fn literal_redundant(&self, lit: Lit) -> bool {
        let reason = self.vardata[lit.var().index()].reason;
        if !reason.is_defined() {
            return false;
        }
        self.db.lits(reason)[1..]
            .iter()
            .all(|&q| self.seen[q.var().index()] || self.level_of(q) == 0)
    }

    /// The decision level `lit`'s variable was assigned at.
    #[inline]
    fn level_of(&self, lit: Lit) -> u32 {
        self.vardata[lit.var().index()].level
    }

    /// Stores the clause [`Solver::analyze`] left in `self.learnt` and
    /// enqueues its asserting literal.
    fn record_learnt(&mut self) {
        let asserting = self.learnt[0];
        if self.learnt.len() == 1 {
            self.unchecked_enqueue(asserting, CRef::UNDEF);
        } else {
            let cref = self.db.alloc(&self.learnt, true);
            self.learnts.push(cref);
            self.attach(cref);
            self.bump_clause(cref);
            self.unchecked_enqueue(asserting, cref);
        }
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    fn locked(&self, cref: CRef) -> bool {
        let first = self.db.lits(cref)[0];
        self.vardata[first.var().index()].reason == cref && self.value(first) == LBool::True
    }

    fn detach(&mut self, cref: CRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        let lists = if lits.len() == 2 {
            &mut self.bin_watches
        } else {
            &mut self.watches
        };
        for code in [(!l0).code(), (!l1).code()] {
            lists.remove(code, cref);
        }
    }

    fn reduce_learnts(&mut self) {
        let db = &self.db;
        let mut ranked: Vec<CRef> = self.learnts.clone();
        ranked.sort_by(|&a, &b| {
            db.activity(a)
                .partial_cmp(&db.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut removed = 0u64;
        let target = ranked.len() / 2;
        let mut kept: Vec<CRef> = Vec::with_capacity(ranked.len());
        for (i, cref) in ranked.into_iter().enumerate() {
            let small = self.db.size(cref) == 2;
            if i < target && !small && !self.locked(cref) {
                self.detach(cref);
                self.db.delete(cref);
                removed += 1;
            } else {
                kept.push(cref);
            }
        }
        self.learnts = kept;
        self.stats.removed_clauses += removed;
        if self.db.needs_gc() {
            self.collect_garbage();
        }
    }

    /// Rebuilds the clause arena, dropping deleted clauses and remapping all
    /// references. The watch lists are compacted at the same time:
    /// per-literal watcher counts are recomputed and the CSR regions laid
    /// back out tightly ([`WatchLists::rebuild_exact`]), reclaiming every
    /// slot abandoned by region relocations since the last collection.
    fn collect_garbage(&mut self) {
        self.stats.gc_runs += 1;
        let mut fresh = ClauseDb::new();
        let mut remap =
            std::collections::HashMap::with_capacity(self.clauses.len() + self.learnts.len());
        for list in [&mut self.clauses, &mut self.learnts] {
            for cref in list.iter_mut() {
                let new = *remap
                    .entry(*cref)
                    .or_insert_with(|| self.db.copy_into(*cref, &mut fresh));
                *cref = new;
            }
        }
        for r in self.vardata.iter_mut().map(|d| &mut d.reason) {
            if r.is_defined() {
                // Locked clauses are never deleted, so the mapping exists
                // whenever the reason is still in use; stale entries of
                // unassigned variables map like any other.
                *r = *remap.get(r).unwrap_or(&CRef::UNDEF);
            }
        }
        self.db = fresh;
        // Exact per-literal counts, then tight rebuild + re-attachment.
        let codes = self.vals.len();
        let mut long_counts = vec![0u32; codes];
        let mut bin_counts = vec![0u32; codes];
        for &cref in self.clauses.iter().chain(&self.learnts) {
            let lits = self.db.lits(cref);
            let counts = if lits.len() == 2 {
                &mut bin_counts
            } else {
                &mut long_counts
            };
            counts[(!lits[0]).code()] += 1;
            counts[(!lits[1]).code()] += 1;
        }
        self.watches.rebuild_exact(&long_counts);
        self.bin_watches.rebuild_exact(&bin_counts);
        let all: Vec<CRef> = self.clauses.iter().chain(&self.learnts).copied().collect();
        for cref in all {
            self.attach(cref);
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        if self.trail.len() == self.num_vars() {
            // Everything is assigned, so popping would drain the heap
            // without returning a variable. The drain's end state — an
            // empty heap — does not depend on the pop order, so skip it.
            self.order.clear();
            return None;
        }
        while let Some(var) = self.order.pop() {
            if self.vals[var.positive().code()] == LBool::Undef {
                return Some(var.lit(self.polarity[var.index()]));
            }
        }
        None
    }

    fn luby(i: u64) -> u64 {
        // Sequence 1,1,2,1,1,2,4,... : find the finite subsequence containing
        // index i and its position.
        let (mut size, mut seq) = (1u64, 0u32);
        while size < i + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut idx = i;
        while size - 1 != idx {
            size = (size - 1) >> 1;
            seq -= 1;
            idx %= size;
        }
        1u64 << seq
    }

    /// Solves under the given assumption literals.
    ///
    /// Returns [`SolveResult::Unsat`] either when the clause set itself is
    /// inconsistent or when the assumptions conflict with it; use
    /// [`Solver::is_inconsistent`] to distinguish. Learnt clauses and
    /// variable activities persist across calls (incremental solving).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let before = self.stats;
        let result = self.solve_inner(assumptions);
        self.stats.charge_solve(&before);
        result
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.cancel_until(0);
        self.failed_assumptions.clear();
        self.deadline_hit = false;
        if let Some(deadline) = self.deadline {
            // An already-expired deadline gives up before searching at
            // all: a run of back-to-back solves (model enumeration,
            // per-test validity queries) must stop promptly even when the
            // individual solves are conflict-free.
            if std::time::Instant::now() >= deadline {
                self.deadline_hit = true;
                return SolveResult::Unknown;
            }
        }
        if !self.ok || self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        if self.max_learnts == 0.0 {
            self.max_learnts = (self.clauses.len() as f64 / 3.0).max(1000.0);
        }
        let budget_start = self.stats.conflicts;
        let mut restart_round = 0u64;
        loop {
            let allowed = RESTART_BASE * Self::luby(restart_round);
            match self.search(allowed, assumptions, budget_start) {
                InnerResult::Sat => {
                    // A variable's value is its positive literal's entry.
                    self.model.clear();
                    self.model.extend(self.vals.iter().step_by(2));
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                InnerResult::Unsat => {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                InnerResult::Unknown => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                InnerResult::Restart => {
                    self.stats.restarts += 1;
                    restart_round += 1;
                    self.cancel_until(0);
                    self.max_learnts *= 1.02;
                }
            }
        }
    }

    fn search(
        &mut self,
        conflicts_allowed: u64,
        assumptions: &[Lit],
        budget_start: u64,
    ) -> InnerResult {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return InnerResult::Unsat;
                }
                let backtrack = self.analyze(confl);
                self.cancel_until(backtrack);
                self.record_learnt();
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        return InnerResult::Unknown;
                    }
                }
                if let Some(deadline) = self.deadline {
                    // Checkpointed: poll the clock only every few
                    // conflicts, so the hook costs nothing on the hot path.
                    if conflicts_here & DEADLINE_CHECK_MASK == 0
                        && std::time::Instant::now() >= deadline
                    {
                        self.deadline_hit = true;
                        return InnerResult::Unknown;
                    }
                }
                if conflicts_here >= conflicts_allowed {
                    return InnerResult::Restart;
                }
            } else {
                if self.learnts.len() as f64 - self.trail.len() as f64 > self.max_learnts {
                    self.reduce_learnts();
                }
                // Enqueue assumptions as pseudo-decisions.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(p);
                            return InnerResult::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch() {
                        Some(p) => p,
                        None => return InnerResult::Sat,
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, CRef::UNDEF);
            }
        }
    }
}

enum InnerResult {
    Sat,
    Unsat,
    Unknown,
    Restart,
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // hand-written pigeonhole index math
mod tests {
    use super::*;

    fn vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let m0 = s.model_value(v[0].positive()).unwrap();
        let m1 = s.model_value(v[1].positive()).unwrap();
        assert!(m0 || m1);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.is_inconsistent());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[v[0].positive(), v[0].negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn implication_chain() {
        // x0 and chain x_i -> x_{i+1}; final clause forces !x_last => UNSAT.
        let mut s = Solver::new();
        let v = vars(&mut s, 20);
        s.add_clause(&[v[0].positive()]);
        for i in 0..19 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        s.add_clause(&[v[19].negative()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_poison_solver() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(
            s.solve(&[v[0].negative(), v[1].negative()]),
            SolveResult::Unsat
        );
        assert!(!s.is_inconsistent());
        assert_eq!(s.solve(&[v[0].negative()]), SolveResult::Sat);
        assert_eq!(s.model_value(v[1].positive()), Some(true));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn incremental_blocking() {
        // Enumerate all four models of two free variables via blocking.
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[0].negative()]); // no-op clause
        let mut count = 0;
        while s.solve(&[]) == SolveResult::Sat {
            count += 1;
            let block: Vec<Lit> = v
                .iter()
                .map(|&var| {
                    if s.model_value(var.positive()).unwrap() {
                        var.negative()
                    } else {
                        var.positive()
                    }
                })
                .collect();
            s.add_clause(&block);
            assert!(count <= 4, "more models than possible");
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes. p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let (n, m) = (5usize, 4usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, m)).collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for round in 0..30 {
            let n = rng.gen_range(3..12);
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            let mut clauses = Vec::new();
            for _ in 0..rng.gen_range(3..30) {
                let len = rng.gen_range(1..4);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| v[rng.gen_range(0..n)].lit(rng.gen_bool(0.5)))
                    .collect();
                clauses.push(clause.clone());
                s.add_clause(&clause);
            }
            if s.solve(&[]) == SolveResult::Sat {
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&l| s.model_value(l) == Some(true)),
                        "round {round}: model violates {clause:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard pigeonhole with a 1-conflict budget must give up.
        let (n, m) = (7usize, 6usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, m)).collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn expired_deadline_returns_unknown_and_is_removable() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        ));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        assert!(s.deadline_hit());
        // Removing the deadline restores normal solving, and the flag
        // clears on the next call.
        s.set_deadline(None);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(!s.deadline_hit());
    }

    #[test]
    fn generous_deadline_does_not_perturb_solving() {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        s.set_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        ));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.deadline_hit());
    }

    #[test]
    fn failed_assumptions_form_a_core() {
        // x0 -> x1 -> x2; assumptions [x0, !x2, x3] conflict via x0 and !x2.
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive()]);
        let assumptions = [v[0].positive(), v[2].negative(), v[3].positive()];
        assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        let core: Vec<Lit> = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        // Core literals are assumptions.
        for l in &core {
            assert!(assumptions.contains(l), "{l:?} not among assumptions");
        }
        // The irrelevant assumption x3 is not in the core.
        assert!(!core.contains(&v[3].positive()));
        // The core alone is still unsatisfiable.
        assert_eq!(s.solve(&core), SolveResult::Unsat);
        // And the solver remains usable.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn contradictory_assumptions_core() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[1].positive()]); // unrelated
        let assumptions = [v[0].positive(), v[0].negative()];
        assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&v[0].positive()) || core.contains(&v[0].negative()));
        assert_eq!(s.solve(&core), SolveResult::Unsat);
    }

    #[test]
    fn root_falsified_assumption_core_is_singleton() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].negative()]); // x0 false at root
        assert_eq!(
            s.solve(&[v[0].positive(), v[1].positive()]),
            SolveResult::Unsat
        );
        let core = s.failed_assumptions().to_vec();
        assert_eq!(core, vec![v[0].positive()]);
    }

    #[test]
    fn core_on_random_instances_is_sound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..40 {
            let n = rng.gen_range(4..10);
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            for _ in 0..rng.gen_range(5..25) {
                let clause: Vec<Lit> = (0..rng.gen_range(1..4))
                    .map(|_| v[rng.gen_range(0..n)].lit(rng.gen_bool(0.5)))
                    .collect();
                s.add_clause(&clause);
            }
            let assumptions: Vec<Lit> =
                (0..n.min(5)).map(|i| v[i].lit(rng.gen_bool(0.5))).collect();
            if s.solve(&assumptions) == SolveResult::Unsat && !s.is_inconsistent() {
                let core = s.failed_assumptions().to_vec();
                for l in &core {
                    assert!(assumptions.contains(l));
                }
                assert_eq!(s.solve(&core), SolveResult::Unsat, "core not unsat");
            }
        }
    }

    #[test]
    fn long_search_exercises_reduction_and_gc() {
        // A hard instance plus heavy enumeration: forces learnt-clause
        // reduction and arena garbage collection, then cross-checks the
        // final verdicts.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut s = Solver::new();
        let n = 60;
        let v = vars(&mut s, n);
        // Random 3-SAT near the phase transition.
        for _ in 0..250 {
            let clause: Vec<Lit> = (0..3)
                .map(|_| v[rng.gen_range(0..n)].lit(rng.gen_bool(0.5)))
                .collect();
            s.add_clause(&clause);
        }
        // Enumerate models by exact blocking until UNSAT (or 500 models).
        let mut models = 0;
        while s.solve(&[]) == SolveResult::Sat && models < 500 {
            models += 1;
            let block: Vec<Lit> = v
                .iter()
                .map(|&var| var.lit(s.model_value(var.positive()) != Some(true)))
                .collect();
            s.add_clause(&block);
        }
        // The solver must stay coherent: a fresh solver agrees on the final
        // state reachability of a few probes.
        let stats = s.stats();
        assert!(stats.conflicts > 0);
        // After exhausting models (or 500 blocks) the solver still answers
        // assumption queries consistently.
        let final_verdict = s.solve(&[]);
        let again = s.solve(&[]);
        assert_eq!(final_verdict, again, "verdict must be stable");
    }

    #[test]
    fn polarity_hint_is_respected_for_free_vars() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause(&[v[0].positive(), v[1].positive()]); // keep it satisfiable
        for &var in &v {
            s.set_polarity(var, true);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Free variables should follow the saved phase.
        assert_eq!(s.model_value(v[2].positive()), Some(true));
        assert_eq!(s.model_value(v[3].positive()), Some(true));
    }
}
