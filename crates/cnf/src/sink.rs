//! The clause sink abstraction: encoders write to anything that accepts
//! variables and clauses — a live solver, a collector for offline use, or
//! a recorder whose block is stamped into solvers many times.

use gatediag_sat::{ClauseBlock, Lit, Solver, Var};

/// A consumer of CNF: fresh variables and clauses.
///
/// Implemented by [`Solver`](gatediag_sat::Solver) (encode directly into
/// the solver), by [`CnfCollector`] (capture the formula, e.g. for
/// brute-force cross-checks) and by [`BlockRecorder`]
/// (record a fragment once, append it to solvers many times).
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause.
    fn add_clause(&mut self, lits: &[Lit]);

    /// Notes that an encoder emitted one gate's defining clauses; charges
    /// the `cnf.gates_encoded` counter.
    fn gate_encoded(&mut self) {
        gatediag_obs::count("cnf.gates_encoded", 1);
    }
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        gatediag_obs::count("cnf.vars", 1);
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        gatediag_obs::count("cnf.clauses", 1);
        Solver::add_clause(self, lits);
    }
}

/// A sink that records the formula instead of solving it.
///
/// # Examples
///
/// ```
/// use gatediag_cnf::{ClauseSink, CnfCollector};
///
/// let mut sink = CnfCollector::new();
/// let v = sink.new_var();
/// sink.add_clause(&[v.positive()]);
/// assert_eq!(sink.num_vars(), 1);
/// assert_eq!(sink.clauses().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CnfCollector {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl CnfCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        CnfCollector::default()
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The recorded clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Consumes the collector, returning `(num_vars, clauses)`.
    pub fn into_parts(self) -> (usize, Vec<Vec<Lit>>) {
        (self.num_vars, self.clauses)
    }
}

impl ClauseSink for CnfCollector {
    fn new_var(&mut self) -> Var {
        gatediag_obs::count("cnf.vars", 1);
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        gatediag_obs::count("cnf.clauses", 1);
        self.clauses.push(lits.to_vec());
    }
}

/// A sink that records a formula fragment as a [`ClauseBlock`], to be
/// appended to solvers in bulk by [`BlockRecorder::stamp`] — BSAT's one
/// instrumented copy per test is recorded once and stamped per test.
///
/// Recording charges no obs counter; each stamp charges `cnf.vars`,
/// `cnf.clauses` and `cnf.gates_encoded` as encoding the fragment
/// straight into the solver would.
///
/// # Examples
///
/// ```
/// use gatediag_cnf::{encode_circuit, BlockRecorder};
/// use gatediag_sat::{SolveResult, Solver};
///
/// let c = gatediag_netlist::c17();
/// let mut solver = Solver::new();
/// let mut recorder = BlockRecorder::starting_at(solver.num_vars());
/// let vars = encode_circuit(&mut recorder, &c);
/// // Two copies; the second's gate g is variable `vars.var(g)` moved by
/// // the second stamp's shift.
/// recorder.stamp(&mut solver);
/// let shift = recorder.stamp(&mut solver);
/// assert_eq!(solver.num_vars(), 2 * recorder.num_vars());
/// let out = c.outputs()[0];
/// solver.add_clause(&[vars.lit(out, true)]);
/// let second = vars.var(out).index() + shift;
/// assert_eq!(solver.solve(&[gatediag_sat::Var::from_index(second).positive()]), SolveResult::Sat);
/// ```
#[derive(Clone, Debug)]
pub struct BlockRecorder {
    block: ClauseBlock,
    gates: u64,
}

impl BlockRecorder {
    /// A recorder whose first variable is `Var::from_index(base)`;
    /// variables below `base` are shared with the solvers it is stamped
    /// into.
    pub fn starting_at(base: usize) -> Self {
        BlockRecorder {
            block: ClauseBlock::new(base),
            gates: 0,
        }
    }

    /// Number of variables recorded.
    pub fn num_vars(&self) -> usize {
        self.block.num_vars()
    }

    /// Number of clauses recorded.
    pub fn num_clauses(&self) -> usize {
        self.block.num_clauses()
    }

    /// Reserves room in `solver` for `copies` stamps
    /// ([`Solver::reserve_blocks`]).
    pub fn reserve(&self, solver: &mut Solver, copies: usize) {
        solver.reserve_blocks(&self.block, copies);
    }

    /// Appends the recorded fragment to `solver` over fresh variables
    /// ([`Solver::add_block`]) and returns the shift: recorded variable
    /// `v` at or above the base is the solver's `v + shift`. The solver
    /// must hold at least the base's variables.
    pub fn stamp(&self, solver: &mut Solver) -> usize {
        let first = solver.add_block(&self.block);
        gatediag_obs::count("cnf.vars", self.block.num_vars() as u64);
        gatediag_obs::count("cnf.clauses", self.block.num_clauses() as u64);
        gatediag_obs::count("cnf.gates_encoded", self.gates);
        first.index() - self.block.base()
    }
}

impl ClauseSink for BlockRecorder {
    fn new_var(&mut self) -> Var {
        self.block.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.block.add_clause(lits);
    }

    fn gate_encoded(&mut self) {
        self.gates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_sat::SolveResult;

    #[test]
    fn solver_as_sink() {
        let mut s = Solver::new();
        let v = ClauseSink::new_var(&mut s);
        ClauseSink::add_clause(&mut s, &[v.negative()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(v.positive()), Some(false));
    }

    #[test]
    fn recorder_allocates_from_base() {
        let mut sink = BlockRecorder::starting_at(10);
        let a = sink.new_var();
        let b = sink.new_var();
        assert_eq!(a, Var::from_index(10));
        assert_eq!(b, Var::from_index(11));
        sink.add_clause(&[a.positive(), b.negative()]);
        assert_eq!(sink.num_vars(), 2, "num_vars counts only recorded vars");
        assert_eq!(sink.num_clauses(), 1);
    }

    #[test]
    fn stamps_charge_what_a_direct_encoding_charges() {
        let c = gatediag_netlist::c17();
        let counters = |build: &dyn Fn(&mut Solver)| {
            let sink = std::sync::Arc::new(gatediag_obs::Sink::new());
            let guard = gatediag_obs::install(sink.clone());
            build(&mut Solver::new());
            drop(guard);
            let trace = sink.take_trace();
            ["cnf.vars", "cnf.clauses", "cnf.gates_encoded"].map(|name| trace.counter(name))
        };
        let direct = counters(&|solver| {
            for _ in 0..3 {
                crate::encode_circuit(solver, &c);
            }
        });
        let stamped = counters(&|solver| {
            let mut recorder = BlockRecorder::starting_at(0);
            crate::encode_circuit(&mut recorder, &c);
            for _ in 0..3 {
                recorder.stamp(solver);
            }
        });
        assert_eq!(direct, stamped);
        assert!(direct.iter().all(|&n| n > 0));
    }

    #[test]
    fn collector_round_trip() {
        let mut sink = CnfCollector::new();
        let a = sink.new_var();
        let b = sink.new_var();
        sink.add_clause(&[a.positive(), b.negative()]);
        let (n, clauses) = sink.into_parts();
        assert_eq!(n, 2);
        assert_eq!(clauses, vec![vec![a.positive(), b.negative()]]);
    }
}
