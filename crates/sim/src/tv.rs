//! Three-valued (0/1/X) logic and simulation.
//!
//! X-injection simulation is the forward-implication diagnosis primitive the
//! paper cites from Boppana et al. [5]: inject X at candidate gates and
//! check whether the X *reaches* the erroneous output — a necessary
//! (conservative) condition for the candidates to be able to rectify the
//! test.

use gatediag_netlist::{Circuit, GateId, GateKind};

/// A three-valued logic value.
///
/// # Examples
///
/// ```
/// use gatediag_sim::Tv;
/// assert_eq!(Tv::Zero.and(Tv::X), Tv::Zero); // 0 is controlling
/// assert_eq!(Tv::One.and(Tv::X), Tv::X);
/// assert_eq!(Tv::X.not(), Tv::X);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Tv {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Tv {
    /// Converts a Boolean.
    pub fn from_bool(b: bool) -> Tv {
        if b {
            Tv::One
        } else {
            Tv::Zero
        }
    }

    /// Returns the Boolean value if known.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Tv::Zero => Some(false),
            Tv::One => Some(true),
            Tv::X => None,
        }
    }

    /// `true` if the value is X.
    pub fn is_x(self) -> bool {
        self == Tv::X
    }

    /// Three-valued conjunction.
    pub fn and(self, other: Tv) -> Tv {
        match (self, other) {
            (Tv::Zero, _) | (_, Tv::Zero) => Tv::Zero,
            (Tv::One, Tv::One) => Tv::One,
            _ => Tv::X,
        }
    }

    /// Three-valued disjunction.
    pub fn or(self, other: Tv) -> Tv {
        match (self, other) {
            (Tv::One, _) | (_, Tv::One) => Tv::One,
            (Tv::Zero, Tv::Zero) => Tv::Zero,
            _ => Tv::X,
        }
    }

    /// Three-valued exclusive or.
    pub fn xor(self, other: Tv) -> Tv {
        match (self, other) {
            (Tv::X, _) | (_, Tv::X) => Tv::X,
            (a, b) => Tv::from_bool((a == Tv::One) ^ (b == Tv::One)),
        }
    }

    /// Three-valued negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tv {
        match self {
            Tv::Zero => Tv::One,
            Tv::One => Tv::Zero,
            Tv::X => Tv::X,
        }
    }
}

/// Evaluates a gate kind over three-valued fan-ins.
///
/// # Panics
///
/// Panics when called on `Input`.
pub fn eval_tv<I>(kind: GateKind, inputs: I) -> Tv
where
    I: IntoIterator<Item = Tv>,
{
    let mut it = inputs.into_iter();
    match kind {
        GateKind::Input => panic!("cannot evaluate a primary input"),
        GateKind::Const0 => Tv::Zero,
        GateKind::Const1 => Tv::One,
        GateKind::And => it.fold(Tv::One, Tv::and),
        GateKind::Nand => it.fold(Tv::One, Tv::and).not(),
        GateKind::Or => it.fold(Tv::Zero, Tv::or),
        GateKind::Nor => it.fold(Tv::Zero, Tv::or).not(),
        GateKind::Xor => it.fold(Tv::Zero, Tv::xor),
        GateKind::Xnor => it.fold(Tv::Zero, Tv::xor).not(),
        GateKind::Not => it.next().expect("NOT requires one fan-in").not(),
        GateKind::Buf => it.next().expect("BUF requires one fan-in"),
    }
}

/// Three-valued simulation with X injected at the given gates.
///
/// `inputs` are the primary input values (may themselves be X); every gate
/// in `inject_x` is forced to X regardless of its logic.
///
/// # Panics
///
/// Panics if `inputs.len() != circuit.inputs().len()`.
///
/// # Examples
///
/// ```
/// use gatediag_sim::{simulate_tv, Tv};
/// let c = gatediag_netlist::c17();
/// let inputs = vec![Tv::Zero; 5];
/// let g10 = c.find("G10").unwrap();
/// let v = simulate_tv(&c, &inputs, &[g10]);
/// assert!(v[g10.index()].is_x());
/// ```
pub fn simulate_tv(circuit: &Circuit, inputs: &[Tv], inject_x: &[GateId]) -> Vec<Tv> {
    assert_eq!(
        inputs.len(),
        circuit.inputs().len(),
        "input vector width mismatch"
    );
    let mut values = vec![Tv::X; circuit.len()];
    for (&id, &v) in circuit.inputs().iter().zip(inputs) {
        values[id.index()] = v;
    }
    let mut forced_x = vec![false; circuit.len()];
    for &id in inject_x {
        forced_x[id.index()] = true;
    }
    for &id in circuit.topo_order() {
        if forced_x[id.index()] {
            values[id.index()] = Tv::X;
            continue;
        }
        let gate = circuit.gate(id);
        if gate.kind() == GateKind::Input {
            continue;
        }
        values[id.index()] = eval_tv(gate.kind(), gate.fanins().iter().map(|f| values[f.index()]));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::simulate;
    use gatediag_netlist::{CircuitBuilder, RandomCircuitSpec, VectorGen};

    #[test]
    fn tv_tables() {
        assert_eq!(Tv::One.and(Tv::One), Tv::One);
        assert_eq!(Tv::One.or(Tv::X), Tv::One);
        assert_eq!(Tv::Zero.or(Tv::X), Tv::X);
        assert_eq!(Tv::X.xor(Tv::One), Tv::X);
        assert_eq!(Tv::One.xor(Tv::One), Tv::Zero);
        assert_eq!(Tv::from_bool(true), Tv::One);
        assert_eq!(Tv::X.to_bool(), None);
        assert_eq!(Tv::One.to_bool(), Some(true));
    }

    #[test]
    fn without_x_matches_boolean_sim() {
        for seed in 0..3 {
            let c = RandomCircuitSpec::new(6, 2, 50).seed(seed).generate();
            let mut gen = VectorGen::new(&c, seed);
            for _ in 0..8 {
                let vector = gen.next_vector();
                let tv_in: Vec<Tv> = vector.iter().map(|&b| Tv::from_bool(b)).collect();
                let tv = simulate_tv(&c, &tv_in, &[]);
                let bs = simulate(&c, &vector);
                for (t, &b) in tv.iter().zip(&bs) {
                    assert_eq!(*t, Tv::from_bool(b));
                }
            }
        }
    }

    #[test]
    fn x_blocked_by_controlling_value() {
        // AND(a, X) with a=0 stays 0: the X is masked.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x_src = b.input("x");
        let g = b.gate(GateKind::And, vec![a, x_src], "g");
        b.output(g);
        let c = b.finish().unwrap();
        let v = simulate_tv(&c, &[Tv::Zero, Tv::One], &[x_src]);
        assert_eq!(v[g.index()], Tv::Zero);
        let v = simulate_tv(&c, &[Tv::One, Tv::One], &[x_src]);
        assert_eq!(v[g.index()], Tv::X);
    }

    use gatediag_netlist::GateKind;
}
