//! Gate primitives: identifiers, gate kinds and their Boolean semantics.

use std::fmt;

/// Index of a gate inside a [`Circuit`](crate::Circuit).
///
/// `GateId`s are dense (`0..circuit.len()`) and stable: structural analyses,
/// simulators and diagnosis engines all use them as direct array indices.
///
/// # Examples
///
/// ```
/// use gatediag_netlist::GateId;
/// let g = GateId::new(3);
/// assert_eq!(g.index(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(u32);

impl GateId {
    /// Creates a gate id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        GateId(index as u32)
    }

    /// Returns the dense index of this gate.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The Boolean function computed by a gate.
///
/// `Input` marks primary inputs (including pseudo-primary inputs created for
/// flip-flop outputs when a sequential `.bench` netlist is combinationalised).
/// `Const0`/`Const1` are constant drivers. All other kinds are the standard
/// ISCAS gate library; `And`/`Nand`/`Or`/`Nor`/`Xor`/`Xnor` accept two or more
/// fan-ins, `Not`/`Buf` exactly one.
///
/// # Examples
///
/// ```
/// use gatediag_netlist::GateKind;
/// assert_eq!(GateKind::And.eval_bool([true, false]), false);
/// assert_eq!(GateKind::Nand.controlling_value(), Some(false));
/// assert!(GateKind::Xor.controlling_value().is_none());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GateKind {
    /// Primary input (no fan-ins).
    Input,
    /// Constant 0 driver (no fan-ins).
    Const0,
    /// Constant 1 driver (no fan-ins).
    Const1,
    /// Logical conjunction.
    And,
    /// Negated conjunction.
    Nand,
    /// Logical disjunction.
    Or,
    /// Negated disjunction.
    Nor,
    /// Parity (odd number of true fan-ins).
    Xor,
    /// Negated parity.
    Xnor,
    /// Inverter (single fan-in).
    Not,
    /// Buffer (single fan-in).
    Buf,
}

impl GateKind {
    /// All gate kinds that compute a function of at least one fan-in.
    pub const FUNCTIONAL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Gate kinds admissible for a gate with `arity` fan-ins.
    ///
    /// Used by the error injector: a "gate change" error replaces a gate's
    /// function with a different function of the same fan-ins.
    pub fn compatible_with_arity(arity: usize) -> &'static [GateKind] {
        match arity {
            0 => &[GateKind::Const0, GateKind::Const1],
            1 => &[GateKind::Not, GateKind::Buf],
            n if n >= 2 => &[
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
            ],
            _ => &[],
        }
    }

    /// Returns `true` if this kind denotes a source node (no fan-ins).
    #[inline]
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// The fan-in count this kind requires, if fixed.
    ///
    /// Returns `None` for the n-ary kinds (`And`, `Or`, `Xor`, and their
    /// complements) which accept any arity of two or more.
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Not | GateKind::Buf => Some(1),
            _ => None,
        }
    }

    /// Checks whether `arity` fan-ins are legal for this kind.
    pub fn arity_ok(self, arity: usize) -> bool {
        match self.fixed_arity() {
            Some(a) => a == arity,
            None => arity >= 2,
        }
    }

    /// The controlling input value of the gate, if any.
    ///
    /// An input at its controlling value determines the gate output
    /// regardless of the other inputs (e.g. a 0 on an AND). Path tracing
    /// ([`Fig. 1` of the paper]) branches on this notion. Parity gates and
    /// single-input gates have no controlling value.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Evaluates the gate over `bool` fan-in values.
    ///
    /// # Panics
    ///
    /// Panics if called on a source kind (`Input`) — sources have no
    /// function to evaluate — or if the iterator arity is illegal in debug
    /// builds.
    pub fn eval_bool<I>(self, inputs: I) -> bool
    where
        I: IntoIterator<Item = bool>,
    {
        let mut it = inputs.into_iter();
        match self {
            GateKind::Input => panic!("cannot evaluate a primary input"),
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::And => it.all(|b| b),
            GateKind::Nand => !it.all(|b| b),
            GateKind::Or => it.any(|b| b),
            GateKind::Nor => !it.any(|b| b),
            GateKind::Xor => it.fold(false, |acc, b| acc ^ b),
            GateKind::Xnor => !it.fold(false, |acc, b| acc ^ b),
            GateKind::Not => !it.next().expect("NOT requires one fan-in"),
            GateKind::Buf => it.next().expect("BUF requires one fan-in"),
        }
    }

    /// Evaluates the gate bit-parallel over 64-pattern words.
    ///
    /// Each bit position is an independent simulation pattern: the
    /// word-level semantics the kernel of the
    /// [parallel simulator](../gatediag_sim/index.html) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if called on a source kind (`Input`).
    pub fn eval_word<I>(self, inputs: I) -> u64
    where
        I: IntoIterator<Item = u64>,
    {
        let mut it = inputs.into_iter();
        match self {
            GateKind::Input => panic!("cannot evaluate a primary input"),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::And => it.fold(!0u64, |acc, w| acc & w),
            GateKind::Nand => !it.fold(!0u64, |acc, w| acc & w),
            GateKind::Or => it.fold(0u64, |acc, w| acc | w),
            GateKind::Nor => !it.fold(0u64, |acc, w| acc | w),
            GateKind::Xor => it.fold(0u64, |acc, w| acc ^ w),
            GateKind::Xnor => !it.fold(0u64, |acc, w| acc ^ w),
            GateKind::Not => !it.next().expect("NOT requires one fan-in"),
            GateKind::Buf => it.next().expect("BUF requires one fan-in"),
        }
    }

    /// The canonical `.bench` spelling of the kind (`AND`, `NOT`, …).
    ///
    /// Source kinds have no `.bench` operator; they return a descriptive
    /// token that the writer never emits on the right-hand side of `=`.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
        }
    }

    /// Parses a `.bench` operator token (case-insensitive).
    ///
    /// `DFF` is not a [`GateKind`]; the parser handles it separately by
    /// splitting it into a pseudo-input / pseudo-output pair.
    pub fn from_bench_name(token: &str) -> Option<GateKind> {
        let t = token.to_ascii_uppercase();
        Some(match t.as_str() {
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "NOT" | "INV" => GateKind::Not,
            "BUF" | "BUFF" => GateKind::Buf,
            "CONST0" | "GND" => GateKind::Const0,
            "CONST1" | "VDD" => GateKind::Const1,
            _ => return None,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// A borrowed view of a single gate: its kind plus its fan-in slice.
///
/// Since the CSR flattening of [`Circuit`](crate::Circuit), gates are no
/// longer stored as individual objects; the circuit keeps one contiguous
/// kind array and one flat fan-in buffer with per-gate offsets, and
/// `Gate` is a cheap `Copy` view into those arrays. The view keeps the
/// pre-CSR call sites (`gate.kind()`, `gate.fanins()`, `gate.arity()`)
/// source-compatible while the storage underneath is pointer-chase-free.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Gate<'a> {
    kind: GateKind,
    fanins: &'a [GateId],
}

impl<'a> Gate<'a> {
    /// Creates a view over a kind and a fan-in slice. Arity legality is
    /// checked by the circuit builder, not here.
    #[inline]
    pub fn new(kind: GateKind, fanins: &'a [GateId]) -> Gate<'a> {
        Gate { kind, fanins }
    }

    /// The gate's Boolean function.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's fan-in gates, in declaration order.
    ///
    /// The slice borrows from the circuit's flat fan-in buffer, not from
    /// this view, so it stays usable after the view is dropped.
    #[inline]
    pub fn fanins(&self) -> &'a [GateId] {
        self.fanins
    }

    /// Number of fan-ins.
    #[inline]
    pub fn arity(&self) -> usize {
        self.fanins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bool_truth_tables() {
        use GateKind::*;
        let cases: &[(GateKind, &[bool], bool)] = &[
            (And, &[true, true], true),
            (And, &[true, false], false),
            (Nand, &[true, true], false),
            (Nand, &[false, false], true),
            (Or, &[false, false], false),
            (Or, &[false, true], true),
            (Nor, &[false, false], true),
            (Nor, &[true, false], false),
            (Xor, &[true, true], false),
            (Xor, &[true, false], true),
            (Xor, &[true, true, true], true),
            (Xnor, &[true, false], false),
            (Xnor, &[true, true, true], false),
            (Not, &[true], false),
            (Not, &[false], true),
            (Buf, &[true], true),
        ];
        for &(kind, ins, expect) in cases {
            assert_eq!(
                kind.eval_bool(ins.iter().copied()),
                expect,
                "{kind} {ins:?}"
            );
        }
    }

    #[test]
    fn eval_word_matches_eval_bool() {
        use GateKind::*;
        for kind in [And, Nand, Or, Nor, Xor, Xnor] {
            for a in 0..2u64 {
                for b in 0..2u64 {
                    for c in 0..2u64 {
                        let word = kind.eval_word([a * !0, b * !0, c * !0]);
                        let boolean = kind.eval_bool([a == 1, b == 1, c == 1]);
                        assert_eq!(word == !0, boolean, "{kind} {a}{b}{c}");
                        assert!(word == 0 || word == !0);
                    }
                }
            }
        }
        for kind in [Not, Buf] {
            for a in 0..2u64 {
                let word = kind.eval_word([a * !0]);
                let boolean = kind.eval_bool([a == 1]);
                assert_eq!(word == !0, boolean);
            }
        }
        assert_eq!(Const0.eval_word(std::iter::empty()), 0);
        assert_eq!(Const1.eval_word(std::iter::empty()), !0);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        for k in [GateKind::Xor, GateKind::Xnor, GateKind::Not, GateKind::Buf] {
            assert_eq!(k.controlling_value(), None);
        }
    }

    #[test]
    fn controlling_value_determines_output() {
        // If any input sits at the controlling value, the output is fixed.
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let cv = kind.controlling_value().unwrap();
            let out_with_cv = kind.eval_bool([cv, true]);
            assert_eq!(kind.eval_bool([cv, false]), out_with_cv);
            assert_eq!(kind.eval_bool([true, cv]), out_with_cv);
            assert_eq!(kind.eval_bool([false, cv]), out_with_cv);
        }
    }

    #[test]
    fn bench_name_round_trip() {
        for kind in GateKind::FUNCTIONAL {
            assert_eq!(GateKind::from_bench_name(kind.bench_name()), Some(kind));
        }
        assert_eq!(GateKind::from_bench_name("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::from_bench_name("DFF"), None);
        assert_eq!(GateKind::from_bench_name("bogus"), None);
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Not.arity_ok(1));
        assert!(!GateKind::Not.arity_ok(2));
        assert!(GateKind::And.arity_ok(2));
        assert!(GateKind::And.arity_ok(5));
        assert!(!GateKind::And.arity_ok(1));
        assert!(GateKind::Input.arity_ok(0));
        assert_eq!(GateKind::compatible_with_arity(1).len(), 2);
        assert_eq!(GateKind::compatible_with_arity(2).len(), 6);
        assert_eq!(GateKind::compatible_with_arity(0).len(), 2);
    }

    #[test]
    fn gate_id_display() {
        assert_eq!(format!("{}", GateId::new(7)), "g7");
        assert_eq!(format!("{:?}", GateId::new(7)), "g7");
    }
}
