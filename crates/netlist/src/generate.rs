//! Circuit generators: seeded random DAGs, ISCAS89-profile-matched
//! synthetics, and small canned textbook circuits.
//!
//! The original ISCAS89 `.bench` files cannot be redistributed here, so the
//! experiments run on *profile-matched* synthetic circuits: same primary
//! input/output counts, same flip-flop count (combinationalised into
//! pseudo-I/O exactly like the parser does), same functional gate count and
//! a comparable fan-in distribution. Real `.bench` files drop in unchanged
//! through [`parse_bench`](crate::parse_bench).

use crate::circuit::{Circuit, CircuitBuilder};
use crate::gate::{GateId, GateKind};
use rand::distributions::{Distribution, WeightedIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters for the seeded random circuit generator.
///
/// # Examples
///
/// ```
/// use gatediag_netlist::RandomCircuitSpec;
/// let c = RandomCircuitSpec::new(8, 4, 64).seed(7).generate();
/// assert_eq!(c.inputs().len(), 8);
/// assert!(c.outputs().len() >= 4);
/// assert!(c.num_functional_gates() >= 64);
/// ```
#[derive(Clone, Debug)]
pub struct RandomCircuitSpec {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    num_gates: usize,
    num_latches: usize,
    max_fanin: usize,
    locality: f64,
    seed: u64,
}

impl RandomCircuitSpec {
    /// Creates a spec with `num_inputs` primary inputs, at least
    /// `num_outputs` primary outputs and roughly `num_gates` functional
    /// gates.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs == 0` or `num_gates == 0`.
    pub fn new(num_inputs: usize, num_outputs: usize, num_gates: usize) -> Self {
        assert!(num_inputs > 0, "need at least one input");
        assert!(num_gates > 0, "need at least one gate");
        RandomCircuitSpec {
            name: String::new(),
            num_inputs,
            num_outputs: num_outputs.max(1),
            num_gates,
            num_latches: 0,
            max_fanin: 4,
            locality: 3.0,
            seed: 0,
        }
    }

    /// Sets the circuit name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the RNG seed (generation is fully deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of flip-flops to model as pseudo-primary input/output pairs.
    pub fn latches(mut self, num_latches: usize) -> Self {
        self.num_latches = num_latches;
        self
    }

    /// Maximum gate fan-in (default 4, minimum 2).
    pub fn max_fanin(mut self, max_fanin: usize) -> Self {
        self.max_fanin = max_fanin.max(2);
        self
    }

    /// Locality exponent: larger values bias fan-in selection towards
    /// recently created gates, producing deeper circuits (default 3.0).
    pub fn locality(mut self, locality: f64) -> Self {
        self.locality = locality.max(1.0);
        self
    }

    /// Generates the circuit.
    ///
    /// Guarantees: exactly `num_inputs + num_latches` inputs, at least
    /// `num_outputs` outputs, no dead gates (every gate reaches some
    /// output), acyclic by construction.
    pub fn generate(&self) -> Circuit {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut b = CircuitBuilder::new();
        b.name(self.name.clone());

        let mut nodes: Vec<GateId> = Vec::new();
        for i in 0..self.num_inputs {
            nodes.push(b.input(format!("pi{i}")));
        }
        let mut latch_qs = Vec::new();
        for i in 0..self.num_latches {
            let q = b.input(format!("ff{i}_q"));
            latch_qs.push(q);
            nodes.push(q);
        }

        let arity_weights = match self.max_fanin {
            2 => vec![(1usize, 8u32), (2, 72)],
            3 => vec![(1, 8), (2, 60), (3, 12)],
            _ => vec![(1, 8), (2, 56), (3, 12), (4, 4)],
        };
        let arity_dist = WeightedIndex::new(arity_weights.iter().map(|&(_, w)| w))
            .expect("static weights are valid");
        // ISCAS-ish mix: NAND/NOR heavy, some AND/OR, a sprinkle of XOR.
        let kind2 = [
            (GateKind::Nand, 30u32),
            (GateKind::Nor, 18),
            (GateKind::And, 22),
            (GateKind::Or, 18),
            (GateKind::Xor, 7),
            (GateKind::Xnor, 5),
        ];
        let kind2_dist =
            WeightedIndex::new(kind2.iter().map(|&(_, w)| w)).expect("static weights are valid");

        // `fanout_free` may hold stale entries; `has_fanout` is the truth.
        // Stale entries are discarded lazily when sampled (amortised O(1)).
        let mut fanout_free: Vec<GateId> = Vec::new();
        let mut has_fanout = vec![false; self.num_inputs + self.num_latches + self.num_gates + 8];

        let pick = |rng: &mut ChaCha8Rng, nodes: &[GateId], locality: f64| -> GateId {
            let u: f64 = rng.gen::<f64>();
            // u^(1/locality) biased towards 1.0 => recent nodes.
            let idx = ((u.powf(1.0 / locality)) * nodes.len() as f64) as usize;
            nodes[idx.min(nodes.len() - 1)]
        };

        for g in 0..self.num_gates {
            let arity = arity_weights[arity_dist.sample(&mut rng)].0;
            let (kind, arity) = if arity == 1 {
                (
                    if rng.gen_bool(0.7) {
                        GateKind::Not
                    } else {
                        GateKind::Buf
                    },
                    1,
                )
            } else {
                (kind2[kind2_dist.sample(&mut rng)].0, arity)
            };
            let mut fanins: Vec<GateId> = Vec::with_capacity(arity);
            // Prefer a not-yet-consumed node for the first fan-in half of the
            // time so no logic is left dangling.
            if rng.gen_bool(0.5) {
                while !fanout_free.is_empty() {
                    let i = rng.gen_range(0..fanout_free.len());
                    let cand = fanout_free.swap_remove(i);
                    if !has_fanout[cand.index()] {
                        fanins.push(cand);
                        break;
                    }
                }
            }
            let mut guard = 0;
            while fanins.len() < arity {
                let cand = pick(&mut rng, &nodes, self.locality);
                if !fanins.contains(&cand) {
                    fanins.push(cand);
                } else {
                    guard += 1;
                    if guard > 64 {
                        // tiny node pool; allow fewer fan-ins by switching kind
                        break;
                    }
                }
            }
            let (kind, fanins) = if fanins.len() < 2 && arity >= 2 {
                (GateKind::Not, vec![fanins[0]])
            } else {
                (kind, fanins)
            };
            for &f in &fanins {
                has_fanout[f.index()] = true;
            }
            let id = b.gate(kind, fanins, format!("n{g}"));
            if id.index() >= has_fanout.len() {
                has_fanout.resize(id.index() + 1, false);
            }
            nodes.push(id);
            fanout_free.push(id);
        }

        // Sinks become outputs; merge down or promote up to hit num_outputs.
        let want = self.num_outputs + self.num_latches;
        let mut sinks: Vec<GateId> = nodes
            .iter()
            .copied()
            .filter(|&id| !has_fanout[id.index()] && !b.kind_of(id).is_source())
            .collect();
        if sinks.is_empty() {
            sinks.push(*nodes.last().expect("num_gates > 0 guarantees a node"));
        }
        let mut merge_idx = 0usize;
        while sinks.len() > want {
            let take = (sinks.len() - want + 1).clamp(2, self.max_fanin.max(2));
            let group: Vec<GateId> = sinks.drain(..take).collect();
            let kind = kind2[kind2_dist.sample(&mut rng)].0;
            let id = b.gate(kind, group, format!("m{merge_idx}"));
            merge_idx += 1;
            sinks.push(id);
        }
        let mut promoted: Vec<GateId> = Vec::new();
        if sinks.len() < want {
            // Promote internal gates (most recent first for observability).
            for &id in nodes.iter().rev() {
                if sinks.len() + promoted.len() >= want {
                    break;
                }
                if !sinks.contains(&id) && !promoted.contains(&id) {
                    promoted.push(id);
                }
            }
        }

        let mut all_outputs: Vec<GateId> = sinks;
        all_outputs.extend(promoted);
        // The first `num_latches` outputs become latch data inputs.
        for (i, &q) in latch_qs.iter().enumerate() {
            let d = all_outputs[i % all_outputs.len()];
            b.latch(q, d);
        }
        for &o in &all_outputs {
            b.output(o);
        }

        b.finish()
            .expect("generator invariants guarantee a valid DAG")
    }
}

/// Profile-matched stand-in for ISCAS89 `s1423` (17 PI, 5 PO, 74 FF,
/// ~657 gates). See the module docs for why a synthetic profile is used.
pub fn s1423_like(seed: u64) -> Circuit {
    RandomCircuitSpec::new(17, 5, 657)
        .latches(74)
        .seed(seed)
        .name(format!("s1423_like[{seed}]"))
        .generate()
}

/// Profile-matched stand-in for ISCAS89 `s6669` (83 PI, 55 PO, 239 FF,
/// ~3402 gates).
pub fn s6669_like(seed: u64) -> Circuit {
    RandomCircuitSpec::new(83, 55, 3402)
        .latches(239)
        .seed(seed)
        .name(format!("s6669_like[{seed}]"))
        .generate()
}

/// Profile-matched stand-in for ISCAS89 `s38417` (28 PI, 106 PO, 1636 FF,
/// ~23815 gates).
pub fn s38417_like(seed: u64) -> Circuit {
    RandomCircuitSpec::new(28, 106, 23815)
        .latches(1636)
        .seed(seed)
        .name(format!("s38417_like[{seed}]"))
        .generate()
}

/// The ISCAS85 `c17` benchmark (6 NAND gates), the classic smoke-test
/// circuit.
pub fn c17() -> Circuit {
    crate::bench_format::parse_bench_named(
        "\
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
",
        "c17",
    )
    .expect("c17 source is well-formed")
}

/// An `n`-bit ripple-carry adder: inputs `a0..a(n-1)`, `b0..b(n-1)`, `cin`;
/// outputs `s0..s(n-1)`, `cout`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ripple_carry_adder(n: usize) -> Circuit {
    assert!(n > 0, "adder width must be positive");
    let mut b = CircuitBuilder::new();
    b.name(format!("rca{n}"));
    let a: Vec<GateId> = (0..n).map(|i| b.input(format!("a{i}"))).collect();
    let bb: Vec<GateId> = (0..n).map(|i| b.input(format!("b{i}"))).collect();
    let mut carry = b.input("cin");
    for i in 0..n {
        let axb = b.gate(GateKind::Xor, vec![a[i], bb[i]], format!("axb{i}"));
        let s = b.gate(GateKind::Xor, vec![axb, carry], format!("s{i}"));
        let t1 = b.gate(GateKind::And, vec![axb, carry], format!("t1_{i}"));
        let t2 = b.gate(GateKind::And, vec![a[i], bb[i]], format!("t2_{i}"));
        let c = b.gate(GateKind::Or, vec![t1, t2], format!("c{i}"));
        b.output(s);
        carry = c;
    }
    b.output(carry);
    b.finish().expect("adder construction is valid")
}

/// A balanced XOR parity tree over `width` inputs; single output `parity`.
///
/// # Panics
///
/// Panics if `width < 2`.
pub fn parity_tree(width: usize) -> Circuit {
    assert!(width >= 2, "parity needs at least two inputs");
    let mut b = CircuitBuilder::new();
    b.name(format!("parity{width}"));
    let mut layer: Vec<GateId> = (0..width).map(|i| b.input(format!("x{i}"))).collect();
    let mut idx = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(b.gate(GateKind::Xor, vec![pair[0], pair[1]], format!("p{idx}")));
                idx += 1;
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    b.output(layer[0]);
    b.finish().expect("parity construction is valid")
}

/// Fair coins from a seeded ChaCha8 stream, drawn 64 at a time.
///
/// Coin `k` is `true` exactly when the sign bit of the stream's `k`-th
/// `next_u64` draw is clear, which is what `gen_bool(0.5)` answers for
/// that draw. So the coins are those of one `gen_bool(0.5)` per coin on
/// the same generator, but [`ChaCha8Rng::top_bits64`] fetches their
/// sign bits 64 at a time into a reservoir.
#[derive(Clone, Debug)]
pub struct FairCoins {
    rng: ChaCha8Rng,
    /// Undrawn sign bits, the next one at bit 0.
    signs: u64,
    /// How many bits of `signs` are undrawn.
    left: usize,
}

impl FairCoins {
    /// Coins from `rng`'s stream, starting at its next draw.
    pub fn new(rng: ChaCha8Rng) -> FairCoins {
        FairCoins {
            rng,
            signs: 0,
            left: 0,
        }
    }

    /// The next coin.
    #[inline]
    pub fn flip(&mut self) -> bool {
        self.signs(1).0 == 0
    }

    /// Takes up to `max` (1 to 64) coins from the reservoir, refilling it
    /// when it is dry: their sign bits (coin `k` at bit `k`, the bits
    /// above zero) and how many were taken.
    #[inline]
    fn signs(&mut self, max: usize) -> (u64, usize) {
        if self.left == 0 {
            self.signs = self.rng.top_bits64();
            self.left = 64;
        }
        let take = max.min(self.left);
        let signs = self.signs & u64::MAX >> (64 - take);
        self.signs = self.signs.checked_shr(take as u32).unwrap_or(0);
        self.left -= take;
        (signs, take)
    }
}

/// Deterministic pseudo-random input vector generator for a circuit.
///
/// Produces `Vec<bool>` assignments over `circuit.inputs()` order, or
/// packs them straight into input words ([`VectorGen::next_packed`]).
/// Each input bit is one of the seeded stream's [`FairCoins`],
/// vector-major and input-minor, and both methods drain the same coins:
/// any mix of calls yields the vectors that one `gen_bool(0.5)` per bit
/// would, in the same order.
#[derive(Clone, Debug)]
pub struct VectorGen {
    coins: FairCoins,
    width: usize,
    /// [`VectorGen::next_packed`]'s batch bitstream, reused across calls.
    stream: Vec<u64>,
}

impl VectorGen {
    /// Creates a generator for `circuit`-width vectors.
    pub fn new(circuit: &Circuit, seed: u64) -> Self {
        VectorGen {
            coins: FairCoins::new(ChaCha8Rng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d)),
            width: circuit.inputs().len(),
            stream: Vec::new(),
        }
    }

    /// Next pseudo-random input vector.
    pub fn next_vector(&mut self) -> Vec<bool> {
        (0..self.width).map(|_| self.coins.flip()).collect()
    }

    /// Draws the next `n` vectors straight into packed input words,
    /// reusing `out`; returns `W = ceil(n / 64)` (at least 1).
    ///
    /// The layout is input-major, the one `PackedSim::set_input_words`
    /// consumes: input `i`'s words are `out[i * W .. (i + 1) * W]`, vector
    /// `p` at bit `p % 64` of word `p / 64`. Lanes past `n` are zero. The
    /// vectors are exactly those of `n` calls to
    /// [`VectorGen::next_vector`], on the same stream.
    ///
    /// The batch's `n * width` coins are first laid out as one bitstream,
    /// coin `p * width + i` at bit `p * width + i`, set for `true`. Vector
    /// `p`'s inputs `64j .. 64j + 64` are then the 64 bits of the stream
    /// from bit `p * width + 64j`, so each tile of 64 vectors by 64 inputs
    /// is 64 unaligned word reads, one 64 x 64 bit transpose and 64 word
    /// stores.
    pub fn next_packed(&mut self, n: usize, out: &mut Vec<u64>) -> usize {
        let words = n.div_ceil(64).max(1);
        out.clear();
        out.resize(self.width * words, 0);
        let coins = n * self.width;
        // One zero word past the coins keeps every unaligned read in
        // bounds.
        self.stream.clear();
        self.stream.resize(coins.div_ceil(64) + 1, 0);
        let mut at = 0;
        while at < coins {
            let (signs, take) = self.coins.signs((coins - at).min(64));
            let ones = !signs & u64::MAX >> (64 - take);
            let (w, b) = (at / 64, at % 64);
            self.stream[w] |= ones << b;
            if b + take > 64 {
                self.stream[w + 1] |= ones >> (64 - b);
            }
            at += take;
        }
        let mut tile = [0u64; 64];
        for block in 0..words {
            let vectors = (n - block * 64).min(64);
            for first in (0..self.width).step_by(64) {
                let inputs = (self.width - first).min(64);
                let mask = u64::MAX >> (64 - inputs);
                for (r, row) in tile.iter_mut().enumerate() {
                    *row = if r < vectors {
                        read_bits(&self.stream, (block * 64 + r) * self.width + first) & mask
                    } else {
                        0
                    };
                }
                transpose64(&mut tile);
                for (c, &column) in tile[..inputs].iter().enumerate() {
                    out[(first + c) * words + block] = column;
                }
            }
        }
        words
    }
}

/// The 64 bits of `stream` from bit `at` on, bit `at` at bit 0.
/// `stream` must hold a word past the one that bit `at` is in.
#[inline(always)]
fn read_bits(stream: &[u64], at: usize) -> u64 {
    let (w, s) = (at / 64, at % 64);
    // `<< 1 << (63 - s)` is `<< (64 - s)`, and zero at `s = 0`.
    stream[w] >> s | stream[w + 1] << 1 << (63 - s)
}

/// Transposes a 64 x 64 bit matrix in place: bit `c` of word `r` swaps
/// with bit `r` of word `c`. Each round swaps the off-diagonal `j x j`
/// blocks of every `2j x 2j` block, for `j` = 32, 16, .., 1.
#[inline]
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        for base in (0..64).step_by(2 * j) {
            for r in base..base + j {
                let t = (a[r] >> j ^ a[r + j]) & mask;
                a[r] ^= t << j;
                a[r + j] ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fanout_cone;

    #[test]
    fn random_is_deterministic() {
        let a = RandomCircuitSpec::new(6, 3, 40).seed(42).generate();
        let b = RandomCircuitSpec::new(6, 3, 40).seed(42).generate();
        assert_eq!(a, b);
        let c = RandomCircuitSpec::new(6, 3, 40).seed(43).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn random_respects_profile() {
        let c = RandomCircuitSpec::new(10, 4, 100)
            .latches(5)
            .seed(1)
            .generate();
        assert_eq!(c.inputs().len(), 15);
        assert!(c.outputs().len() >= 9, "outputs: {}", c.outputs().len());
        assert!(c.num_functional_gates() >= 100);
        assert_eq!(c.latches().len(), 5);
    }

    #[test]
    fn random_has_no_dead_logic() {
        let c = RandomCircuitSpec::new(8, 3, 120).seed(9).generate();
        // every functional gate reaches at least one output
        let mut reach = crate::analysis::GateSet::new(c.len());
        for &o in c.outputs() {
            let cone = crate::analysis::fanin_cone(&c, &[o]);
            reach.union_with(&cone);
        }
        for (id, g) in c.iter() {
            if !g.kind().is_source() {
                assert!(reach.contains(id), "dead gate {id}");
            }
        }
    }

    #[test]
    fn random_inputs_feed_something() {
        let c = RandomCircuitSpec::new(8, 3, 120).seed(11).generate();
        for &pi in c.inputs() {
            let cone = fanout_cone(&c, &[pi]);
            // At least itself plus usually some fanout; inputs may rarely be
            // dangling if the RNG never picked them, but the generator biases
            // against it. Tolerate sinks only for latch queues.
            assert!(!cone.is_empty());
        }
    }

    #[test]
    fn profiles_match_iscas_counts() {
        let c = s1423_like(3);
        assert_eq!(c.inputs().len(), 17 + 74);
        assert!(c.outputs().len() >= 5 + 74);
        assert!(c.num_functional_gates() >= 657);
        assert_eq!(c.latches().len(), 74);
    }

    #[test]
    fn c17_structure() {
        let c = c17();
        assert_eq!(c.num_functional_gates(), 6);
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn adder_counts() {
        let c = ripple_carry_adder(4);
        assert_eq!(c.inputs().len(), 9);
        assert_eq!(c.outputs().len(), 5);
        assert_eq!(c.num_functional_gates(), 4 * 5);
    }

    #[test]
    fn parity_counts() {
        let c = parity_tree(8);
        assert_eq!(c.inputs().len(), 8);
        assert_eq!(c.num_functional_gates(), 7);
        assert_eq!(c.depth(), 3);
        let c3 = parity_tree(3);
        assert_eq!(c3.num_functional_gates(), 2);
    }

    #[test]
    fn vector_gen_deterministic() {
        let c = c17();
        let mut g1 = VectorGen::new(&c, 5);
        let mut g2 = VectorGen::new(&c, 5);
        assert_eq!(g1.next_vector(), g2.next_vector());
        assert_eq!(g1.next_vector().len(), 5);
    }

    #[test]
    fn next_packed_matches_next_vector_stream() {
        let c = c17();
        for n in [1usize, 63, 64, 65, 130] {
            let mut scalar = VectorGen::new(&c, 9);
            let mut packed = VectorGen::new(&c, 9);
            let vectors: Vec<Vec<bool>> = (0..n).map(|_| scalar.next_vector()).collect();
            let mut out = Vec::new();
            let words = packed.next_packed(n, &mut out);
            assert_eq!(words, n.div_ceil(64));
            for (p, v) in vectors.iter().enumerate() {
                for (i, &bit) in v.iter().enumerate() {
                    assert_eq!(out[i * words + p / 64] >> (p % 64) & 1 == 1, bit);
                }
            }
            // Unused lanes of the last word stay zero.
            if !n.is_multiple_of(64) {
                for i in 0..c.inputs().len() {
                    assert_eq!(out[i * words + words - 1] >> (n % 64), 0);
                }
            }
            // Both generators continue on the same stream.
            assert_eq!(scalar.next_vector(), packed.next_vector());
        }
    }

    /// Any mix of `next_vector` and `next_packed` calls yields the
    /// vectors of one `gen_bool(0.5)` per input bit on the seeded stream,
    /// the generator's definition.
    #[test]
    fn vectors_follow_one_gen_bool_per_bit() {
        for (width, seed) in [
            (1usize, 3u64),
            (5, 4),
            (63, 8),
            (64, 5),
            (65, 9),
            (91, 6),
            (128, 10),
            (131, 7),
            (322, 11),
        ] {
            let mut b = CircuitBuilder::new();
            let inputs: Vec<GateId> = (0..width).map(|i| b.input(format!("i{i}"))).collect();
            b.output(inputs[0]);
            let c = b.finish().expect("inputs-only circuit is valid");
            let mut gen = VectorGen::new(&c, seed);
            let mut reference = ChaCha8Rng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
            let mut expect = |n: usize| -> Vec<Vec<bool>> {
                (0..n)
                    .map(|_| (0..width).map(|_| reference.gen_bool(0.5)).collect())
                    .collect()
            };
            let mut out = Vec::new();
            for (step, n) in [1usize, 3, 64, 0, 130, 7, 513, 2].into_iter().enumerate() {
                if step % 3 == 1 {
                    let got: Vec<Vec<bool>> = (0..n).map(|_| gen.next_vector()).collect();
                    assert_eq!(got, expect(n), "width {width}, step {step}");
                    continue;
                }
                let words = gen.next_packed(n, &mut out);
                for (p, v) in expect(n).iter().enumerate() {
                    for (i, &bit) in v.iter().enumerate() {
                        let got = out[i * words + p / 64] >> (p % 64) & 1 == 1;
                        assert_eq!(got, bit, "width {width}, step {step}, vector {p}");
                    }
                }
                for i in 0..width {
                    for p in n..words * 64 {
                        assert_eq!(out[i * words + p / 64] >> (p % 64) & 1, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut a = [0u64; 64];
        for row in &mut a {
            *row = rng.gen::<u64>();
        }
        let mut t = a;
        transpose64(&mut t);
        for (r, &row) in a.iter().enumerate() {
            for (c, &column) in t.iter().enumerate() {
                assert_eq!(row >> c & 1, column >> r & 1, "row {r}, column {c}");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, a);
    }
}
