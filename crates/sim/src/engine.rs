//! `PackedSim`: the reusable multi-word bit-parallel simulation engine.
//!
//! The free functions in [`crate::packed`] allocate fresh buffers per call
//! and cap the batch at 64 patterns. `PackedSim` removes both limits:
//!
//! * it owns all scratch buffers, so repeated sweeps (candidate
//!   screening, test generation, diagnosis over many tests) allocate
//!   nothing after the first [`PackedSim::reset`];
//! * each gate carries `W` 64-bit words, so one topological sweep
//!   evaluates `64 * W` patterns;
//! * forced values are a *sparse overlay* (epoch tagged, O(1) to clear)
//!   instead of a dense `Vec<Option<u64>>`;
//! * an event-driven incremental mode ([`PackedSim::propagate`])
//!   re-evaluates only the fan-out cone of changed gates, in level order,
//!   which is what makes per-candidate screening (validity oracles)
//!   near-free.
//!
//! # Lifecycle
//!
//! ```text
//! new(circuit)                   bind to a circuit, no allocation yet
//!   reset(W)                     size buffers for 64*W patterns, clear the overlay
//!     set_input_words / set_inputs_broadcast
//!     sweep()                    full linear topological sweep -> baseline
//!     sweep_gates(list)          the same over a topo-ordered gate list (a cone)
//!       force                    sparse overlay edit (schedules the gate)
//!       propagate()              incremental: touched cones only
//!       clear_forced + propagate()  -> back to baseline
//!   reset(W')                    repartition for a different pattern count
//! ```
//!
//! The engine's per-lane results are bit-identical to the scalar
//! [`crate::simulate_forced`] reference; property tests enforce this.

use gatediag_netlist::{Circuit, GateId, GateKind};

/// Reusable multi-word bit-parallel simulator with a sparse forced-value
/// overlay and event-driven incremental resimulation.
///
/// See the [crate docs](crate) for the lifecycle. Values are stored
/// gate-major: gate `g`'s patterns live in
/// `values()[g.index() * words_per_gate() ..][.. words_per_gate()]`,
/// with pattern `p` at bit `p % 64` of word `p / 64`.
#[derive(Clone, Debug)]
pub struct PackedSim<'c> {
    circuit: &'c Circuit,
    words: usize,
    values: Vec<u64>,
    input_words: Vec<u64>,
    /// Gate index -> position in `circuit.inputs()`, `u32::MAX` otherwise.
    input_pos: Vec<u32>,

    epoch: u32,
    forced_epoch: Vec<u32>,
    forced_vals: Vec<u64>,
    forced_list: Vec<GateId>,

    queued: Vec<bool>,
    buckets: Vec<Vec<u32>>,
    pending: usize,
}

impl<'c> PackedSim<'c> {
    /// Binds an engine to `circuit`. Buffers are sized by the first
    /// [`PackedSim::reset`].
    pub fn new(circuit: &'c Circuit) -> PackedSim<'c> {
        let mut input_pos = vec![u32::MAX; circuit.len()];
        for (p, &id) in circuit.inputs().iter().enumerate() {
            input_pos[id.index()] = p as u32;
        }
        PackedSim {
            circuit,
            words: 0,
            values: Vec::new(),
            input_words: Vec::new(),
            input_pos,
            epoch: 1,
            forced_epoch: Vec::new(),
            forced_vals: Vec::new(),
            forced_list: Vec::new(),
            queued: Vec::new(),
            buckets: Vec::new(),
            pending: 0,
        }
    }

    /// The circuit this engine simulates.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Current number of 64-bit words per gate (`0` before the first
    /// [`PackedSim::reset`]).
    #[inline]
    pub fn words_per_gate(&self) -> usize {
        self.words
    }

    /// Number of patterns carried per sweep (`64 * words_per_gate`).
    #[inline]
    pub fn num_patterns(&self) -> usize {
        self.words * 64
    }

    /// Sizes the engine for `words` 64-bit words per gate (`64 * words`
    /// patterns), clearing all values, the overlay and pending events.
    ///
    /// Buffers are reused when possible; calling `reset` with the current
    /// width is cheap and simply returns the engine to a pristine state.
    ///
    /// After a `reset`, the first simulation MUST be a full
    /// [`PackedSim::sweep`]: the zeroed value array is not a consistent
    /// assignment, and input setters only schedule *changed* inputs, so
    /// [`PackedSim::propagate`] alone would leave non-input gates stale.
    /// Once one sweep has run, everything can be incremental.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn reset(&mut self, words: usize) {
        assert!(words > 0, "need at least one word per gate");
        let n = self.circuit.len();
        self.words = words;
        self.values.clear();
        self.values.resize(n * words, 0);
        self.input_words.clear();
        self.input_words
            .resize(self.circuit.inputs().len() * words, 0);
        self.forced_epoch.clear();
        self.forced_epoch.resize(n, 0);
        self.forced_vals.clear();
        self.forced_vals.resize(n * words, 0);
        self.forced_list.clear();
        self.epoch = 1;
        self.queued.clear();
        self.queued.resize(n, false);
        let depth = self.circuit.depth() as usize + 1;
        if self.buckets.len() < depth {
            self.buckets.resize(depth, Vec::new());
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.pending = 0;
    }

    /// Loads pre-packed input patterns, input-major: input `i`'s words at
    /// `words[i * words_per_gate() ..][.. words_per_gate()]`.
    ///
    /// # Panics
    ///
    /// Panics if the engine was not `reset` or the slice length is not
    /// `circuit.inputs().len() * words_per_gate()`.
    pub fn set_input_words(&mut self, words: &[u64]) {
        assert!(self.words > 0, "reset() must be called first");
        assert_eq!(
            words.len(),
            self.input_words.len(),
            "input word count mismatch"
        );
        let w = self.words;
        let circuit: &Circuit = self.circuit;
        for (i, &id) in circuit.inputs().iter().enumerate() {
            if self.input_words[i * w..(i + 1) * w] != words[i * w..(i + 1) * w] {
                self.input_words[i * w..(i + 1) * w].copy_from_slice(&words[i * w..(i + 1) * w]);
                self.schedule(id);
            }
        }
    }

    /// Broadcasts one scalar input vector to every lane.
    ///
    /// # Panics
    ///
    /// Panics if the engine was not `reset` or the vector width differs
    /// from `circuit.inputs()`.
    pub fn set_inputs_broadcast(&mut self, vector: &[bool]) {
        assert!(self.words > 0, "reset() must be called first");
        assert_eq!(
            vector.len(),
            self.circuit.inputs().len(),
            "input vector width mismatch"
        );
        let w = self.words;
        let circuit: &Circuit = self.circuit;
        for (i, &bit) in vector.iter().enumerate() {
            let word = if bit { !0u64 } else { 0 };
            if self.input_words[i * w..(i + 1) * w]
                .iter()
                .any(|&x| x != word)
            {
                self.input_words[i * w..(i + 1) * w].fill(word);
                self.schedule(circuit.inputs()[i]);
            }
        }
    }

    /// Forces gate `g` to the given pattern words, overriding its logic
    /// until [`PackedSim::clear_forced`]. Takes effect at the next
    /// [`PackedSim::sweep`] or [`PackedSim::propagate`].
    ///
    /// # Panics
    ///
    /// Panics if the engine was not `reset` or `words.len()` differs from
    /// `words_per_gate()`.
    pub fn force(&mut self, g: GateId, words: &[u64]) {
        assert!(self.words > 0, "reset() must be called first");
        assert_eq!(words.len(), self.words, "forced word count mismatch");
        let i = g.index();
        if self.forced_epoch[i] != self.epoch {
            self.forced_epoch[i] = self.epoch;
            self.forced_list.push(g);
        }
        self.forced_vals[i * self.words..(i + 1) * self.words].copy_from_slice(words);
        self.schedule(g);
    }

    /// Forces gate `g` to `value` on every lane (allocation-free).
    pub fn force_all_lanes(&mut self, g: GateId, value: bool) {
        assert!(self.words > 0, "reset() must be called first");
        let word = if value { !0u64 } else { 0 };
        let i = g.index();
        if self.forced_epoch[i] != self.epoch {
            self.forced_epoch[i] = self.epoch;
            self.forced_list.push(g);
        }
        self.forced_vals[i * self.words..(i + 1) * self.words].fill(word);
        self.schedule(g);
    }

    /// Removes every forcing in O(#forced), scheduling the affected gates
    /// so the next [`PackedSim::propagate`] restores their logic values.
    pub fn clear_forced(&mut self) {
        let list = std::mem::take(&mut self.forced_list);
        for &g in &list {
            self.schedule(g);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: invalidate stale marks explicitly.
            self.forced_epoch.fill(u32::MAX);
            self.epoch = 1;
        }
    }

    #[inline]
    fn schedule(&mut self, g: GateId) {
        let i = g.index();
        if !self.queued[i] {
            self.queued[i] = true;
            self.buckets[self.circuit.level(g) as usize].push(i as u32);
            self.pending += 1;
        }
    }

    /// Writes gate `i`'s words: its forced words, its input words, or the
    /// [`eval_gate`] kernel over its fan-ins; returns `true` if any word
    /// changed. The one evaluator behind both [`PackedSim::sweep`], which
    /// ignores the answer, and [`PackedSim::propagate`].
    #[inline(always)]
    fn eval(&mut self, i: usize, heads: &[u32], edges: &[GateId]) -> bool {
        let w = self.words;
        let base = i * w;
        if self.forced_epoch[i] == self.epoch {
            return copy_words(
                &mut self.values[base..base + w],
                &self.forced_vals[base..base + w],
            );
        }
        let kind = self.circuit.kinds()[i];
        if kind == GateKind::Input {
            let pos = self.input_pos[i] as usize * w;
            return copy_words(
                &mut self.values[base..base + w],
                &self.input_words[pos..pos + w],
            );
        }
        let fanins = &edges[heads[i] as usize..heads[i + 1] as usize];
        eval_gate(&mut self.values, w, i, kind, fanins)
    }

    /// Full linear topological sweep: every gate is evaluated once, in
    /// topo order, honouring the current input words and forced values.
    /// Establishes the baseline for subsequent incremental updates.
    ///
    /// It is [`PackedSim::sweep_gates`] over the whole topological order.
    ///
    /// # Panics
    ///
    /// Panics if the engine was not `reset`.
    pub fn sweep(&mut self) {
        let circuit: &'c Circuit = self.circuit;
        self.sweep_gates(circuit.topo_order());
    }

    /// Evaluates exactly `gates`, in the given order, each once, honouring
    /// the current input words and forced values; every other gate keeps its
    /// words. `gates` must list every gate after its fan-ins, or a gate
    /// reads its fan-ins' previous words. A restricted sweep evaluates a
    /// cone: a gate list closed under fan-ins (say, a fan-in cone in topo
    /// order) gets the values a full sweep gives it.
    ///
    /// It runs the same per-gate evaluator as [`PackedSim::propagate`]
    /// but ignores whether a gate changed, so after inlining it tracks no
    /// changes. Pending events are dropped: after a restricted sweep
    /// only a full [`PackedSim::sweep`] re-establishes a baseline for
    /// [`PackedSim::propagate`].
    ///
    /// # Panics
    ///
    /// Panics if the engine was not `reset`.
    pub fn sweep_gates(&mut self, gates: &[GateId]) {
        assert!(self.words > 0, "reset() must be called first");
        // A sweep subsumes all pending events.
        if self.pending > 0 {
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            self.queued.fill(false);
            self.pending = 0;
        }
        let circuit: &Circuit = self.circuit;
        let (heads, edges) = circuit.fanin_csr();
        for &id in gates {
            self.eval(id.index(), heads, edges);
        }
        // Charged per sweep, not per gate, so the hot loop stays clean.
        let evals = gates.len() as u64;
        gatediag_obs::count("sim.sweeps", 1);
        gatediag_obs::count("sim.gate_evals", evals);
        gatediag_obs::count("sim.words", evals * self.words as u64);
    }

    /// Event-driven incremental resimulation: processes scheduled gates in
    /// level order, following value changes through fan-out cones only.
    /// Returns the number of gate evaluations performed.
    pub fn propagate(&mut self) -> u64 {
        let circuit: &Circuit = self.circuit;
        let (heads, edges) = circuit.fanin_csr();
        let mut evals = 0u64;
        let mut level = 0usize;
        while self.pending > 0 && level < self.buckets.len() {
            // Per-level drain; newly scheduled gates land in strictly
            // higher buckets because fan-outs have strictly higher levels.
            while let Some(i) = self.buckets[level].pop() {
                let i = i as usize;
                if !self.queued[i] {
                    continue;
                }
                self.queued[i] = false;
                self.pending -= 1;
                evals += 1;
                if self.eval(i, heads, edges) {
                    for &succ in circuit.fanouts(GateId::new(i)) {
                        self.schedule(succ);
                    }
                }
            }
            level += 1;
        }
        gatediag_obs::count("sim.propagate_evals", evals);
        gatediag_obs::count("sim.words", evals * self.words as u64);
        evals
    }

    /// The full packed value array, gate-major (`len() * words_per_gate()`
    /// words). Valid after [`PackedSim::sweep`] / [`PackedSim::propagate`].
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The pattern words of gate `g`.
    #[inline]
    pub fn value_words(&self, g: GateId) -> &[u64] {
        let base = g.index() * self.words;
        &self.values[base..base + self.words]
    }

    /// The value of gate `g` on pattern `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= num_patterns()`.
    #[inline]
    pub fn lane(&self, g: GateId, lane: usize) -> bool {
        assert!(lane < self.num_patterns(), "lane out of range");
        self.values[g.index() * self.words + lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Extracts pattern `lane` over all gates as a `Vec<bool>`, indexed by
    /// gate id.
    pub fn unpack_lane(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.num_patterns(), "lane out of range");
        let w = self.words;
        (0..self.circuit.len())
            .map(|i| self.values[i * w + lane / 64] >> (lane % 64) & 1 == 1)
            .collect()
    }
}

/// Copies `src` over `dst`; returns `true` if any word changed.
#[inline(always)]
fn copy_words(dst: &mut [u64], src: &[u64]) -> bool {
    let changed = dst != src;
    dst.copy_from_slice(src);
    changed
}

/// Evaluates gate `i` (of `kind`, a non-source kind or a constant) into
/// its `w` words of the gate-major `values` from its fan-ins' words: per
/// word, the fan-ins fold from the kind's identity under AND, OR or XOR,
/// and the negated kinds invert the result. Returns `true` if any word
/// changed. Bit-identical to [`GateKind::eval_word`] on every word.
#[inline(always)]
fn eval_gate(values: &mut [u64], w: usize, i: usize, kind: GateKind, fanins: &[GateId]) -> bool {
    let and = |a: u64, b: u64| a & b;
    let or = |a: u64, b: u64| a | b;
    let xor = |a: u64, b: u64| a ^ b;
    match kind {
        GateKind::Const0 => fold_words(values, w, i, &[], 0, 0, or),
        GateKind::Const1 => fold_words(values, w, i, &[], !0, 0, and),
        GateKind::And => fold_words(values, w, i, fanins, !0, 0, and),
        GateKind::Nand => fold_words(values, w, i, fanins, !0, !0, and),
        GateKind::Or | GateKind::Buf => fold_words(values, w, i, fanins, 0, 0, or),
        GateKind::Nor | GateKind::Not => fold_words(values, w, i, fanins, 0, !0, or),
        GateKind::Xor => fold_words(values, w, i, fanins, 0, 0, xor),
        GateKind::Xnor => fold_words(values, w, i, fanins, 0, !0, xor),
        GateKind::Input => unreachable!("inputs are loaded, not evaluated"),
    }
}

/// Each word of gate `i` becomes `invert ^` the fold of `op` from
/// `identity` over that word of each fan-in; returns `true` if any word
/// changed. The words go in chunks of [`CHUNK`], each folded over all
/// fan-ins in registers, then one by one.
#[inline(always)]
fn fold_words(
    values: &mut [u64],
    w: usize,
    i: usize,
    fanins: &[GateId],
    identity: u64,
    invert: u64,
    op: impl Fn(u64, u64) -> u64 + Copy,
) -> bool {
    let mut changed = false;
    let mut k = 0;
    while k + CHUNK <= w {
        changed |= fold_chunk::<CHUNK>(values, w, i, k, fanins, identity, invert, op);
        k += CHUNK;
    }
    while k < w {
        changed |= fold_chunk::<1>(values, w, i, k, fanins, identity, invert, op);
        k += 1;
    }
    changed
}

/// Words folded together by [`fold_words`].
const CHUNK: usize = 4;

/// [`fold_words`] for words `k .. k + N` of gate `i`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_chunk<const N: usize>(
    values: &mut [u64],
    w: usize,
    i: usize,
    k: usize,
    fanins: &[GateId],
    identity: u64,
    invert: u64,
    op: impl Fn(u64, u64) -> u64,
) -> bool {
    let mut acc = [identity; N];
    for f in fanins {
        let src = &values[f.index() * w + k..][..N];
        for (a, &s) in acc.iter_mut().zip(src) {
            *a = op(*a, s);
        }
    }
    let mut changed = false;
    for (d, a) in values[i * w + k..][..N].iter_mut().zip(acc) {
        changed |= *d != a ^ invert;
        *d = a ^ invert;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::pack_vectors_into;
    use crate::scalar::{simulate, simulate_forced};
    use gatediag_netlist::{c17, RandomCircuitSpec, VectorGen};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn vectors_for(c: &Circuit, n: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut gen = VectorGen::new(c, seed);
        (0..n).map(|_| gen.next_vector()).collect()
    }

    #[test]
    fn sweep_matches_scalar_beyond_64_patterns() {
        let c = RandomCircuitSpec::new(8, 3, 80).seed(1).generate();
        let vectors = vectors_for(&c, 200, 1);
        let mut packed = Vec::new();
        let w = pack_vectors_into(&c, &vectors, &mut packed);
        assert_eq!(w, 4);
        let mut sim = PackedSim::new(&c);
        sim.reset(w);
        sim.set_input_words(&packed);
        sim.sweep();
        for (lane, v) in vectors.iter().enumerate() {
            assert_eq!(sim.unpack_lane(lane), simulate(&c, v), "lane {lane}");
        }
    }

    #[test]
    fn cone_sweep_matches_full_sweep_on_the_cone() {
        let c = RandomCircuitSpec::new(8, 4, 90).seed(2).generate();
        let vectors = vectors_for(&c, 130, 2);
        let mut packed = Vec::new();
        let w = pack_vectors_into(&c, &vectors, &mut packed);
        let mut full = PackedSim::new(&c);
        full.reset(w);
        full.set_input_words(&packed);
        full.sweep();
        let cone = gatediag_netlist::fanin_cone(&c, &c.outputs()[..1]);
        let gates: Vec<GateId> = c
            .topo_order()
            .iter()
            .copied()
            .filter(|&g| cone.contains(g))
            .collect();
        assert!(gates.len() < c.len());
        let mut partial = PackedSim::new(&c);
        partial.reset(w);
        partial.set_input_words(&packed);
        let sink = std::sync::Arc::new(gatediag_obs::Sink::new());
        {
            let _guard = gatediag_obs::install(std::sync::Arc::clone(&sink));
            partial.sweep_gates(&gates);
        }
        for id in c.topo_order() {
            let expect: &[u64] = if cone.contains(*id) {
                full.value_words(*id)
            } else {
                &vec![0; w]
            };
            assert_eq!(partial.value_words(*id), expect, "gate {id}");
        }
        let trace = sink.take_trace();
        assert_eq!(trace.counter("sim.sweeps"), 1);
        assert_eq!(trace.counter("sim.gate_evals"), gates.len() as u64);
        assert_eq!(trace.counter("sim.words"), (gates.len() * w) as u64);
    }

    #[test]
    fn forced_overlay_matches_scalar_forced() {
        let c = RandomCircuitSpec::new(6, 2, 50).seed(3).generate();
        let vectors = vectors_for(&c, 96, 3);
        let mut packed = Vec::new();
        let w = pack_vectors_into(&c, &vectors, &mut packed);
        let g = c
            .iter()
            .find(|(_, gate)| !gate.kind().is_source())
            .map(|(id, _)| id)
            .unwrap();
        let mut sim = PackedSim::new(&c);
        sim.reset(w);
        sim.set_input_words(&packed);
        // Force alternating lanes high.
        let force: Vec<u64> = (0..w).map(|_| 0xAAAA_AAAA_AAAA_AAAA).collect();
        sim.force(g, &force);
        sim.sweep();
        for (lane, v) in vectors.iter().enumerate() {
            let fv = lane % 2 == 1;
            assert_eq!(
                sim.unpack_lane(lane),
                simulate_forced(&c, v, &[(g, fv)]),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn incremental_force_then_clear_restores_baseline() {
        let c = RandomCircuitSpec::new(7, 3, 70).seed(5).generate();
        let vectors = vectors_for(&c, 64, 5);
        let mut packed = Vec::new();
        let w = pack_vectors_into(&c, &vectors, &mut packed);
        let mut sim = PackedSim::new(&c);
        sim.reset(w);
        sim.set_input_words(&packed);
        sim.sweep();
        let baseline = sim.values().to_vec();
        let g = c
            .iter()
            .find(|(_, gate)| !gate.kind().is_source())
            .map(|(id, _)| id)
            .unwrap();
        sim.force_all_lanes(g, true);
        sim.propagate();
        for (lane, v) in vectors.iter().enumerate() {
            assert_eq!(sim.unpack_lane(lane), simulate_forced(&c, v, &[(g, true)]));
        }
        sim.clear_forced();
        sim.propagate();
        assert_eq!(sim.values(), &baseline[..], "baseline not restored");
    }

    /// The gate kernel matches [`GateKind::eval_word`] word by word for
    /// every kind and arity, on widths with and without a whole chunk and
    /// a tail, and reports a change exactly when a word moved.
    #[test]
    fn eval_gate_matches_eval_word() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for w in 1..=9 {
            for arity in 0..=4 {
                // Gates 0..arity are the fan-ins, gate `arity` the output.
                let fanins: Vec<GateId> = (0..arity).map(GateId::new).collect();
                for &kind in GateKind::compatible_with_arity(arity) {
                    let mut values: Vec<u64> = (0..(arity + 1) * w).map(|_| rng.gen()).collect();
                    let expect: Vec<u64> = (0..w)
                        .map(|k| kind.eval_word(fanins.iter().map(|f| values[f.index() * w + k])))
                        .collect();
                    let moved = values[arity * w..] != expect[..];
                    assert_eq!(eval_gate(&mut values, w, arity, kind, &fanins), moved);
                    assert_eq!(values[arity * w..], expect[..], "{kind:?}, w {w}");
                    assert!(!eval_gate(&mut values, w, arity, kind, &fanins));
                }
            }
        }
    }

    /// A fresh sweep and an incremental propagate agree under the forced
    /// overlay, over several words.
    #[test]
    fn sweep_matches_propagate_under_overlays() {
        let c = RandomCircuitSpec::new(12, 4, 300).seed(5).generate();
        let vectors = vectors_for(&c, 190, 5);
        let mut packed = Vec::new();
        let w = pack_vectors_into(&c, &vectors, &mut packed);
        let functional: Vec<GateId> = c
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut incremental = PackedSim::new(&c);
        incremental.reset(w);
        incremental.set_input_words(&packed);
        incremental.sweep();
        let forced = functional[functional.len() / 3];
        let pattern: Vec<u64> = (0..w as u64).map(|k| 0x9e37_79b9 * (k + 1)).collect();
        incremental.force(forced, &pattern);
        incremental.propagate();
        let mut fresh = PackedSim::new(&c);
        fresh.reset(w);
        fresh.set_input_words(&packed);
        fresh.force(forced, &pattern);
        fresh.sweep();
        assert_eq!(fresh.values(), incremental.values());
    }

    #[test]
    fn propagation_is_local() {
        let c = RandomCircuitSpec::new(16, 4, 400).seed(3).generate();
        let vectors = vectors_for(&c, 64, 3);
        let mut packed = Vec::new();
        let w = pack_vectors_into(&c, &vectors, &mut packed);
        let mut sim = PackedSim::new(&c);
        sim.reset(w);
        sim.set_input_words(&packed);
        sim.sweep();
        let deepest = c
            .iter()
            .max_by_key(|(id, _)| c.level(*id))
            .map(|(id, _)| id)
            .unwrap();
        sim.force_all_lanes(deepest, true);
        let evals = sim.propagate();
        assert!(
            evals < c.len() as u64 / 2,
            "incremental propagate touched {evals} of {} gates",
            c.len()
        );
    }

    #[test]
    fn reset_repartitions_cleanly() {
        let c = c17();
        let mut sim = PackedSim::new(&c);
        for &w in &[1usize, 3, 2] {
            let vectors = vectors_for(&c, w * 64, 7 + w as u64);
            let mut packed = Vec::new();
            let got = pack_vectors_into(&c, &vectors, &mut packed);
            assert_eq!(got, w);
            sim.reset(w);
            sim.set_input_words(&packed);
            sim.sweep();
            assert_eq!(sim.words_per_gate(), w);
            for (lane, v) in vectors.iter().enumerate().step_by(17) {
                assert_eq!(sim.unpack_lane(lane), simulate(&c, v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "reset() must be called first")]
    fn sweep_without_reset_panics() {
        let c = c17();
        let mut sim = PackedSim::new(&c);
        sim.sweep();
    }
}
