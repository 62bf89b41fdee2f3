//! Frame-major packed sequential simulation.
//!
//! The combinational engines simulate `64 * W` *patterns* per sweep;
//! [`SeqPackedSim`] lifts that to sequential circuits by simulating
//! `64 * W` *sequences* at once, frame-major: every [`SeqPackedSim::step`]
//! evaluates one time frame of all sequences in a single packed
//! sweep/propagate, then latches the next-state words (each latch's `d`
//! value words) so the following frame reads them back through the latch
//! `q` pseudo-inputs. The latch plumbing comes from the explicit
//! combinationalisation lowering
//! ([`StateView`](gatediag_netlist::StateView)).
//!
//! [`simulate_sequence`] is the scalar frame-by-frame reference with
//! explicit latch stepping; `SeqPackedSim` is lane-for-lane bit-identical
//! to it (property tests pin this).
//!
//! # Examples
//!
//! ```
//! use gatediag_netlist::parse_bench;
//! use gatediag_sim::{pack_rows_into, simulate_sequence, SeqPackedSim};
//!
//! let c = parse_bench(
//!     "INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n",
//! )
//! .unwrap();
//! // Two sequences of three frames: en = 1,1,1 and en = 1,0,0.
//! let seqs = [
//!     vec![vec![true], vec![true], vec![true]],
//!     vec![vec![true], vec![false], vec![false]],
//! ];
//! let initial = vec![vec![false]; 2];
//! let mut sim = SeqPackedSim::new(&c);
//! let mut state = Vec::new();
//! let words = pack_rows_into(1, &initial, &mut state);
//! sim.begin(words, &state);
//! let out = c.find("out").unwrap();
//! let mut packed = Vec::new();
//! for frame in 0..3 {
//!     let rows: Vec<&[bool]> = seqs.iter().map(|s| s[frame].as_slice()).collect();
//!     pack_rows_into(1, &rows, &mut packed);
//!     sim.step(&packed);
//!     for (lane, seq) in seqs.iter().enumerate() {
//!         let scalar = simulate_sequence(&c, &initial[lane], seq);
//!         let packed_value = sim.value_words(out)[0] >> lane & 1 == 1;
//!         assert_eq!(packed_value, scalar[frame][out.index()]);
//!     }
//! }
//! ```

use crate::engine::PackedSim;
use crate::scalar::simulate;
use gatediag_netlist::{Circuit, GateId, InputSlot, StateView};

/// Packs rows of equal-width boolean vectors column-major into pattern
/// words: column `j`'s words are `out[j * W .. (j + 1) * W]`, with row `r`
/// at bit `r % 64` of word `r / 64` (`W = ceil(rows.len() / 64)`, at
/// least 1). Returns `W`.
///
/// This is [`pack_vectors_into`](crate::pack_vectors_into) generalised to
/// any column count — used for packing per-frame real-input vectors
/// (columns = real inputs, rows = sequences) and initial states (columns
/// = latches, rows = sequences).
///
/// # Panics
///
/// Panics if any row's width differs from `width`.
pub fn pack_rows_into<V: AsRef<[bool]>>(width: usize, rows: &[V], out: &mut Vec<u64>) -> usize {
    for row in rows {
        assert_eq!(row.as_ref().len(), width, "row width mismatch");
    }
    let words = rows.len().div_ceil(64).max(1);
    out.clear();
    out.resize(width * words, 0);
    for (w, block) in rows.chunks(64).enumerate() {
        for j in 0..width {
            let mut word = 0u64;
            for (r, row) in block.iter().enumerate() {
                word |= (row.as_ref()[j] as u64) << r;
            }
            out[j * words + w] = word;
        }
    }
    words
}

/// Scalar sequential simulation: one input sequence, explicit latch
/// stepping. Returns the full value assignment per frame.
///
/// `initial_state` is in `circuit.latches()` order; each vector carries
/// the *real* primary inputs (latch `q` pseudo-inputs excluded), in
/// [`StateView::real_inputs`] order. This is the reference semantics
/// [`SeqPackedSim`] is drift-pinned against.
///
/// # Panics
///
/// Panics if `initial_state` or any vector has the wrong width.
pub fn simulate_sequence(
    circuit: &Circuit,
    initial_state: &[bool],
    vectors: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let view = StateView::new(circuit);
    assert_eq!(
        initial_state.len(),
        view.num_latches(),
        "initial state width mismatch"
    );
    let mut state: Vec<bool> = initial_state.to_vec();
    let mut frames = Vec::with_capacity(vectors.len());
    for vector in vectors {
        let full = view.assemble_frame_inputs(&state, vector);
        let values = simulate(circuit, &full);
        state = view.latch_d().iter().map(|d| values[d.index()]).collect();
        frames.push(values);
    }
    frames
}

/// Frame-major packed sequential simulator: `64 * W` sequences per frame
/// on one [`PackedSim`], latch state words carried frame-to-frame.
///
/// # Lifecycle
///
/// ```text
/// new(circuit)                bind; derives the StateView lowering
///   begin(W, state_words)     reset for 64*W sequences, load initial state
///     step(real_input_words)  one frame of every sequence; frame 0 is a
///                             full sweep, later frames propagate
///                             incrementally; latches the next state
///     value_words             read any gate at the current frame
///   begin(...)                restart
/// ```
#[derive(Debug)]
pub struct SeqPackedSim<'c> {
    sim: PackedSim<'c>,
    input_slots: Vec<InputSlot>,
    latch_d: Vec<GateId>,
    num_reals: usize,
    /// Latch-major state words: latch `s`'s words at `state[s*W..(s+1)*W]`.
    state: Vec<u64>,
    /// Input-major scratch for the assembled frame inputs.
    scratch: Vec<u64>,
    frame: usize,
}

impl<'c> SeqPackedSim<'c> {
    /// Binds a sequential engine to `circuit` (which may also be purely
    /// combinational — frames are then independent).
    pub fn new(circuit: &'c Circuit) -> SeqPackedSim<'c> {
        let view = StateView::new(circuit);
        SeqPackedSim {
            sim: PackedSim::new(circuit),
            input_slots: view.input_slots().to_vec(),
            latch_d: view.latch_d().to_vec(),
            num_reals: view.real_inputs().len(),
            state: Vec::new(),
            scratch: Vec::new(),
            frame: 0,
        }
    }

    /// Starts a new batch of `64 * words` sequences from the packed
    /// initial state (latch-major, as produced by [`pack_rows_into`] with
    /// the latch count as `width`).
    ///
    /// # Panics
    ///
    /// Panics if `words == 0` or the state slice length is not the latch
    /// count times `words`.
    pub fn begin(&mut self, words: usize, initial_state_words: &[u64]) {
        assert_eq!(
            initial_state_words.len(),
            self.latch_d.len() * words,
            "initial state word count mismatch"
        );
        self.sim.reset(words);
        self.state.clear();
        self.state.extend_from_slice(initial_state_words);
        self.frame = 0;
    }

    /// Simulates one frame of every sequence: assembles the combinational
    /// input words from the carried state and `real_input_words`
    /// (real-input-major, `W` words per real input, as produced by
    /// [`pack_rows_into`]), evaluates the frame, and
    /// latches the next-state words.
    ///
    /// # Panics
    ///
    /// Panics if [`SeqPackedSim::begin`] has not been called or the slice
    /// length is wrong.
    pub fn step(&mut self, real_input_words: &[u64]) {
        let w = self.sim.words_per_gate();
        assert!(w > 0, "begin() must be called first");
        assert_eq!(
            real_input_words.len(),
            self.num_reals * w,
            "real input word count mismatch"
        );
        // Assemble the full input-major word array in circuit.inputs()
        // order from the two sources.
        self.scratch.clear();
        for slot in &self.input_slots {
            match *slot {
                InputSlot::Real(r) => self
                    .scratch
                    .extend_from_slice(&real_input_words[r * w..(r + 1) * w]),
                InputSlot::State(s) => self
                    .scratch
                    .extend_from_slice(&self.state[s * w..(s + 1) * w]),
            }
        }
        self.sim.set_input_words(&self.scratch);
        if self.frame == 0 {
            // The first frame after a reset must be a full sweep (the
            // zeroed value array is not a consistent assignment).
            self.sim.sweep();
        } else {
            self.sim.propagate();
        }
        // Latch the next state.
        for (s, &d) in self.latch_d.iter().enumerate() {
            let words = self.sim.value_words(d);
            self.state[s * w..(s + 1) * w].copy_from_slice(words);
        }
        self.frame += 1;
        gatediag_obs::count("sim.seq_frames", 1);
    }

    /// The packed value words of gate `g` at the current frame.
    pub fn value_words(&self, g: GateId) -> &[u64] {
        self.sim.value_words(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::{parse_bench, RandomCircuitSpec, VectorGen};

    fn toggle() -> Circuit {
        parse_bench("INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n").unwrap()
    }

    /// Random sequences for `n` lanes over `frames` frames: `[lane][frame]`.
    fn random_sequences(
        circuit: &Circuit,
        lanes: usize,
        frames: usize,
        seed: u64,
    ) -> (Vec<Vec<bool>>, Vec<Vec<Vec<bool>>>) {
        let view = StateView::new(circuit);
        let reals = view.real_inputs().len();
        let mut gen = VectorGen::new(circuit, seed);
        // VectorGen yields full-width vectors; slice down deterministically.
        let mut bit = move || {
            let v = gen.next_vector();
            v[0]
        };
        let initial: Vec<Vec<bool>> = (0..lanes)
            .map(|_| (0..view.num_latches()).map(|_| bit()).collect())
            .collect();
        let seqs: Vec<Vec<Vec<bool>>> = (0..lanes)
            .map(|_| {
                (0..frames)
                    .map(|_| (0..reals).map(|_| bit()).collect())
                    .collect()
            })
            .collect();
        (initial, seqs)
    }

    fn assert_packed_matches_scalar(circuit: &Circuit, lanes: usize, frames: usize, seed: u64) {
        let (initial, seqs) = random_sequences(circuit, lanes, frames, seed);
        let view = StateView::new(circuit);
        let mut sim = SeqPackedSim::new(circuit);
        let mut state = Vec::new();
        let words = pack_rows_into(view.num_latches(), &initial, &mut state);
        sim.begin(words, &state);
        let mut packed = Vec::new();
        for frame in 0..frames {
            let rows: Vec<&[bool]> = seqs.iter().map(|s| s[frame].as_slice()).collect();
            pack_rows_into(view.real_inputs().len(), &rows, &mut packed);
            sim.step(&packed);
            for lane in 0..lanes {
                let scalar = simulate_sequence(circuit, &initial[lane], &seqs[lane]);
                for (id, _) in circuit.iter() {
                    assert_eq!(
                        sim.value_words(id)[lane / 64] >> (lane % 64) & 1 == 1,
                        scalar[frame][id.index()],
                        "gate {id} lane {lane} frame {frame}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_matches_scalar_on_toggle() {
        assert_packed_matches_scalar(&toggle(), 5, 4, 7);
    }

    #[test]
    fn packed_matches_scalar_on_random_sequential_circuits() {
        for seed in 0..3 {
            let c = RandomCircuitSpec::new(5, 3, 40)
                .latches(3)
                .seed(seed)
                .generate();
            assert_packed_matches_scalar(&c, 9, 3, seed);
        }
    }

    #[test]
    fn packed_matches_scalar_beyond_64_sequences() {
        let c = RandomCircuitSpec::new(4, 2, 30)
            .latches(2)
            .seed(9)
            .generate();
        assert_packed_matches_scalar(&c, 70, 3, 9);
    }

    #[test]
    fn combinational_circuits_step_independent_frames() {
        let c = gatediag_netlist::c17();
        assert_packed_matches_scalar(&c, 10, 3, 11);
    }

    #[test]
    fn pack_rows_handles_empty_rows_and_zero_width() {
        let mut out = Vec::new();
        assert_eq!(pack_rows_into::<Vec<bool>>(0, &[], &mut out), 1);
        assert!(out.is_empty());
        let rows = vec![vec![true], vec![false], vec![true]];
        assert_eq!(pack_rows_into(1, &rows, &mut out), 1);
        assert_eq!(out, vec![0b101]);
    }

    #[test]
    #[should_panic(expected = "initial state word count mismatch")]
    fn begin_rejects_wrong_state_width() {
        let c = toggle();
        let mut sim = SeqPackedSim::new(&c);
        sim.begin(1, &[0, 0]);
    }
}
