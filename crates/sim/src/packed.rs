//! Input packing for bit-parallel simulation.
//!
//! Each `u64` word carries 64 independent patterns, one per bit lane. This
//! is the "efficient parallel simulation with linear runtime" the paper
//! attributes to simulation-based diagnosis: one topological sweep of
//! [`PackedSim`](crate::PackedSim) evaluates 64 test vectors per word.

use gatediag_netlist::Circuit;

/// Packs any number of input vectors into per-input pattern words,
/// reusing a caller-provided buffer.
///
/// `vectors[p][i]` is the value of input `i` in pattern `p`. The buffer is
/// filled input-major with `W = ceil(vectors.len() / 64)` words per input:
/// input `i`'s words are `out[i * W .. (i + 1) * W]`, with pattern `p` at
/// bit `p % 64` of word `p / 64` — exactly the layout
/// [`PackedSim::set_input_words`](crate::PackedSim::set_input_words)
/// consumes. Returns `W`.
///
/// The inner loop packs one whole word at a time with branch-free bit
/// accumulation instead of the per-bit test-and-set the pre-CSR packer
/// used, and the buffer reuse makes repeated packing allocation-free.
///
/// # Panics
///
/// Panics if a vector's width differs from `circuit.inputs()`.
pub fn pack_vectors_into<V: AsRef<[bool]>>(
    circuit: &Circuit,
    vectors: &[V],
    out: &mut Vec<u64>,
) -> usize {
    let width = circuit.inputs().len();
    for vector in vectors {
        assert_eq!(vector.as_ref().len(), width, "input vector width mismatch");
    }
    let words = vectors.len().div_ceil(64).max(1);
    out.clear();
    out.resize(width * words, 0);
    for (w, block) in vectors.chunks(64).enumerate() {
        for i in 0..width {
            let mut word = 0u64;
            for (p, vector) in block.iter().enumerate() {
                word |= (vector.as_ref()[i] as u64) << p;
            }
            out[i * words + w] = word;
        }
    }
    words
}
