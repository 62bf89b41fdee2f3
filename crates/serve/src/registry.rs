//! The warm circuit registry: an LRU-bounded map from circuit content
//! to a long-lived [`CircuitSession`].
//!
//! Two levels of keying make the warm path cheap *and* canonical:
//!
//! 1. **Source hash** — a 64-bit hash over the raw bench text, eight
//!    bytes per multiply (the text of a large circuit runs to hundreds
//!    of kilobytes, and a byte-wise hash like FNV-1a pays one dependent
//!    multiply per byte on every request). A repeated request with
//!    byte-identical bench text resolves through this alias map without
//!    parsing anything, so a warm hit charges **zero** `netlist.builds`
//!    (the property the warm-hit tests and the CI smoke assert). The
//!    hash is not cryptographic: two sources that collide on it alias
//!    one session, a case the registry does not defend against.
//! 2. **Content hash** — [`circuit_content_hash`] over the parsed
//!    circuit's canonical bench rendering, comments stripped. Two
//!    sources that differ only in whitespace, comments or the display
//!    name converge on one session (the first parse builds the netlist
//!    once; later variants only add an alias).
//!
//! Eviction is least-recently-used over sessions; aliases pointing at
//! an evicted session die with it.

use gatediag_core::{circuit_content_hash, CircuitSession};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters describing a registry's lifetime behaviour.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RegistryStats {
    /// Sessions currently resident.
    pub sessions: usize,
    /// Lookups resolved without creating a session.
    pub hits: u64,
    /// Lookups that created a new session.
    pub misses: u64,
    /// Sessions dropped by the LRU bound.
    pub evictions: u64,
}

#[derive(Default)]
struct Inner {
    /// LRU order: index 0 is the coldest session, the back the hottest.
    sessions: Vec<Arc<CircuitSession>>,
    /// Raw-source hash ([`source_hash`]) → content hash of the session
    /// it parsed to.
    by_source: HashMap<u64, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// An LRU-bounded, thread-safe registry of [`CircuitSession`]s.
pub struct CircuitRegistry {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for CircuitRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitRegistry")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The source-level key: a 64-bit hash of the raw bytes that takes
/// eight bytes per multiply. Each little-endian word (the last one
/// zero-padded) is XORed into the state, which is then replaced by the
/// XOR of the two halves of its 128-bit product with an odd constant,
/// so every input bit reaches every state bit within a word or two.
/// The length is folded in last, so a source and the same source with
/// trailing NUL bytes differ. Not cryptographic: a client could craft
/// two sources with one key.
fn source_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    fn mix(state: u64, word: u64) -> u64 {
        let product = u128::from(state ^ word) * u128::from(K);
        (product as u64) ^ ((product >> 64) as u64)
    }
    let mut words = bytes.chunks_exact(8);
    let mut state = 0xcbf2_9ce4_8422_2325;
    for word in words.by_ref() {
        state = mix(state, u64::from_le_bytes(word.try_into().expect("eight")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    state = mix(state, u64::from_le_bytes(tail));
    mix(state, bytes.len() as u64)
}

impl CircuitRegistry {
    /// Creates a registry holding at most `capacity` sessions
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> CircuitRegistry {
        CircuitRegistry {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic inside the registry's own bookkeeping is the only way
        // to poison this lock; keep serving rather than cascading.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum resident sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resolves `bench` to its session, parsing and registering the
    /// circuit only on a miss. Returns the session and whether the
    /// lookup was warm (no new session created). `name` overrides the
    /// bench text's own `#` header as the display name on a miss.
    ///
    /// # Errors
    ///
    /// Returns the netlist parse/build error message for invalid bench
    /// text; the registry is unchanged in that case.
    pub fn get_or_parse(
        &self,
        bench: &str,
        name: Option<&str>,
    ) -> Result<(Arc<CircuitSession>, bool), String> {
        let source = source_hash(bench.as_bytes());
        let mut inner = self.lock();
        if let Some(&content) = inner.by_source.get(&source) {
            if let Some(pos) = inner
                .sessions
                .iter()
                .position(|s| s.content_hash() == content)
            {
                let session = inner.sessions.remove(pos);
                inner.sessions.push(Arc::clone(&session));
                inner.hits += 1;
                return Ok((session, true));
            }
            // The alias outlived its session (evicted); fall through to
            // a fresh parse.
            inner.by_source.remove(&source);
        }
        // Parse under the lock: concurrent first requests for the same
        // circuit must not race to build two sessions.
        let circuit = match name {
            Some(name) => gatediag_netlist::parse_bench_named(bench, name),
            None => gatediag_netlist::parse_bench(bench),
        }
        .map_err(|e| format!("bench parse error: {e}"))?;
        let content = circuit_content_hash(&circuit);
        if let Some(pos) = inner
            .sessions
            .iter()
            .position(|s| s.content_hash() == content)
        {
            // Same netlist under different source bytes: alias it.
            let session = inner.sessions.remove(pos);
            inner.sessions.push(Arc::clone(&session));
            inner.by_source.insert(source, content);
            inner.hits += 1;
            return Ok((session, true));
        }
        let display = match circuit.name() {
            "" => "circuit".to_string(),
            n => n.to_string(),
        };
        let session = Arc::new(CircuitSession::new(display, circuit));
        inner.sessions.push(Arc::clone(&session));
        inner.by_source.insert(source, content);
        inner.misses += 1;
        while inner.sessions.len() > self.capacity {
            let evicted = inner.sessions.remove(0);
            let dead = evicted.content_hash();
            inner.by_source.retain(|_, &mut c| c != dead);
            inner.evictions += 1;
        }
        Ok((session, false))
    }

    /// Current counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        RegistryStats {
            sessions: inner.sessions.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::write_bench;

    fn bench(n: usize) -> String {
        // A tiny unique circuit per index: an AND chain of depth `n`.
        let mut out = String::from("INPUT(a)\nINPUT(b)\n");
        let mut prev = "a".to_string();
        for i in 0..=n {
            out.push_str(&format!("w{i} = AND({prev}, b)\n"));
            prev = format!("w{i}");
        }
        out.push_str(&format!("OUTPUT({prev})\n"));
        out
    }

    #[test]
    fn hit_miss_and_touch() {
        let reg = CircuitRegistry::new(4);
        let (s1, warm1) = reg.get_or_parse(&bench(1), Some("one")).unwrap();
        assert!(!warm1);
        let (s2, warm2) = reg.get_or_parse(&bench(1), Some("one")).unwrap();
        assert!(warm2);
        assert!(Arc::ptr_eq(&s1, &s2), "hit must return the same session");
        let stats = reg.stats();
        assert_eq!((stats.sessions, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn whitespace_and_name_variants_alias_to_one_session() {
        let reg = CircuitRegistry::new(4);
        let (s1, _) = reg.get_or_parse(&bench(1), Some("one")).unwrap();
        // Re-render through write_bench: different bytes (comment
        // header, canonical spacing), same functional netlist.
        let rendered = write_bench(s1.golden());
        assert_ne!(rendered, bench(1));
        let (s2, warm) = reg.get_or_parse(&rendered, None).unwrap();
        assert!(warm, "content-hash alias must be a warm lookup");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(reg.stats().sessions, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_session() {
        let reg = CircuitRegistry::new(2);
        reg.get_or_parse(&bench(1), None).unwrap();
        reg.get_or_parse(&bench(2), None).unwrap();
        // Touch 1 so 2 becomes the eviction candidate.
        reg.get_or_parse(&bench(1), None).unwrap();
        reg.get_or_parse(&bench(3), None).unwrap();
        let stats = reg.stats();
        assert_eq!((stats.sessions, stats.evictions), (2, 1));
        // 1 and 3 are resident (warm); 2 was evicted (cold again).
        assert!(reg.get_or_parse(&bench(1), None).unwrap().1);
        assert!(reg.get_or_parse(&bench(3), None).unwrap().1);
        assert!(!reg.get_or_parse(&bench(2), None).unwrap().1);
    }

    #[test]
    fn warm_lookup_builds_no_netlist() {
        let reg = CircuitRegistry::new(4);
        reg.get_or_parse(&bench(1), None).unwrap();
        let sink = Arc::new(gatediag_obs::Sink::new());
        let trace = {
            let _guard = gatediag_obs::install(Arc::clone(&sink));
            reg.get_or_parse(&bench(1), None).unwrap();
            sink.take_trace()
        };
        assert_eq!(
            trace.counter("netlist.builds"),
            0,
            "a source-hash hit must not parse or build anything"
        );
    }

    #[test]
    fn source_hash_separates_edits_at_every_offset() {
        let base = bench(3).into_bytes();
        let mut variants = vec![base.clone()];
        for at in 0..base.len() {
            for flip in [0x01, 0x80] {
                let mut edited = base.clone();
                edited[at] ^= flip;
                variants.push(edited);
            }
            variants.push(base[..at].to_vec());
        }
        for nuls in 1..=9 {
            variants.push([base.as_slice(), &vec![0; nuls]].concat());
        }
        let keys: std::collections::HashSet<u64> =
            variants.iter().map(|v| source_hash(v)).collect();
        assert_eq!(keys.len(), variants.len());
    }

    #[test]
    fn parse_errors_leave_the_registry_unchanged() {
        let reg = CircuitRegistry::new(4);
        assert!(reg.get_or_parse("y = FROB(a)\n", None).is_err());
        let stats = reg.stats();
        assert_eq!((stats.sessions, stats.misses), (0, 0));
    }
}
