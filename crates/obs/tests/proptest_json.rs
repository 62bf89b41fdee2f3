//! Property tests for the JSON string scanner. `parse_json` finds the
//! end of each string run eight bytes at a time, so every byte that
//! stops a run (`"`, `\`) and every escaped control character must be
//! seen wherever it falls in a word, and multi-byte UTF-8 must pass
//! through whole when it straddles two words. Strings are built from a
//! palette of such characters separated by plain runs of 0–70 bytes, so
//! the special bytes land at every offset mod 8 and some runs are
//! longer than 64 bytes.

use gatediag_obs::json::{escape_str, find_byte, parse_json, Json};
use proptest::collection::vec;
use proptest::prelude::*;

/// Both stop bytes, control characters (escaped as `\u00XX`), ASCII,
/// and 2-, 3- and 4-byte UTF-8.
const PALETTE: [char; 12] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'a', 'é', '€', '𝄞',
];

/// `pad` plain bytes, then each `(pick, run)` as one palette character
/// followed by `run` plain bytes.
fn build(pad: usize, parts: &[(u8, u8)]) -> String {
    let mut s = "p".repeat(pad);
    for &(pick, run) in parts {
        s.push(PALETTE[usize::from(pick) % PALETTE.len()]);
        s.extend(std::iter::repeat_n('k', usize::from(run)));
    }
    s
}

/// The string as a top-level document and inside an object, where the
/// scanner also reads a key and a nested array around it.
fn documents(s: &str) -> [String; 2] {
    let value = Json::Str(s.to_string());
    let object = Json::Obj(vec![
        (s.to_string(), Json::Arr(vec![value.clone()])),
        ("tail".to_string(), Json::Null),
    ]);
    [escape_str(s), object.render()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every string survives escaping and parsing unchanged.
    #[test]
    fn escaped_strings_round_trip(pad in 0usize..8, parts in vec((any::<u8>(), 0u8..=70), 0..24)) {
        let s = build(pad, &parts);
        let [string, object] = documents(&s);
        prop_assert_eq!(parse_json(&string), Ok(Json::Str(s.clone())));
        let parsed = parse_json(&object).expect("own rendering parses");
        prop_assert_eq!(parsed.render(), object);
    }

    /// Every proper prefix of such a document, cut at a character
    /// boundary, is an `Err` (never a panic and never a shorter string).
    #[test]
    fn truncated_strings_are_errors(pad in 0usize..8, parts in vec((any::<u8>(), 0u8..=70), 1..12)) {
        let s = build(pad, &parts);
        for doc in documents(&s) {
            for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
                prop_assert!(parse_json(&doc[..cut]).is_err(), "accepted {:?}", &doc[..cut]);
            }
        }
    }

    /// The word-at-a-time byte search agrees with a byte-wise one.
    #[test]
    fn find_byte_matches_a_bytewise_search(bytes in vec(0u8..6, 0..90), needle in 0u8..7) {
        prop_assert_eq!(
            find_byte(&bytes, needle),
            bytes.iter().position(|&b| b == needle)
        );
    }
}

#[test]
fn find_byte_sees_the_needle_at_every_offset() {
    for len in 0..40 {
        for at in 0..len {
            // High bytes around the needle must not borrow into a false
            // match below it.
            let mut bytes = vec![0x80u8; len];
            bytes[at] = b'\n';
            assert_eq!(find_byte(&bytes, b'\n'), Some(at), "len {len}, at {at}");
            bytes[at] = 0x0b;
            assert_eq!(find_byte(&bytes, b'\n'), None, "len {len}");
        }
    }
}
