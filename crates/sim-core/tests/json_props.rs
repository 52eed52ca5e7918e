//! Property tests for `sim_core::json`: every finite tree round-trips
//! through both writers, and no input string makes the parser panic.

use proptest::prelude::*;

use sim_core::json::{parse, Value};
use sim_core::rng::Prng;

/// Characters that stress the writer's escaping and the parser's
/// scalar decoding: quotes, backslashes, every control class, DEL and
/// 2-, 3- and 4-byte scalars.
const TRICKY: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '✓',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn arb_string(rng: &mut Prng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(3) {
            0 => char::from(b' ' + rng.below(95) as u8),
            1 => TRICKY[rng.below(TRICKY.len() as u64) as usize],
            // Any scalar value; surrogates fall back to U+FFFD.
            _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn arb_int(rng: &mut Prng) -> i128 {
    match rng.below(3) {
        0 => rng.below(1000) as i128 - 500,
        1 => rng.next_u64() as i64 as i128,
        _ => ((rng.next_u64() as i128) << 64) | rng.next_u64() as i128,
    }
}

fn arb_float(rng: &mut Prng) -> f64 {
    let f = match rng.below(3) {
        0 => rng.f64() * 1000.0 - 500.0,
        1 => (rng.below(2000) as f64 - 1000.0) / 8.0,
        _ => f64::from_bits(rng.next_u64()),
    };
    if f.is_finite() {
        f
    } else {
        rng.f64()
    }
}

/// A random finite tree at most `depth` containers deep.
fn arb_value(rng: &mut Prng, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(arb_int(rng)),
        3 => Value::Float(arb_float(rng)),
        4 => Value::Str(arb_string(rng)),
        5 => Value::Array(
            (0..rng.below(5))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Bytes JSON's grammar turns on, so soups reach deep parser states.
const JSONISH: &[u8] = b"[]{}\":,\\/-+.0123456789eEtrufalsn \n\tu";

proptest! {
    /// Arbitrary finite trees survive both serializations unchanged.
    #[test]
    fn finite_trees_round_trip(seed in any::<u64>(), depth in 0u32..6) {
        let v = arb_value(&mut Prng::new(seed), depth);
        let compact = v.to_string_compact();
        prop_assert_eq!(parse(&compact), Ok(v.clone()), "compact: {}", compact);
        let pretty = v.to_string_pretty();
        prop_assert_eq!(parse(&pretty), Ok(v), "pretty: {}", pretty);
    }

    /// Byte soups — raw, JSON-flavoured, or a valid document with bytes
    /// overwritten, cut or repeated — parse to `Ok` or `Err`, never a
    /// panic.
    #[test]
    fn byte_soups_never_panic(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
    ) {
        let mut rng = Prng::new(seed);
        let _ = parse(&String::from_utf8_lossy(&raw));
        let jsonish: Vec<u8> = raw
            .iter()
            .map(|&b| JSONISH[b as usize % JSONISH.len()])
            .collect();
        let _ = parse(&String::from_utf8_lossy(&jsonish));
        let mut doc = arb_value(&mut rng, 4).to_string_compact().into_bytes();
        for &(at, byte) in &edits {
            let at = at as usize % (doc.len() + 1);
            match byte % 3 {
                0 if at < doc.len() => doc[at] = byte,
                1 => doc.truncate(at),
                _ => {
                    let tail = doc[at..].to_vec();
                    doc.extend_from_slice(&tail);
                }
            }
        }
        let _ = parse(&String::from_utf8_lossy(&doc));
    }
}
