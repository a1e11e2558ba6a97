//! The cost and safety of parsing `POST /events` bodies.
//!
//! * The cost per event does not grow with the size of the post, and a
//!   valid body just under the size cap parses well within a second.
//! * Nesting of 128 levels parses and 129 is an error, so hostile nesting
//!   fails without a stack overflow on a thread with a server worker's
//!   default 2 MiB stack.
//! * The vendored parser's one-pass string scan decodes escapes and
//!   multi-byte text, decodes exactly what the per-character decoder it
//!   replaced did, and `parse_events` returns the events a body encodes
//!   when they carry extra string fields.

// `%` rather than `is_multiple_of`: the workspace MSRV (1.75) predates it.
#![allow(clippy::manual_is_multiple_of)]

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rapid::serve::api::{parse_events, parse_rerank, EventReq};
use rapid::serve::MAX_BODY_BYTES;

/// One event as the load generator writes it.
fn event_json(n: u64) -> String {
    format!(
        "{{\"user\":{},\"item\":{},\"click\":{},\"seq\":{}}}",
        1_000_000_007 + n * 7_919,
        n % 300,
        n % 3 != 0,
        1_000 + n
    )
}

/// A batched post of `n` events.
fn post(n: u64) -> String {
    let events: Vec<String> = (0..n).map(event_json).collect();
    format!("{{\"events\":[{}]}}", events.join(","))
}

/// Seconds per event to parse `body` (which holds `events` events)
/// `reps` times in a row, best of three repetitions.
fn per_event_secs(body: &str, events: usize, reps: usize) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                let parsed = parse_events(body.as_bytes()).unwrap();
                assert_eq!(parsed.len(), events);
            }
            t.elapsed().as_secs_f64() / (events * reps) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A ratio of two costs on one host, so it holds on any host: a parse
/// that is quadratic in the body reads about 100× here, a linear one
/// about 1.4×. The 10× bound leaves room for a test run that shares the
/// host with the rest of the suite.
#[test]
fn per_event_cost_at_20000_events_is_within_10x_of_100() {
    // Both sides parse 20,000 events per repetition.
    let small = per_event_secs(&post(100), 100, 200);
    let large = per_event_secs(&post(20_000), 20_000, 1);
    assert!(
        large <= 10.0 * small,
        "per-event parse cost grows with the post: {:.2} µs at 100 events, {:.2} µs at 20,000",
        small * 1e6,
        large * 1e6
    );
}

#[test]
fn a_valid_body_just_under_the_size_cap_parses_within_a_second() {
    let mut body = String::from("{\"events\":[");
    let mut n = 0;
    loop {
        let event = event_json(n);
        // One byte for the comma, two for the closing `]}`.
        if body.len() + event.len() + 3 > MAX_BODY_BYTES {
            break;
        }
        if n > 0 {
            body.push(',');
        }
        body.push_str(&event);
        n += 1;
    }
    body.push_str("]}");
    assert!(body.len() <= MAX_BODY_BYTES && body.len() + 100 > MAX_BODY_BYTES);
    let t = Instant::now();
    let parsed = parse_events(body.as_bytes()).unwrap();
    let took = t.elapsed();
    assert_eq!(parsed.len() as u64, n);
    assert!(
        took < Duration::from_secs(1),
        "{n} events ({} bytes) took {took:?}",
        body.len()
    );
}

#[test]
fn hostile_nesting_is_an_error_on_a_2_mib_stack() {
    let outcome = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let deep = "[".repeat(100_000);
            let objects = "{\"a\":".repeat(100_000);
            (
                parse_events(deep.as_bytes()),
                parse_events(objects.as_bytes()),
                parse_rerank(deep.as_bytes()).map(|_| ()),
            )
        })
        .unwrap()
        // A stack overflow aborts the whole test process instead.
        .join()
        .unwrap();
    for err in [
        outcome.0.unwrap_err(),
        outcome.1.unwrap_err(),
        outcome.2.unwrap_err(),
    ] {
        assert!(err.contains("nesting"), "{err}");
    }
}

#[test]
fn nesting_is_capped_at_128_levels() {
    let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
    let objects = |n: usize| "{\"k\":".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
    assert!(serde_json::parse_value(&arrays(128)).is_ok());
    assert!(serde_json::parse_value(&objects(128)).is_ok());
    let siblings = format!("[{0},{0}]", arrays(127));
    assert!(
        serde_json::parse_value(&siblings).is_ok(),
        "only depth counts"
    );
    for deep in [arrays(129), objects(129)] {
        let err = serde_json::parse_value(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }
}

#[test]
fn strings_decode_runs_escapes_and_multibyte_text() {
    let v =
        serde_json::parse_value(r#"["héllo → \"w\\o/rld\"\n\u00e9\u0041 中", "", "\/"]"#).unwrap();
    assert_eq!(
        v,
        serde_json::Value::Array(vec![
            serde_json::Value::Str("héllo → \"w\\o/rld\"\né\u{41} 中".to_string()),
            serde_json::Value::Str(String::new()),
            serde_json::Value::Str("/".to_string()),
        ])
    );
    for bad in ["\"ab\\", "\"ab\\q\"", "\"\\u12\"", "\"\\u12", "\"ab"] {
        assert!(serde_json::parse_value(bad).is_err(), "{bad}");
    }
}

/// The per-character string decoder the vendored parser used before its
/// one-pass scan, kept as the reference: decodes the JSON string literal
/// at the start of `bytes` and returns it with the position after its
/// closing quote.
fn reference_string(bytes: &[u8]) -> Result<(String, usize), String> {
    assert_eq!(bytes.first(), Some(&b'"'));
    let mut pos = 1;
    let mut out = String::new();
    loop {
        let b = *bytes
            .get(pos)
            .ok_or_else(|| "unterminated string".to_string())?;
        match b {
            b'"' => return Ok((out, pos + 1)),
            b'\\' => {
                pos += 1;
                let esc = *bytes
                    .get(pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let hex = bytes
                            .get(pos..pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "invalid \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape `\\{}`", other as char)),
                }
            }
            _ => {
                let rest = std::str::from_utf8(&bytes[pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let c = rest.chars().next().ok_or_else(|| "empty".to_string())?;
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
}

/// SplitMix64 step: the test's own stream of pseudo-random draws.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One piece of JSON string content drawn from `x`: a run of ASCII, a
/// multi-byte character, a raw control byte, a short escape, a `\uXXXX`
/// escape (surrogates included) or, when `invalid` is set, sometimes a
/// malformed escape.
fn piece(x: u64, invalid: bool) -> String {
    const ASCII: &[u8] = b"abcXYZ019 _-:,.{}[]~'";
    const WIDE: [char; 8] = ['é', 'ß', 'ǅ', '→', '中', '\u{7ff}', '\u{ffff}', '😀'];
    const SHORT: [&str; 8] = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
    const MALFORMED: [&str; 4] = ["\\x", "\\uZZ12", "\\u+041", "\\u00é"];
    let arg = x >> 8;
    match x % 6 {
        0 => (0..1 + arg % 12)
            .map(|i| ASCII[((arg >> (4 * i)) % ASCII.len() as u64) as usize] as char)
            .collect(),
        1 => WIDE[(arg % 8) as usize].to_string(),
        2 => ((arg % 0x20) as u8 as char).to_string(),
        3 => SHORT[(arg % 8) as usize].to_string(),
        4 if arg % 2 == 0 => format!("\\u{:04x}", (arg >> 1) % 0x1_0000),
        4 => format!("\\u{:04X}", (arg >> 1) % 0x1_0000),
        _ if invalid && arg % 8 == 0 => MALFORMED[((arg >> 3) % 4) as usize].to_string(),
        _ => char::from_u32(0x80 + (arg % 0x10_ff7f) as u32)
            .unwrap_or('\u{fffd}')
            .to_string(),
    }
}

fn content(draws: &[u64], invalid: bool) -> String {
    draws.iter().map(|&x| piece(x, invalid)).collect()
}

fn reference_value(literal: &str) -> Result<serde_json::Value, String> {
    let (s, end) = reference_string(literal.as_bytes())?;
    assert_eq!(end, literal.len(), "content never holds a bare quote");
    Ok(serde_json::Value::Str(s))
}

fn scanned_value(literal: &str) -> Result<serde_json::Value, String> {
    serde_json::parse_value(literal).map_err(|e| e.to_string())
}

proptest! {
    /// Whole and truncated literals decode, or fail, exactly as the
    /// per-character decoder did.
    #[test]
    fn string_scan_matches_the_per_char_decoder(
        draws in proptest::collection::vec(any::<u64>(), 0..48),
        invalid in any::<bool>(),
        cut in 0u64..1_000,
    ) {
        let literal = format!("\"{}\"", content(&draws, invalid));
        prop_assert_eq!(scanned_value(&literal), reference_value(&literal));
        let boundaries: Vec<usize> = (1..literal.len())
            .filter(|&i| literal.is_char_boundary(i))
            .collect();
        let truncated = &literal[..boundaries[cut as usize % boundaries.len()]];
        let reference = reference_string(truncated.as_bytes()).map(|(s, _)| s);
        prop_assert!(reference.is_err(), "{truncated:?} has no closing quote");
        prop_assert_eq!(scanned_value(truncated), reference.map(serde_json::Value::Str));
    }

    /// Events survive string-valued fields of any content around them,
    /// in any key position, inside and beside the batch.
    #[test]
    fn parse_events_returns_the_events_a_body_encodes(
        seeds in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let mut rng = seeds[0];
        let mut expected = Vec::new();
        let mut objects = Vec::new();
        for &seed in &seeds {
            let event = EventReq {
                user: next(&mut rng),
                item: next(&mut rng),
                click: seed % 3 != 0,
                seq: (seed % 5 != 0).then(|| next(&mut rng)),
            };
            let mut fields = vec![
                format!("\"user\":{}", event.user),
                format!("\"item\":{}", event.item),
            ];
            // An absent `click` means a click.
            if !event.click || seed % 2 == 0 {
                fields.push(format!("\"click\":{}", event.click));
            }
            if let Some(seq) = event.seq {
                fields.push(format!("\"seq\": {seq}"));
            }
            let draws: Vec<u64> = (0..next(&mut rng) % 12).map(|_| next(&mut rng)).collect();
            let at = (next(&mut rng) % (fields.len() as u64 + 1)) as usize;
            fields.insert(at, format!("\"note\" : \"{}\"", content(&draws, false)));
            objects.push(format!("{{{}}}", fields.join(", ")));
            expected.push(event);
        }
        let body = if objects.len() == 1 && seeds[0] % 2 == 0 {
            objects.remove(0)
        } else {
            let tag: Vec<u64> = (0..4).map(|_| next(&mut rng)).collect();
            format!(
                "{{\"tag\":\"{}\",\"events\":[{}]}}",
                content(&tag, false),
                objects.join(",")
            )
        };
        prop_assert_eq!(parse_events(body.as_bytes()), Ok(expected), "{}", body);
    }
}
