//! Parse ∘ serialize identity: `Json::parse(x.pretty())` (and `.compact()`) must
//! reproduce `x` for every value the artefact schema can emit.
//!
//! Serve replies now cross a wire as rendered JSON and are reparsed on the other side,
//! so the serializer/parser pair has to be a lossless round trip — in particular for
//! `f64` edge cases (`-0.0`, values at and beyond 1e15, `1e308`, subnormals), where an
//! integral float rendered without a fraction would reparse as an integer variant.

use ccache_json::{Json, ToJson};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Asserts both renderings of `doc` reparse to an equal document.
fn assert_round_trips(doc: &Json) {
    for text in [doc.pretty(), doc.compact()] {
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("reparse of {text:?}: {e}"));
        assert_eq!(&back, doc, "round trip drifted through {text:?}");
        // And the re-rendering is byte-stable, so caches keyed on rendered text agree.
        assert_eq!(back.pretty(), doc.pretty());
    }
}

#[test]
fn f64_edge_values_round_trip_exactly() {
    let edges = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.25,
        1e-5,
        1e15,       // the old serializer's ".0" cutoff
        1e15 + 2.0, // just past it: integral, still must reparse as Float
        -1e15 - 2.0,
        1e16,
        9_007_199_254_740_992.0, // 2^53
        1.8446744073709552e19,   // ≈ u64::MAX, integral float
        -9.223372036854776e18,   // ≈ i64::MIN
        1e300,
        1e308,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        1.5e308,
        -1e308,
    ];
    for v in edges {
        let doc = Json::Float(v);
        assert_round_trips(&doc);
        // Bit-exactness, which `PartialEq` on f64 is too weak to see for -0.0.
        let Json::Float(back) = Json::parse(&doc.compact()).unwrap() else {
            panic!("{v:?} reparsed as a non-Float variant");
        };
        assert_eq!(back.to_bits(), v.to_bits(), "bits drifted for {v:?}");
    }
}

#[test]
fn integral_floats_never_reparse_as_integers() {
    for v in [1e15, 1e16, 4e18, -3e15, 2.0, -2.0] {
        let text = Json::Float(v).compact();
        assert!(
            matches!(Json::parse(&text).unwrap(), Json::Float(_)),
            "{text} lost its Float variant"
        );
    }
}

#[test]
fn signed_to_json_normalizes_to_the_parser_variants() {
    // `to_json` on signed integers follows the parser's convention: non-negative
    // number text is UInt, Int is negative-only. Without the normalization,
    // `Json::Int(5)` would render "5" and reparse as `UInt(5)` — not an identity.
    assert_eq!(5i64.to_json(), Json::UInt(5));
    assert_eq!(0i32.to_json(), Json::UInt(0));
    assert_eq!((-5i64).to_json(), Json::Int(-5));
    assert_round_trips(&i64::MIN.to_json());
    assert_round_trips(&i64::MAX.to_json());
}

#[test]
fn a_one_mebibyte_string_parses_in_linear_time() {
    // Parsing once re-validated the rest of the input for every character: 5.2 s for a
    // 520 KB document. Mixed-width scalars exercise every UTF-8 length.
    let mut text = String::new();
    while text.len() < 1 << 20 {
        text.push_str("aé€😀\"\\\n");
    }
    let doc = Json::obj([("text", Json::Str(text))]);
    let rendered = doc.compact();
    let start = Instant::now();
    let back = Json::parse(&rendered).expect("the rendered document parses");
    let elapsed = start.elapsed();
    assert_eq!(back, doc);
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

#[test]
fn non_finite_floats_render_null_by_design() {
    // The one deliberate non-identity: non-finite values serialize as null (the
    // serde_json convention), so they parse back as Json::Null.
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::parse(&Json::Float(v).pretty()).unwrap(), Json::Null);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_finite_floats_round_trip(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            assert_round_trips(&Json::Float(v));
        }
    }

    #[test]
    fn random_scalar_documents_round_trip(
        u in any::<u64>(),
        i in any::<i64>(),
        bits in any::<u64>(),
        b in any::<bool>(),
        scalars in prop::collection::vec(0u32..0x11_0000, 0..32),
    ) {
        let f = f64::from_bits(bits);
        // Any string: control characters, quotes, backslashes and multi-byte scalars
        // (surrogate code points are not scalars and are skipped).
        let any_string: String = scalars.into_iter().filter_map(char::from_u32).collect();
        let doc = Json::obj([
            ("u", u.to_json()),
            ("i", i.to_json()),
            ("f", if f.is_finite() { Json::Float(f) } else { Json::Null }),
            ("b", b.to_json()),
            ("s", format!("s{u}\n\"{i}\"").to_json()),
            ("any", any_string.to_json()),
            ("arr", Json::arr([Json::Null, u.to_json(), i.to_json()])),
        ]);
        assert_round_trips(&doc);
    }
}
