//! Property tests over the unit newtypes — conversions round-trip,
//! arithmetic respects dimensional identities — and over the JSON codec:
//! the reader never panics, `validate` agrees with `parse`, and rendered
//! trees parse back equal.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use serscale_types::json::{self, JsonValue, Reader};
use serscale_types::{
    Bits, Bytes, CoreId, CrossSection, Fit, Fluence, Flux, Megahertz, Millivolts, SimDuration,
    SimInstant, NYC_SEA_LEVEL_FLUX,
};

proptest! {
    /// Voltage step arithmetic: down then up round-trips (absent
    /// saturation), and stepping preserves grid alignment.
    #[test]
    fn millivolt_steps_roundtrip(base in 100u32..1200, steps in 0u32..10) {
        let v = Millivolts::new(base - base % Millivolts::STEP);
        prop_assume!(v.get() >= steps * Millivolts::STEP);
        let down = v.stepped_down(steps);
        prop_assert_eq!(down.stepped_up(steps), v);
        prop_assert!(down.is_step_aligned());
        prop_assert_eq!(v - down, steps * Millivolts::STEP);
    }

    /// Flux × duration = fluence is bilinear.
    #[test]
    fn fluence_bilinear(f in 1.0f64..1e7, secs in 1.0f64..1e6, k in 0.1f64..10.0) {
        let flux = Flux::per_cm2_s(f);
        let t = SimDuration::from_secs(secs);
        let base = (flux * t).as_per_cm2();
        let scaled_flux = (Flux::per_cm2_s(f * k) * t).as_per_cm2();
        let scaled_time = (flux * SimDuration::from_secs(secs * k)).as_per_cm2();
        prop_assert!((scaled_flux / base - k).abs() / k < 1e-9);
        prop_assert!((scaled_time / base - k).abs() / k < 1e-9);
    }

    /// Eq. 1 + Eq. 2 consistency: FIT(events/fluence) × exposure hours /
    /// 1e9 recovers the expected event count in the natural environment.
    #[test]
    fn fit_roundtrips_to_event_counts(events in 1u64..100_000, fluence in 1e9f64..1e13) {
        let dcs = CrossSection::from_events(events as f64, Fluence::per_cm2(fluence));
        let fit = dcs.fit_at(NYC_SEA_LEVEL_FLUX);
        // Hours to re-accumulate the same fluence naturally:
        let hours = fluence / NYC_SEA_LEVEL_FLUX.as_per_cm2_hour();
        let recovered = fit.get() * hours / 1e9;
        let rel = (recovered - events as f64).abs() / events as f64;
        prop_assert!(rel < 1e-9);
    }

    /// FIT per Mbit scales inversely with the memory size.
    #[test]
    fn fit_per_mbit_inverse(fit in 0.1f64..1e6, mbit in 0.1f64..1e4, k in 1.1f64..100.0) {
        let f = Fit::new(fit);
        let a = f.per_mbit(mbit).get();
        let b = f.per_mbit(mbit * k).get();
        prop_assert!((a / b - k).abs() / k < 1e-9);
    }

    /// MTTF inverts FIT.
    #[test]
    fn mttf_inverts_fit(fit in 0.001f64..1e9) {
        let f = Fit::new(fit);
        prop_assert!((f.mttf().as_hours() * fit - 1e9).abs() / 1e9 < 1e-9);
    }

    /// Byte/bit conversions are exact and Mbit is decimal.
    #[test]
    fn memory_conversions(bytes in 0u64..(1 << 40)) {
        let b = Bytes::new(bytes);
        prop_assert_eq!(b.as_bits(), Bits::new(bytes * 8));
        let mbit = b.as_bits().as_mbit();
        prop_assert!((mbit - (bytes * 8) as f64 / 1e6).abs() < 1e-6);
    }

    /// Instant/duration arithmetic is associative over a chain of steps.
    #[test]
    fn instant_chain(steps in prop::collection::vec(0.0f64..1e4, 1..20)) {
        let mut t = SimInstant::EPOCH;
        for &s in &steps {
            t += SimDuration::from_secs(s);
        }
        let total: f64 = steps.iter().sum();
        prop_assert!((t.elapsed_since(SimInstant::EPOCH).as_secs() - total).abs() < 1e-6);
    }

    /// Core→PMD pairing is consistent both directions.
    #[test]
    fn core_pmd_pairing(core in 0u8..8) {
        let c = CoreId::new(core);
        prop_assert!(c.pmd().cores().contains(&c));
        prop_assert_eq!(c.pmd().get(), core / 2);
    }

    /// Frequency ratios are consistent with GHz conversion.
    #[test]
    fn frequency_ratios(a in 300u32..2400, b in 300u32..2400) {
        let fa = Megahertz::new(a);
        let fb = Megahertz::new(b);
        prop_assert!((fa.ratio_to(fb) - fa.as_ghz() / fb.as_ghz()).abs() < 1e-12);
    }

    /// Display → FromStr round-trips for voltages: the textual interchange
    /// format used by reports and the verify verdict must be lossless.
    #[test]
    fn millivolts_display_roundtrip(mv in 0u32..1_000_000) {
        let v = Millivolts::new(mv);
        prop_assert_eq!(v.to_string().parse::<Millivolts>().unwrap(), v);
        // Bare counts parse too.
        prop_assert_eq!(mv.to_string().parse::<Millivolts>().unwrap(), v);
    }

    /// Display → FromStr round-trips for frequencies across both rendered
    /// forms ("900 MHz" and "2.4 GHz").
    #[test]
    fn megahertz_display_roundtrip(mhz in 0u32..100_000_000) {
        let f = Megahertz::new(mhz);
        prop_assert_eq!(f.to_string().parse::<Megahertz>().unwrap(), f);
        prop_assert_eq!(mhz.to_string().parse::<Megahertz>().unwrap(), f);
    }

    /// Digit-free strings never parse as a unit value.
    #[test]
    fn unit_parsing_rejects_junk(
        s in prop::sample::select(vec!["", " ", "mV", "MHz", "GHz", "volts", "NaN GHz", "- mV"]),
    ) {
        prop_assert!(s.parse::<Millivolts>().is_err());
        prop_assert!(s.parse::<Megahertz>().is_err());
    }

    /// Flux acceleration: an accelerated second equals `acceleration`
    /// natural seconds of fluence.
    #[test]
    fn acceleration_consistency(f in 1.0f64..1e7) {
        let beam = Flux::per_cm2_s(f);
        let acc = beam.acceleration_over(NYC_SEA_LEVEL_FLUX);
        let beam_second = (beam * SimDuration::from_secs(1.0)).as_per_cm2();
        let natural_equiv =
            (NYC_SEA_LEVEL_FLUX * SimDuration::from_secs(acc)).as_per_cm2();
        prop_assert!((beam_second - natural_equiv).abs() / beam_second < 1e-9);
    }
}

/// Arbitrary JSON trees up to `depth` levels of nesting, with finite
/// numbers of every magnitude and strings full of the characters a writer
/// must escape.
struct JsonTree {
    depth: u32,
}

impl Strategy for JsonTree {
    type Value = JsonValue;

    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        tree(rng, self.depth)
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> JsonValue {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 1),
        2 => JsonValue::Number(finite_f64(rng)),
        3 => JsonValue::String(nasty_string(rng)),
        4 => JsonValue::Array((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => JsonValue::Object(
            (0..rng.below(4))
                .map(|_| (nasty_string(rng), tree(rng, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

fn finite_f64(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => rng.below(1 << 20) as f64 - (1 << 19) as f64,
        1 => (rng.unit_f64() - 0.5) * 1e6,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn nasty_string(rng: &mut TestRng) -> String {
    const PIECES: [&str; 14] = [
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\u{0}", "\u{1f}", "é", "π", "😀",
    ];
    (0..rng.below(8))
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect()
}

/// Renders a tree with the codec's writers.
fn render(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => json::write_number(out, *n),
        JsonValue::String(s) => json::write_escaped(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json::escape(key));
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// Pulls every token out of `input`, returning the reader's verdict.
fn drain(input: &str) -> Result<usize, String> {
    let mut reader = Reader::new(input);
    let mut tokens = 0;
    while reader.next_token()?.is_some() {
        tokens += 1;
    }
    Ok(tokens)
}

/// The reader, `validate` and `parse` all give one verdict, error text
/// included, and none of them panics.
fn one_verdict(input: &str) -> Result<(), String> {
    let parsed = json::parse(input).map(|_| ());
    let drained = drain(input).map(|_| ());
    if json::validate(input) != parsed || drained != parsed {
        return Err(format!(
            "verdicts differ on {input:?}: parse {parsed:?}, drain {drained:?}"
        ));
    }
    Ok(())
}

/// A document nested `levels` deep through a random mix of arrays and
/// objects, closed again only when `close` is set.
fn deep_document(rng: &mut TestRng, levels: usize, close: bool) -> String {
    let mut open = String::new();
    let mut closers = Vec::with_capacity(levels);
    for _ in 0..levels {
        if rng.below(2) == 0 {
            open.push('[');
            closers.push(']');
        } else {
            open.push_str("{\"k\":");
            closers.push('}');
        }
    }
    open.push('1');
    if close {
        open.extend(closers.into_iter().rev());
    }
    open
}

/// A random deep document, as a strategy.
struct Deep;

impl Strategy for Deep {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let close = rng.below(2) == 0;
        deep_document(rng, 60_000, close)
    }
}

proptest! {
    /// Arbitrary bytes (decoded lossily, as the journal and HTTP readers
    /// receive them) never panic the codec, and every entry point agrees.
    #[test]
    fn codec_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let input = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(one_verdict(&input), Ok(()));
    }

    /// Every truncated prefix of a valid document is refused the same way
    /// by every entry point, and never panics.
    #[test]
    fn codec_survives_truncated_documents(value in JsonTree { depth: 5 }, cut in any::<u64>()) {
        let mut text = String::new();
        render(&value, &mut text);
        let mut at = (cut % (text.len() as u64 + 1)) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        prop_assert_eq!(one_verdict(&text[..at]), Ok(()));
        prop_assert_eq!(one_verdict(&text), Ok(()));
    }

    /// Nesting 60,000 levels deep is an error, not a stack overflow.
    #[test]
    fn codec_refuses_deep_nesting_without_recursing(deep in Deep) {
        prop_assert_eq!(one_verdict(&deep), Ok(()));
        let err = json::validate(&deep).expect_err("far past MAX_DEPTH");
        prop_assert!(err.contains("nesting deeper than"), "{}", err);
    }

    /// Trees rendered with `escape` / `number` parse back equal: strings
    /// keep their quotes, backslashes, control characters and non-ASCII,
    /// and finite numbers keep their bits.
    #[test]
    fn rendered_trees_parse_back_equal(value in JsonTree { depth: 5 }) {
        let mut text = String::new();
        render(&value, &mut text);
        prop_assert_eq!(json::parse(&text), Ok(value.clone()), "{}", text);
        prop_assert_eq!(json::validate(&text), Ok(()));
    }
}
