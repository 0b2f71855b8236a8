//! Fuzz and corpus tests for the `POST /campaigns` spec schema.
//!
//! The schema's contract: **an arbitrary JSON document never panics the
//! server** — it either validates into a [`CampaignSpec`] that
//! round-trips through the normalized JSON rendering unchanged, or it
//! yields a structured [`SpecError`] naming the offending field. The
//! property half fuzzes that contract with adversarial values (NaN,
//! infinities, 2^53 boundaries, off-grid voltages, hostile bytes); the
//! table half pins the known-bad corpus — NaN voltage, zero trials,
//! overlapping voltage/frequency domains — plus every other rejection
//! class the schema documents; and every single-member mutation of two
//! full bodies has its outcome pinned by value.

use proptest::prelude::*;

use serscale_core::spec::parse_campaign;
use serscale_types::json;

#[path = "../../../tests/support/spec_mutants.rs"]
mod spec_mutants;

use spec_mutants::{mutants, Digest};

/// Adversarial f64s mixed into every fuzzed numeric field.
const SPECIALS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    9_007_199_254_740_992.0, // 2^53: the exactness boundary
    9_007_199_254_740_994.0, // 2^53 + 2: first even integer past it
    1e300,
    -1.0,
];

/// A fuzzed numeric field: sometimes a special, sometimes a small
/// integer-ish value near the valid ranges, sometimes a raw unit float.
fn fuzz_number(rng_pick: usize, unit: f64, scaled: f64) -> f64 {
    match rng_pick % 3 {
        0 => SPECIALS[(rng_pick / 3) % SPECIALS.len()],
        1 => scaled.floor(),
        _ => unit * scaled,
    }
}

/// `x` as a JSON number: NaN has no JSON form and becomes `null`, and
/// ±∞ becomes ±1e400, which overflows back to ±∞ when parsed.
fn wire(x: f64) -> String {
    if x.is_nan() {
        "null".to_string()
    } else if x.is_infinite() {
        if x > 0.0 { "1e400" } else { "-1e400" }.to_string()
    } else {
        json::number(x)
    }
}

proptest! {
    /// Any body full of arbitrary doubles either validates (and then the
    /// normalized JSON round-trips to the identical spec) or fails with a
    /// structured error naming a field — and never panics.
    #[test]
    fn arbitrary_raw_specs_validate_or_reject_without_panicking(
        pick in prop::collection::vec(any::<usize>(), 8),
        units in prop::collection::vec(0.0f64..1.0, 8),
        n_sessions in 0usize..4,
        with_sessions in any::<bool>(),
        with_scale in any::<bool>(),
        platform in prop::sample::select(vec![
            None,
            Some("xgene2"),
            Some("zynq-mpsoc"),
            Some("coffee-lake"),
            Some(""),
            Some("XGENE2"),
        ]),
    ) {
        let mut members = Vec::new();
        if let Some(platform) = platform {
            members.push(format!("\"platform\":{}", json::escape(platform)));
        }
        members.push(format!("\"seed\":{}", wire(fuzz_number(pick[0], units[0], 1e16))));
        if with_scale {
            members.push(format!("\"scale\":{}", wire(fuzz_number(pick[1], units[1], 2.0))));
        }
        members.push(format!("\"jobs\":{}", wire(fuzz_number(pick[2], units[2], 100.0))));
        members.push(format!(
            "\"vmin_trials\":{}",
            wire(fuzz_number(pick[3], units[3], 200_000.0))
        ));
        members.push(format!("\"resume\":{}", wire(fuzz_number(pick[4], units[4], 10.0))));
        if with_sessions {
            let sessions: Vec<String> = (0..n_sessions)
                .map(|i| {
                    format!(
                        "{{\"pmd_mv\":{},\"soc_mv\":{},\"freq_mhz\":{},\"minutes\":{}}}",
                        wire(fuzz_number(pick[5].wrapping_add(i), units[5], 1100.0)),
                        wire(fuzz_number(pick[6].wrapping_add(i), units[6], 1100.0)),
                        wire(fuzz_number(pick[7].wrapping_add(i), units[7], 2700.0)),
                        wire(units[(i + 1) % 8] * 12_000.0),
                    )
                })
                .collect();
            members.push(format!("\"sessions\":[{}]", sessions.join(",")));
        }
        let body = format!("{{{}}}", members.join(","));
        match parse_campaign(&body) {
            Ok(spec) => {
                let rendered = spec.to_json();
                let reparsed = parse_campaign(&rendered);
                prop_assert_eq!(
                    reparsed.as_ref(),
                    Ok(&spec),
                    "normalized rendering failed to round-trip: {}",
                    rendered
                );
            }
            Err(err) => {
                prop_assert!(!err.field.is_empty(), "error without a field: {}", body);
                prop_assert!(!err.reason.is_empty(), "error without a reason: {}", body);
            }
        }
    }

    /// Any JSON document assembled from fuzzed fields — known and unknown
    /// keys, wrong types, hostile numbers — parses to Ok-or-structured-400
    /// without panicking.
    #[test]
    fn arbitrary_json_documents_never_panic_the_parser(
        keys in prop::collection::vec(
            prop::sample::select(vec![
                "name", "tenant", "platform", "seed", "scale", "jobs",
                "vmin_trials", "resume", "sessions", "sclae", "bogus", "",
            ]),
            0..6,
        ),
        numbers in prop::collection::vec(any::<usize>(), 6),
        units in prop::collection::vec(0.0f64..1.0, 6),
        as_string in any::<bool>(),
    ) {
        let mut body = String::from("{");
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let n = fuzz_number(numbers[i], units[i], 1e10);
            // Half the time hand the field a wrong-typed value.
            if as_string && i % 2 == 0 {
                body.push_str(&format!("\"{key}\":\"{n}\""));
            } else if n.is_finite() {
                body.push_str(&format!("\"{key}\":{n}"));
            } else {
                body.push_str(&format!("\"{key}\":null"));
            }
        }
        body.push('}');
        match parse_campaign(&body) {
            Ok(spec) => {
                let rendered = spec.to_json();
                let reparsed = parse_campaign(&rendered);
                prop_assert_eq!(reparsed.as_ref(), Ok(&spec));
            }
            Err(err) => prop_assert!(!err.field.is_empty(), "{}", body),
        }
    }

    /// Raw bytes — not even JSON — never panic the parser either.
    #[test]
    fn hostile_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let body = String::from_utf8_lossy(&bytes);
        if let Err(err) = parse_campaign(&body) {
            prop_assert!(!err.reason.is_empty());
        }
    }
}

/// The known-bad corpus: every rejection class the schema documents, as
/// (body, expected offending field). The table is the service's 400
/// contract — a client can trust the `field` to point at what to fix.
#[test]
fn known_bad_specs_are_rejected_with_the_right_field() {
    let session =
        |pmd: &str| format!("{{\"pmd_mv\":{pmd},\"soc_mv\":950,\"freq_mhz\":2400,\"minutes\":10}}");
    let corpus: Vec<(String, &str)> = vec![
        // NaN / non-finite voltage (JSON has no NaN literal; a null or
        // string where a number belongs is the wire-side equivalent).
        (
            format!("{{\"sessions\":[{}]}}", session("null")),
            "sessions[0].pmd_mv",
        ),
        (
            format!("{{\"sessions\":[{}]}}", session("\"NaN\"")),
            "sessions[0].pmd_mv",
        ),
        // Zero trials.
        ("{\"vmin_trials\":0}".to_string(), "vmin_trials"),
        // Overlapping domains: two sessions at the same operating point.
        (
            format!("{{\"sessions\":[{0},{0}]}}", session("940")),
            "sessions[1]",
        ),
        // Out-of-range and off-grid values.
        ("{\"scale\":0}".to_string(), "scale"),
        ("{\"scale\":1.5}".to_string(), "scale"),
        ("{\"scale\":-0.5}".to_string(), "scale"),
        ("{\"seed\":1.5}".to_string(), "seed"),
        ("{\"seed\":-1}".to_string(), "seed"),
        ("{\"seed\":9007199254740994}".to_string(), "seed"),
        ("{\"jobs\":0}".to_string(), "jobs"),
        ("{\"jobs\":65}".to_string(), "jobs"),
        ("{\"resume\":-2}".to_string(), "resume"),
        // Voltage above nominal, below floor, off the 5 mV step.
        (
            format!("{{\"sessions\":[{}]}}", session("985")),
            "sessions[0]",
        ),
        (
            format!("{{\"sessions\":[{}]}}", session("490")),
            "sessions[0]",
        ),
        (
            format!("{{\"sessions\":[{}]}}", session("913")),
            "sessions[0]",
        ),
        // Frequency off the PLL grid.
        (
            "{\"sessions\":[{\"pmd_mv\":940,\"soc_mv\":950,\"freq_mhz\":1000,\
             \"minutes\":10}]}"
                .to_string(),
            "sessions[0]",
        ),
        // Zero-length session, empty schedule, missing field.
        (
            "{\"sessions\":[{\"pmd_mv\":940,\"soc_mv\":950,\"freq_mhz\":2400,\
             \"minutes\":0}]}"
                .to_string(),
            "sessions[0].minutes",
        ),
        ("{\"sessions\":[]}".to_string(), "sessions"),
        (
            "{\"sessions\":[{\"pmd_mv\":940}]}".to_string(),
            "sessions[0].soc_mv",
        ),
        // Mutual exclusion and unknown fields.
        (
            format!("{{\"scale\":0.5,\"sessions\":[{}]}}", session("940")),
            "scale",
        ),
        ("{\"sclae\":0.5}".to_string(), "sclae"),
        // Unknown platforms, wrong-typed platform, and a session valid on
        // X-Gene 2 but off the selected platform's rails.
        ("{\"platform\":\"coffee-lake\"}".to_string(), "platform"),
        ("{\"platform\":7}".to_string(), "platform"),
        (
            format!(
                "{{\"platform\":\"zynq-mpsoc\",\"sessions\":[{}]}}",
                session("940")
            ),
            "sessions[0]",
        ),
        // Bad identifiers.
        ("{\"name\":\"no spaces allowed\"}".to_string(), "name"),
        ("{\"tenant\":\"\"}".to_string(), "tenant"),
        // Type confusion at the top level.
        ("{\"seed\":\"twelve\"}".to_string(), "seed"),
        ("{\"sessions\":7}".to_string(), "sessions"),
        ("[1,2,3]".to_string(), "body"),
        ("not json at all".to_string(), "body"),
        // Nesting past the JSON codec's depth limit: a parse error, not a
        // handler thread recursing off its stack.
        ("[".repeat(60_000), "body"),
    ];
    for (body, expected_field) in corpus {
        let err = parse_campaign(&body).expect_err(&format!("must reject: {body}"));
        assert!(
            err.field.starts_with(expected_field),
            "{body}\n  rejected via field `{}` (expected `{expected_field}`): {}",
            err.field,
            err.reason
        );
    }
}

/// Good specs from every accepted shape validate and round-trip.
#[test]
fn known_good_specs_round_trip() {
    let corpus = [
        "{}",
        "{\"seed\":7}",
        "{\"name\":\"nightly.sweep-2\",\"tenant\":\"lab_a\",\"scale\":0.25}",
        "{\"jobs\":8,\"vmin_trials\":500}",
        "{\"sessions\":[{\"pmd_mv\":940,\"soc_mv\":950,\"freq_mhz\":2400,\
         \"minutes\":30},{\"pmd_mv\":920,\"soc_mv\":920,\"freq_mhz\":2400,\
         \"minutes\":30.5}]}",
        "{\"resume\":3}",
        "{\"platform\":\"xgene2\"}",
        "{\"platform\":\"zynq-mpsoc\",\"seed\":9}",
        "{\"platform\":\"zynq-mpsoc\",\"sessions\":[{\"pmd_mv\":770,\
         \"soc_mv\":850,\"freq_mhz\":1500,\"minutes\":10}]}",
    ];
    for body in corpus {
        let spec = parse_campaign(body).unwrap_or_else(|e| panic!("{body}: {e}"));
        let rendered = spec.to_json();
        assert_eq!(
            parse_campaign(&rendered).as_ref(),
            Ok(&spec),
            "round-trip changed the spec: {body} -> {rendered}"
        );
    }
}

/// Two bodies that between them set every field: `scale` on the X-Gene 2
/// with every other top-level key, and an explicit two-session schedule
/// on the Zynq MPSoC.
const BODIES: [&str; 2] = [
    "{\"name\":\"nightly.sweep-2\",\"tenant\":\"lab_a\",\"platform\":\"xgene2\",\
     \"seed\":20231028,\"scale\":0.25,\"jobs\":4,\"vmin_trials\":500,\"resume\":3}",
    "{\"name\":\"zynq.sessions\",\"tenant\":\"lab_b\",\"platform\":\"zynq-mpsoc\",\
     \"seed\":9,\"jobs\":2,\"sessions\":[{\"pmd_mv\":850,\"soc_mv\":850,\"freq_mhz\":1500,\
     \"minutes\":30},{\"pmd_mv\":770,\"soc_mv\":850,\"freq_mhz\":1500,\"minutes\":30.5}]}",
];

/// Every outcome of the parser on the [`BODIES`]' [`mutants`], folded by
/// value: digest A over each document's label and its outcome (the
/// accepted spec's `Debug` text, or the rejected field), digest B over
/// each replaced value's label and its rejection reason.
#[test]
fn every_campaign_mutant_outcome_is_pinned_by_value() {
    let (mut documents, mut outcomes, mut reasons) = (0, Digest::new(), Digest::new());
    for (at, body) in BODIES.iter().enumerate() {
        let doc = json::parse(body).expect("the bodies are JSON");
        parse_campaign(body).unwrap_or_else(|e| panic!("body {at}: {e}"));
        for mutant in mutants(&doc) {
            documents += 1;
            let label = format!("body {at}: {}", mutant.label);
            outcomes.text(&label);
            match parse_campaign(&mutant.body) {
                Ok(spec) => outcomes.text(&format!("{spec:?}")),
                Err(e) => {
                    outcomes.text(&e.field);
                    if mutant.replaced {
                        reasons.text(&label);
                        reasons.text(&e.reason);
                    }
                }
            }
        }
    }
    assert_eq!(
        (documents, outcomes.0, reasons.0),
        (293, 0x826a_c02b_c033_7461, 0xec34_af30_c78a_f694),
        "a campaign document's outcome changed"
    );
}
