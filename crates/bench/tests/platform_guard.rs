//! Guards for the data-driven platform layer.
//!
//! The built-in platforms are the files under `platforms/`, embedded by
//! `PlatformSpec::builtin`. Two invariants live here because they span
//! crates:
//!
//! 1. each built-in file is pinned by value: the campaign-config
//!    fingerprint hashes the `Debug` text of every spec field, so any edit
//!    to a file fails here and names the platform, and
//! 2. platform files are untrusted input: no document — arbitrary bytes, a
//!    truncated built-in, or a built-in with one number replaced by an
//!    adversarial value — panics the parser, and every spec the parser
//!    accepts builds every platform-driven model without panicking.

use proptest::prelude::*;
use serscale_bench::REPRO_SEED;
use serscale_core::journal::config_fingerprint;
use serscale_core::{CampaignConfig, DeviceUnderTest};
use serscale_soc::{
    parse_platform, DvfsTable, LogicSusceptibility, Platform, PlatformSpec, PowerModel,
};
use serscale_stats::SimRng;
use serscale_types::json::{self, JsonValue};
use serscale_undervolt::{Characterizer, TimingFailureModel};

/// The built-in spec files, as `PlatformSpec::builtin` embeds them.
const FILES: [(&str, &str); 2] = [
    ("xgene2", include_str!("../../../platforms/xgene2.json")),
    (
        "zynq-mpsoc",
        include_str!("../../../platforms/zynq-mpsoc.json"),
    ),
];

/// Each built-in's `config_fingerprint` at scale 0.01 and [`REPRO_SEED`].
/// The X-Gene 2 value is the one `BENCH_campaign_throughput.json` records.
const PINNED_FINGERPRINTS: [(&str, &str); 2] = [
    ("xgene2", "548b3325a14de7ba"),
    ("zynq-mpsoc", "7a8d3298930d72d7"),
];

#[test]
fn builtin_platforms_are_pinned_by_value() {
    assert_eq!(
        PINNED_FINGERPRINTS.map(|(name, _)| name),
        PlatformSpec::BUILTIN_NAMES,
        "every built-in platform needs a pinned fingerprint"
    );
    for (name, pinned) in PINNED_FINGERPRINTS {
        let spec = PlatformSpec::builtin(name).expect("built in");
        let mut config = CampaignConfig::for_platform_scaled(&spec, 0.01);
        config.seed = REPRO_SEED;
        assert_eq!(
            format!("{:016x}", config_fingerprint(&config)),
            pinned,
            "platforms/{name}.json no longer describes the pinned {name} platform; \
             if the edit is deliberate, update its fingerprint and goldens"
        );
    }
}

#[test]
fn committed_spec_files_match_the_builtins() {
    for (name, body) in FILES {
        let parsed = parse_platform(body).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(Some(parsed), PlatformSpec::builtin(name), "{name}");
    }
}

/// Parses `body`: an accepted spec must build every platform-driven model,
/// a rejection must name a field and a reason.
fn parse_and_build(body: &str) {
    match parse_platform(body) {
        Ok(spec) => build_everything(&spec),
        Err(e) => assert!(
            !e.field.is_empty() && !e.reason.is_empty(),
            "rejection without a field or reason: {e:?}"
        ),
    }
}

/// Builds every model a campaign derives from a platform spec, without
/// running a campaign.
fn build_everything(spec: &PlatformSpec) {
    let soc = Platform::from_spec(spec);
    assert!(soc.arrays().count() > 0);
    let power = PowerModel::for_platform(spec);
    let _ = LogicSusceptibility::for_platform(spec);
    let _ = TimingFailureModel::for_platform(spec);
    let _ = DvfsTable::for_platform(spec);
    let characterizer = Characterizer::for_platform(spec, 1);
    let mut rng = SimRng::seed_from(REPRO_SEED);
    for c in &spec.campaign {
        let point = c.point;
        let dut = DeviceUnderTest::for_platform(spec, point, spec.vmin_at(point.frequency));
        let _ = dut.total_observable_sram_sigma(1.0);
        let _ = power.total_power(point);
        let _ = characterizer.sweep_platform(&mut rng, spec, point.frequency);
    }
}

/// Every numeric leaf of a JSON tree, in document order.
fn numbers(value: &JsonValue, out: &mut Vec<f64>) {
    match value {
        JsonValue::Number(n) => out.push(*n),
        JsonValue::Array(items) => items.iter().for_each(|v| numbers(v, out)),
        JsonValue::Object(map) => map.values().for_each(|v| numbers(v, out)),
        _ => {}
    }
}

/// Replaces the `target`-th numeric leaf (document order) with `with`,
/// returning that leaf's dotted path.
fn replace_number(
    value: &mut JsonValue,
    target: &mut usize,
    with: f64,
    path: &str,
) -> Option<String> {
    match value {
        JsonValue::Number(n) if *target == 0 => {
            *n = with;
            Some(path.to_string())
        }
        JsonValue::Number(_) => {
            *target -= 1;
            None
        }
        JsonValue::Array(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(at, v)| replace_number(v, target, with, &format!("{path}[{at}]"))),
        JsonValue::Object(map) => map.iter_mut().find_map(|(key, v)| {
            let path = if path.is_empty() {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            replace_number(v, target, with, &path)
        }),
        _ => None,
    }
}

fn render(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => json::write_number(out, *n),
        JsonValue::String(s) => json::write_escaped(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (at, item) in items.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (at, (key, item)) in map.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                json::write_escaped(out, key);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// The adversarial replacements for a numeric field holding `original`:
/// signed zeros, extreme magnitudes, the edge of exact integers, negatives
/// and values off the 5 mV / 300 MHz grids.
fn adversarial(original: f64) -> [f64; 14] {
    [
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        9_007_199_254_740_992.0, // 2^53
        1e300,
        -1e300,
        -1.0,
        -original,
        original + 1.0,
        original + 150.0,
        original / 2.0,
        original * 2.0,
        original * 64.0,
    ]
}

#[test]
fn adversarial_fields_are_rejected_or_build_every_model() {
    for (name, body) in FILES {
        let doc = json::parse(body).expect("built-in files are JSON");
        let mut originals = Vec::new();
        numbers(&doc, &mut originals);
        assert!(originals.len() > 30, "{name}: {} numbers", originals.len());
        for (leaf, original) in originals.into_iter().enumerate() {
            for value in adversarial(original) {
                let mut mutated = doc.clone();
                let path = replace_number(&mut mutated, &mut leaf.clone(), value, "")
                    .expect("leaf index in range");
                let mut text = String::new();
                render(&mutated, &mut text);
                let outcome = std::panic::catch_unwind(|| parse_and_build(&text));
                assert!(outcome.is_ok(), "{name}: `{path}` = {value:e} panicked");
            }
        }
    }
}

#[test]
fn truncated_builtin_files_never_panic_the_parser() {
    for (name, body) in FILES {
        for end in 0..body.len() {
            let outcome = std::panic::catch_unwind(|| parse_and_build(&body[..end]));
            assert!(outcome.is_ok(), "{name} cut at byte {end} panicked");
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        file in 0usize..2,
        at in 0.0f64..1.0,
    ) {
        // The bytes alone, and spliced into a built-in file so that most
        // of the document still gets past the JSON syntax check.
        let noise = String::from_utf8_lossy(&bytes);
        parse_and_build(&noise);
        let body = FILES[file].1;
        let cut = (body.len() as f64 * at) as usize;
        parse_and_build(&format!("{}{noise}{}", &body[..cut], &body[cut..]));
    }
}
