//! Guards for the data-driven platform layer.
//!
//! The built-in platforms are the files under `platforms/`, embedded by
//! `PlatformSpec::builtin`. Four invariants live here because they span
//! crates:
//!
//! 1. each built-in file is pinned by value: the campaign-config
//!    fingerprint hashes the `Debug` text of every spec field, so any edit
//!    to a file fails here and names the platform;
//! 2. platform files are untrusted input: no document — arbitrary bytes, a
//!    truncated built-in, or a built-in with one member replaced, removed
//!    or added — panics the parser, and every spec the parser accepts
//!    builds every platform-driven model without panicking;
//! 3. the parser's answer to each of those single-member mutations is
//!    pinned by value: the accepted spec's fingerprint, or the rejected
//!    field and reason; and
//! 4. every report of `repro` — Tables 1–3, Figures 4–13, the headlines,
//!    the voltage sweep, the ablations and the self-check — renders
//!    without panicking on both built-ins, on the test dies under
//!    `tests/platforms/` (one clock with three sessions and no shared
//!    array, and its one-session variant) and on every accepted mutation,
//!    and only the paper's own die prints the paper's numbers. The
//!    mutations run their campaigns on every eighth document and skip the
//!    ablations, which cost most.

use proptest::prelude::*;
use serscale_bench::{experiments, selfcheck, REPRO_SEED};
use serscale_core::campaign::{Campaign, CampaignRunOptions};
use serscale_core::journal::config_fingerprint;
use serscale_core::trace::NoopObserver;
use serscale_core::{CampaignConfig, CampaignReport, DeviceUnderTest};
use serscale_soc::{
    parse_platform, DvfsTable, LogicSusceptibility, Platform, PlatformSpec, PowerModel,
};
use serscale_stats::SimRng;
use serscale_types::json;
use serscale_undervolt::{Characterizer, TimingFailureModel};

#[path = "../../../tests/support/spec_mutants.rs"]
mod spec_mutants;

use spec_mutants::{mutants, Digest};

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
        assert_eq!(
            fingerprint(&spec),
            pinned,
            "platforms/{name}.json no longer describes the pinned {name} platform; \
             if the edit is deliberate, update its fingerprint and goldens"
        );
    }
}

/// The `config_fingerprint` of `spec`'s campaign at scale 0.01 and
/// [`REPRO_SEED`], in hex.
fn fingerprint(spec: &PlatformSpec) -> String {
    let mut config = CampaignConfig::for_platform_scaled(spec, 0.01);
    config.seed = REPRO_SEED;
    format!("{:016x}", config_fingerprint(&config))
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

#[test]
fn adversarial_fields_are_rejected_or_build_every_model() {
    for (name, body) in FILES {
        let doc = json::parse(body).expect("built-in files are JSON");
        for mutant in mutants(&doc) {
            let outcome = std::panic::catch_unwind(|| parse_and_build(&mutant.body));
            assert!(outcome.is_ok(), "{name}: `{}` panicked", mutant.label);
        }
    }
}

/// Every outcome of the parser on the built-in files' [`mutants`], folded
/// by value: digest A over each document's label and its outcome (`ok`
/// and the fingerprint, or the rejected field), digest B over each
/// replaced value's label and its rejection reason.
#[test]
fn every_platform_mutant_outcome_is_pinned_by_value() {
    let (mut documents, mut outcomes, mut reasons) = (0, Digest::new(), Digest::new());
    for (name, body) in FILES {
        let doc = json::parse(body).expect("built-in files are JSON");
        for mutant in mutants(&doc) {
            documents += 1;
            let label = format!("{name}: {}", mutant.label);
            outcomes.text(&label);
            match parse_platform(&mutant.body) {
                Ok(spec) => outcomes.text(&format!("ok {}", fingerprint(&spec))),
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
        (2732, 0x8b6b_e039_bf94_9bdc, 0xc97d_b158_6ae4_f893),
        "a platform document's outcome changed"
    );
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

/// The committed test dies.
const TEST_DIES: [&str; 2] = [
    include_str!("../../../tests/platforms/one-frequency.json"),
    include_str!("../../../tests/platforms/one-session.json"),
];

/// The texts that mark a cell or caption comparing with the paper.
const PAPER_MARKS: [&str; 3] = ["(paper", "vs paper", "paper in parens"];

/// A campaign on `spec` at `scale` of its declared beam time.
fn campaign(spec: &PlatformSpec, scale: f64) -> CampaignReport {
    let mut config = CampaignConfig::for_platform_scaled(spec, scale);
    config.seed = REPRO_SEED;
    Campaign::new(config)
        .try_run(CampaignRunOptions::with_jobs(1), &mut NoopObserver)
        .expect("a run with no journal and no cancel token cannot fail")
}

/// Every report option's text for `spec`: the ones that need no campaign,
/// then, given `report`, the ones that do; the ablations only when asked.
fn reports(
    spec: &PlatformSpec,
    report: Option<&CampaignReport>,
    ablations: bool,
) -> Vec<(&'static str, String)> {
    let mut texts = vec![
        ("--table 1", experiments::table1(spec)),
        ("--figure 4", experiments::figure4(spec, REPRO_SEED, 100)),
        ("--sweep", experiments::voltage_sweep(spec)),
    ];
    if ablations {
        texts.push(("--ablations", experiments::ablations(spec, REPRO_SEED)));
    }
    if let Some(r) = report {
        texts.extend([
            ("--table 2", experiments::table2(spec, r)),
            ("--table 3", experiments::table3(spec, r)),
            ("--figure 5", experiments::figure5(spec, r)),
            ("--figure 6", experiments::figure6(spec, r)),
            ("--figure 7", experiments::figure7(spec, r)),
            ("--figure 8", experiments::figure8(spec, r)),
            ("--figure 9", experiments::figure9(spec, r)),
            ("--figure 10", experiments::figure10(spec, r)),
            ("--figure 11", experiments::figure11(spec, r)),
            ("--figure 12", experiments::figure12(spec, r)),
            ("--figure 13", experiments::figure13(spec, r)),
            ("--headlines", experiments::headlines(spec, r)),
            ("--selfcheck", selfcheck::run_checks(spec, r).render()),
        ]);
    }
    texts
}

/// Runs every report on `spec` inside a panic guard and checks that only
/// the paper's die prints the paper's numbers.
fn check_die(label: &str, spec: &PlatformSpec, scale: Option<f64>, ablations: bool) {
    let texts = std::panic::catch_unwind(|| {
        let report = scale.map(|scale| campaign(spec, scale));
        reports(spec, report.as_ref(), ablations)
    })
    .unwrap_or_else(|_| panic!("{label}: a report panicked"));
    let marked = |text: &str| PAPER_MARKS.iter().any(|mark| text.contains(mark));
    if *spec == PlatformSpec::xgene2() {
        // Figure 4 and, given a campaign, Tables 2–3, Figures 5–13 and the
        // headlines quote the paper's numbers (so may the self-check's
        // Vmin claims, when a short campaign saw the SDCs they need).
        let expected = if scale.is_some() { 13 } else { 1 };
        let compared = texts.iter().filter(|(_, text)| marked(text)).count();
        assert!(compared >= expected, "{label}: {compared} reports compare");
        return;
    }
    for (option, text) in &texts {
        assert!(text.ends_with('\n'), "{label} {option}: {text:?}");
        assert!(
            !marked(text),
            "{label} {option} compares with the paper:\n{text}"
        );
    }
}

#[test]
fn every_report_runs_on_the_builtins_and_the_test_dies() {
    for body in FILES.iter().map(|(_, body)| body).chain(&TEST_DIES) {
        let spec = parse_platform(body).expect("committed dies validate");
        check_die(&spec.name, &spec, Some(0.01), true);
    }
}

#[test]
fn every_report_runs_on_every_accepted_corpus_document() {
    let mut accepted = 0;
    for (name, body) in FILES {
        let doc = json::parse(body).expect("built-in files are JSON");
        for mutant in mutants(&doc) {
            let Ok(spec) = parse_platform(&mutant.body) else {
                continue;
            };
            let scale = (accepted % 8 == 0).then_some(0.002);
            check_die(&format!("{name}: {}", mutant.label), &spec, scale, false);
            accepted += 1;
        }
    }
    assert_eq!(accepted, 509, "the corpus's accepted documents changed");
}
