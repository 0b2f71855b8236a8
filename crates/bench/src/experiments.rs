//! One regeneration function per table and figure of the paper.
//!
//! Every function returns the formatted rows the paper reports, with the
//! paper's own numbers alongside for comparison. Absolute agreement is not
//! expected (the substrate is a calibrated simulator, not the authors'
//! beam line); the *shape* — orderings, ratios, crossovers — is the
//! reproduction target recorded in `EXPERIMENTS.md`.

use std::fmt::Write as _;

use serscale_core::campaign::CampaignReport;
use serscale_core::classify::FailureClass;
use serscale_core::fit::{fit_breakdown, sdc_notification_split};
use serscale_core::session::SessionReport;
use serscale_core::tradeoff::{power_vs_upsets, savings_vs_susceptibility};
use serscale_soc::edac::EdacSeverity;
use serscale_soc::platform::{OperatingPoint, Platform};
use serscale_soc::{PlatformSpec, PowerModel};
use serscale_stats::SimRng;
use serscale_types::{CacheLevel, Megahertz};
use serscale_undervolt::{characterize::Characterizer, timing::TimingFailureModel};
use serscale_workload::Benchmark;

use crate::paper;

/// The modelled chip's SRAM capacity in Mbit, for the Table 2 SER row.
fn sram_mbit() -> f64 {
    Platform::from_spec(&PlatformSpec::xgene2())
        .total_sram()
        .as_mbit()
}

fn session(report: &CampaignReport, point: OperatingPoint) -> &SessionReport {
    report
        .session_at(point)
        .unwrap_or_else(|| panic!("campaign lacks the {} session", point.label()))
}

/// Table 1: the platform specification.
pub fn table1() -> String {
    let mut out = String::from("Table 1 — X-Gene 2 class platform specification\n");
    for (k, v) in PlatformSpec::xgene2().table1() {
        let _ = writeln!(out, "  {k:<28} {v}");
    }
    out
}

/// Table 2: the four beam sessions.
pub fn table2(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Table 2 — Neutron beam sessions (simulated vs paper)\n\
         session  V(mV)  dur(min)      fluence(n/cm2)   NYC-years    events  ev/min          upsets  ups/min        FIT/Mbit\n",
    );
    let mbit = sram_mbit();
    for (i, ((point, _), row)) in serscale_core::campaign::CampaignConfig::paper()
        .sessions
        .iter()
        .zip(paper::TABLE2)
        .enumerate()
    {
        let s = session(report, *point);
        let (_, p_min, p_flu, p_years, p_ev, p_evr, p_up, p_upr, p_ser) = row;
        let _ = writeln!(
            out,
            "  {idx}     {v:>5}  {d:>7.0}  {f:>9.2e} ({pf:.2e})  {y:>8.2e}  {ev:>5} ({pev:>3})  {evr:.3} ({pevr:.3})  {up:>6} ({pup})  {upr:.3} ({pupr:.3})  {ser:.2} ({pser:.2})",
            idx = i + 1,
            v = point.pmd.get(),
            d = s.duration.as_minutes(),
            f = s.fluence.as_per_cm2(),
            pf = p_flu,
            y = s.nyc_equivalent_years(),
            ev = s.error_events(),
            pev = p_ev,
            evr = s.error_rate().per_minute(),
            pevr = p_evr,
            up = s.memory_upsets,
            pup = p_up,
            upr = s.upset_rate().per_minute(),
            pupr = p_upr,
            ser = s.memory_ser_fit_per_mbit(mbit),
            pser = p_ser,
        );
        let _ = p_min;
        let _ = p_years;
    }
    out
}

/// Table 3: the campaign voltage levels (from the report's Vmin anchors).
pub fn table3(report: &CampaignReport) -> String {
    let mut out = String::from("Table 3 — Voltage levels (simulated vs paper)\n");
    let rows = [
        ("Nominal", OperatingPoint::nominal()),
        ("Safe", OperatingPoint::safe()),
        ("Vmin", OperatingPoint::vmin_2400()),
        ("Vmin 900MHz", OperatingPoint::vmin_900()),
    ];
    for ((label, point), (p_label, p_f, p_pmd, p_soc)) in rows.iter().zip(paper::TABLE3) {
        let _ = writeln!(
            out,
            "  {label:<12} {f:>8}  PMD {pmd:>4} mV (paper {p_pmd})  SoC {soc:>4} mV (paper {p_soc})",
            f = point.frequency,
            pmd = point.pmd.get(),
            soc = point.soc.get(),
        );
        let _ = (p_label, p_f);
    }
    let _ = writeln!(
        out,
        "  characterized Vmins: {}",
        report
            .vmins
            .iter()
            .map(|(f, v)| format!("{f} → {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out
}

/// Figure 4: pfail vs voltage at both frequencies.
pub fn figure4(seed: u64, trials_per_benchmark: u32) -> String {
    let mut out =
        String::from("Figure 4 — probability of failure vs voltage (Vmin characterization)\n");
    let harness = Characterizer::new(TimingFailureModel::xgene2(), trials_per_benchmark);
    for (freq_mhz, p_vmin, p_dead) in paper::FIGURE4 {
        let frequency = Megahertz::new(freq_mhz);
        let mut rng = SimRng::seed_from(seed).fork_indexed("fig4", u64::from(freq_mhz));
        let curve = harness.sweep(&mut rng, frequency);
        let _ = writeln!(out, "  {frequency}:");
        for point in &curve.points {
            if point.pfail() > 0.0 || point.voltage.get() >= p_vmin.saturating_sub(5) {
                let _ = writeln!(
                    out,
                    "    {v:>4} mV  pfail {p:>6}  ({fails}/{trials})",
                    v = point.voltage.get(),
                    p = crate::pct(point.pfail()),
                    fails = point.failures,
                    trials = point.trials,
                );
            }
        }
        let vmin = curve.safe_vmin().map(|v| v.get()).unwrap_or(0);
        let dead = curve.full_failure_voltage().map(|v| v.get()).unwrap_or(0);
        let _ = writeln!(
            out,
            "    safe Vmin {vmin} mV (paper {p_vmin}), 100% failure at {dead} mV (paper {p_dead})",
        );
    }
    out
}

/// Figure 5: upsets/minute per benchmark at the three 2.4 GHz voltages.
pub fn figure5(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 5 — cache upsets/minute per benchmark @ 2.4 GHz (simulated, paper in parens)\n\
         bench      980 mV          930 mV          920 mV\n",
    );
    let points = [
        OperatingPoint::nominal(),
        OperatingPoint::safe(),
        OperatingPoint::vmin_2400(),
    ];
    for (name, paper_rates) in paper::FIGURE5 {
        let mut cells = Vec::new();
        for (point, p) in points.iter().zip(paper_rates) {
            let s = session(report, *point);
            let rate = if name == "Total" {
                s.upset_rate().per_minute()
            } else {
                let b = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == name)
                    .expect("benchmark name");
                s.per_benchmark
                    .get(&b)
                    .map(|st| st.upsets_per_minute())
                    .unwrap_or(0.0)
            };
            cells.push(format!("{rate:.2} ({p:.2})"));
        }
        let _ = writeln!(out, "  {name:<8} {}", cells.join("     "));
    }
    out
}

/// The five rows Figures 6 and 7 report, in plotting order.
const PER_LEVEL_ROWS: [(&str, CacheLevel, EdacSeverity); 5] = [
    ("TLBs CE", CacheLevel::Tlb, EdacSeverity::Corrected),
    ("L1 CE", CacheLevel::L1, EdacSeverity::Corrected),
    ("L2 CE", CacheLevel::L2, EdacSeverity::Corrected),
    ("L3 CE", CacheLevel::L3, EdacSeverity::Corrected),
    ("L3 UE", CacheLevel::L3, EdacSeverity::Uncorrected),
];

/// Figure 6: per-cache-level upsets/minute at the three 2.4 GHz voltages.
pub fn figure6(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 6 — upsets/minute per cache level @ 2.4 GHz (simulated, paper in parens)\n\
         level      980 mV            930 mV            920 mV\n",
    );
    let points = [
        OperatingPoint::nominal(),
        OperatingPoint::safe(),
        OperatingPoint::vmin_2400(),
    ];
    for (i, (label, paper_rates)) in paper::FIGURE6.iter().enumerate() {
        let mut cells = Vec::new();
        for (point, p) in points.iter().zip(paper_rates) {
            let s = session(report, *point);
            let (_, level, severity) = PER_LEVEL_ROWS[i];
            let rate = s.level_rate_per_minute(level, severity);
            cells.push(format!("{rate:.3} ({p:.3})"));
        }
        let _ = writeln!(out, "  {label:<9} {}", cells.join("   "));
    }
    out
}

/// Figure 7: per-cache-level upsets/minute at 790 mV / 900 MHz.
pub fn figure7(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 7 — upsets/minute per cache level @ 790 mV / 900 MHz (simulated vs paper)\n",
    );
    let s = session(report, OperatingPoint::vmin_900());
    for (i, (label, p)) in paper::FIGURE7.iter().enumerate() {
        let (_, level, severity) = PER_LEVEL_ROWS[i];
        let rate = s.level_rate_per_minute(level, severity);
        let _ = writeln!(out, "  {label:<9} {rate:.3} (paper {p:.2})");
    }
    out
}

/// Figure 8: failure-class shares per voltage.
pub fn figure8(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 8 — failure-class shares @ 2.4 GHz (simulated, paper in parens)\n\
         V(mV)    AppCrash          SysCrash          SDC\n",
    );
    let points = [
        OperatingPoint::nominal(),
        OperatingPoint::safe(),
        OperatingPoint::vmin_2400(),
    ];
    for (point, (v, p_shares)) in points.iter().zip(paper::FIGURE8) {
        let s = session(report, *point);
        let shares = s.failure_shares();
        let classes = [
            FailureClass::AppCrash,
            FailureClass::SysCrash,
            FailureClass::Sdc,
        ];
        let cells: Vec<String> = classes
            .iter()
            .zip(p_shares)
            .map(|(c, p)| format!("{} ({})", crate::pct(shares[c]), crate::pct(p)))
            .collect();
        let _ = writeln!(out, "  {v:<6} {}", cells.join("    "));
    }
    out
}

/// Figure 9: power vs upset rate across the four operating points.
pub fn figure9(report: &CampaignReport) -> String {
    let mut out =
        String::from("Figure 9 — power vs cache upsets/minute (simulated, paper in parens)\n");
    let rows = power_vs_upsets(report, &PowerModel::xgene2());
    for (row, (v, f, p_power, p_rate)) in rows.iter().zip(paper::FIGURE9) {
        let _ = writeln!(
            out,
            "  {v:>4} mV @ {f:>4} MHz   {power:.2} W ({p_power:.2} W)   {rate:.3}/min ({p_rate:.2}/min)",
            power = row.power.get(),
            rate = row.upsets_per_minute,
        );
    }
    out
}

/// Figure 10: power savings vs susceptibility increase.
pub fn figure10(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 10 — power savings vs susceptibility increase (simulated, paper in parens)\n",
    );
    let rows = savings_vs_susceptibility(report, &PowerModel::xgene2());
    for (row, (v, f, p_save, p_susc)) in rows.iter().zip(paper::FIGURE10) {
        let _ = writeln!(
            out,
            "  {v:>4} mV @ {f:>4} MHz   savings {s} ({ps})   susceptibility +{u} (+{pu})",
            s = crate::pct(row.power_savings),
            ps = crate::pct(p_save),
            u = crate::pct(row.susceptibility_increase),
            pu = crate::pct(p_susc),
        );
    }
    out
}

/// Figure 11: FIT per failure class at the three 2.4 GHz voltages.
pub fn figure11(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 11 — FIT per class @ 2.4 GHz (simulated, paper in parens)\n\
         class      980 mV            930 mV            920 mV\n",
    );
    let points = [
        OperatingPoint::nominal(),
        OperatingPoint::safe(),
        OperatingPoint::vmin_2400(),
    ];
    let breakdowns: Vec<_> = points
        .iter()
        .map(|p| fit_breakdown(session(report, *p)))
        .collect();
    for (row_idx, (label, paper_fits)) in paper::FIGURE11.iter().enumerate() {
        let mut cells = Vec::new();
        for (b, p) in breakdowns.iter().zip(paper_fits) {
            let fit = match row_idx {
                0 => b.app_crash.point,
                1 => b.sys_crash.point,
                2 => b.sdc.point,
                _ => b.total.point,
            };
            cells.push(format!("{:>6.2} ({p:.2})", fit.get()));
        }
        let _ = writeln!(out, "  {label:<9} {}", cells.join("   "));
    }
    out
}

/// Figure 12: SDC FIT with/without hardware notification @ 2.4 GHz.
pub fn figure12(report: &CampaignReport) -> String {
    let mut out = String::from(
        "Figure 12 — SDC FIT by notification @ 2.4 GHz (simulated, paper in parens)\n\
         V(mV)    w/o notification     w/ corrected notification\n",
    );
    let points = [
        OperatingPoint::nominal(),
        OperatingPoint::safe(),
        OperatingPoint::vmin_2400(),
    ];
    for (point, (v, p_without, p_with)) in points.iter().zip(paper::FIGURE12) {
        let split = sdc_notification_split(session(report, *point));
        let _ = writeln!(
            out,
            "  {v:<6} {wo:>7.2} ({p_without:.2})       {w:>7.2} ({p_with:.2})",
            wo = split.without_notification.point.get(),
            w = split.with_notification.point.get(),
        );
    }
    out
}

/// Figure 13: the same split at 790 mV / 900 MHz.
pub fn figure13(report: &CampaignReport) -> String {
    let split = sdc_notification_split(session(report, OperatingPoint::vmin_900()));
    let (p_without, p_with) = paper::FIGURE13;
    format!(
        "Figure 13 — SDC FIT by notification @ 790 mV / 900 MHz (simulated vs paper)\n  \
         w/o notification {:.2} (paper {p_without:.2})   w/ notification {:.2} (paper {p_with:.2})\n",
        split.without_notification.point.get(),
        split.with_notification.point.get(),
    )
}

/// The paper's headline claims, recomputed.
pub fn headlines(report: &CampaignReport) -> String {
    let nominal = session(report, OperatingPoint::nominal());
    let vmin = session(report, OperatingPoint::vmin_2400());
    let total_ratio = serscale_core::fit::total_fit(vmin).point.get()
        / serscale_core::fit::total_fit(nominal).point.get();
    let sdc_ratio = serscale_core::fit::class_fit(vmin, FailureClass::Sdc)
        .point
        .get()
        / serscale_core::fit::class_fit(nominal, FailureClass::Sdc)
            .point
            .get()
            .max(1e-12);
    let avg_upset_increase =
        vmin.upset_rate().per_minute() / nominal.upset_rate().per_minute() - 1.0;
    let max_bench_increase = Benchmark::ALL
        .into_iter()
        .filter_map(|b| {
            let n = nominal.per_benchmark.get(&b)?.upsets_per_minute();
            let v = vmin.per_benchmark.get(&b)?.upsets_per_minute();
            Some(v / n - 1.0)
        })
        .fold(f64::NEG_INFINITY, f64::max);
    format!(
        "Headline claims (simulated vs paper)\n  \
         max per-benchmark upset-rate increase at Vmin: {} (paper {})\n  \
         chip upset-rate increase at Vmin:              {} (paper {})\n  \
         total FIT ratio Vmin/nominal:                  {:.1}x (paper {:.1}x)\n  \
         SDC FIT ratio Vmin/nominal:                    {:.1}x (paper {:.1}x)\n",
        crate::pct(max_bench_increase),
        crate::pct(paper::HEADLINES[0].1),
        crate::pct(avg_upset_increase),
        crate::pct(paper::HEADLINES[1].1),
        total_ratio,
        paper::HEADLINES[2].1,
        sdc_ratio,
        paper::HEADLINES[3].1,
    )
}

/// Beyond the paper: the fine-grained voltage sweep and operating-point
/// advisor (`repro --sweep`).
pub fn voltage_sweep() -> String {
    use serscale_core::dut::DeviceUnderTest;
    use serscale_core::explore::{recommend, sweep_voltage};
    use serscale_types::{Flux, Millivolts};

    let nominal = OperatingPoint::nominal();
    let template = DeviceUnderTest::xgene2(nominal, DeviceUnderTest::paper_vmin(nominal.frequency));
    let sweep = sweep_voltage(
        Millivolts::new(980),
        Millivolts::new(920),
        &template,
        &PowerModel::xgene2(),
        Flux::per_cm2_s(1.5e6),
    );
    let mut out = String::from(
        "Voltage sweep (beyond the paper) — 5 mV grid @ 2.4 GHz\n\
         PMD mV   power      upsets/min   predicted SDC FIT\n",
    );
    for p in &sweep {
        let _ = writeln!(
            out,
            "   {:>4}   {:>6.2} W   {:>7.3}      {:>8.2}",
            p.pmd.get(),
            p.power.get(),
            p.upsets_per_minute,
            p.sdc_fit.get()
        );
    }
    if let Some(pick) = recommend(&sweep, 3.0) {
        let _ = writeln!(
            out,
            "advisor (≤3x nominal SDC FIT): {} — Design implication #2's \"slightly above Vmin\"",
            pick.pmd
        );
    }
    out
}

/// Beyond the paper: mechanism ablations (`repro --ablations`).
pub fn ablations(seed: u64) -> String {
    use serscale_core::ablation;
    use serscale_types::Millivolts;

    let (amp_with, amp_without) = ablation::no_margin_amplification();
    let (ue_plain, ue_interleaved) = ablation::interleaved_l3(seed, 20_000, Millivolts::new(920));
    let (k_with, k_without) = ablation::voltage_insensitive_sram();
    let changed = ablation::secded_everywhere(seed, 20_000);
    format!(
        "Mechanism ablations (beyond the paper)\n  \
         near-Vmin margin amplification: sigma_data Vmin/nominal {amp_with:.1}x with, \
         {amp_without:.2}x without -> removing it erases the SDC cliff\n  \
         L3 interleaving: UE share/strike {ue_plain:.3} un-interleaved vs \
         {ue_interleaved:.4} 4-way -> interleaving erases the L3 UEs\n  \
         Qcrit(V): chip sigma Vmin/nominal {k_with:.2}x with, {k_without:.2}x without \
         -> a flat model erases Table 2's trend\n  \
         SECDED on L1 instead of parity: {changed:.4} of SBU outcomes change \
         -> Design implication #1, nothing to gain\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_campaign;

    fn quick() -> CampaignReport {
        run_campaign(0.02, 7, 1)
    }

    #[test]
    fn table1_renders() {
        let t = table1();
        assert!(t.contains("SECDED"));
        assert!(t.contains("28 nm"));
    }

    #[test]
    fn all_report_experiments_render() {
        let report = quick();
        for text in [
            table2(&report),
            table3(&report),
            figure5(&report),
            figure6(&report),
            figure7(&report),
            figure8(&report),
            figure9(&report),
            figure10(&report),
            figure11(&report),
            figure12(&report),
            figure13(&report),
            headlines(&report),
        ] {
            assert!(text.lines().count() >= 2, "{text}");
            assert!(text.contains("paper"), "{text}");
        }
    }

    #[test]
    fn figure4_renders_and_finds_vmins() {
        let text = figure4(3, 40);
        assert!(text.contains("2.4 GHz"));
        assert!(text.contains("900 MHz"));
        assert!(text.contains("safe Vmin 920 mV"), "{text}");
        assert!(text.contains("safe Vmin 790 mV"), "{text}");
    }
}
