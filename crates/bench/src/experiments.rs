//! One regeneration function per table and figure of the paper.
//!
//! Every function renders the rows the paper reports for the platform the
//! campaign ran on, and reads the sessions it needs from the report by one
//! rule:
//!
//! * the baseline is [`CampaignReport::baseline`], the spec's first
//!   campaign row;
//! * Figures 5, 6, 8, 11 and 12 use the sessions at the baseline's
//!   frequency, in campaign order, and "Vmin" is the lowest PMD voltage
//!   among them;
//! * Figures 7 and 13 print one block per session at any other frequency;
//! * Table 2 and Figures 9 and 10 list every session, and Table 3 the
//!   spec's campaign rows.
//!
//! On the paper's own die ([`paper::is_papers_die`]) the paper's numbers
//! follow in parentheses. Absolute agreement is not expected (the
//! substrate is a calibrated simulator, not the authors' beam line); the
//! *shape* — orderings, ratios, crossovers — is the reproduction target
//! recorded in `EXPERIMENTS.md`. A report that needs a session or an
//! array the die lacks prints one line naming what is missing.

use std::fmt::Write as _;

use serscale_core::ablation;
use serscale_core::campaign::CampaignReport;
use serscale_core::classify::FailureClass;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::explore::{recommend, sweep_voltage};
use serscale_core::fit::{class_fit, fit_breakdown, sdc_notification_split, total_fit};
use serscale_core::session::SessionReport;
use serscale_core::tradeoff::{power_vs_upsets, savings_vs_susceptibility};
use serscale_soc::edac::EdacSeverity;
use serscale_soc::{Platform, PlatformSpec, PowerModel};
use serscale_stats::SimRng;
use serscale_types::{CacheLevel, Flux};
use serscale_undervolt::characterize::Characterizer;
use serscale_workload::Benchmark;

use crate::paper;

/// What a report reads: its die, whether the paper measured it, and the
/// campaign's sessions sorted by the rule of the module docs.
pub(crate) struct Sessions<'a> {
    spec: &'a PlatformSpec,
    /// Whether the paper's numbers are printed alongside.
    pub(crate) papers_die: bool,
    /// The spec's first campaign row.
    pub(crate) baseline: &'a SessionReport,
    /// The sessions at the baseline's frequency, baseline included, in
    /// campaign order.
    at_baseline: Vec<&'a SessionReport>,
    /// The sessions at any other frequency, in campaign order.
    pub(crate) elsewhere: Vec<&'a SessionReport>,
}

impl<'a> Sessions<'a> {
    /// Sorts the sessions of a campaign run on `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the report lacks its baseline, which every campaign built
    /// from a spec runs first.
    pub(crate) fn of(spec: &'a PlatformSpec, report: &'a CampaignReport) -> Self {
        let baseline = report
            .baseline()
            .expect("a platform's campaign runs its baseline session");
        let frequency = baseline.operating_point.frequency;
        let (at_baseline, elsewhere) = report
            .sessions
            .iter()
            .partition(|s| s.operating_point.frequency == frequency);
        Sessions {
            spec,
            papers_die: paper::is_papers_die(spec),
            baseline,
            at_baseline,
            elsewhere,
        }
    }

    /// The Vmin session: the lowest PMD voltage at the baseline's
    /// frequency, when it lies below the baseline's.
    pub(crate) fn vmin(&self) -> Option<&'a SessionReport> {
        self.at_baseline
            .iter()
            .copied()
            .min_by_key(|s| s.operating_point.pmd)
            .filter(|s| s.operating_point.pmd < self.baseline.operating_point.pmd)
    }

    /// `"<title> @ <baseline frequency> <caption>"`, the caption being
    /// `note` on the paper's die.
    fn heading(&self, title: &str, note: &'static str) -> String {
        let frequency = self.baseline.operating_point.frequency;
        format!("{title} @ {frequency} {}\n", caption(self.papers_die, note))
    }

    /// The paper's `table[index]`, on the paper's die only.
    fn paper<T: Copy>(&self, table: &[T], index: usize) -> Option<T> {
        table.get(index).copied().filter(|_| self.papers_die)
    }

    /// The column titles of Figures 5, 6 and 11: `lead`, then `"<pmd> mV"`
    /// per baseline-frequency session, 6 spaces before the first and
    /// `gaps.0` between the others on the paper's die (whose cells carry
    /// the paper's value too), `gaps.1` elsewhere.
    fn voltage_titles(&self, lead: &str, gaps: (usize, usize)) -> String {
        let gap = if self.papers_die { gaps.0 } else { gaps.1 };
        let mut row = String::from(lead);
        for (i, s) in self.at_baseline.iter().enumerate() {
            let pad = if i == 0 { 6 } else { gap };
            let _ = write!(row, "{:pad$}{} mV", "", s.operating_point.pmd.get());
        }
        row.push('\n');
        row
    }

    /// The rows of Figures 5, 6 and 11: per row of the paper's table, its
    /// label padded to `width`, then one cell per baseline-frequency
    /// session joined by `sep` — `value(row, session)`, followed on the
    /// paper's die by the paper's number as `paper_value` shows it.
    fn grid<const N: usize>(
        &self,
        rows: &[(&str, [f64; N])],
        (width, sep): (usize, &str),
        value: impl Fn(usize, &SessionReport) -> String,
        paper_value: impl Fn(f64) -> String,
    ) -> String {
        let mut out = String::new();
        for (row, (label, paper_values)) in rows.iter().enumerate() {
            let cells: Vec<String> = (self.at_baseline.iter().enumerate())
                .map(|(i, s)| {
                    let p = self.paper(paper_values, i);
                    format!("{}{}", value(row, s), paren(p, &paper_value))
                })
                .collect();
            let _ = writeln!(out, "  {label:<width$} {}", cells.join(sep));
        }
        out
    }

    /// Figures 7 and 13: one `block(session, with the paper's numbers)`
    /// per session at a frequency other than the baseline's, or one line
    /// when the die runs a single frequency.
    fn per_other_frequency(
        &self,
        figure: &str,
        block: impl Fn(&SessionReport, bool) -> String,
    ) -> String {
        if self.elsewhere.is_empty() {
            let baseline = self.baseline.operating_point.frequency;
            let what = format!("no session at a frequency other than its {baseline} baseline");
            return missing(figure, self.spec, &what);
        }
        (self.elsewhere.iter().enumerate())
            .map(|(i, s)| block(s, self.papers_die && i == 0))
            .collect()
    }
}

/// The one line a report prints when the die lacks what it needs.
fn missing(report: &str, spec: &PlatformSpec, what: &str) -> String {
    format!("{report}: platform {} has {what}\n", spec.name)
}

/// `" (<paper cell>)"` when the paper reported the value, else nothing.
fn paren<T>(paper: Option<T>, show: impl FnOnce(T) -> String) -> String {
    paper.map_or_else(String::new, |p| format!(" ({})", show(p)))
}

/// A caption: the paper's comparison `note` on its die, plain
/// "(simulated)" elsewhere.
fn caption(papers_die: bool, note: &'static str) -> &'static str {
    if papers_die {
        note
    } else {
        "(simulated)"
    }
}

/// Table 1: the platform specification.
pub fn table1(spec: &PlatformSpec) -> String {
    let mut out = if paper::is_papers_die(spec) {
        String::from("Table 1 — X-Gene 2 class platform specification\n")
    } else {
        format!("Table 1 — {} platform specification\n", spec.name)
    };
    for (k, v) in spec.table1() {
        let _ = writeln!(out, "  {k:<28} {v}");
    }
    out
}

/// Table 2: every beam session.
pub fn table2(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let mut out = format!(
        "Table 2 — Neutron beam sessions {}\n\
         session  V(mV)  dur(min)      fluence(n/cm2)   NYC-years    events  ev/min          upsets  ups/min        FIT/Mbit\n",
        caption(sessions.papers_die, "(simulated vs paper)")
    );
    let mbit = Platform::from_spec(spec).total_sram().as_mbit();
    for (i, s) in report.sessions.iter().enumerate() {
        // (pmd, minutes, fluence, NYC-years, events, ev/min, upsets,
        // ups/min, FIT/Mbit)
        let row = sessions.paper(&paper::TABLE2, i);
        let _ = writeln!(
            out,
            "  {idx}     {v:>5}  {d:>7.0}  {f:>9.2e}{pf}  {y:>8.2e}  {ev:>5}{pev}  {evr:.3}{pevr}  {up:>6}{pup}  {upr:.3}{pupr}  {ser:.2}{pser}",
            idx = i + 1,
            v = s.operating_point.pmd.get(),
            d = s.duration.as_minutes(),
            f = s.fluence.as_per_cm2(),
            pf = paren(row, |r| format!("{:.2e}", r.2)),
            y = s.nyc_equivalent_years(),
            ev = s.error_events(),
            pev = paren(row, |r| format!("{:>3}", r.4)),
            evr = s.error_rate().per_minute(),
            pevr = paren(row, |r| format!("{:.3}", r.5)),
            up = s.memory_upsets,
            pup = paren(row, |r| r.6.to_string()),
            upr = s.upset_rate().per_minute(),
            pupr = paren(row, |r| format!("{:.3}", r.7)),
            ser = s.memory_ser_fit_per_mbit(mbit),
            pser = paren(row, |r| format!("{:.2}", r.8)),
        );
    }
    out
}

/// Table 3: the spec's campaign voltage levels and the report's Vmin
/// anchors.
pub fn table3(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let mut out = format!(
        "Table 3 — Voltage levels{}\n",
        if sessions.papers_die {
            " (simulated vs paper)"
        } else {
            ""
        }
    );
    for (i, row) in spec.campaign.iter().enumerate() {
        let p = sessions.paper(&paper::TABLE3, i);
        let _ = writeln!(
            out,
            "  {label:<12} {f:>8}  PMD {pmd:>4} mV{p_pmd}  SoC {soc:>4} mV{p_soc}",
            label = row.label,
            f = row.point.frequency,
            pmd = row.point.pmd.get(),
            p_pmd = paren(p, |(_, _, pmd, _)| format!("paper {pmd}")),
            soc = row.point.soc.get(),
            p_soc = paren(p, |(_, _, _, soc)| format!("paper {soc}")),
        );
    }
    let vmins: Vec<String> = report
        .vmins
        .iter()
        .map(|(f, v)| format!("{f} → {v}"))
        .collect();
    let _ = writeln!(out, "  characterized Vmins: {}", vmins.join(", "));
    out
}

/// Figure 4: pfail vs voltage at the spec's maximum frequency and its
/// low Vmin anchor, characterized with the spec's timing physics.
pub fn figure4(spec: &PlatformSpec, seed: u64, trials_per_benchmark: u32) -> String {
    let papers_die = paper::is_papers_die(spec);
    let mut out =
        String::from("Figure 4 — probability of failure vs voltage (Vmin characterization)\n");
    let harness = Characterizer::for_platform(spec, trials_per_benchmark);
    let mut frequencies = vec![spec.freq_max, spec.vmin.low_freq];
    frequencies.dedup();
    for (i, frequency) in frequencies.into_iter().enumerate() {
        let mut rng = SimRng::seed_from(seed).fork_indexed("fig4", u64::from(frequency.get()));
        let curve = harness.sweep_platform(&mut rng, spec, frequency);
        let shown_from = spec.vmin_at(frequency).get().saturating_sub(5);
        let _ = writeln!(out, "  {frequency}:");
        for point in &curve.points {
            if point.pfail() > 0.0 || point.voltage.get() >= shown_from {
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
        let p = paper::FIGURE4.get(i).filter(|_| papers_die);
        let _ = writeln!(
            out,
            "    safe Vmin {vmin} mV{}, 100% failure at {dead} mV{}",
            paren(p, |(_, p_vmin, _)| format!("paper {p_vmin}")),
            paren(p, |(_, _, p_dead)| format!("paper {p_dead}")),
        );
    }
    out
}

/// Figure 5: upsets/minute per benchmark at the baseline frequency.
pub fn figure5(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let rate = |row: usize, s: &SessionReport| {
        let name = paper::FIGURE5[row].0;
        let rate = match Benchmark::ALL.into_iter().find(|b| b.name() == name) {
            Some(b) => s
                .per_benchmark
                .get(&b)
                .map_or(0.0, |b| b.upsets_per_minute()),
            None => s.upset_rate().per_minute(),
        };
        format!("{rate:.2}")
    };
    sessions.heading(
        "Figure 5 — cache upsets/minute per benchmark",
        "(simulated, paper in parens)",
    ) + &sessions.voltage_titles("bench", (10, 3))
        + &sessions.grid(&paper::FIGURE5, (8, "     "), rate, |p| format!("{p:.2}"))
}

/// The five rows Figures 6 and 7 report, in plotting order.
const PER_LEVEL_ROWS: [(&str, CacheLevel, EdacSeverity); 5] = [
    ("TLBs CE", CacheLevel::Tlb, EdacSeverity::Corrected),
    ("L1 CE", CacheLevel::L1, EdacSeverity::Corrected),
    ("L2 CE", CacheLevel::L2, EdacSeverity::Corrected),
    ("L3 CE", CacheLevel::L3, EdacSeverity::Corrected),
    ("L3 UE", CacheLevel::L3, EdacSeverity::Uncorrected),
];

/// The rate of one [`PER_LEVEL_ROWS`] row in a session, per minute.
fn level_rate(row: usize, s: &SessionReport) -> f64 {
    let (_, level, severity) = PER_LEVEL_ROWS[row];
    s.level_rate_per_minute(level, severity)
}

/// Figure 6: per-cache-level upsets/minute at the baseline frequency.
pub fn figure6(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let rate = |row: usize, s: &SessionReport| format!("{:.3}", level_rate(row, s));
    sessions.heading(
        "Figure 6 — upsets/minute per cache level",
        "(simulated, paper in parens)",
    ) + &sessions.voltage_titles("level", (12, 2))
        + &sessions.grid(&paper::FIGURE6, (9, "   "), rate, |p| format!("{p:.3}"))
}

/// Figure 7: per-cache-level upsets/minute, one block per session off
/// the baseline frequency.
pub fn figure7(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    sessions.per_other_frequency("Figure 7", |s, papers_die| {
        let mut out = format!(
            "Figure 7 — upsets/minute per cache level @ {} mV / {} {}\n",
            s.operating_point.pmd.get(),
            s.operating_point.frequency,
            caption(papers_die, "(simulated vs paper)")
        );
        for (i, (label, _, _)) in PER_LEVEL_ROWS.iter().enumerate() {
            let p = paper::FIGURE7.get(i).filter(|_| papers_die);
            let _ = writeln!(
                out,
                "  {label:<9} {:.3}{}",
                level_rate(i, s),
                paren(p, |(_, p)| format!("paper {p:.2}"))
            );
        }
        out
    })
}

/// Figure 8: failure-class shares per voltage at the baseline frequency.
pub fn figure8(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let mut out = sessions.heading(
        "Figure 8 — failure-class shares",
        "(simulated, paper in parens)",
    );
    // Off the paper's die the cells carry no parenthesised paper value.
    out.push_str(if sessions.papers_die {
        "V(mV)    AppCrash          SysCrash          SDC\n"
    } else {
        "V(mV)    AppCrash SysCrash SDC\n"
    });
    let classes = [
        FailureClass::AppCrash,
        FailureClass::SysCrash,
        FailureClass::Sdc,
    ];
    for (i, s) in sessions.at_baseline.iter().enumerate() {
        let shares = s.failure_shares();
        let p_shares = sessions.paper(&paper::FIGURE8, i).map(|(_, p)| p);
        let cells: Vec<String> = (classes.iter().enumerate())
            .map(|(k, c)| {
                let p = p_shares.map(|p| p[k]);
                format!("{}{}", crate::pct(shares[c]), paren(p, crate::pct))
            })
            .collect();
        let v = s.operating_point.pmd.get();
        let _ = writeln!(out, "  {v:<6} {}", cells.join("    "));
    }
    out
}

/// Figure 9: power vs upset rate across every session.
pub fn figure9(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let mut out = format!(
        "Figure 9 — power vs cache upsets/minute {}\n",
        caption(sessions.papers_die, "(simulated, paper in parens)")
    );
    let rows = power_vs_upsets(report, &PowerModel::for_platform(spec));
    for (i, row) in rows.iter().enumerate() {
        let p = sessions.paper(&paper::FIGURE9, i);
        let _ = writeln!(
            out,
            "  {v:>4} mV @ {f:>4} MHz   {power:.2} W{p_power}   {rate:.3}/min{p_rate}",
            v = row.point.pmd.get(),
            f = row.point.frequency.get(),
            power = row.power.get(),
            p_power = paren(p, |(_, _, power, _)| format!("{power:.2} W")),
            rate = row.upsets_per_minute,
            p_rate = paren(p, |(_, _, _, rate)| format!("{rate:.2}/min")),
        );
    }
    out
}

/// Figure 10: power savings vs susceptibility increase of every session
/// against the baseline.
pub fn figure10(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let rows = savings_vs_susceptibility(report, &PowerModel::for_platform(spec));
    if rows.is_empty() {
        return missing("Figure 10", spec, "no session besides its baseline");
    }
    let mut out = format!(
        "Figure 10 — power savings vs susceptibility increase {}\n",
        caption(sessions.papers_die, "(simulated, paper in parens)")
    );
    for (i, row) in rows.iter().enumerate() {
        let p = sessions.paper(&paper::FIGURE10, i);
        let _ = writeln!(
            out,
            "  {v:>4} mV @ {f:>4} MHz   savings {s}{ps}   susceptibility +{u}{pu}",
            v = row.point.pmd.get(),
            f = row.point.frequency.get(),
            s = crate::pct(row.power_savings),
            ps = paren(p, |(_, _, save, _)| crate::pct(save)),
            u = crate::pct(row.susceptibility_increase),
            pu = paren(p, |(_, _, _, susc)| format!("+{}", crate::pct(susc))),
        );
    }
    out
}

/// Figure 11: FIT per failure class at the baseline frequency.
pub fn figure11(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let fit = |row: usize, s: &SessionReport| {
        let b = fit_breakdown(s);
        let fit = [b.app_crash, b.sys_crash, b.sdc, b.total][row].point;
        format!("{:>6.2}", fit.get())
    };
    sessions.heading("Figure 11 — FIT per class", "(simulated, paper in parens)")
        + &sessions.voltage_titles("class", (12, 3))
        + &sessions.grid(&paper::FIGURE11, (9, "   "), fit, |p| format!("{p:.2}"))
}

/// Figure 12: SDC FIT with/without hardware notification at the baseline
/// frequency.
pub fn figure12(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let mut out = sessions.heading(
        "Figure 12 — SDC FIT by notification",
        "(simulated, paper in parens)",
    );
    out.push_str(if sessions.papers_die {
        "V(mV)    w/o notification     w/ corrected notification\n"
    } else {
        "V(mV)    w/o notification w/ corrected notification\n"
    });
    for (i, s) in sessions.at_baseline.iter().enumerate() {
        let split = sdc_notification_split(s);
        let p = sessions.paper(&paper::FIGURE12, i);
        let _ = writeln!(
            out,
            "  {v:<6} {wo:>7.2}{p_without}       {w:>7.2}{p_with}",
            v = s.operating_point.pmd.get(),
            wo = split.without_notification.point.get(),
            p_without = paren(p, |(_, without, _)| format!("{without:.2}")),
            w = split.with_notification.point.get(),
            p_with = paren(p, |(_, _, with)| format!("{with:.2}")),
        );
    }
    out
}

/// Figure 13: the same split, one block per session off the baseline
/// frequency.
pub fn figure13(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    sessions.per_other_frequency("Figure 13", |s, papers_die| {
        let split = sdc_notification_split(s);
        let p = Some(paper::FIGURE13).filter(|_| papers_die);
        format!(
            "Figure 13 — SDC FIT by notification @ {} mV / {} {}\n  \
             w/o notification {:.2}{}   w/ notification {:.2}{}\n",
            s.operating_point.pmd.get(),
            s.operating_point.frequency,
            caption(papers_die, "(simulated vs paper)"),
            split.without_notification.point.get(),
            paren(p, |(without, _)| format!("paper {without:.2}")),
            split.with_notification.point.get(),
            paren(p, |(_, with)| format!("paper {with:.2}")),
        )
    })
}

/// The paper's headline claims, recomputed between the baseline and the
/// Vmin session.
pub fn headlines(spec: &PlatformSpec, report: &CampaignReport) -> String {
    let sessions = Sessions::of(spec, report);
    let nominal = sessions.baseline;
    let Some(vmin) = sessions.vmin() else {
        let f = nominal.operating_point.frequency;
        let what = format!("no session below its baseline voltage at {f}");
        return missing("Headline claims", spec, &what);
    };
    let total_ratio = total_fit(vmin).point.get() / total_fit(nominal).point.get();
    let sdc_ratio = class_fit(vmin, FailureClass::Sdc).point.get()
        / class_fit(nominal, FailureClass::Sdc).point.get().max(1e-12);
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
    let p = |i: usize, show: fn(f64) -> String| {
        paren(sessions.paper(&paper::HEADLINES, i), |(_, v)| {
            format!("paper {}", show(v))
        })
    };
    let ratio = |x: f64| format!("{x:.1}x");
    format!(
        "Headline claims {}\n  \
         max per-benchmark upset-rate increase at Vmin: {}{}\n  \
         chip upset-rate increase at Vmin:              {}{}\n  \
         total FIT ratio Vmin/nominal:                  {}{}\n  \
         SDC FIT ratio Vmin/nominal:                    {}{}\n",
        caption(sessions.papers_die, "(simulated vs paper)"),
        crate::pct(max_bench_increase),
        p(0, crate::pct),
        crate::pct(avg_upset_increase),
        p(1, crate::pct),
        ratio(total_ratio),
        p(2, ratio),
        ratio(sdc_ratio),
        p(3, ratio),
    )
}

/// Beyond the paper: the fine-grained voltage sweep from the baseline's
/// PMD voltage down to its frequency's Vmin, and the operating-point
/// advisor (`repro --sweep`).
pub fn voltage_sweep(spec: &PlatformSpec) -> String {
    let baseline = spec.nominal_point();
    let (f, vmin) = (baseline.frequency, spec.vmin_at(baseline.frequency));
    if vmin > baseline.pmd {
        let what = format!("its {f} Vmin {vmin} above the {} baseline", baseline.pmd);
        return missing("Voltage sweep", spec, &what);
    }
    let template = DeviceUnderTest::for_platform(spec, baseline, vmin);
    let power = PowerModel::for_platform(spec);
    let sweep = sweep_voltage(
        baseline.pmd,
        vmin,
        &template,
        &power,
        Flux::per_cm2_s(1.5e6),
    );
    let mut out = format!(
        "Voltage sweep (beyond the paper) — 5 mV grid @ {f}\n\
         PMD mV   power      upsets/min   predicted SDC FIT\n"
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

/// Beyond the paper: mechanism ablations on the spec's physics, arrays
/// and Vmin (`repro --ablations`).
pub fn ablations(spec: &PlatformSpec, seed: u64) -> String {
    let (amp_with, amp_without) = ablation::no_margin_amplification(spec);
    let (k_with, k_without) = ablation::voltage_insensitive_sram(spec);
    let lacks = |array: &str| format!("platform {} has no {array} array", spec.name);
    let l3 = match ablation::interleaved_l3(spec, seed, 20_000) {
        Some((ue_plain, ue_interleaved)) => format!(
            "UE share/strike {ue_plain:.3} un-interleaved vs {ue_interleaved:.4} 4-way \
             -> interleaving erases the L3 UEs"
        ),
        None => lacks("L3"),
    };
    let l1 = match ablation::secded_everywhere(spec, seed, 20_000) {
        Some(changed) => {
            format!("{changed:.4} of SBU outcomes change -> Design implication #1, nothing to gain")
        }
        None => lacks("L1D"),
    };
    format!(
        "Mechanism ablations (beyond the paper)\n  \
         near-Vmin margin amplification: sigma_data Vmin/nominal {amp_with:.1}x with, \
         {amp_without:.2}x without -> removing it erases the SDC cliff\n  \
         L3 interleaving: {l3}\n  \
         Qcrit(V): chip sigma Vmin/nominal {k_with:.2}x with, {k_without:.2}x without \
         -> a flat model erases Table 2's trend\n  \
         SECDED on L1 instead of parity: {l1}\n"
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
        let t = table1(&PlatformSpec::xgene2());
        assert!(t.contains("SECDED"));
        assert!(t.contains("28 nm"));
    }

    #[test]
    fn all_report_experiments_render() {
        let spec = PlatformSpec::xgene2();
        let report = quick();
        for text in [
            table2(&spec, &report),
            table3(&spec, &report),
            figure5(&spec, &report),
            figure6(&spec, &report),
            figure7(&spec, &report),
            figure8(&spec, &report),
            figure9(&spec, &report),
            figure10(&spec, &report),
            figure11(&spec, &report),
            figure12(&spec, &report),
            figure13(&spec, &report),
            headlines(&spec, &report),
        ] {
            assert!(text.lines().count() >= 2, "{text}");
            assert!(text.contains("paper"), "{text}");
        }
    }

    #[test]
    fn figure4_renders_and_finds_vmins() {
        let text = figure4(&PlatformSpec::xgene2(), 3, 40);
        assert!(text.contains("2.4 GHz"));
        assert!(text.contains("900 MHz"));
        assert!(text.contains("safe Vmin 920 mV"), "{text}");
        assert!(text.contains("safe Vmin 790 mV"), "{text}");
    }
}
