//! Voltage-space exploration: fine-grained SER/power sweeps and the
//! operating-point advisor of Design implication #2.
//!
//! The beam campaign sampled four voltages; the calibrated simulator can
//! sweep the whole regulator grid. [`sweep_voltage`] produces the
//! SER(V)/power(V)/SDC-FIT(V) curves between nominal and Vmin, and
//! [`recommend`] finds the paper's recommendation mechanically: the
//! lowest-power point whose predicted SDC FIT stays within a tolerance of
//! nominal — which lands a step or two above Vmin, never on it, because of
//! the margin-collapse cliff.

use serscale_soc::PowerModel;
use serscale_types::{Fit, Flux, Millivolts, Watts, NYC_SEA_LEVEL_FLUX};

use crate::dut::DeviceUnderTest;
use crate::parallel::{effective_workers, WorkerPool};

/// One voltage step of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// PMD voltage at this step (the SoC rail follows the campaign's
    /// pairing rule: min(PMD, SoC nominal)).
    pub pmd: Millivolts,
    /// Package power.
    pub power: Watts,
    /// Chip-level observable SRAM upset rate, events/minute, under the
    /// campaign's working beam flux (the Figure 9 susceptibility axis).
    pub upsets_per_minute: f64,
    /// Predicted SDC FIT at NYC (datapath σ × mean consume probability).
    pub sdc_fit: Fit,
}

/// The analytic voltage sweep from `from` down to `to` (inclusive) on the
/// 5 mV grid at a fixed frequency, using the same physics the campaign
/// samples from — no Monte Carlo noise.
///
/// # Panics
///
/// Panics if `from < to`.
pub fn sweep_voltage(
    from: Millivolts,
    to: Millivolts,
    template: &DeviceUnderTest,
    power_model: &PowerModel,
    beam_flux: Flux,
) -> Vec<SweepPoint> {
    sweep_voltage_jobs(from, to, template, power_model, beam_flux, 1)
}

/// [`sweep_voltage`] with the grid points sharded over
/// [`effective_workers`]`(jobs)` pool threads (none when that is 1). Each
/// point is an independent analytic evaluation, so the result is
/// identical to the sequential sweep at any `jobs`.
///
/// # Panics
///
/// Panics if `from < to` or `jobs == 0`.
pub fn sweep_voltage_jobs(
    from: Millivolts,
    to: Millivolts,
    template: &DeviceUnderTest,
    power_model: &PowerModel,
    beam_flux: Flux,
    jobs: usize,
) -> Vec<SweepPoint> {
    assert!(from >= to, "sweep runs downward: {from} → {to}");
    assert!(jobs > 0, "a sweep needs at least one worker");
    let mut grid = Vec::new();
    let mut v = from;
    loop {
        grid.push(v);
        if v <= to {
            break;
        }
        v = v.stepped_down(1);
    }
    let workers = effective_workers(jobs);
    if workers < 2 {
        return grid
            .into_iter()
            .map(|v| sweep_point(v, template, power_model, beam_flux))
            .collect();
    }
    let (template, power_model) = (template.clone(), *power_model);
    WorkerPool::new(workers)
        .map(grid, move |(), v| {
            sweep_point(v, &template, &power_model, beam_flux)
        })
        .0
}

/// Evaluates one grid point of the sweep.
fn sweep_point(
    v: Millivolts,
    template: &DeviceUnderTest,
    power_model: &PowerModel,
    beam_flux: Flux,
) -> SweepPoint {
    let mean_consume: f64 = serscale_workload::Benchmark::ALL
        .iter()
        .map(|b| b.profile().consume_probability())
        .sum::<f64>()
        / 6.0;
    let spec = template.soc().spec();
    let mut op = template.operating_point();
    op.pmd = v;
    // The campaign lowered both rails together, capped at the SoC
    // nominal (Table 3).
    op.soc = Millivolts::new(v.get().min(spec.soc_rail.nominal.get()));
    let dut = DeviceUnderTest::for_platform(spec, op, template.vmin());
    let upsets_per_minute = dut.total_observable_sram_sigma(1.0).event_rate(beam_flux) * 60.0;
    let sdc_fit = Fit::new(dut.datapath_sigma().fit_at(NYC_SEA_LEVEL_FLUX).get() * mean_consume);
    SweepPoint {
        pmd: v,
        power: power_model.total_power(op),
        upsets_per_minute,
        sdc_fit,
    }
}

/// The advisor: among swept points, pick the lowest-power one whose SDC
/// FIT stays within `tolerance × nominal` (e.g. `3.0` = accept up to 3×
/// the nominal SDC rate).
///
/// Returns `None` when even the first (nominal) point violates the
/// tolerance — impossible for tolerance ≥ 1.
///
/// # Panics
///
/// Panics if `points` is empty or `tolerance < 1`.
pub fn recommend(points: &[SweepPoint], tolerance: f64) -> Option<SweepPoint> {
    assert!(!points.is_empty(), "sweep produced no points");
    assert!(
        tolerance >= 1.0,
        "tolerance below 1 rejects the baseline itself"
    );
    let nominal_fit = points[0].sdc_fit.get().max(1e-12);
    points
        .iter()
        .filter(|p| p.sdc_fit.get() <= tolerance * nominal_fit)
        .min_by(|a, b| a.power.partial_cmp(&b.power).expect("finite power"))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_soc::platform::OperatingPoint;
    use serscale_soc::PlatformSpec;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    fn template() -> DeviceUnderTest {
        let point = xgene2_point("Nominal");
        DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency))
    }

    fn sweep() -> Vec<SweepPoint> {
        sweep_voltage(
            Millivolts::new(980),
            Millivolts::new(920),
            &template(),
            &PowerModel::for_platform(&PlatformSpec::xgene2()),
            Flux::per_cm2_s(1.5e6),
        )
    }

    #[test]
    fn sweep_covers_the_grid() {
        let points = sweep();
        assert_eq!(points.len(), 13); // 980..920 in 5 mV steps
        assert_eq!(points[0].pmd, Millivolts::new(980));
        assert_eq!(points[12].pmd, Millivolts::new(920));
    }

    #[test]
    fn power_and_susceptibility_move_oppositely() {
        let points = sweep();
        for pair in points.windows(2) {
            assert!(pair[1].power <= pair[0].power);
            assert!(pair[1].upsets_per_minute >= pair[0].upsets_per_minute);
            assert!(pair[1].sdc_fit.get() >= pair[0].sdc_fit.get());
        }
    }

    #[test]
    fn the_sdc_cliff_sits_in_the_last_two_steps() {
        // Design implication #2's mechanism: SDC FIT is gentle until a few
        // steps above Vmin, then explodes.
        let points = sweep();
        let at = |mv: u32| {
            points
                .iter()
                .find(|p| p.pmd.get() == mv)
                .expect("grid point")
                .sdc_fit
                .get()
        };
        assert!(at(930) < 3.0 * at(980), "930 mV still gentle");
        assert!(at(920) > 8.0 * at(980), "920 mV is over the cliff");
        assert!(at(920) > 4.0 * at(930), "the cliff is the last 10 mV");
    }

    #[test]
    fn advisor_recommends_above_vmin() {
        let points = sweep();
        let pick = recommend(&points, 3.0).expect("tolerance ≥ 1 always yields a point");
        // The paper's recommendation: 930 mV-ish, never 920.
        assert!(
            pick.pmd > Millivolts::new(920),
            "advisor must not sit on the cliff: picked {}",
            pick.pmd
        );
        assert!(
            pick.pmd <= Millivolts::new(940),
            "advisor should harvest most of the guardband: picked {}",
            pick.pmd
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let sequential = sweep();
        for jobs in [2, 8] {
            let parallel = sweep_voltage_jobs(
                Millivolts::new(980),
                Millivolts::new(920),
                &template(),
                &PowerModel::for_platform(&PlatformSpec::xgene2()),
                Flux::per_cm2_s(1.5e6),
                jobs,
            );
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn advisor_with_huge_tolerance_takes_vmin() {
        let points = sweep();
        let pick = recommend(&points, 1.0e6).unwrap();
        assert_eq!(pick.pmd, Millivolts::new(920));
    }

    #[test]
    fn advisor_with_unit_tolerance_stays_at_nominal() {
        let points = sweep();
        let pick = recommend(&points, 1.0).unwrap();
        assert_eq!(pick.pmd, Millivolts::new(980));
    }
}
