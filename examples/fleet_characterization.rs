//! Fleet characterization: chip-to-chip variation meets undervolting
//! policy.
//!
//! The paper characterizes one specimen (safe Vmin 920 mV at 2.4 GHz); a
//! datacenter owns thousands, and their Vmins spread. This example
//! characterizes a simulated 200-chip fleet and compares the two
//! deployment policies from the undervolting literature the paper builds
//! on ([43], [49]):
//!
//! * **uniform**: one fleet-wide voltage, pinned by the weakest chip;
//! * **per-chip**: every node at its own characterized Vmin (+1 step of
//!   margin, per Design implication #2).
//!
//! ```text
//! cargo run --release -p serscale-bench --example fleet_characterization
//! ```

use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_soc::PowerModel;
use serscale_stats::SimRng;
use serscale_types::{Megahertz, Millivolts};
use serscale_undervolt::{ChipPopulation, FleetCharacterization};

const CHIPS: u32 = 200;

fn main() {
    println!("characterizing {CHIPS} simulated chips at 2.4 GHz (40 trials/benchmark/step)…");
    let mut rng = SimRng::seed_from(7_777);
    let fleet = FleetCharacterization::run(
        &mut rng,
        &ChipPopulation::xgene2_fleet(),
        Megahertz::new(2400),
        CHIPS,
        40,
    );

    println!("\nVmin distribution across the fleet:");
    for (voltage, count) in fleet.histogram() {
        println!(
            "  {:>4} mV  {:<4} {}",
            voltage.get(),
            count,
            "#".repeat(count as usize / 2)
        );
    }
    let (mean, sd) = fleet.vmin_stats();
    println!("  mean {mean:.1} mV, sigma {sd:.1} mV");
    println!("  strongest chip: {}", fleet.best_chip_vmin());
    println!("  weakest chip:   {}", fleet.uniform_safe_vmin());

    // Policy comparison: power at each policy's operating point, with one
    // 5 mV step of margin above the relevant Vmin (implication #2).
    let power_model = PowerModel::for_platform(&PlatformSpec::xgene2());
    let at = |pmd: Millivolts| {
        let point = OperatingPoint {
            pmd,
            soc: Millivolts::new(pmd.get().min(950)),
            frequency: Megahertz::new(2400),
        };
        power_model.total_power(point)
    };
    let nominal_power = at(Millivolts::new(980));
    let uniform_setting = fleet.uniform_safe_vmin().stepped_up(2);
    let uniform_power = at(uniform_setting);

    // Per-chip: average power over chips each at (own Vmin + 2 steps).
    let per_chip_avg: f64 = fleet
        .histogram()
        .iter()
        .map(|(v, count)| at(v.stepped_up(2)).get() * f64::from(*count))
        .sum::<f64>()
        / f64::from(CHIPS);

    println!("\npolicy comparison (per node, vs the 980 mV nominal {nominal_power}):");
    println!(
        "  uniform fleet voltage {}: {} ({:.1}% saved)",
        uniform_setting,
        uniform_power,
        100.0 * uniform_power.savings_vs(nominal_power)
    );
    println!(
        "  per-chip voltages:            {per_chip_avg:.2} W ({:.1}% saved)",
        100.0 * (nominal_power.get() - per_chip_avg) / nominal_power.get()
    );
    println!(
        "  per-chip dividend: {:.1} mV of extra undervolt for the average node",
        fleet.per_chip_dividend_mv()
    );
    println!(
        "\nthe weakest specimen taxes every node under the uniform policy — \
         the economic argument for the adaptive per-chip management schemes \
         the paper cites ([43], [49])."
    );
}
