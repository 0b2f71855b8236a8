//! Vmin characterization: the offline sweep every undervolting deployment
//! starts with (§4.1 of the paper, Figure 4).
//!
//! Walks the supply down in 5 mV regulator steps at 2.4 GHz and 900 MHz,
//! running the benchmark suite repeatedly per step, and reports the pfail
//! curve, the safe Vmin, and the exposed guardband.
//!
//! ```text
//! cargo run --release -p serscale-bench --example vmin_characterization
//! ```

use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_undervolt::characterize::Characterizer;

fn main() {
    let spec = PlatformSpec::xgene2();
    let harness = Characterizer::for_platform(&spec, 100);
    let nominal = spec.pmd_rail.nominal;

    for frequency in [spec.freq_max, spec.vmin.low_freq] {
        let mut rng = SimRng::seed_from(41).fork_indexed("sweep", u64::from(frequency.get()));
        let curve = harness.sweep_platform(&mut rng, &spec, frequency);

        println!("=== characterization at {frequency} ===");
        println!("  voltage   pfail    (failures/trials)   95% CI");
        for point in &curve.points {
            // Print the interesting region: the last safe levels and the
            // failure ramp.
            if point.failures > 0 || point.voltage.get() <= curve.points[0].voltage.get() - 45 {
                let (lo, hi) = point.pfail_ci();
                println!(
                    "  {:>4} mV   {:>6.1}%  ({:>3}/{})          [{:.3}, {:.3}]",
                    point.voltage.get(),
                    100.0 * point.pfail(),
                    point.failures,
                    point.trials,
                    lo,
                    hi
                );
            }
        }
        match curve.safe_vmin() {
            Some(vmin) => {
                println!("  safe Vmin:  {vmin}");
                println!(
                    "  guardband:  {} mV of exploitable margin below the {nominal} nominal",
                    curve.guardband_mv(nominal).unwrap_or(0)
                );
            }
            None => println!("  no safe level found (sweep failed immediately)"),
        }
        if let Some(dead) = curve.full_failure_voltage() {
            println!("  100% fail:  {dead}");
        }
        println!();
    }

    println!(
        "Note the frequency dependence: at 900 MHz the longer cycle tolerates \
         a 130 mV deeper undervolt — and the paper's beam data then shows the \
         SER at that point is set by the voltage, not the frequency."
    );
}
