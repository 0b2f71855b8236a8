//! Table 3: safe-voltage table construction from characterized Vmins.
//!
//! Running this bench prints the regenerated rows once (alongside the
//! paper's values) and then times the underlying computation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        serscale_bench::experiments::table3(&serscale_bench::run_campaign(
            0.02,
            serscale_bench::REPRO_SEED,
            1
        ))
    );
    let mut group = c.benchmark_group("repro");
    group.sample_size(10);
    group.bench_function("table3_voltages", |b| {
        b.iter(|| {
            black_box(
                serscale_undervolt::characterize::SafeVoltageTable::from_vmins(
                    serscale_types::Millivolts::new(920),
                    serscale_types::Millivolts::new(790),
                ),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
