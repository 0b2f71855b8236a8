//! Figure 13: SDC FIT by notification at 790 mV / 900 MHz.
//!
//! Running this bench prints the regenerated rows once (alongside the
//! paper's values) and then times the underlying computation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let report = serscale_bench::run_campaign(0.02, serscale_bench::REPRO_SEED, 1);
    println!("{}", serscale_bench::experiments::figure13(&report));
    let mut group = c.benchmark_group("repro");
    group.sample_size(10);
    group.bench_function("fig13_sdc_notification_900mhz", |b| {
        b.iter(|| black_box(serscale_bench::experiments::figure13(&report)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
