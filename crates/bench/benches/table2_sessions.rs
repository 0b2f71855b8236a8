//! Table 2: a full (scaled) beam campaign.
//!
//! Running this bench prints the regenerated rows once (alongside the
//! paper's values) and then times the underlying computation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        serscale_bench::experiments::table2(&serscale_bench::run_campaign(
            0.05,
            serscale_bench::REPRO_SEED,
            1
        ))
    );
    let mut group = c.benchmark_group("repro");
    group.sample_size(10);
    group.bench_function("table2_sessions", |b| {
        b.iter(|| black_box(serscale_bench::run_campaign(0.001, 1, 1)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
