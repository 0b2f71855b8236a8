//! Substrate microbenchmarks: the hot primitives under everything else —
//! SECDED encode/decode, array strike application, Poisson sampling, and
//! the benchmark kernels themselves.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use serscale_core::DeviceUnderTest;
use serscale_ecc::secded::Codeword;
use serscale_ecc::ProtectionScheme;
use serscale_soc::PlatformSpec;
use serscale_sram::SramArray;
use serscale_stats::poisson::sample_poisson;
use serscale_stats::SimRng;
use serscale_types::{ArrayKind, Bytes, Millivolts, VoltageDomain};
use serscale_workload::Benchmark;

fn bench_secded(c: &mut Criterion) {
    let mut group = c.benchmark_group("secded");
    group.throughput(Throughput::Elements(1));
    group.bench_function("encode", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(Codeword::encode(x))
        });
    });
    group.bench_function("decode_clean", |b| {
        let cw = Codeword::encode(0xDEAD_BEEF_CAFE_F00D);
        b.iter(|| black_box(cw.decode()));
    });
    group.bench_function("decode_corrupted", |b| {
        let mut cw = Codeword::encode(0xDEAD_BEEF_CAFE_F00D);
        cw.flip(37);
        b.iter(|| black_box(cw.decode()));
    });
    group.finish();
}

fn bench_strikes(c: &mut Criterion) {
    let mut group = c.benchmark_group("strike");
    group.throughput(Throughput::Elements(1));
    let l3 = SramArray::new(
        ArrayKind::L3Shared,
        Bytes::mib(8),
        ProtectionScheme::Secded,
        1,
    );
    // The X-Gene 2's PMD-domain cluster model, as the campaign builds it.
    let nominal = PlatformSpec::xgene2().nominal_point();
    let dut = DeviceUnderTest::xgene2(nominal, DeviceUnderTest::paper_vmin(nominal.frequency));
    let mbu = *dut.mbu_model(VoltageDomain::Pmd);
    group.bench_function("l3_strike_with_cluster_sampling", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let len = mbu.sample_cluster_len(&mut rng, Millivolts::new(920));
            black_box(l3.strike(&mut rng, len))
        });
    });
    group.bench_function("poisson_small_mean", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| black_box(sample_poisson(&mut rng, 0.05)));
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    for benchmark in Benchmark::ALL {
        let kernel = benchmark.kernel();
        group.bench_function(benchmark.name(), |b| b.iter(|| black_box(kernel.run())));
    }
    group.finish();
}

criterion_group!(benches, bench_secded, bench_strikes, bench_kernels);
criterion_main!(benches);
