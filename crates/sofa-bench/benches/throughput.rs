//! Throughput benchmarks: a stream of queries answered one `knn` call at
//! a time versus one `knn_batch` call — the criterion companion to the
//! `ext-throughput` experiment, so the worker-pool win lands in the
//! `BENCH_*.json` history. Element throughput is the query count: the
//! reported rate is QPS.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sofa::baselines::FlatL2;
use sofa::data::registry;
use sofa::SofaIndex;
use std::hint::black_box;

fn bench_throughput(c: &mut Criterion) {
    let spec = registry().into_iter().find(|s| s.name == "LenDB").expect("registry");
    let n_queries = 64usize;
    let dataset = spec.generate(4_000, n_queries);
    let n = dataset.series_len();
    let threads = 2;

    let sofa = SofaIndex::builder()
        .threads(threads)
        .leaf_capacity(500)
        .sample_ratio(0.05)
        .build_sofa(dataset.data(), n)
        .expect("sofa build");
    let flat = FlatL2::new(dataset.data(), n, threads);
    let queries = dataset.queries();

    let mut group = c.benchmark_group(format!("throughput_1nn_{}q", n_queries));
    group.throughput(Throughput::Elements(n_queries as u64));
    group.bench_function("sofa_single_loop", |b| {
        b.iter(|| {
            for q in black_box(queries).chunks(n) {
                black_box(sofa.nn(q).expect("query"));
            }
        })
    });
    group.bench_function("sofa_knn_batch", |b| {
        b.iter(|| black_box(sofa.knn_batch(black_box(queries), 1).expect("batch")))
    });
    group.bench_function("flat_single_loop", |b| {
        b.iter(|| {
            for q in black_box(queries).chunks(n) {
                black_box(flat.nn(q));
            }
        })
    });
    group.bench_function("flat_knn_batch", |b| {
        b.iter(|| black_box(flat.knn_batch(black_box(queries), 1)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput
}
criterion_main!(benches);
