//! Micro-benchmarks of the hot kernels (the §IV-H SIMD ablation):
//! per-tier Euclidean distance (scalar vs portable vs dispatched — AVX2
//! where the CPU supports it), early abandoning, the per-word SFA mindist,
//! and the two headline comparisons of this layer: the **dispatched block
//! lower bound against the per-word `mindist_simd` sweep** over the same
//! 2000 candidates (PR 3's acceptance gate: block ≥ 2× per-word on
//! 256-length series), and the **collect-phase analogue** — the
//! dispatched `mindist_node_block` against the scalar per-node
//! `mindist_node` loop over the same 2000 tree-node summaries (PR 4's
//! gate: ≥ 3× on an AVX2 host) — plus PR 6's **quantized refine tier**:
//! the integer `quant_lower_bound` sweep over 1-byte codes against the
//! exact f32 sweep it short-circuits, with bytes/sec reported so the ~4x
//! traffic cut shows up directly — and the tier's write side, the
//! `quant_encode` kernel a delta fold runs over every leaf, per tier in
//! bytes/sec of `f32` input.
//!
//! Force a tier to compare paths on one machine:
//! `SOFA_FORCE_SCALAR=1` / `SOFA_FORCE_PORTABLE=1`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sofa_simd::{
    active_tier, euclidean_sq, euclidean_sq_early_abandon, euclidean_sq_early_abandon_portable,
    euclidean_sq_portable, euclidean_sq_scalar, quant_encode, quant_encode_scalar,
    quant_lower_bound, BLOCK_LANES,
};
use sofa_summaries::{
    mindist_block, mindist_node, mindist_node_block, mindist_scalar, mindist_simd, NodeBlock,
    QuantBlock, QuantGrid, QueryContext, Sfa, SfaConfig, Summarization, WordBlock,
};
use std::hint::black_box;

fn series(n: usize, seed: usize) -> Vec<f32> {
    let mut s: Vec<f32> = (0..n)
        .map(|t| ((t + seed) as f32 * 0.37).sin() + 0.4 * ((t * seed % 97) as f32 * 0.11).cos())
        .collect();
    sofa_simd::znormalize(&mut s);
    s
}

fn bench_euclidean(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("euclidean_256[{}]", active_tier().name()));
    let a = series(256, 1);
    let b = series(256, 2);
    // Two 256-f32 operands per call: time and bytes/sec tell the same
    // story from the two angles the refine funnel trades between.
    group.throughput(Throughput::Bytes((2 * 256 * 4) as u64));
    group.bench_function("scalar", |bench| {
        bench.iter(|| euclidean_sq_scalar(black_box(&a), black_box(&b)));
    });
    group.bench_function("portable", |bench| {
        bench.iter(|| euclidean_sq_portable(black_box(&a), black_box(&b)));
    });
    group.bench_function("dispatched", |bench| {
        bench.iter(|| euclidean_sq(black_box(&a), black_box(&b)));
    });
    // Early abandoning with a tight bound: most of the series is skipped.
    let full = euclidean_sq(&a, &b);
    group.bench_function("dispatched_early_abandon_tight_bsf", |bench| {
        bench.iter(|| euclidean_sq_early_abandon(black_box(&a), black_box(&b), full * 0.01));
    });
    group.bench_function("dispatched_early_abandon_loose_bsf", |bench| {
        bench.iter(|| euclidean_sq_early_abandon(black_box(&a), black_box(&b), full * 10.0));
    });
    group.bench_function("portable_early_abandon_loose_bsf", |bench| {
        bench.iter(|| {
            euclidean_sq_early_abandon_portable(black_box(&a), black_box(&b), full * 10.0)
        });
    });
    group.finish();
}

fn bench_mindist(c: &mut Criterion) {
    let n = 256;
    let count = 2000;
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        data.extend_from_slice(&series(n, r + 3));
    }
    let sfa = Sfa::learn(
        &data,
        n,
        &SfaConfig { word_len: 16, alphabet: 256, sample_ratio: 0.25, ..Default::default() },
    );
    let mut tr = sfa.transformer();
    let words: Vec<Vec<u8>> = data.chunks(n).map(|s| tr.word(s, 16)).collect();
    let flat_words: Vec<u8> = words.iter().flat_map(|w| w.iter().copied()).collect();
    let block = WordBlock::build(&sfa, &flat_words);
    let query = series(n, 999);
    let ctx = QueryContext::new(&sfa, &query);
    // A representative BSF: the 5th percentile of scalar mindists.
    let mut dists: Vec<f32> = words.iter().map(|w| mindist_scalar(&ctx, w)).collect();
    dists.sort_by(f32::total_cmp);
    let bsf = dists[dists.len() / 20];

    let mut group = c.benchmark_group(format!("sfa_mindist_2000_words[{}]", active_tier().name()));
    group.bench_function("scalar", |bench| {
        bench.iter_batched(
            || (),
            |()| {
                let mut acc = 0.0f32;
                for w in &words {
                    acc += mindist_scalar(black_box(&ctx), black_box(w));
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("per_word_simd_no_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            for w in &words {
                acc += mindist_simd(black_box(&ctx), black_box(w), f32::INFINITY);
            }
            acc
        });
    });
    group.bench_function("per_word_simd_early_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            for w in &words {
                acc += mindist_simd(black_box(&ctx), black_box(w), black_box(bsf));
            }
            acc
        });
    });
    // The PR's headline: the same 2000 candidates through the SoA block
    // sweep (8 per kernel call, bounds resolved at build time).
    group.bench_function("block_no_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            let mut lbs = [0.0f32; sofa_simd::BLOCK_LANES];
            for g in 0..block.n_groups() {
                let _ =
                    mindist_block(black_box(&ctx), black_box(&block), g, f32::INFINITY, &mut lbs);
                acc += lbs[0];
            }
            acc
        });
    });
    group.bench_function("block_early_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            let mut lbs = [0.0f32; sofa_simd::BLOCK_LANES];
            for g in 0..block.n_groups() {
                if !mindist_block(black_box(&ctx), black_box(&block), g, black_box(bsf), &mut lbs) {
                    acc += lbs[0];
                }
            }
            acc
        });
    });
    group.finish();
}

fn bench_node_mindist(c: &mut Criterion) {
    // The collect phase prices *tree nodes* (variable-cardinality
    // summaries), not full words: derive 2000 node labels from real SFA
    // words at the bit depths a built tree actually holds (subtree roots
    // near 1 bit, deep leaves near full cardinality).
    let n = 256;
    let count = 2000;
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        data.extend_from_slice(&series(n, r + 3));
    }
    let sfa = Sfa::learn(
        &data,
        n,
        &SfaConfig { word_len: 16, alphabet: 256, sample_ratio: 0.25, ..Default::default() },
    );
    let mut tr = sfa.transformer();
    let symbol_bits = sfa.symbol_bits();
    let nodes: Vec<(Vec<u8>, Vec<u8>)> = data
        .chunks(n)
        .enumerate()
        .map(|(i, s)| {
            let w = tr.word(s, 16);
            let b = 1 + (i as u8) % symbol_bits;
            let prefixes: Vec<u8> = w.iter().map(|&sym| sym >> (symbol_bits - b)).collect();
            (prefixes, vec![b; 16])
        })
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        nodes.iter().map(|(p, b)| (p.as_slice(), b.as_slice())).collect();
    let block = NodeBlock::build(&sfa, &refs);
    let query = series(n, 999);
    let ctx = QueryContext::new(&sfa, &query);
    // A representative BSF: the 5th percentile of scalar node mindists.
    let mut dists: Vec<f32> = nodes.iter().map(|(p, b)| mindist_node(&ctx, p, b)).collect();
    dists.sort_by(f32::total_cmp);
    let bsf = dists[dists.len() / 20];

    let mut group = c.benchmark_group(format!("node_mindist_2000_nodes[{}]", active_tier().name()));
    group.bench_function("scalar_per_node", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            for (p, b) in &nodes {
                acc += mindist_node(black_box(&ctx), black_box(p), black_box(b));
            }
            acc
        });
    });
    group.bench_function("block_no_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            let mut lbs = [0.0f32; sofa_simd::BLOCK_LANES];
            for g in 0..block.n_groups() {
                let _ = mindist_node_block(
                    black_box(&ctx),
                    black_box(&block),
                    g,
                    f32::INFINITY,
                    &mut lbs,
                );
                acc += lbs[0];
            }
            acc
        });
    });
    group.bench_function("block_early_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            let mut lbs = [0.0f32; sofa_simd::BLOCK_LANES];
            for g in 0..block.n_groups() {
                if !mindist_node_block(
                    black_box(&ctx),
                    black_box(&block),
                    g,
                    black_box(bsf),
                    &mut lbs,
                ) {
                    acc += lbs[0];
                }
            }
            acc
        });
    });
    group.finish();
}

fn bench_quant(c: &mut Criterion) {
    // The quantized middle refine tier: 2000 leaf rows as 1-byte codes,
    // swept 8 lanes per integer kernel call, against the exact f32 sweep
    // the tier short-circuits. Bytes/sec makes the 4x traffic cut visible
    // directly.
    let n = 256;
    let count = 2000;
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        data.extend_from_slice(&series(n, r + 3));
    }
    let grid = QuantGrid::train(&data, n).expect("non-degenerate training data");
    let qb = QuantBlock::build(&grid, &data, n).expect("non-degenerate leaf data");
    let query = series(n, 999);
    let mut qcodes = vec![0u8; n];
    let err_q = grid.quantize_query(&query, &mut qcodes);
    // A representative BSF: the 5th percentile of exact distances.
    let mut dists: Vec<f32> = data.chunks(n).map(|s| euclidean_sq(&query, s)).collect();
    dists.sort_by(f32::total_cmp);
    let bsf = dists[dists.len() / 20];
    let nothr = [i32::MAX; BLOCK_LANES];

    let mut group = c.benchmark_group(format!("quant_refine_2000_rows[{}]", active_tier().name()));
    group.throughput(Throughput::Bytes((count * n * 4) as u64));
    group.bench_function("exact_f32_sweep", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f32;
            for s in data.chunks(n) {
                acc += euclidean_sq_early_abandon(black_box(&query), black_box(s), black_box(bsf));
            }
            acc
        });
    });
    group.throughput(Throughput::Bytes((count * n) as u64));
    group.bench_function("quant_no_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0i32;
            let mut sums = [0i32; BLOCK_LANES];
            for g in 0..qb.n_groups() {
                let _ = quant_lower_bound(
                    black_box(&qcodes),
                    black_box(qb.group_codes(g)),
                    &nothr,
                    &mut sums,
                );
                acc = acc.wrapping_add(sums[0]);
            }
            acc
        });
    });
    group.bench_function("quant_early_abandon", |bench| {
        bench.iter(|| {
            let mut acc = 0i32;
            let mut sums = [0i32; BLOCK_LANES];
            let mut thr = [0i32; BLOCK_LANES];
            for g in 0..qb.n_groups() {
                qb.thresholds(g, black_box(bsf), err_q, &mut thr);
                if !quant_lower_bound(
                    black_box(&qcodes),
                    black_box(qb.group_codes(g)),
                    &thr,
                    &mut sums,
                ) {
                    acc = acc.wrapping_add(sums[0]);
                }
            }
            acc
        });
    });
    group.finish();

    // The write side: encoding the same 2000 rows (one leaf of a fold)
    // on each tier, in bytes/sec of f32 input read.
    let mut group = c.benchmark_group("quant_encode_2000_rows");
    group.throughput(Throughput::Bytes((count * n * 4) as u64));
    let (n_codes, n_errs) = QuantBlock::buffer_lens(count, n);
    let (mut codes, mut sums) = (vec![0u8; n_codes], vec![0f64; n_errs]);
    #[allow(clippy::type_complexity)]
    let tiers: [(&str, fn(&[f32], &[f32], f32, &mut [u8], &mut [f64])); 2] =
        [("scalar", quant_encode_scalar), ("dispatched", quant_encode)];
    for (name, encode) in tiers {
        let name = if name == "dispatched" {
            format!("{name}[{}]", active_tier().name())
        } else {
            name.into()
        };
        group.bench_function(name, |bench| {
            bench.iter(|| {
                encode(black_box(&data), grid.mins(), grid.scale(), &mut codes, &mut sums);
                codes[0]
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_euclidean, bench_mindist, bench_node_mindist, bench_quant
}
criterion_main!(benches);
