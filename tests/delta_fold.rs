//! Stateful differential test of the insert delta and its fold.
//!
//! Each seed drives a random history against a tiny-leaf SOFA index —
//! insert bursts that stop just short of the fold threshold, fill the
//! delta exactly, or cross it; explicit `repack_leaves` folds; snapshot →
//! open round trips of a partly full delta — and checks every query kind
//! (k-NN, filtered k-NN, range, inner product) on the direct, batch and
//! cancellable batch paths against a brute-force model of the same rows.
//! Filters cover delta rows, and range radii are set to a delta row's
//! exact distance, so ties at the radius land in the delta. Answers must
//! match the model in bits; the row ids `insert` returned must hold.
//!
//! Every assertion names its seed. Replay one with
//! `DELTA_FOLD_SEED=<seed> cargo test --test delta_fold`. CI reruns this
//! binary under `SOFA_FORCE_SCALAR=1`, covering the scalar kernel tier.

use sofa::serve::ResultSlot;
use sofa::simd::{dot, euclidean_sq_early_abandon, znormalize};
use sofa::summaries::ip_score;
use sofa::{CancelToken, IpNeighbor, Neighbor, QueryKind, RowFilter, SofaIndex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Series length of every row and query.
const N: usize = 32;
/// Seeds run by default.
const SEEDS: u64 = 12;
/// Operations per seed.
const STEPS: usize = 24;

/// SplitMix64: a tiny seeded generator, so a failing seed replays alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in [-1, 1).
    fn signed(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// A fresh raw series: a few random sinusoids plus noise, so rows are
/// unique (exact ties only ever come from the deliberate range radii).
fn raw_series(rng: &mut Rng) -> Vec<f32> {
    let (f1, f2, p, a) = (rng.signed() * 0.5, rng.signed() * 1.5, rng.signed() * 3.0, rng.signed());
    (0..N)
        .map(|t| {
            let x = t as f32;
            (x * f1 + p).sin() + a * (x * f2).cos() + 0.3 * rng.signed()
        })
        .collect()
}

/// Brute-force model: the z-normalized rows the index stores, in row-id
/// order, scored with the same dispatched kernels the funnel uses.
struct Model {
    rows: Vec<f32>,
    /// Rows inserted since the last fold (the index's delta).
    delta: usize,
    /// Folds since the index was built or opened.
    folds: u64,
}

impl Model {
    fn count(&self) -> usize {
        self.rows.len() / N
    }

    /// Adds one row. The facade z-normalizes built rows once before the
    /// index does it again; inserted rows are normalized once.
    fn push(&mut self, raw: &[f32], passes: usize) {
        let mut z = raw.to_vec();
        for _ in 0..passes {
            znormalize(&mut z);
        }
        self.rows.extend_from_slice(&z);
    }

    fn dists(&self, q: &[f32], admit: &dyn Fn(usize) -> bool) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = (0..self.count())
            .filter(|&r| admit(r))
            .map(|r| Neighbor {
                row: r as u32,
                dist_sq: euclidean_sq_early_abandon(
                    q,
                    &self.rows[r * N..(r + 1) * N],
                    f32::INFINITY,
                ),
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn knn(&self, q: &[f32], k: usize, admit: &dyn Fn(usize) -> bool) -> Vec<Neighbor> {
        let mut all = self.dists(q, admit);
        all.truncate(k);
        all
    }

    fn range(&self, q: &[f32], r_sq: f32) -> Vec<Neighbor> {
        let mut all = self.dists(q, &|_| true);
        all.retain(|nb| nb.dist_sq <= r_sq);
        all
    }

    /// Top-k by Parseval score `2n - q·x` (ascending), ties by row; the
    /// score travels in `dist_sq`, as on the batch path.
    fn top_ip(&self, q: &[f32], k: usize) -> Vec<(Neighbor, f32)> {
        let mut scored: Vec<(Neighbor, f32)> = (0..self.count())
            .map(|r| {
                let ip = dot(q, &self.rows[r * N..(r + 1) * N]);
                (Neighbor { row: r as u32, dist_sq: ip_score(N, ip) }, ip)
            })
            .collect();
        scored.sort_unstable_by_key(|a| a.0);
        scored.truncate(k);
        scored
    }
}

fn assert_bits_eq(got: &[Neighbor], want: &[Neighbor], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: cardinality");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.row, w.row, "{tag} rank {rank}: row");
        assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits(), "{tag} rank {rank}: distance bits");
    }
}

fn tmp_path(seed: u64) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sofa-delta-fold-{}-{seed}-{id}.idx", std::process::id()))
}

/// Inserts `len` fresh rows, checking the ids `insert` returns and the
/// fold bookkeeping against the model.
fn insert_burst(
    index: &mut SofaIndex,
    model: &mut Model,
    rng: &mut Rng,
    len: usize,
    leaf: usize,
    tag: &str,
) {
    for _ in 0..len {
        let raw = raw_series(rng);
        let id = index.insert(&raw).expect("insert");
        assert_eq!(id as usize, model.count(), "{tag}: insert returned the wrong row id");
        model.push(&raw, 1);
        model.delta += 1;
        if model.delta == leaf {
            model.delta = 0;
            model.folds += 1;
        }
    }
    let s = index.stats();
    assert_eq!(
        (s.n_series, s.delta_rows, s.folds),
        (model.count(), model.delta, model.folds),
        "{tag}: delta bookkeeping after a burst of {len}"
    );
}

/// Every query kind on every path, against the model.
fn check_queries(index: &SofaIndex, model: &Model, rng: &mut Rng, tag: &str) {
    let count = model.count();
    let first_delta = count - model.delta;
    // A random query, and one near a delta row (when there is one) so
    // delta rows compete for the top ranks.
    let mut queries = vec![raw_series(rng)];
    if model.delta > 0 {
        let r = first_delta + rng.below(model.delta);
        queries
            .push(model.rows[r * N..(r + 1) * N].iter().map(|x| x + 0.05 * rng.signed()).collect());
    }
    for (qi, raw_q) in queries.iter().enumerate() {
        let tag = format!("{tag} query {qi}");
        let mut q = raw_q.clone();
        znormalize(&mut q);
        let k = 1 + rng.below(8);
        // Filters admit about two thirds of the rows, delta rows included.
        let salt = rng.next();
        let admit = move |r: usize| (r as u64 ^ salt).wrapping_mul(0x9E37_79B9) % 3 != 0;
        let filter = Arc::new(RowFilter::from_fn(count, admit));
        // The radius is some row's exact distance — a delta row's when
        // the delta holds any — so a tie sits exactly on the boundary.
        let tie_row =
            if model.delta > 0 { first_delta + rng.below(model.delta) } else { rng.below(count) };
        let r_sq = model.dists(&q, &|r| r == tie_row)[0].dist_sq;

        let want_knn = model.knn(&q, k, &|_| true);
        let want_filtered = model.knn(&q, k, &admit);
        let want_range = model.range(&q, r_sq);
        assert!(want_range.iter().any(|nb| nb.row as usize == tie_row), "{tag}: tie row in range");
        let want_ip = model.top_ip(&q, k);

        // Direct calls.
        assert_bits_eq(&index.knn(raw_q, k).expect("knn"), &want_knn, &format!("{tag} knn"));
        let filtered = QueryKind::KnnFiltered { k, filter };
        let mut got = Vec::new();
        index.query_into(raw_q, &filtered, &mut got).expect("filtered");
        assert_bits_eq(&got, &want_filtered, &format!("{tag} filtered"));
        assert_bits_eq(
            &index.range(raw_q, r_sq).expect("range"),
            &want_range,
            &format!("{tag} range"),
        );
        let got_ip: Vec<IpNeighbor> = index.knn_ip(raw_q, k).expect("ip");
        assert_eq!(got_ip.len(), want_ip.len(), "{tag} ip: cardinality");
        for (rank, (g, (w, ip))) in got_ip.iter().zip(&want_ip).enumerate() {
            assert_eq!((g.row, g.ip.to_bits()), (w.row, ip.to_bits()), "{tag} ip rank {rank}");
        }

        // Batch paths: uniform k-NN, and a mixed batch of every kind with
        // live cancellation tokens plus one pre-fired token.
        let pair: Vec<f32> = raw_q.iter().chain(raw_q.iter()).copied().collect();
        for answer in index.knn_batch(&pair, k).expect("batch") {
            assert_bits_eq(&answer, &want_knn, &format!("{tag} knn_batch"));
        }
        let kinds = [
            QueryKind::Knn { k },
            filtered,
            QueryKind::Range { r_sq },
            QueryKind::Ip { k },
            QueryKind::Knn { k },
        ];
        let batch: Vec<f32> = (0..kinds.len()).flat_map(|_| raw_q.iter().copied()).collect();
        let sentinel = Neighbor { row: u32::MAX, dist_sq: -1.0 };
        let outs: Vec<ResultSlot> = kinds.iter().map(|_| ResultSlot::new(vec![sentinel])).collect();
        let cancels: Vec<CancelToken> = kinds.iter().map(|_| CancelToken::new()).collect();
        cancels[4].cancel();
        index.query_batch(&batch, &kinds, &outs, &cancels).expect("mixed batch");
        let want_ip_scores: Vec<Neighbor> = want_ip.iter().map(|(nb, _)| *nb).collect();
        assert_bits_eq(&outs[0].lock(), &want_knn, &format!("{tag} batch knn"));
        assert_bits_eq(&outs[1].lock(), &want_filtered, &format!("{tag} batch filtered"));
        assert_bits_eq(&outs[2].lock(), &want_range, &format!("{tag} batch range"));
        assert_bits_eq(&outs[3].lock(), &want_ip_scores, &format!("{tag} batch ip"));
        assert_eq!(*outs[4].lock(), vec![sentinel], "{tag}: a cancelled slot must stay untouched");
    }
}

fn run_seed(seed: u64) {
    let mut rng = Rng(seed);
    let leaf = 3 + rng.below(8);
    let initial = 24 + rng.below(40);
    let mut model = Model { rows: Vec::new(), delta: 0, folds: 0 };
    let mut raw = Vec::with_capacity(initial * N);
    for _ in 0..initial {
        let row = raw_series(&mut rng);
        model.push(&row, 2);
        raw.extend_from_slice(&row);
    }
    let mut index = SofaIndex::builder()
        .threads(2)
        .leaf_capacity(leaf)
        .word_len(8)
        .sample_ratio(1.0)
        .min_sample(8)
        .build_sofa(&raw, N)
        .expect("build");
    for step in 0..STEPS {
        let tag = format!("seed {seed} step {step} (leaf {leaf})");
        match rng.below(10) {
            0..=3 => {
                let room = leaf - model.delta;
                let len = match rng.below(3) {
                    0 => room - 1,
                    1 => room,
                    _ => room + 1 + rng.below(2 * leaf),
                };
                insert_burst(&mut index, &mut model, &mut rng, len, leaf, &tag);
            }
            4 => {
                index.repack_leaves();
                model.folds += u64::from(model.delta > 0);
                model.delta = 0;
                let s = index.stats();
                assert_eq!((s.delta_rows, s.folds), (0, model.folds), "{tag}: explicit fold");
                assert_eq!(s.packed_leaves, s.leaves, "{tag}: the fold must pack every leaf");
            }
            5 => {
                let path = tmp_path(seed);
                index.snapshot(&path).expect("snapshot");
                index = SofaIndex::open(&path).expect("open");
                std::fs::remove_file(&path).ok();
                model.folds = 0;
                let s = index.stats();
                assert_eq!(
                    (s.n_series, s.delta_rows),
                    (model.count(), model.delta),
                    "{tag}: the snapshot must reopen every row"
                );
            }
            _ => check_queries(&index, &model, &mut rng, &tag),
        }
    }
    check_queries(&index, &model, &mut rng, &format!("seed {seed} final"));
}

#[test]
fn delta_and_fold_histories_match_the_brute_force_model() {
    let seeds: Vec<u64> = match std::env::var("DELTA_FOLD_SEED") {
        Ok(s) => vec![s.parse().expect("DELTA_FOLD_SEED must be an integer")],
        Err(_) => (1..=SEEDS).collect(),
    };
    for seed in seeds {
        run_seed(seed);
    }
}
