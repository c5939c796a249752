//! Micro-benchmarks of the sequential tile kernels (the building blocks of
//! the Cholesky and FW cost models).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ttg_linalg::{gemm_nn, gemm_nt, minplus, potrf_l, syrk_ln, trsm_rlt, Tile, TiledMatrix};

fn spd_tile(n: usize) -> Tile {
    let m = TiledMatrix::random_spd(1, n, 5);
    m.tile(0, 0).clone()
}

fn rand_rect(rows: usize, cols: usize, seed: u64) -> Tile {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Tile::from_data(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

fn rand_tile(n: usize, seed: u64) -> Tile {
    rand_rect(n, n, seed)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_kernels");
    println!("kernel instantiation: {}", ttg_linalg::isa());
    for &nb in &[32usize, 64, 128] {
        let a = rand_tile(nb, 1);
        let b = rand_tile(nb, 2);
        let spd = spd_tile(nb);
        let mut l = spd.clone();
        potrf_l(&mut l).unwrap();

        group.bench_with_input(BenchmarkId::new("gemm_nt", nb), &nb, |bench, _| {
            let mut cc = rand_tile(nb, 3);
            bench.iter(|| gemm_nt(-1.0, &a, &b, &mut cc));
        });
        group.bench_with_input(BenchmarkId::new("gemm_nn", nb), &nb, |bench, _| {
            let mut cc = rand_tile(nb, 3);
            bench.iter(|| gemm_nn(-1.0, &a, &b, &mut cc));
        });
        group.bench_with_input(BenchmarkId::new("syrk_ln", nb), &nb, |bench, _| {
            let mut cc = spd.clone();
            bench.iter(|| syrk_ln(&a, &mut cc));
        });
        group.bench_with_input(BenchmarkId::new("trsm_rlt", nb), &nb, |bench, _| {
            bench.iter_batched(
                || rand_tile(nb, 4),
                |mut x| trsm_rlt(&l, &mut x),
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("potrf_l", nb), &nb, |bench, _| {
            bench.iter_batched(
                || spd.clone(),
                |mut x| potrf_l(&mut x).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("minplus", nb), &nb, |bench, _| {
            let mut cc = rand_tile(nb, 5);
            bench.iter(|| minplus(&a, &b, &mut cc));
        });
    }
    // One ragged shape, the regime of the block-sparse product's tiles:
    // every dimension leaves a tail for the register blocks' ladders.
    let (m, n, k) = (45, 64, 51);
    let a = rand_rect(m, k, 6);
    let shape = format!("{m}x{n}x{k}");
    group.bench_with_input(BenchmarkId::new("gemm_nn", &shape), &m, |bench, _| {
        let b = rand_rect(k, n, 7);
        let mut cc = rand_rect(m, n, 8);
        bench.iter(|| gemm_nn(1.0, &a, &b, &mut cc));
    });
    group.bench_with_input(BenchmarkId::new("gemm_nt", &shape), &m, |bench, _| {
        let b = rand_rect(n, k, 7);
        let mut cc = rand_rect(m, n, 8);
        bench.iter(|| gemm_nt(1.0, &a, &b, &mut cc));
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels
}
criterion_main!(benches);
