//! Gossip aggregation throughput: the weighted-sum kernel at the paper's
//! model sizes and neighborhood degrees, plus a full mixing phase through
//! the block entry point the engine's dense aggregation runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skiptrain_linalg::ops::{weighted_sum_block_into, weighted_sum_into};
use std::hint::black_box;
use std::time::Duration;

fn bench_weighted_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_sum");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    // CIFAR-10 model size from Table 1
    let params = 89_834usize;
    for degree in [6usize, 8, 10] {
        let neighbors: Vec<Vec<f32>> = (0..=degree)
            .map(|k| vec![k as f32 * 0.01 + 0.1; params])
            .collect();
        let weights = vec![1.0 / (degree + 1) as f32; degree + 1];
        let mut out = vec![0.0f32; params];
        group.throughput(criterion::Throughput::Elements(
            ((degree + 1) * params) as u64,
        ));
        group.bench_with_input(BenchmarkId::new("cifar_model", degree), &degree, |b, _| {
            b.iter(|| {
                let inputs: Vec<&[f32]> = neighbors.iter().map(|v| v.as_slice()).collect();
                weighted_sum_into(black_box(&mut out), &inputs, &weights);
            })
        });
    }
    group.finish();
}

fn bench_full_mixing_phase(c: &mut Criterion) {
    use skiptrain_topology::regular::random_regular;
    use skiptrain_topology::MixingMatrix;
    let mut group = c.benchmark_group("mixing_phase");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // 10 k parameters: 64 models fit L2 whole; Table 1's 89 834: they do
    // not (23 MB), which is the case the tiled pass exists for
    for (n, params) in [(16usize, 10_000usize), (64, 10_000), (64, 89_834)] {
        let graph = random_regular(n, 6, 1);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let half: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32; params]).collect();
        let mut next: Vec<Vec<f32>> = half.clone();
        let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..n)
            .map(|i| mixing.row(i).iter().copied().unzip())
            .collect();
        group.throughput(criterion::Throughput::Elements(
            (rows.iter().map(|(indices, _)| indices.len()).sum::<usize>() * params) as u64,
        ));
        let id = match params {
            10_000 => BenchmarkId::new("nodes", n),
            _ => BenchmarkId::new("nodes_table1_model", n),
        };
        group.bench_with_input(id, &n, |b, _| {
            b.iter(|| {
                weighted_sum_block_into(&mut next, &rows, |_, j| &half[j as usize]);
                black_box(&next);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_weighted_sum, bench_full_mixing_phase);
criterion_main!(benches);
