//! Distance computation cost: the paper's core efficiency claim is that
//! `BDist` (and even the positional optimistic bound) is computable in
//! `O(|T1| + |T2|)`, orders of magnitude cheaper than the Zhang–Shasha
//! `O(|T1|·|T2|·…)` edit distance — this bench quantifies the gap across
//! tree sizes 25 / 50 / 100 / 200, and prices the one-matching forms the
//! search uses: the range test and the `propt` search capped at a k-NN
//! budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use treesim_core::{BranchVocab, PositionalVector};
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_edit::{zhang_shasha, TreeInfo, UnitCost, ZsWorkspace};
use treesim_tree::{Forest, TreeId};

fn pair_of_size(size: f64) -> Forest {
    generate(&SyntheticConfig {
        fanout: Normal::new(4.0, 0.5),
        size: Normal::new(size, 2.0),
        label_count: 8,
        decay: 0.05,
        seed_count: 1,
        tree_count: 2,
        rng_seed: size as u64 ^ 0xd157,
    })
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_cost");
    group.sample_size(30);
    for size in [25.0, 50.0, 100.0, 200.0] {
        let forest = pair_of_size(size);
        let t1 = forest.tree(TreeId(0));
        let t2 = forest.tree(TreeId(1));

        // Zhang–Shasha with precomputed infos (the refinement-step cost).
        let info1 = TreeInfo::new(t1);
        let info2 = TreeInfo::new(t2);
        group.bench_with_input(
            BenchmarkId::new("zhang_shasha", size as u64),
            &size,
            |b, _| {
                let mut workspace = ZsWorkspace::new();
                b.iter(|| {
                    black_box(zhang_shasha(
                        black_box(&info1),
                        black_box(&info2),
                        &UnitCost,
                        &mut workspace,
                    ))
                })
            },
        );

        // Plain binary branch distance on prebuilt vectors.
        let mut vocab = BranchVocab::new(2);
        let v1 = PositionalVector::build(t1, &mut vocab);
        let v2 = PositionalVector::build(t2, &mut vocab);
        group.bench_with_input(BenchmarkId::new("bdist", size as u64), &size, |b, _| {
            b.iter(|| black_box(v1.bdist(black_box(&v2))))
        });

        // The positional optimistic bound (binary search over PosBDist).
        group.bench_with_input(
            BenchmarkId::new("optimistic_bound", size as u64),
            &size,
            |b, _| b.iter(|| black_box(v1.optimistic_bound(black_box(&v2)))),
        );

        // The same search capped at a k-NN budget between the size
        // difference and the bound: one PosBDist matching at the cap
        // settles it.
        let cap = v1.size_bound(&v2).max(v1.optimistic_bound(&v2) / 2);
        group.bench_with_input(
            BenchmarkId::new("optimistic_bound_within", size as u64),
            &size,
            |b, _| b.iter(|| black_box(v1.optimistic_bound_within(black_box(&v2), cap))),
        );

        // The range test: one PosBDist matching at pr = τ.
        for tau in [2u32, 9] {
            group.bench_with_input(
                BenchmarkId::new(format!("exceeds_range_tau{tau}"), size as u64),
                &size,
                |b, _| b.iter(|| black_box(v1.exceeds_range(black_box(&v2), tau))),
            );
        }

        // Vectorization cost (per comparison when done from scratch).
        group.bench_with_input(BenchmarkId::new("vectorize", size as u64), &size, |b, _| {
            b.iter(|| {
                let mut vocab = BranchVocab::new(2);
                let a = PositionalVector::build(black_box(t1), &mut vocab);
                let b2 = PositionalVector::build(black_box(t2), &mut vocab);
                black_box(a.bdist(&b2))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distances);
criterion_main!(benches);
