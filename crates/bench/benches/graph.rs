//! Criterion microbenchmarks for the graph substrate: Tarjan SCC and
//! cycle search on the legacy `DiGraph` vs. the frozen CSR, plus the
//! freeze cost, edge-mask lookups, and the interval-order reduction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elle_graph::{
    find_cycle_with_single, interval_order_reduction, tarjan_scc, DiGraph, EdgeClass, EdgeMask,
    Interval, Scratch,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_graph(n: u32, edges_per_vertex: u32, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = DiGraph::with_vertices(n as usize);
    for v in 0..n {
        for _ in 0..edges_per_vertex {
            let w = rng.gen_range(0..n);
            let class = match rng.gen_range(0..3) {
                0 => EdgeClass::Ww,
                1 => EdgeClass::Wr,
                _ => EdgeClass::Rw,
            };
            g.add_edge(v, w, class);
        }
    }
    g
}

fn bench_tarjan(c: &mut Criterion) {
    let mut grp = c.benchmark_group("tarjan_scc");
    for n in [10_000u32, 100_000] {
        let g = random_graph(n, 3, 1);
        let csr = g.freeze();
        grp.throughput(Throughput::Elements(n as u64));
        grp.bench_with_input(BenchmarkId::new("digraph", n), &g, |b, g| {
            b.iter(|| tarjan_scc(g, EdgeMask::ALL))
        });
        grp.bench_with_input(BenchmarkId::new("csr", n), &csr, |b, csr| {
            let mut scratch = Scratch::new();
            b.iter(|| csr.tarjan_scc(EdgeMask::ALL, &mut scratch))
        });
    }
    grp.finish();
}

fn bench_freeze(c: &mut Criterion) {
    let mut grp = c.benchmark_group("freeze");
    for n in [10_000u32, 100_000] {
        let g = random_graph(n, 3, 1);
        grp.throughput(Throughput::Elements(g.edge_count() as u64));
        grp.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| g.freeze())
        });
    }
    grp.finish();
}

fn bench_edge_mask(c: &mut Criterion) {
    // The hot lookup removed from the Tarjan inner loop: hash-map probe
    // (legacy) vs. sorted-row binary search (CSR).
    let mut grp = c.benchmark_group("edge_mask_lookup");
    let n = 10_000u32;
    let g = random_graph(n, 3, 7);
    let csr = g.freeze();
    let mut rng = SmallRng::seed_from_u64(9);
    let probes: Vec<(u32, u32)> = (0..10_000)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    grp.throughput(Throughput::Elements(probes.len() as u64));
    grp.bench_with_input(BenchmarkId::new("digraph", n), &probes, |b, probes| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(s, d) in probes {
                acc += g.edge_mask(s, d).0 as u32;
            }
            black_box(acc)
        })
    });
    grp.bench_with_input(BenchmarkId::new("csr", n), &probes, |b, probes| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(s, d) in probes {
                acc += csr.edge_mask(s, d).0 as u32;
            }
            black_box(acc)
        })
    });
    grp.finish();
}

fn bench_cycle_search(c: &mut Criterion) {
    let mut grp = c.benchmark_group("g_single_search");
    for n in [10_000u32, 100_000] {
        let g = random_graph(n, 3, 2);
        let csr = g.freeze();
        let sccs = tarjan_scc(&g, EdgeMask::ALL);
        let comp = sccs.into_iter().max_by_key(Vec::len).unwrap_or_default();
        grp.bench_with_input(BenchmarkId::new("digraph", n), &comp, |b, comp| {
            b.iter(|| {
                find_cycle_with_single(&g, comp, EdgeMask::RW, EdgeMask::WW | EdgeMask::WR, 4)
            })
        });
        grp.bench_with_input(BenchmarkId::new("csr", n), &comp, |b, comp| {
            let mut scratch = Scratch::new();
            b.iter(|| {
                csr.find_cycle_with_single(
                    comp,
                    EdgeMask::RW,
                    EdgeMask::WW | EdgeMask::WR,
                    4,
                    &mut scratch,
                )
            })
        });
    }
    grp.finish();
}

/// Edge construction: the legacy hash-indexed `DiGraph` build + freeze
/// versus the sort-based `EdgeBuf` bulk build — the hot path this
/// substrate exists for (dependency-graph assembly from flat edge
/// emissions).
fn bench_edge_construction(c: &mut Criterion) {
    use elle_graph::EdgeBuf;
    let mut grp = c.benchmark_group("edge_construction");
    for n in [10_000u32, 100_000] {
        let epv = 5u32;
        // Pre-generate the raw edge tuples once so both legs measure
        // construction only.
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let tuples: Vec<(u32, u32, EdgeClass)> = (0..n)
            .flat_map(|v| {
                let mut out = Vec::with_capacity(epv as usize);
                for _ in 0..epv {
                    let w = rng.gen_range(0..n);
                    let class = match rng.gen_range(0..3) {
                        0 => EdgeClass::Ww,
                        1 => EdgeClass::Wr,
                        _ => EdgeClass::Rw,
                    };
                    out.push((v, w, class));
                }
                out
            })
            .collect();
        grp.throughput(Throughput::Elements(tuples.len() as u64));
        grp.bench_with_input(BenchmarkId::new("hash_digraph", n), &tuples, |b, tuples| {
            b.iter(|| {
                let mut g = DiGraph::with_vertices(n as usize);
                for &(s, d, c) in tuples {
                    g.add_edge(s, d, c);
                }
                g.freeze()
            })
        });
        grp.bench_with_input(BenchmarkId::new("sort_edgebuf", n), &tuples, |b, tuples| {
            b.iter(|| {
                let mut buf = EdgeBuf::with_capacity(tuples.len());
                for &(s, d, c) in tuples {
                    buf.push(s, d, EdgeMask::of(c));
                }
                buf.build(n as usize)
            })
        });
    }
    grp.finish();
}

fn bench_interval_reduction(c: &mut Criterion) {
    let mut grp = c.benchmark_group("interval_order_reduction");
    for n in [10_000usize, 100_000] {
        // p-way staggered intervals.
        let p = 20;
        let items: Vec<Interval> = (0..n)
            .map(|i| Interval {
                invoke: i * 2,
                complete: Some(i * 2 + p),
            })
            .collect();
        grp.throughput(Throughput::Elements(n as u64));
        grp.bench_with_input(BenchmarkId::from_parameter(n), &items, |b, items| {
            b.iter(|| interval_order_reduction(items))
        });
    }
    grp.finish();
}

criterion_group!(
    benches,
    bench_tarjan,
    bench_freeze,
    bench_edge_mask,
    bench_cycle_search,
    bench_edge_construction,
    bench_interval_reduction
);
criterion_main!(benches);
