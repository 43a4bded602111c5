//! Macrobenchmarks: format-selection DP, spectrum first-fit, and the full
//! planning pipeline per scheme on the T-backbone.

use criterion::{criterion_group, criterion_main, Criterion};
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_core::planning::format_dp::select_formats;
use flexwan_core::planning::{plan, SpectrumState};
use flexwan_core::Scheme;
use flexwan_optical::spectrum::{PixelWidth, SpectrumGrid};
use flexwan_optical::transponder::Svt;
use flexwan_topo::route::k_shortest_routes;
use std::hint::black_box;

fn bench_planning(c: &mut Criterion) {
    c.bench_function("format_dp/svt_2t_600km", |b| {
        b.iter(|| select_formats(&Svt, black_box(2000), 600, 1e-3))
    });

    let b = tbackbone_instance();
    let cfg = default_config();
    let route = k_shortest_routes(
        &b.optical,
        b.ip.links()[0].src,
        b.ip.links()[0].dst,
        1,
        &Default::default(),
    )
    .remove(0);
    c.bench_function("spectrum/allocate_route", |bch| {
        bch.iter_batched(
            || SpectrumState::new(SpectrumGrid::c_band(), b.optical.num_edges()),
            |mut s| s.allocate_route(black_box(&route), PixelWidth::new(8), 1),
            criterion::BatchSize::SmallInput,
        )
    });

    // The same search on the spectrum a scale-8 FlexWAN plan leaves behind
    // (demand goes unmet there), over the candidate route with the most
    // hops: a 50 GHz channel that still fits high in the band, and a
    // 150 GHz one that fits nowhere — the search that has to rule out the
    // whole band.
    let dense = plan(Scheme::FlexWan, &b.optical, &b.ip.scaled(8), &cfg).spectrum;
    let long = b
        .ip
        .links()
        .iter()
        .flat_map(|l| k_shortest_routes(&b.optical, l.src, l.dst, cfg.k_paths, &Default::default()))
        .max_by_key(|r| r.hops.len())
        .expect("the T-backbone has routes");
    assert!(long.hops.len() >= 4, "a multi-hop route");
    let (fits, fails) = (PixelWidth::new(4), PixelWidth::new(12));
    assert!(dense
        .find_route(&long, fits, 1)
        .is_some_and(|(r, _)| r.start > 64));
    assert!(dense.find_route(&long, fails, 1).is_none());
    c.bench_function("spectrum/find_route/dense_multi_hop/fits", |bch| {
        bch.iter(|| dense.find_route(black_box(&long), fits, 1))
    });
    c.bench_function("spectrum/find_route/dense_multi_hop/fails", |bch| {
        bch.iter(|| dense.find_route(black_box(&long), fails, 1))
    });

    for scheme in Scheme::ALL {
        c.bench_function(&format!("plan/tbackbone/{scheme}"), |bch| {
            bch.iter(|| plan(black_box(scheme), &b.optical, &b.ip, &cfg))
        });
    }
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
