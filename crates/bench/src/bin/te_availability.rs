//! Extension experiment (§8's motivation, quantified): what restored
//! optical capacity means for IP traffic. For each conduit-cut scenario
//! we route a traffic matrix over the surviving IP-link capacities with
//! the TE module — once without optical restoration, once with — and
//! report carried traffic and availability per scheme.
//!
//! "The higher restored capacity always reduces the loss of network
//! traffic and the network can achieve higher network availability under
//! failures." (§8)

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::PlanCtx;
use flexwan_core::restore::{conduit_cut_scenarios, Restoration};
use flexwan_core::te::{network_from_plan, route_traffic, TrafficDemand};
use flexwan_core::Scheme;
use flexwan_topo::cache::RouteCache;
use flexwan_util::pool;

fn main() {
    table::banner(
        "TE availability (extension)",
        "Carried traffic fraction under conduit cuts, with vs without restoration (5x demand).",
    );
    let b = tbackbone_instance();
    let cfg = default_config();
    let scale = 5u64;
    let ip = b.ip.scaled(scale);
    // Traffic: 75 % of each IP link's capacity demand flows between its
    // endpoints (the network is overloaded at 5x, so even healthy routing
    // cannot carry quite everything — the §8 'overloaded' regime).
    let traffic: Vec<TrafficDemand> = ip
        .links()
        .iter()
        .map(|l| TrafficDemand {
            src: l.src,
            dst: l.dst,
            gbps: 0.75 * l.demand_gbps as f64,
        })
        .collect();
    // A deterministic sample of scenarios keeps the run short.
    let scenarios: Vec<_> = conduit_cut_scenarios(&b.optical)
        .into_iter()
        .step_by(3)
        .collect();
    // One route cache across all three schemes (candidate routes are
    // scheme-independent; detours are keyed by cut set), scenarios fanned
    // out on the deterministic pool — output is thread-count-invariant.
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
    let threads = pool::default_threads();

    let mut rows = Vec::new();
    for scheme in Scheme::ALL {
        let p = ctx.plan(scheme, &ip);
        let healthy = {
            let net = network_from_plan(b.optical.num_nodes(), &ip, &p, None);
            route_traffic(&net, &traffic, 2)
                .expect("IP graph connected")
                .carried_fraction()
        };
        let per_scenario = pool::par_map(&scenarios, threads, |s| {
            let r = ctx.restore(&p, &ip, s, &[]);
            let empty = Restoration {
                restored: vec![],
                ..r.clone()
            };
            let net_cut = network_from_plan(b.optical.num_nodes(), &ip, &p, Some((s, &empty)));
            let net_rst = network_from_plan(b.optical.num_nodes(), &ip, &p, Some((s, &r)));
            let out_cut = route_traffic(&net_cut, &traffic, 2).expect("IP graph connected");
            let out_rst = route_traffic(&net_rst, &traffic, 2).expect("IP graph connected");
            (out_cut.carried_fraction(), out_rst.carried_fraction())
        });
        // Ordered reduce: summation order is fixed by scenario order, so
        // the float totals match the serial run bit for bit.
        let mut carried_no_restore = 0.0;
        let mut carried_restored = 0.0;
        let mut available = 0usize;
        for &(cut, rst) in &per_scenario {
            carried_no_restore += cut;
            carried_restored += rst;
            if rst >= 0.99 * healthy {
                available += 1;
            }
        }
        let n = scenarios.len() as f64;
        rows.push(vec![
            scheme.to_string(),
            format!("{:.3}", healthy),
            format!("{:.3}", carried_no_restore / n),
            format!("{:.3}", carried_restored / n),
            format!("{:.0}%", 100.0 * available as f64 / n),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "scheme",
                "healthy",
                "carried (cut only)",
                "carried (restored)",
                "availability"
            ],
            &rows
        )
    );
    println!("availability = fraction of cut scenarios carrying ≥99% of the healthy");
    println!("network's traffic after optical restoration.");
}
