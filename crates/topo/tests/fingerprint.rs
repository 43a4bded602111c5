//! Instance fingerprints: one digest per preset the tree builds, over
//! node names, fiber endpoints and lengths, and IP links with demands.
//! A change to any generator, preset or the way a preset reaches its
//! generator moves a digest; a refactor that claims "every instance bit
//! for bit" keeps them all.

use flexwan_topo::continental::{Family, ScaleParams};
use flexwan_topo::tbackbone::Backbone;

/// FNV-1a over a canonical text rendering of the backbone.
fn digest(b: &Backbone) -> u64 {
    let mut text = String::new();
    for n in b.optical.nodes() {
        text += &format!("n {} {}\n", n.id.0, n.name);
    }
    for e in b.optical.edges() {
        text += &format!("f {} {} {} {}\n", e.id.0, e.a.0, e.b.0, e.length_km);
    }
    for l in b.ip.links() {
        text += &format!("l {} {} {} {}\n", l.id.0, l.src.0, l.dst.0, l.demand_gbps);
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_preset_builds_its_pinned_instance() {
    let presets = [
        ("tbackbone", ScaleParams::tbackbone(), Family::TBackbone),
        ("suite", ScaleParams::suite(), Family::TBackbone),
        ("cernet", ScaleParams::cernet(), Family::Cernet),
        ("nsfnet", ScaleParams::nsfnet(), Family::Nsfnet),
        (
            "nsfnet-80",
            ScaleParams {
                ip_links: 80,
                ..ScaleParams::nsfnet()
            },
            Family::Nsfnet,
        ),
        (
            "continental",
            ScaleParams::continental(),
            Family::Continental,
        ),
        ("shrunk-3", ScaleParams::shrunk(3), Family::Continental),
        ("parity", ScaleParams::parity(), Family::Continental),
    ];
    let got: Vec<String> = presets
        .iter()
        .map(|(name, p, family)| format!("{name} {:016x}", digest(&p.build(*family))))
        .collect();
    let want = [
        "tbackbone 4a8be3cd6963783b",
        "suite abc5cda31756d149",
        "cernet afd0f29af6777965",
        "nsfnet 3eab8a20b3d7209c",
        "nsfnet-80 95221b270a6d5817",
        "continental 1e59f8d804421031",
        "shrunk-3 f89d25141b8f1006",
        "parity b921f3500618d517",
    ];
    assert_eq!(got, want, "an instance moved:\n{}", got.join("\n"));
}
