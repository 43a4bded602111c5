//! JSON topology interchange: load/save backbones for the `flexwan` CLI
//! and for downstream users who keep their network descriptions in files.
//!
//! The format is deliberately small:
//!
//! ```json
//! {
//!   "nodes": ["SFO", "SJC", "LAX"],
//!   "fibers": [ {"a": "SFO", "b": "SJC", "km": 80},
//!               {"a": "SJC", "b": "LAX", "km": 550} ],
//!   "links":  [ {"src": "SFO", "dst": "LAX", "gbps": 800} ]
//! }
//! ```

use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;
use flexwan_topo::tbackbone::Backbone;
use flexwan_util::json::{self, FromJson, ToJson, Value};

/// A fiber segment in the interchange format.
#[derive(Debug, Clone)]
pub struct FiberSpec {
    /// One endpoint's node name.
    pub a: String,
    /// The other endpoint's node name.
    pub b: String,
    /// Length in km.
    pub km: u32,
}

/// An IP link in the interchange format.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Source node name.
    pub src: String,
    /// Destination node name.
    pub dst: String,
    /// Bandwidth-capacity demand, Gbps (multiple of 100).
    pub gbps: u64,
}

/// A whole backbone description.
#[derive(Debug, Clone)]
pub struct TopologyFile {
    /// ROADM site names (order defines node ids).
    pub nodes: Vec<String>,
    /// Fiber plant.
    pub fibers: Vec<FiberSpec>,
    /// IP links with demands.
    pub links: Vec<LinkSpec>,
}

/// Errors loading a topology file.
#[derive(Debug)]
pub enum LoadError {
    /// JSON syntax / shape problems.
    Json(json::Error),
    /// Semantic problems (unknown node names, empty sections, …).
    Invalid(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "topology JSON error: {e}"),
            LoadError::Invalid(m) => write!(f, "invalid topology: {m}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Json(e) => Some(e),
            LoadError::Invalid(_) => None,
        }
    }
}

impl From<json::Error> for LoadError {
    fn from(e: json::Error) -> Self {
        LoadError::Json(e)
    }
}

impl ToJson for FiberSpec {
    fn to_json(&self) -> Value {
        Value::obj([
            ("a", Value::from(self.a.as_str())),
            ("b", Value::from(self.b.as_str())),
            ("km", self.km.to_json()),
        ])
    }
}

impl FromJson for FiberSpec {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        Ok(FiberSpec {
            a: v.field("a")?,
            b: v.field("b")?,
            km: v.field("km")?,
        })
    }
}

impl ToJson for LinkSpec {
    fn to_json(&self) -> Value {
        Value::obj([
            ("src", Value::from(self.src.as_str())),
            ("dst", Value::from(self.dst.as_str())),
            ("gbps", self.gbps.to_json()),
        ])
    }
}

impl FromJson for LinkSpec {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        Ok(LinkSpec {
            src: v.field("src")?,
            dst: v.field("dst")?,
            gbps: v.field("gbps")?,
        })
    }
}

impl ToJson for TopologyFile {
    fn to_json(&self) -> Value {
        Value::obj([
            ("nodes", self.nodes.to_json()),
            ("fibers", self.fibers.to_json()),
            ("links", self.links.to_json()),
        ])
    }
}

impl FromJson for TopologyFile {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        Ok(TopologyFile {
            nodes: v.field("nodes")?,
            fibers: v.field("fibers")?,
            links: v.field("links")?,
        })
    }
}

impl TopologyFile {
    /// Parses the interchange JSON.
    pub fn from_json(text: &str) -> Result<Self, LoadError> {
        Ok(json::from_str(text)?)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Builds the in-memory [`Backbone`].
    pub fn build(&self) -> Result<Backbone, LoadError> {
        if self.nodes.is_empty() {
            return Err(LoadError::Invalid("no nodes".into()));
        }
        let mut g = Graph::new();
        let mut by_name = std::collections::HashMap::new();
        for name in &self.nodes {
            if by_name.contains_key(name.as_str()) {
                return Err(LoadError::Invalid(format!("duplicate node name {name}")));
            }
            by_name.insert(name.clone(), g.add_node(name.clone()));
        }
        let resolve = |name: &str| {
            by_name
                .get(name)
                .copied()
                .ok_or_else(|| LoadError::Invalid(format!("unknown node {name}")))
        };
        for f in &self.fibers {
            let (a, b) = (resolve(&f.a)?, resolve(&f.b)?);
            if a == b {
                return Err(LoadError::Invalid(format!("self-loop fiber at {}", f.a)));
            }
            if f.km == 0 {
                return Err(LoadError::Invalid(format!(
                    "zero-length fiber {}–{}",
                    f.a, f.b
                )));
            }
            g.add_edge(a, b, f.km);
        }
        // A path sums its fiber lengths in u32 km and uses each fiber at
        // most once, so a plant whose total fits cannot wrap any path.
        let plant_km: u64 = self.fibers.iter().map(|f| u64::from(f.km)).sum();
        if plant_km > u64::from(u32::MAX) {
            return Err(LoadError::Invalid(format!(
                "fiber plant totals {plant_km} km, more than the {} km a path length holds",
                u32::MAX
            )));
        }
        let mut ip = IpTopology::new();
        for l in &self.links {
            let (src, dst) = (resolve(&l.src)?, resolve(&l.dst)?);
            if src == dst {
                return Err(LoadError::Invalid(format!(
                    "self-loop IP link at {}",
                    l.src
                )));
            }
            if l.gbps == 0 || l.gbps % 100 != 0 {
                return Err(LoadError::Invalid(format!(
                    "IP link {}–{} demand {} must be a positive multiple of 100 Gbps",
                    l.src, l.dst, l.gbps
                )));
            }
            ip.add_link(src, dst, l.gbps);
        }
        Ok(Backbone { optical: g, ip })
    }

    /// Exports a [`Backbone`] into the interchange format.
    pub fn from_backbone(b: &Backbone) -> TopologyFile {
        TopologyFile {
            nodes: b.optical.nodes().iter().map(|n| n.name.clone()).collect(),
            fibers: b
                .optical
                .edges()
                .iter()
                .map(|e| FiberSpec {
                    a: b.optical.node(e.a).name.clone(),
                    b: b.optical.node(e.b).name.clone(),
                    km: e.length_km,
                })
                .collect(),
            links: b
                .ip
                .links()
                .iter()
                .map(|l| LinkSpec {
                    src: b.optical.node(l.src).name.clone(),
                    dst: b.optical.node(l.dst).name.clone(),
                    gbps: l.demand_gbps,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "nodes": ["A", "B", "C"],
        "fibers": [ {"a": "A", "b": "B", "km": 100},
                    {"a": "B", "b": "C", "km": 200},
                    {"a": "A", "b": "C", "km": 400} ],
        "links":  [ {"src": "A", "dst": "C", "gbps": 600} ]
    }"#;

    #[test]
    fn round_trips() {
        let tf = TopologyFile::from_json(SAMPLE).unwrap();
        let b = tf.build().unwrap();
        assert_eq!(b.optical.num_nodes(), 3);
        assert_eq!(b.optical.num_edges(), 3);
        assert_eq!(b.ip.num_links(), 1);
        let back = TopologyFile::from_backbone(&b);
        let rebuilt = TopologyFile::from_json(&back.to_json())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(rebuilt.optical, b.optical);
        assert_eq!(rebuilt.ip, b.ip);
    }

    #[test]
    fn rejects_unknown_node() {
        let bad = SAMPLE.replace("\"src\": \"A\"", "\"src\": \"Z\"");
        let tf = TopologyFile::from_json(&bad).unwrap();
        assert!(matches!(tf.build(), Err(LoadError::Invalid(_))));
    }

    #[test]
    fn rejects_bad_demand() {
        let bad = SAMPLE.replace("600", "650");
        let tf = TopologyFile::from_json(&bad).unwrap();
        let err = tf.build().unwrap_err();
        assert!(err.to_string().contains("multiple of 100"));
    }

    #[test]
    fn rejects_duplicate_nodes_and_self_loops() {
        let dup = SAMPLE.replace("\"C\"]", "\"A\"]");
        assert!(TopologyFile::from_json(&dup).unwrap().build().is_err());
        let selfloop = SAMPLE.replace(
            "{\"a\": \"A\", \"b\": \"B\", \"km\": 100}",
            "{\"a\": \"A\", \"b\": \"A\", \"km\": 100}",
        );
        assert!(TopologyFile::from_json(&selfloop).unwrap().build().is_err());
    }

    /// Two fibers of 2,147,483,700 km: a path over both would wrap to
    /// 104 km in u32.
    fn plant(ab_km: u32, bc_km: u32) -> TopologyFile {
        let text = format!(
            r#"{{"nodes": ["A", "B", "C"],
                "fibers": [ {{"a": "A", "b": "B", "km": {ab_km}}},
                            {{"a": "B", "b": "C", "km": {bc_km}}} ],
                "links":  [ {{"src": "A", "dst": "C", "gbps": 400}} ] }}"#
        );
        TopologyFile::from_json(&text).unwrap()
    }

    #[test]
    fn rejects_a_plant_whose_length_wraps_a_path() {
        let err = plant(2_147_483_700, 2_147_483_700).build().unwrap_err();
        assert!(matches!(err, LoadError::Invalid(_)));
        assert!(err.to_string().contains("4294967400 km"), "{err}");
    }

    #[test]
    fn builds_a_plant_of_exactly_u32_max_km() {
        let b = plant(u32::MAX - 100, 100).build().unwrap();
        assert_eq!(b.optical.num_edges(), 2);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(
            TopologyFile::from_json("{nope"),
            Err(LoadError::Json(_))
        ));
    }

    #[test]
    fn plannable_end_to_end() {
        use flexwan_core::planning::{plan, PlannerConfig};
        use flexwan_core::Scheme;
        let b = TopologyFile::from_json(SAMPLE).unwrap().build().unwrap();
        let p = plan(
            Scheme::FlexWan,
            &b.optical,
            &b.ip,
            &PlannerConfig::default(),
        );
        assert!(p.is_feasible());
    }
}
