//! FlexWAN core: the paper's primary contribution.
//!
//! * [`scheme`] — the three backbone architectures (100G-WAN, RADWAN,
//!   FlexWAN) behind one interface;
//! * [`wavelength`] — the provisioned-wavelength type;
//! * [`opt`] — the shared optimization-model layer: typed variable
//!   spaces (γ wavelengths, path flows) with prebuilt index buckets on
//!   which every exact formulation below is built;
//! * [`planning`] — cost-minimal WAN capacity provisioning (Algorithm 1):
//!   exact MIP + scalable heuristic + reporting;
//! * [`mod@restore`] — optical restoration (§8): failure scenarios, greedy and
//!   exact restorers, capability reporting;
//! * [`scenario`] — the multi-failure × demand-uncertainty scenario
//!   engine (beyond the paper): k-cut enumeration/sampling, demand
//!   perturbations, and the availability surface;
//! * [`te`] — IP-layer traffic engineering (path-based multi-commodity
//!   flow) quantifying what planned/restored capacity means for traffic;
//! * [`observe`] — observed wrappers recording planning/restoration runs
//!   as spans and metrics (additive; outputs stay bit-identical).
//!
//! Everything is deterministic: same inputs ⇒ same plan, byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defrag;
mod master;
pub mod observe;
pub mod opt;
pub mod planning;
pub mod protect;
pub mod restore;
pub mod scenario;
pub mod scheme;
pub mod te;
pub mod wavelength;

pub use observe::{
    plan_observed, record_availability_surface, record_opt_model, record_route_cache,
    record_shard_plan, restore_observed,
};
pub use opt::{
    FlowVarSpace, GammaId, GammaVar, LazyWavelengthVarSpace, PricedColumn, PricingScan,
    WavelengthVarSpace,
};
pub use planning::{
    canonical_objective, max_feasible_scale, plan, plan_cached, solve_exact_colgen, solve_sharded,
    ColGenPlan, ColGenStats, Plan, PlannerConfig, ShardConfig, ShardSolver, ShardedPlan,
};
pub use protect::{plan_protected, plan_protected_cached, ProtectedPlan};
pub use restore::{
    one_fiber_scenarios, restore, restore_cached, solve_restoration_exact_colgen, FailureScenario,
    Restoration, RestorationColGen,
};
pub use scenario::{
    demand_scenarios, k_cut_scenarios, sampled_k_cut_scenarios, scenario_suite,
    AvailabilitySurface, DemandScenario, EngineConfig, ScenarioEngine, SurfaceCell,
};
pub use scheme::Scheme;
pub use wavelength::Wavelength;
