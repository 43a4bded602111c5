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
//! * [`mod@restore`] — optical restoration (§8): greedy and exact
//!   restorers, capability reporting;
//! * [`scenario`] — the one scenario vocabulary (§8 cut sets, k-cut
//!   enumeration/sampling, demand perturbations) and the multi-failure ×
//!   demand-uncertainty engine with its availability surface;
//! * [`te`] — IP-layer traffic engineering (path-based multi-commodity
//!   flow) quantifying what planned/restored capacity means for traffic.
//!
//! Planning and restoration runs are recorded by an observed
//! [`planning::PlanCtx`].
//!
//! Everything is deterministic: same inputs ⇒ same plan, byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defrag;
mod master;
pub mod opt;
pub mod planning;
pub mod protect;
pub mod restore;
pub mod scenario;
pub mod scheme;
pub mod te;
pub mod wavelength;

pub use opt::{
    FlowVarSpace, GammaId, GammaVar, LazyWavelengthVarSpace, PricedColumn, PricingScan,
    WavelengthVarSpace,
};
pub use planning::{
    canonical_objective, plan, solve_exact_colgen, solve_sharded, ColGenPlan, ColGenStats, Plan,
    PlanCtx, PlannerConfig, ShardConfig, ShardSolver, ShardedPlan,
};
pub use protect::ProtectedPlan;
pub use restore::{restore, solve_restoration_exact_colgen, Restoration, RestorationColGen};
pub use scenario::{
    demand_scenarios, k_cut_scenarios, one_fiber_scenarios, sampled_k_cut_scenarios,
    scenario_suite, AvailabilitySurface, DemandScenario, EngineConfig, FailureScenario,
    ScenarioEngine, SurfaceCell,
};
pub use scheme::Scheme;
pub use wavelength::Wavelength;
