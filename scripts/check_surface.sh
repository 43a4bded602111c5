#!/usr/bin/env bash
# Surface check: what survives only because `benchmark/` names it stays
# unused everywhere else, and the heuristic planning API keeps one entry
# point (`PlanCtx`), no sibling functions per route source.
#
# Fails if
#   * non-test code under crates/*/src or src defines any
#     `fn <name>_(cached|banned|observed|with_routes)` other than the two
#     `#[doc(hidden)]` forwards `plan_cached` and `restore_cached` that
#     `benchmark/` still imports;
#   * a cut rebuilds what the committed plan's standing footprint holds:
#     non-test crates/core/src names `assess_plan` (the per-cut rescan
#     of every wavelength and rebuild of the survivors' spectrum), or
#     `revive` in crates/core/src/restore/heuristic.rs builds a
#     `SpectrumState` or a `Footprint` of its own (it reads the one it is
#     handed);
#   * anything under crates/, src/, tests/ or examples/ calls
#     `plan_cached(` / `restore_cached(`;
#   * anything under those directories names `threads` in a
#     `SolveOptions` literal or reads it off solve options — branch &
#     bound ignores the field, which is `#[doc(hidden)]` in
#     crates/solver/src/model.rs (the one file allowed to name it) until
#     `benchmark/` drops its two literals;
#   * non-test crates/topo/src/route.rs constructs a `Graph` anywhere but
#     in the one conduit-view builder (the per-query collapsed-graph
#     rebuild must not grow back), or non-test crates/topo/src/ksp.rs
#     names a `HashSet<NodeId>` (bans inside a search are marks on the
#     scratch, not hash sets);
#   * non-test crates/ctrl/src constructs a `RouteCache` (a restorer with
#     no shared cache reads the graph's detour memo; no private
#     orchestrator or service cache), or non-test crates/topo/src outside
#     cache.rs constructs one anywhere but once, in `ConduitView::new`
#     (the detour memo lives and dies with the conduit view);
#   * non-test crates/ctrl/src/controller.rs scans a MUX's ports
#     (`(0..MUX_PORTS)`) or calls `alloc_port(` anywhere but once, in
#     `claim_lightpath`: which port a lightpath was given is read off the
#     ledger, and only a lightpath entering the ledger claims one;
#   * crates/solver/src/simplex.rs resets working bounds by copying the
#     instance's arrays (`copy_from_slice(&self.inst.lo`; `set_bounds`
#     restores the columns it moved), or non-test
#     crates/solver/src/branch_bound.rs calls `merge_bounds(` anywhere but
#     once, in `process_node` (a popped node merges its deltas once; a
#     dive step tightens the one column it branched on);
#   * non-test crates/solver/src/simplex.rs + factor.rs, counted together,
#     grow past LP_CORE_LINES (the LP core's line ratchet: lower it in the
#     change that shrinks them, and pay for new code with compacted code);
#   * `Placement::place` or `place_protected` calls the stateless
#     `allocate_route(` (a multiset goes on a route as runs over
#     fit-starts bitmaps kept current; only restoration, which tries a
#     different width per attempt, and the test oracle place channel by
#     channel), `fn fit_starts` is defined anywhere but once, in
#     crates/optical/src/spectrum.rs (one definition of a fit-start), or
#     non-test crates/topo/src/cache.rs sorts a ban set more than once
#     (a fetch canonicalizes its ban set once, whatever it fetches);
#   * `fn better_than` is defined in non-test code anywhere but once, in
#     crates/core/src/planning/format_dp.rs (one format DP, whoever asks),
#     or `Route::realize` copies its nodes (`nodes.clone()` /
#     `nodes.to_vec()`) instead of sharing them (`Arc::clone`);
#   * non-test crates/core/src calls `k_shortest_paths_scratch(` or
#     constructs a `DijkstraScratch` other than once each (in
#     `opt::candidate_paths`, the one exact path source), calls
#     `k_shortest_routes_scratch(` at all (heuristic routes come off a
#     `RouteCache`), or calls `check_extra_spares(` other than once (in
#     `FailureScenario::assess`, the one failure ledger);
#   * crates/core/src defines `attach_exact`, `restore_after_cuts` or a
#     public `ensure_restoration_columns`, or `EngineConfig` grows back a
#     `solve` / `protection` field (capabilities only their own tests
#     reached);
#   * surface only its own tests reached comes back: the gauge bridges
#     `record_route_cache` / `record_availability_surface` /
#     `record_shard_plan` / `Obs::record_pool`, the one-shot
#     `solve_lp` / `solve_lp_with_stats` / `Model::solve_with`,
#     `NewColumn` or an `IncrementalSolver` method that forwards to the
#     `Model` method of the same name (mutate through `model_mut`), the
#     `SpectrumMask::first_fit` / `first_fit_joint*` wrappers, a
#     `spectrum` field on `Plan` / `ProtectedPlan`, a `max_rounds` knob or
#     the `solver_stats` binary;
#   * a second instance parameter set comes back (`TBackboneConfig`,
#     `ArrowDemandConfig`, the `ScaleParams::to_*` converters or their
#     field names: every generator takes `ScaleParams`), or an option only
#     one value reached (`SolveOptions::int_tol`,
#     `ServiceConfig::drift_cut_db`, the detector's threshold fields,
#     `Obs::with_clock_and_capacity`) — each is a constant now, and
#     `FiberCutDetector` stays a unit struct;
#   * an item only its own tests reached comes back: `extra_spares`, a
#     public `dual_priced_extra_spares`, `probabilistic_scenarios`,
#     `cernet_optical` / `nsfnet_optical`, the Shannon / dB helpers of
#     `optical::modulation`, `q_inverse`, `StandardDeviceModel` /
#     `LogicComponent`;
#   * non-test crates/core/src/planning/colgen.rs keeps a spectrum bitmap
#     of its own: the seed tracks admitted columns in one `SpectrumState`;
#   * non-test crates/core/src/planning/shard.rs renumbers anything
#     (`subgraph(`, `lift_wavelengths(`, `Graph::new()`: every shard plans
#     on the full graph under its ban set), or a second way to pick a
#     shard's solver comes back (`ShardSolver::ColGen`, `core_solver` /
#     `region_solver`, `Partition::core_nodes`);
#   * a second wire form of a device configuration comes back: the
#     `ConfigDocument` JSON codec (`to_wire` / `from_wire`), the journal
#     queries nothing asked (`config_at`, `changed_between`), or any
#     `impl ToJson` / `impl FromJson` in non-test crates/optical/src or
#     crates/ctrl/src (the replay tests compare `ServiceState` with `==`)
#     — a configuration's wire form is its vendor dialect,
#     `vendor::encode`;
#   * `core::observe` comes back: its one gauge snapshot,
#     `record_opt_model`, lives in its one caller, the `trace_report`
#     binary;
#   * a fault vocabulary no control loop reads comes back:
#     crates/ctrl/src/ha.rs (`ControllerCluster`, its heartbeat and
#     `HEARTBEAT_TOLERANCE`), the `ClusterFaultSchedule` that scripted
#     it, or `PhysicalFault` / `physical_scenario` — a cut is a
#     `FailureScenario` or a `ChurnEvent`, amplifier degradation a
#     `TelemetryDrift`;
#   * a second record of intent comes back: crates/ctrl/src/journal.rs
#     (`ConfigJournal`, `JournalEntry`), `roll_forward` or a device's
#     `last_revision` — what the device plane should hold is the
#     controller's lightpath ledger, and a restarted device is healed by
#     `reconcile` from it;
#   * an environment-selected instance tier comes back (`ScaleTier`,
#     `tbackbone_instance_at`, `FLEXWAN_SCALE`): the primary instance is
#     `ScaleParams::tbackbone()`;
#   * control-plane state no loop sends or replays comes back: an
#     amplifier device kind, hardware or config (`Amplifier` anywhere in
#     crates/ctrl/src, its `"gain"` dialect op), `ServiceState`'s
#     `canonical_json`, `ChurnService::slo_json`, a `TickRecord` beside
#     the journaled `TickReport`, or the injector's crash mirror
#     (`crashed_pending`, `device_restarted`: a crashed session answers
#     `Unreachable` before it asks the injector);
#   * a send builds a JSON tree again: non-test
#     crates/ctrl/src/{vendor,netconf,controller}.rs names
#     `flexwan_util::json` or `json!(` (a dialect document is a typed
#     `vendor::Native` record, and the send path allocates nothing for it);
#   * a public helper only its own tests called comes back to its
#     owner's file (`TransponderFormat::explicit`, `slot_gammas`,
#     `multiset_cost`, `is_fully_protected`, `free_pixels`,
#     `largest_free_run`, `total_ghz`, `group_name`, `row_activity`,
#     `total_fiber_km`).
#
# Usage: scripts/check_surface.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

LP_CORE_LINES=1352

bad=0

# Non-test part of a source file: everything above its first top-level
# `#[cfg(test)]`.
non_test_of() { awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1"; }
non_test() { non_test_of "crates/topo/src/$1"; }

siblings=$(find crates/*/src src -name '*.rs' | sort | while read -r f; do
    non_test_of "$f" | grep -nE 'fn [a-z0-9_]+_(cached|banned|observed|with_routes)\b' |
        grep -vE 'fn (plan|restore)_cached\b' | sed "s|^|$f:|" || true
done)
if [ -n "$siblings" ]; then
    echo "sibling entry points (use PlanCtx / an \`Option<&Obs>\` argument):"
    echo "$siblings"
    bad=1
fi

rescans=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
    non_test_of "$f" | grep -n '\bassess_plan\b' | sed "s|^|$f:|" || true
done)
if [ -n "$rescans" ]; then
    echo "crates/core/src: assess_plan stays deleted (a cut reads the plan's standing Footprint):"
    echo "$rescans"
    bad=1
fi
reviver=$(non_test_of crates/core/src/restore/heuristic.rs |
    awk '/^pub\(crate\) fn revive\(/{on=1} on{print} on&&/^}/{on=0}')
if [ -z "$reviver" ] || echo "$reviver" | grep -nE 'SpectrumState|Footprint::new\('; then
    echo "crates/core/src/restore/heuristic.rs: revive restores against the footprint it is handed, it builds no spectrum of its own"
    bad=1
fi

for f in plan_cached restore_cached; do
    file=$(grep -rlE "pub fn $f\b" --include='*.rs' crates/core/src || true)
    if [ "$(echo "$file" | grep -c .)" -ne 1 ] ||
        ! grep -B1 -E "pub fn $f\b" "$file" | grep -q '#\[doc(hidden)\]'; then
        echo "$f must be defined exactly once, as a #[doc(hidden)] forward"
        bad=1
    fi
done

callers=$(grep -rnE '\b(plan|restore)_cached\(' --include='*.rs' \
    crates src tests examples | grep -vE 'pub fn (plan|restore)_cached\(' || true)
if [ -n "$callers" ]; then
    echo "callers of the hidden forwards (use PlanCtx::sharing):"
    echo "$callers"
    bad=1
fi

literals=$(grep -rlPz 'SolveOptions\s*\{[^}]*\bthreads\b' --include='*.rs' \
    crates src tests examples | grep -vx 'crates/solver/src/model.rs' || true)
if [ -n "$literals" ]; then
    echo "SolveOptions literals naming the ignored \`threads\` field:"
    echo "$literals"
    bad=1
fi

reads=$(grep -rnE '\b(opts|options|solve)\.threads\b' --include='*.rs' \
    crates src tests examples || true)
if [ -n "$reads" ]; then
    echo "reads of SolveOptions::threads (branch & bound ignores it):"
    echo "$reads"
    bad=1
fi

builder=$(non_test route.rs | awk '/^impl ConduitView /{on=1} on{print} /^}/{on=0}')
if [ "$(non_test route.rs | grep -c 'Graph::new()')" -ne 1 ] ||
    [ "$(echo "$builder" | grep -c 'Graph::new()')" -ne 1 ]; then
    echo "crates/topo/src/route.rs must construct a Graph exactly once, in impl ConduitView:"
    non_test route.rs | grep -n 'Graph::new()' || true
    bad=1
fi

if non_test ksp.rs | grep -n 'HashSet<NodeId>'; then
    echo "crates/topo/src/ksp.rs: node bans are marks on DijkstraScratch, not a HashSet<NodeId>"
    bad=1
fi

new_cache='RouteCache::(new|default)\b'
ctrl_caches=$(find crates/ctrl/src -name '*.rs' | sort | while read -r f; do
    non_test_of "$f" | grep -nE "$new_cache" | sed "s|^|$f:|" || true
done)
if [ -n "$ctrl_caches" ]; then
    echo "crates/ctrl/src: no RouteCache of its own (restore reads the graph's detour memo):"
    echo "$ctrl_caches"
    bad=1
fi
topo_caches=$(find crates/topo/src -name '*.rs' ! -name cache.rs | sort | while read -r f; do
    non_test_of "$f" | grep -nE "$new_cache" | sed "s|^|$f:|" || true
done)
memo_builder=$(non_test route.rs | awk '/^impl ConduitView /{on=1} on&&/^    pub\(crate\) fn new\(/{fn=1} fn{print} fn&&/^    }/{fn=0}')
if [ "$(echo "$topo_caches" | grep -c .)" -ne 1 ] ||
    [ "$(echo "$memo_builder" | grep -cE "$new_cache")" -ne 1 ]; then
    echo "crates/topo/src: the detour memo is the one RouteCache topo builds, in ConduitView::new:"
    echo "$topo_caches"
    bad=1
fi

controller=crates/ctrl/src/controller.rs
if non_test_of $controller | grep -n '(0\.\.MUX_PORTS)'; then
    echo "$controller: no port scans — a lightpath's ports are on the ledger"
    bad=1
fi
claimer=$(non_test_of $controller | awk '/^    fn claim_lightpath\(/{on=1} on{print} /^    }/{on=0}')
if [ "$(non_test_of $controller | grep -c '\.alloc_port(')" -ne 1 ] ||
    [ "$(echo "$claimer" | grep -c '\.alloc_port(')" -ne 1 ]; then
    echo "$controller: alloc_port must have exactly one caller, claim_lightpath:"
    non_test_of $controller | grep -n '\.alloc_port(' || true
    bad=1
fi

if grep -n 'copy_from_slice(&self\.inst\.lo' crates/solver/src/simplex.rs; then
    echo "crates/solver/src/simplex.rs: set_bounds restores what moved, it does not re-copy the bounds"
    bad=1
fi
lp_core=$(for f in crates/solver/src/simplex.rs crates/solver/src/factor.rs; do
    non_test_of "$f"
done | wc -l)
if [ "$lp_core" -gt "$LP_CORE_LINES" ]; then
    echo "crates/solver/src/{simplex,factor}.rs: $lp_core non-test lines, above the ratchet of $LP_CORE_LINES"
    bad=1
fi
bnb=crates/solver/src/branch_bound.rs
merges=$(non_test_of $bnb | grep -v 'fn merge_bounds(' | grep -c 'merge_bounds(' || true)
in_node=$(non_test_of $bnb | awk '/^fn process_node\(/{on=1} on{print} /^}/{on=0}' |
    grep -c 'merge_bounds(' || true)
if [ "$merges" -ne 1 ] || [ "$in_node" -ne 1 ]; then
    echo "$bnb: merge_bounds must be called exactly once, in process_node:"
    non_test_of $bnb | grep -n 'merge_bounds(' || true
    bad=1
fi

planning=crates/core/src/planning/heuristic.rs
for f in $planning crates/core/src/protect.rs; do
    if non_test_of $f | grep -n 'allocate_route('; then
        echo "$f: a multiset is placed as runs (Placement::place), not by allocate_route per channel"
        bad=1
    fi
done
starts=$(grep -rn 'fn fit_starts\b' --include='*.rs' crates src || true)
if [ "$(echo "$starts" | grep -c .)" -ne 1 ] ||
    ! echo "$starts" | grep -q '^crates/optical/src/spectrum.rs:'; then
    echo "fn fit_starts must be defined exactly once, in crates/optical/src/spectrum.rs:"
    echo "$starts"
    bad=1
fi
if [ "$(non_test cache.rs | grep -c 'sort_unstable')" -ne 1 ]; then
    echo "crates/topo/src/cache.rs: a ban set is put in order once, in fetch:"
    non_test cache.rs | grep -n 'sort_unstable' || true
    bad=1
fi

betters=$(grep -rlE 'fn better_than\b' --include='*.rs' crates | while read -r f; do
    non_test_of "$f" | grep -nE 'fn better_than\b' | sed "s|^|$f:|" || true
done)
if [ "$(echo "$betters" | grep -c .)" -ne 1 ] ||
    ! echo "$betters" | grep -q '^crates/core/src/planning/format_dp.rs:'; then
    echo "fn better_than must be defined exactly once outside tests, in crates/core/src/planning/format_dp.rs:"
    echo "$betters"
    bad=1
fi
realize=$(non_test route.rs | awk '/^    pub fn realize\(/{on=1} on{print} /^    }/{on=0}')
if echo "$realize" | grep -nE 'nodes\.(clone|to_vec)\(\)' ||
    ! echo "$realize" | grep -q 'Arc::clone(&self\.nodes)'; then
    echo "crates/topo/src/route.rs: realize shares the route's nodes (Arc::clone), it does not copy them"
    bad=1
fi

optical=crates/optical/src/spectrum.rs
kept_fit=$(non_test_of $optical | awk '/^    pub fn first_fit\(&mut self/{on=1} on{print} /^    }/{on=0}')
if [ -z "$kept_fit" ] || echo "$kept_fit" | grep -n 'fill(!0)'; then
    echo "$optical: FitStarts::first_fit reads the accumulator take keeps current, it does not rebuild it"
    bad=1
fi
shard=crates/core/src/planning/shard.rs
if non_test_of $shard | grep -nE 'subgraph\(|lift_wavelengths\(|Graph::new\(\)'; then
    echo "$shard: renumbers nothing; every shard plans on the full graph under its ban set"
    bad=1
fi

core_non_test() {
    find crates/core/src -name '*.rs' | sort | while read -r f; do
        non_test_of "$f" | sed "s|^|$f: |"
    done
}
# expect_calls NAME COUNT FILE: non-test core calls NAME( COUNT times,
# all of them in FILE.
expect_calls() {
    local calls
    calls=$(core_non_test | grep -v "fn $1(" | grep "$1(" || true)
    if [ "$(echo "$calls" | grep -c .)" -ne "$2" ] ||
        echo "$calls" | grep -v "^crates/core/src/$3:" | grep -q .; then
        echo "crates/core/src: $1( must be called $2 time(s), in $3:"
        echo "$calls"
        bad=1
    fi
}
expect_calls k_shortest_paths_scratch 1 opt.rs
expect_calls 'DijkstraScratch::new' 1 opt.rs
expect_calls k_shortest_routes_scratch 0 opt.rs
expect_calls check_extra_spares 1 scenario.rs
removed=$(core_non_test | grep -E 'fn (attach_exact|restore_after_cuts)\b|pub fn ensure_restoration_columns\b' || true)
engine=$(non_test_of crates/core/src/scenario.rs | awk '/^pub struct EngineConfig/{on=1} on{print} /^}/{on=0}')
if [ -n "$removed" ] || echo "$engine" | grep -qE '^\s*pub (solve|protection):'; then
    echo "crates/core/src: the engine's exact rung and protection switch, restore_after_cuts and a public ensure_restoration_columns stay deleted:"
    echo "$removed"
    bad=1
fi

# gone MESSAGE PATTERN [PATH...]: nothing under PATHs (default crates/,
# src/, tests/ and examples/) matches PATTERN (extended regex).
gone() {
    local msg=$1 pat=$2 hits
    shift 2
    [ $# -gt 0 ] || set -- crates src tests examples
    hits=$(grep -rnE "$pat" --include='*.rs' "$@" || true)
    if [ -n "$hits" ]; then
        echo "$msg stays deleted:"
        echo "$hits"
        bad=1
    fi
}
gone "gauge bridges only their own tests called" \
    'fn (record_route_cache|record_availability_surface|record_shard_plan|record_pool)\b'
gone "one-shot solves beside Model::solve / solve_with_stats / solve_lp_with_duals" \
    'fn solve_lp\(|\bsolve_lp_with_stats\b|fn solve_with\('
gone "IncrementalSolver's batch column type" 'struct NewColumn\b'
gone "the coordination-round knob (a constant in shard.rs)" '\bmax_rounds\b'
gone "a second shard confinement (one solver option; every shard plans under a ban set)" \
    'ShardSolver::ColGen\b|\b(core_solver|region_solver|core_nodes)\b'
forwards=$(non_test_of crates/solver/src/incremental.rs | awk '
    /^impl IncrementalSolver \{/ { on = 1 }
    on && /^    (pub )?fn / {
        match($0, /fn [a-z0-9_]+/)
        name = substr($0, RSTART + 3, RLENGTH - 3)
        base = name
        sub(/s$/, "", base)
    }
    on && name != "" && (index($0, "self.model." name "(") || index($0, "self.model." base "(")) {
        print name ": " $0
    }
    on && /^}/ { on = 0 }')
if [ -n "$forwards" ]; then
    echo "crates/solver/src/incremental.rs: IncrementalSolver forwards to Model (mutate through model_mut):"
    echo "$forwards"
    bad=1
fi
if grep -n 'fn first_fit_joint' $optical ||
    [ "$(non_test_of $optical | grep -c 'fn first_fit(')" -ne 1 ]; then
    echo "$optical: one first fit over masks (first_fit_any_of_each) and FitStarts::first_fit, no wrappers:"
    non_test_of $optical | grep -n 'fn first_fit(' || true
    bad=1
fi
while read -r ty file; do
    if non_test_of "$file" | awk -v ty="$ty" '$0 ~ "^pub struct " ty " [{]" {on=1} on{print} /^}/{on=0}' |
        grep -n 'pub spectrum:'; then
        echo "$file: $ty holds what was decided; its spectrum is a function of the wavelengths"
        bad=1
    fi
done <<'EOF'
Plan crates/core/src/planning/heuristic.rs
ProtectedPlan crates/core/src/protect.rs
EOF
if [ -e crates/bench/src/bin/solver_stats.rs ]; then
    echo "crates/bench/src/bin/solver_stats.rs stays deleted (trace_report and benchmark report SolverStats)"
    bad=1
fi

gone "a second instance parameter set (every generator takes ScaleParams)" \
    '\b(TBackboneConfig|ArrowDemandConfig|to_tbackbone|to_arrow|nodes_per_region|longhaul_fiber_pairs|min_gbps|max_gbps)\b'
gone "options one value reached (constants now)" \
    '\b(int_tol|drift_cut_db|drop_threshold_db|floor_dbm|with_clock_and_capacity)\b'
if ! grep -qx 'pub struct FiberCutDetector;' crates/ctrl/src/datastream.rs; then
    echo "crates/ctrl/src/datastream.rs: FiberCutDetector stays a unit struct (its thresholds are constants)"
    bad=1
fi
gone "public items only their own tests reached" \
    'fn (extra_spares|probabilistic_scenarios|cernet_optical|nsfnet_optical|shannon_capacity_gbps|shannon_required_snr|to_db|from_db|q_inverse)\b|pub fn dual_priced_extra_spares\b|\b(StandardDeviceModel|LogicComponent)\b'
colgen=crates/core/src/planning/colgen.rs
if non_test_of $colgen | grep -nE 'let mut occ\b|let (free|mark) = |\* words\b' ||
    [ "$(non_test_of $colgen | grep -c 'SpectrumState::new(')" -ne 1 ]; then
    echo "$colgen: the seed's occupancy is one SpectrumState, not a private bitmap"
    bad=1
fi

gone "a second wire form of a device configuration (the vendor dialect is the wire)" \
    '\b(ConfigDocument|to_wire|from_wire|config_at|changed_between)\b'
codecs=$(find crates/optical/src crates/ctrl/src -name '*.rs' | sort | while read -r f; do
    non_test_of "$f" | grep -nE 'impl (ToJson|FromJson) for' | sed "s|^|$f:|" || true
done)
if [ -n "$codecs" ]; then
    echo "crates/{optical,ctrl}/src: no JSON codec (a configuration's wire form is its vendor dialect):"
    echo "$codecs"
    bad=1
fi
if [ -e crates/core/src/observe.rs ] || [ -e crates/core/src/observe ] ||
    grep -nE '\bmod observe\b' crates/core/src/lib.rs; then
    echo "crates/core/src: core::observe stays deleted (record_opt_model lives in trace_report)"
    bad=1
fi
gone "core::observe (record_opt_model lives in its one caller, trace_report)" \
    '\b(flexwan_core|core)::(observe|record_opt_model)\b'

if [ -e crates/ctrl/src/ha.rs ]; then
    echo "crates/ctrl/src/ha.rs stays deleted (no control loop reads a replicated revision counter)"
    bad=1
fi
gone "fault vocabularies no control loop reads (cluster schedule, physical faults)" \
    '\b(ControllerCluster|ClusterFaultSchedule|heartbeat_round|HEARTBEAT_TOLERANCE|PhysicalFault|physical_scenario)'

if [ -e crates/ctrl/src/journal.rs ]; then
    echo "crates/ctrl/src/journal.rs stays deleted (the lightpath ledger is the one record of intent)"
    bad=1
fi
gone "a second record of intent (the lightpath ledger heals a device)" \
    '\b(ConfigJournal|JournalEntry|roll_forward|last_revision)\b'
gone "an environment-selected instance tier (the primary instance is ScaleParams::tbackbone)" \
    '\b(ScaleTier|tbackbone_instance_at|FLEXWAN_SCALE)\b'
gone "control-plane state no loop sends or replays" \
    '\b(TickRecord|AmplifierGain|canonical_json|slo_json|crashed_pending|device_restarted)\b'
gone "an amplifier device in the control plane (it registers MUXes, ROADMs and transponders)" \
    '\bAmplifier\b|"op": "gain"|"gain" =>' crates/ctrl/src
wire_json=$(for f in crates/ctrl/src/vendor.rs crates/ctrl/src/netconf.rs crates/ctrl/src/controller.rs; do
    non_test_of "$f" | grep -nE 'flexwan_util::json|json!\(' | sed "s|^|$f:|" || true
done)
if [ -n "$wire_json" ]; then
    echo "crates/ctrl/src: a send builds no JSON tree (a dialect document is a typed vendor::Native):"
    echo "$wire_json"
    bad=1
fi
gone "public helpers only their own tests called (in their owners' files)" \
    'fn (explicit|slot_gammas|multiset_cost|is_fully_protected|free_pixels|largest_free_run|total_ghz|group_name|row_activity|total_fiber_km)\b' \
    crates/optical/src/format.rs crates/optical/src/spectrum.rs crates/core/src/opt.rs \
    crates/core/src/planning/format_dp.rs crates/core/src/protect.rs \
    crates/solver/src/model.rs crates/topo/src/graph.rs

[ "$bad" -eq 0 ] && echo "planning surface ok"
exit "$bad"
