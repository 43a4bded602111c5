//! Memoized candidate-route enumeration.
//!
//! Candidate routes depend only on the optical graph, the endpoints, `k`
//! and the banned-fiber set — **not** on the scheme being planned or the
//! demand scale. The evaluation sweeps (3 schemes × N scales × the
//! conduit-cut scenario set) therefore re-ran Yen's algorithm on
//! identical inputs dozens of times. A [`RouteCache`] computes each
//! distinct `(src, dst, k, banned)` query once and hands out shared
//! [`Arc`]s afterwards.
//!
//! The cache is thread-safe and deterministic: `k_shortest_routes` is a
//! pure function of the key, so whichever thread computes a missing entry
//! first, every reader sees the same routes. Under a concurrent miss the
//! same key may be computed twice; the first insertion wins and the
//! duplicate is dropped — wasted work, never wrong answers.
//!
//! One cache serves **one** graph: the key does not identify the graph,
//! so callers must not share a cache across different topologies (or
//! across mutations of one topology). The planners hold the cache only
//! for the duration of a sweep over a fixed backbone. The one cache a
//! graph owns — its [detour memo](Graph::detours), built with the
//! conduit view and dropped with it on every append — is one cache, one
//! graph by construction.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::graph::{EdgeId, Graph, NodeId};
use crate::ksp::DijkstraScratch;
use crate::route::{k_shortest_routes_scratch, Route};

/// The pairs asked for under one ban set: `(src, dst, k)` → routes. Ordered,
/// not hashed: with the ban set hashed one level up, a few comparisons of
/// three integers find a pair for less than a second SipHash would.
type Pairs = BTreeMap<(NodeId, NodeId, usize), Arc<Vec<Route>>>;

/// Thread-safe memoization of [`k_shortest_routes`] for one graph.
///
/// [`k_shortest_routes`]: crate::route::k_shortest_routes
#[derive(Debug, Default)]
pub struct RouteCache {
    /// Keyed by the banned fibers in canonical (sorted) order, then by
    /// pair: a caller with many pairs under one ban set — a plan, a
    /// restoration — canonicalizes and hashes the set once.
    map: Mutex<HashMap<Vec<EdgeId>, Pairs>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RouteCache {
    /// An empty cache.
    pub fn new() -> RouteCache {
        RouteCache::default()
    }

    /// The `k` shortest node-distinct routes from `src` to `dst` avoiding
    /// `banned`, computed on first use and shared afterwards. Identical
    /// to calling [`k_shortest_routes`] directly, minus the recompute.
    ///
    /// [`k_shortest_routes`]: crate::route::k_shortest_routes
    pub fn routes(
        &self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        banned: &HashSet<EdgeId>,
    ) -> Arc<Vec<Route>> {
        let mut one = [None];
        self.fetch(graph, &[(src, dst)], k, banned, &mut one);
        let [routes] = one;
        routes.expect("fetch fills every slot")
    }

    /// [`routes`](Self::routes) for every pair of `pairs`, in order, in
    /// one lookup: the very lists, hits and misses that many single calls
    /// would return and count, with the ban set put in order once and the
    /// lock taken once for all hits.
    pub fn routes_batch(
        &self,
        graph: &Graph,
        pairs: &[(NodeId, NodeId)],
        k: usize,
        banned: &HashSet<EdgeId>,
    ) -> Vec<Arc<Vec<Route>>> {
        let mut out = vec![None; pairs.len()];
        self.fetch(graph, pairs, k, banned, &mut out);
        let filled = out.into_iter();
        filled.map(|r| r.expect("fetch fills every slot")).collect()
    }

    /// Fills `out[i]` with the routes of `pairs[i]`.
    fn fetch(
        &self,
        graph: &Graph,
        pairs: &[(NodeId, NodeId)],
        k: usize,
        banned: &HashSet<EdgeId>,
        out: &mut [Option<Arc<Vec<Route>>>],
    ) {
        let mut sorted: Vec<EdgeId> = banned.iter().copied().collect();
        sorted.sort_unstable();
        self.lookup(&sorted, pairs, k, out);
        // The warm path returns here: setting up the miss path is a
        // measurable part of a 50 ns hit.
        if out.iter().all(Option::is_some) {
            self.hits.fetch_add(pairs.len() as u64, Ordering::Relaxed);
            return;
        }
        let fresh = compute(graph, pairs, k, banned, out);
        self.hits
            .fetch_add((pairs.len() - fresh.len()) as u64, Ordering::Relaxed);
        self.misses.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        self.publish(sorted, pairs, k, &fresh, out);
    }

    /// Fills the slots of the pairs already cached under `sorted`, under
    /// one lock.
    fn lookup(
        &self,
        sorted: &[EdgeId],
        pairs: &[(NodeId, NodeId)],
        k: usize,
        out: &mut [Option<Arc<Vec<Route>>>],
    ) {
        if let Some(known) = self.map.lock().unwrap().get(sorted) {
            for (slot, &(src, dst)) in out.iter_mut().zip(pairs) {
                *slot = known.get(&(src, dst, k)).cloned();
            }
        }
    }

    /// Fills the remaining slots: with what another thread inserted since
    /// [`lookup`](Self::lookup) where one did — the first insert wins —
    /// else with the list from `fresh`, which enters the cache.
    fn publish(
        &self,
        sorted: Vec<EdgeId>,
        pairs: &[(NodeId, NodeId)],
        k: usize,
        fresh: &Pairs,
        out: &mut [Option<Arc<Vec<Route>>>],
    ) {
        let mut map = self.map.lock().unwrap();
        let known = map.entry(sorted).or_default();
        for (slot, &(src, dst)) in out.iter_mut().zip(pairs) {
            if slot.is_none() {
                let key = (src, dst, k);
                let winner = known.entry(key).or_insert_with(|| Arc::clone(&fresh[&key]));
                *slot = Some(Arc::clone(winner));
            }
        }
    }

    /// Queries answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that ran Yen's algorithm (including concurrent duplicates
    /// whose result was then discarded in favour of the first insert).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct keys currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().values().map(Pairs::len).sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and zeroes the hit/miss counters — required
    /// before reusing a cache after the underlying graph changed.
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Yen's algorithm for every pair whose slot is empty, each distinct pair
/// once (a pair asked for twice in one batch hits the second time, as it
/// would call by call). Takes no cache: a slow run must not serialize
/// every other thread's hits, so it cannot hold the lock. Concurrent
/// misses on one key duplicate the (deterministic) work.
fn compute(
    graph: &Graph,
    pairs: &[(NodeId, NodeId)],
    k: usize,
    banned: &HashSet<EdgeId>,
    out: &[Option<Arc<Vec<Route>>>],
) -> Pairs {
    let mut fresh = Pairs::new();
    let mut scratch = DijkstraScratch::new();
    for (slot, &(src, dst)) in out.iter().zip(pairs) {
        if slot.is_none() {
            fresh.entry((src, dst, k)).or_insert_with(|| {
                let routes = k_shortest_routes_scratch(graph, src, dst, k, banned, &mut scratch);
                Arc::new(routes)
            });
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::k_shortest_routes;

    /// a ==2 fibers== b ==2 fibers== c, plus a direct long a–c fiber.
    fn plant() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 50); // e0
        g.add_edge(a, b, 52); // e1
        g.add_edge(b, c, 60); // e2
        g.add_edge(b, c, 62); // e3
        g.add_edge(a, c, 400); // e4
        (g, [a, b, c])
    }

    #[test]
    fn cached_equals_direct_and_counts_hits() {
        let (g, [a, _, c]) = plant();
        let cache = RouteCache::new();
        let none = HashSet::new();
        let first = cache.routes(&g, a, c, 5, &none);
        assert_eq!(*first, k_shortest_routes(&g, a, c, 5, &none));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.routes(&g, a, c, 5, &none);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the entry");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_banned_sets_are_distinct_entries() {
        // The poisoning hazard: a cut-fiber query must never return the
        // uncut route set (or vice versa).
        let (g, [a, _, c]) = plant();
        let cache = RouteCache::new();
        let none = HashSet::new();
        let uncut = cache.routes(&g, a, c, 5, &none);
        let cut: HashSet<_> = [EdgeId(0), EdgeId(1)].into_iter().collect();
        let after = cache.routes(&g, a, c, 5, &cut);
        assert_eq!(cache.misses(), 2, "different ban sets must both miss");
        assert_ne!(*uncut, *after);
        for route in after.iter() {
            assert!(!route.may_use(EdgeId(0)) && !route.may_use(EdgeId(1)));
        }
        assert_eq!(*after, k_shortest_routes(&g, a, c, 5, &cut));
        // Re-querying the uncut set still returns the uncut entry.
        assert_eq!(*cache.routes(&g, a, c, 5, &none), *uncut);
    }

    #[test]
    fn ban_set_key_is_order_canonical() {
        let (g, [a, _, c]) = plant();
        let cache = RouteCache::new();
        // HashSet iteration order differs between these two constructions;
        // the sorted key must collapse them onto one entry.
        let fwd: HashSet<_> = [EdgeId(0), EdgeId(2)].into_iter().collect();
        let rev: HashSet<_> = [EdgeId(2), EdgeId(0)].into_iter().collect();
        let x = cache.routes(&g, a, c, 5, &fwd);
        let y = cache.routes(&g, a, c, 5, &rev);
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        for set in [&fwd, &rev] {
            let batch = cache.routes_batch(&g, &[(a, c)], 5, set);
            assert!(Arc::ptr_eq(&x, &batch[0]));
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 1, 1));
    }

    /// Every query of a small sweep — uncut and two cut sets, two depths,
    /// a pair asked for twice — made call by call on one cache and as
    /// batches on another: the same lists, the same counters after every
    /// step, and on one cache the very same `Arc`s.
    #[test]
    fn a_batch_is_its_single_calls() {
        let (g, [a, b, c]) = plant();
        let bans: [HashSet<EdgeId>; 3] = [
            HashSet::new(),
            [EdgeId(0), EdgeId(1)].into_iter().collect(),
            [EdgeId(4)].into_iter().collect(),
        ];
        let pairs = [(a, c), (a, b), (c, a), (a, c), (b, c)];
        let (singly, batched) = (RouteCache::new(), RouteCache::new());
        let counts = |c: &RouteCache| (c.hits(), c.misses(), c.len());
        // Cold, then warm, then a deeper k under the same ban sets.
        for k in [3, 3, 5] {
            for banned in &bans {
                let one_by_one: Vec<_> = pairs
                    .iter()
                    .map(|&(s, d)| singly.routes(&g, s, d, k, banned))
                    .collect();
                let batch = batched.routes_batch(&g, &pairs, k, banned);
                assert_eq!(batch, one_by_one);
                assert_eq!(counts(&batched), counts(&singly));
                assert!(Arc::ptr_eq(&batch[0], &batch[3]), "one pair, one list");
                for (&(s, d), from_batch) in pairs.iter().zip(&batch) {
                    assert!(Arc::ptr_eq(
                        from_batch,
                        &batched.routes(&g, s, d, k, banned)
                    ));
                    let _ = singly.routes(&g, s, d, k, banned);
                }
            }
        }
        // 9 steps of 5 + 5 queries; 3 ban sets x 2 depths x 4 pairs miss.
        assert_eq!(counts(&batched), (90 - 24, 24, 24));
        assert_eq!(batched.routes_batch(&g, &[], 3, &bans[0]), vec![]);
        assert_eq!(counts(&batched), counts(&singly));
    }

    /// The miss path in its three steps, with the race played by hand: a
    /// batch looks up (all cold), computes without the cache, and before
    /// it publishes another caller inserts one of its pairs. The batch
    /// returns that caller's list for the pair — the first insert wins,
    /// its own duplicate is dropped and still counts as a miss — and
    /// inserts the rest.
    #[test]
    fn a_concurrent_duplicate_loses_to_the_first_insert() {
        let (g, [a, b, c]) = plant();
        let cache = RouteCache::new();
        let none = HashSet::new();
        let pairs = [(a, c), (a, b)];
        let mut out = [None, None];
        cache.lookup(&[], &pairs, 5, &mut out);
        assert_eq!(out, [None, None]);
        let fresh = compute(&g, &pairs, 5, &none, &out);
        assert_eq!(
            (fresh.len(), cache.len()),
            (2, 0),
            "computed, not yet cached"
        );
        let first = cache.routes(&g, a, c, 5, &none);
        cache.publish(Vec::new(), &pairs, 5, &fresh, &mut out);
        let [ac, ab] = out.map(Option::unwrap);
        assert!(Arc::ptr_eq(&ac, &first));
        assert!(!Arc::ptr_eq(&ac, &fresh[&(a, c, 5)]));
        assert_eq!(*ac, *fresh[&(a, c, 5)], "the work is deterministic");
        assert!(Arc::ptr_eq(&ab, &fresh[&(a, b, 5)]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_k_and_endpoints_are_distinct_entries() {
        let (g, [a, b, c]) = plant();
        let cache = RouteCache::new();
        let none = HashSet::new();
        let _ = cache.routes(&g, a, c, 1, &none);
        let _ = cache.routes(&g, a, c, 5, &none);
        let _ = cache.routes(&g, a, b, 5, &none);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn concurrent_readers_agree() {
        let (g, [a, _, c]) = plant();
        let cache = RouteCache::new();
        let none = HashSet::new();
        let expected = k_shortest_routes(&g, a, c, 5, &none);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (cache, g, none, expected) = (&cache, &g, &none, &expected);
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(*cache.routes(g, a, c, 5, none), *expected);
                        let batch = cache.routes_batch(g, &[(c, a), (a, c)], 5, none);
                        assert_eq!(*batch[1], *expected);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits() + cache.misses(), 600);
        assert!(cache.misses() <= 8, "{} misses", cache.misses());
    }

    #[test]
    fn clear_resets_everything() {
        let (g, [a, _, c]) = plant();
        let cache = RouteCache::new();
        let none = HashSet::new();
        let _ = cache.routes(&g, a, c, 5, &none);
        let _ = cache.routes(&g, a, c, 5, &none);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }
}
