//! Interprocedural source→sink taint propagation over a [`CallGraph`].
//!
//! FlowDroid-style in spirit, format-level in mechanics: the lattice is
//! one bit per (method, source class) — "data of this class can reach
//! this method" — and propagation is a forward worklist walk over the
//! deduplicated invocation edges, one `O(V + E)` pass per source class.
//! A *flow* is recorded whenever a tainted method performs a sink call
//! ([`SinkClass`]); the flow remembers the sink site's Java package so a
//! later join against library-detection output can attribute it to host
//! code or a bundled third-party library.
//!
//! Policy mirrors the reachability pass: the walk is rooted at the
//! entry-point-reachable methods (a [`Reachability`] computed by the
//! caller — `reach_all` when no components are declared), so dead
//! library cargo can neither originate nor receive taint. Everything is
//! deterministic: flows are returned deduplicated and sorted.

use crate::dex::DexFile;
use crate::permmap::{PermissionMap, SinkClass, SourceClass, SINK_SHIFT};
use crate::reach::{CallGraph, Reachability};
use crate::runs;

/// One discovered leak path, collapsed to its endpoints: data of
/// `source` class escapes through a `sink` call sited in `sink_package`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaintFlow {
    /// What kind of private data flows.
    pub source: SourceClass,
    /// How it leaves the app.
    pub sink: SinkClass,
    /// Dotted Java package of the class performing the sink call
    /// (`None` for default-package / malformed descriptors) — the
    /// attribution key.
    pub sink_package: Option<String>,
}

/// Counters describing one taint pass (telemetry feed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TaintStats {
    /// Reachable methods performing a source call (worklist roots,
    /// summed over source classes).
    pub source_sites: u64,
    /// Reachable methods performing a sink call (counted once).
    pub sink_sites: u64,
    /// Invocation edges traversed, summed over per-class walks.
    pub edges_traversed: u64,
    /// Methods visited, summed over per-class walks.
    pub methods_visited: u64,
}

/// The result of a taint pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaintAnalysis {
    /// Deduplicated flows, sorted by (source, sink, sink package).
    pub flows: Vec<TaintFlow>,
    /// Pass counters.
    pub stats: TaintStats,
}

/// Propagate taint over `graph`, considering only methods marked in
/// `reach` (entry-point policy is the caller's, as with reachability).
///
/// Per source class: every reachable method containing a source call of
/// that class seeds a forward walk; every visited method containing a
/// sink call records a flow. Each walk is `O(V + E)` — the per-method
/// source/sink masks are computed once, so the whole pass is
/// `O(V + E)` per source class plus one scan of the API calls.
pub(crate) fn propagate(
    dex: &DexFile,
    graph: &CallGraph<'_>,
    reach: &Reachability<'_>,
    map: &PermissionMap,
) -> TaintAnalysis {
    let n = graph.method_count();
    // Per-method class masks: bit `SourceClass::index()` / bit
    // `SinkClass::index()`, read from the map's dense per-API table.
    let mut src_mask = vec![0u8; n];
    let mut snk_mask = vec![0u8; n];
    let mut stats = TaintStats::default();
    for (flat, m) in dex.methods().enumerate() {
        if reach.reached(flat) {
            let taint = m
                .api_calls()
                .iter()
                .fold(0u8, |acc, &call| acc | map.taint_classes(call));
            src_mask[flat] = taint & ((1 << SINK_SHIFT) - 1);
            snk_mask[flat] = taint >> SINK_SHIFT;
            if snk_mask[flat] != 0 {
                stats.sink_sites += 1;
            }
        }
    }

    // Tainted sink visits as (class index, source index, sink mask); the
    // sink's package is resolved once per class after the walks.
    let mut hits: Vec<(u32, u8, u8)> = Vec::new();
    let mut tainted = vec![false; n];
    let mut work: Vec<u32> = Vec::new();
    for source in SourceClass::ALL {
        let bit = 1u8 << source.index();
        tainted.iter_mut().for_each(|t| *t = false);
        for (flat, &mask) in src_mask.iter().enumerate() {
            if mask & bit != 0 {
                stats.source_sites += 1;
                tainted[flat] = true;
                work.push(flat as u32);
            }
        }
        while let Some(flat) = work.pop() {
            stats.methods_visited += 1;
            let flat = flat as usize;
            if snk_mask[flat] != 0 {
                let class = dex.method_class(flat);
                hits.push((class as u32, source.index() as u8, snk_mask[flat]));
            }
            for &tgt in graph.targets_of(flat) {
                stats.edges_traversed += 1;
                let tgt = tgt as usize;
                // Taint only spreads through entry-point-reachable code.
                if !tainted[tgt] && reach.reached(tgt) {
                    tainted[tgt] = true;
                    work.push(tgt as u32);
                }
            }
        }
    }

    hits.sort_unstable();
    hits.dedup();
    let mut flows = Vec::new();
    for class_hits in runs(&hits, |a, b| a.0 == b.0) {
        let sink_package = dex.class(class_hits[0].0 as usize).java_package();
        for &(_, source, sinks) in class_hits {
            for sink in SinkClass::ALL {
                if sinks & (1 << sink.index()) != 0 {
                    flows.push(TaintFlow {
                        source: SourceClass::ALL[source as usize],
                        sink,
                        sink_package: sink_package.clone(),
                    });
                }
            }
        }
    }
    flows.sort_unstable();
    flows.dedup();
    TaintAnalysis { flows, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apicalls::ApiCallId;
    use crate::dex::MethodRef;

    fn map() -> PermissionMap {
        PermissionMap::standard()
    }

    fn source_api(m: &PermissionMap, class: SourceClass) -> ApiCallId {
        m.source_apis(class)[0]
    }

    fn sink_api(m: &PermissionMap, class: SinkClass) -> ApiCallId {
        m.sink_apis(class)[0]
    }

    /// Append a method with `calls` and `invokes` to the last class.
    fn method(dex: &mut DexFile, calls: &[ApiCallId], invokes: &[(u16, u16)]) {
        let invokes: Vec<MethodRef> = invokes
            .iter()
            .map(|&(class, method)| MethodRef { class, method })
            .collect();
        dex.push_method(7, calls, &invokes);
    }

    /// Main (source) → Relay → Sink.a (network send); Dead holds a sink
    /// that is never on a tainted path.
    fn leaky_dex(m: &PermissionMap) -> DexFile {
        let mut dex = DexFile::default();
        dex.push_class("Lcom/app/Main;");
        method(&mut dex, &[source_api(m, SourceClass::DeviceId)], &[(1, 0)]);
        dex.push_class("Lcom/app/Relay;");
        method(&mut dex, &[], &[(2, 0)]);
        dex.push_class("Lcom/ads/Sink;");
        method(&mut dex, &[sink_api(m, SinkClass::NetworkSend)], &[]);
        dex.push_class("Lcom/app/Dead;");
        method(&mut dex, &[sink_api(m, SinkClass::LogExfil)], &[]);
        dex
    }

    #[test]
    fn interprocedural_flow_is_found_with_sink_package() {
        let m = map();
        let dex = leaky_dex(&m);
        let graph = CallGraph::new(&dex);
        let reach = graph.reach_from_classes(["Lcom/app/Main;"]);
        let t = propagate(&dex, &graph, &reach, &m);
        assert_eq!(
            t.flows,
            vec![TaintFlow {
                source: SourceClass::DeviceId,
                sink: SinkClass::NetworkSend,
                sink_package: Some("com.ads".into()),
            }]
        );
        assert_eq!(t.stats.source_sites, 1);
        assert_eq!(t.stats.sink_sites, 1, "Dead's sink is unreachable");
    }

    #[test]
    fn unreachable_sources_and_sinks_stay_silent() {
        let m = map();
        let dex = leaky_dex(&m);
        let graph = CallGraph::new(&dex);
        // Entry at the Relay: the source above it never executes.
        let reach = graph.reach_from_classes(["Lcom/app/Relay;"]);
        let t = propagate(&dex, &graph, &reach, &m);
        assert!(t.flows.is_empty(), "{:?}", t.flows);
        assert_eq!(t.stats.source_sites, 0);
    }

    #[test]
    fn reach_all_fallback_finds_same_method_flows() {
        let m = map();
        // Source and sink in one method, no edges at all.
        let mut dex = DexFile::default();
        dex.push_class("Lcom/app/Solo;");
        method(
            &mut dex,
            &[
                source_api(&m, SourceClass::Location),
                sink_api(&m, SinkClass::LogExfil),
            ],
            &[],
        );
        let graph = CallGraph::new(&dex);
        let t = propagate(&dex, &graph, &graph.reach_all(), &m);
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.flows[0].source, SourceClass::Location);
        assert_eq!(t.flows[0].sink, SinkClass::LogExfil);
        assert_eq!(t.flows[0].sink_package.as_deref(), Some("com.app"));
    }

    #[test]
    fn taint_does_not_flow_backwards() {
        let m = map();
        // Sink → Source edge direction: no flow.
        let mut dex = DexFile::default();
        dex.push_class("La/S;");
        method(&mut dex, &[sink_api(&m, SinkClass::NetworkSend)], &[(1, 0)]);
        dex.push_class("La/T;");
        method(&mut dex, &[source_api(&m, SourceClass::Contacts)], &[]);
        let graph = CallGraph::new(&dex);
        let t = propagate(&dex, &graph, &graph.reach_all(), &m);
        assert!(t.flows.is_empty(), "{:?}", t.flows);
    }

    #[test]
    fn flows_are_sorted_and_deduplicated() {
        let m = map();
        // Two source classes, both reaching two sinks, with duplicate
        // source sites feeding the same endpoints.
        let mut dex = DexFile::default();
        dex.push_class("La/A;");
        method(
            &mut dex,
            &[source_api(&m, SourceClass::DeviceId)],
            &[(1, 0)],
        );
        method(
            &mut dex,
            &[source_api(&m, SourceClass::DeviceId)],
            &[(1, 0)],
        );
        method(&mut dex, &[source_api(&m, SourceClass::Account)], &[(1, 0)]);
        dex.push_class("Lb/B;");
        method(
            &mut dex,
            &[
                sink_api(&m, SinkClass::NetworkSend),
                sink_api(&m, SinkClass::LogExfil),
            ],
            &[],
        );
        let graph = CallGraph::new(&dex);
        let t = propagate(&dex, &graph, &graph.reach_all(), &m);
        assert_eq!(t.flows.len(), 4, "{:?}", t.flows);
        let mut sorted = t.flows.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, t.flows);
    }

    #[test]
    fn cycles_terminate() {
        let m = map();
        let mut dex = DexFile::default();
        dex.push_class("La/A;");
        method(
            &mut dex,
            &[source_api(&m, SourceClass::DeviceId)],
            &[(1, 0)],
        );
        dex.push_class("La/B;");
        method(&mut dex, &[], &[(0, 0), (1, 0)]);
        let graph = CallGraph::new(&dex);
        let t = propagate(&dex, &graph, &graph.reach_all(), &m);
        assert!(t.flows.is_empty());
        assert!(t.stats.methods_visited >= 2);
    }
}
