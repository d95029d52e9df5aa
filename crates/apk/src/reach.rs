//! Call-graph construction and worklist reachability over a [`DexFile`].
//!
//! The paper's over-privilege numbers (Section 6.3) come from PScout's
//! permission map applied to the *statically reachable* API set, not the
//! flat DEX footprint — bundled-but-unreached library code would otherwise
//! inflate every app's apparent permission usage. This module is the
//! format-level core of that pass: it indexes a DEX's invocation edges
//! over the method table's dense index space, then runs a worklist walk
//! over them starting from a set of entry classes (the manifest-declared
//! components).
//!
//! The core is deliberately free of policy: callers decide what the entry
//! set is and what "no entry points declared" means (analyses treat it as
//! "everything reachable").

use crate::dex::DexFile;

/// A call graph over one DEX file. Methods are addressed by their
/// file-wide index (the method table's order, which
/// `ClassView::method_range` maps a
/// class onto), so the worklist pass is a bit-vector walk with no hashing
/// on the hot path.
pub struct CallGraph<'a> {
    dex: &'a DexFile,
    /// CSR edge index: `targets[edge_base[m]..edge_base[m + 1]]` are the
    /// methods method `m` invokes — deduplicated (a method invoking the
    /// same target repeatedly contributes one edge) and with dangling
    /// refs dropped at build time, so edge counts never inflate.
    edge_base: Vec<u32>,
    /// Flat, deduplicated invocation targets (CSR payload).
    targets: Vec<u32>,
}

/// Counters describing one reachability pass (telemetry feed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachStats {
    /// Total methods in the DEX.
    pub methods_total: u64,
    /// Methods marked reachable (== worklist pops).
    pub methods_reached: u64,
    /// Invocation edges traversed (each edge once per source visit).
    pub edges_traversed: u64,
}

/// The result of a reachability pass: a dense reached-bit per method.
pub struct Reachability<'a> {
    dex: &'a DexFile,
    reached: Vec<bool>,
    /// Pass counters.
    pub stats: ReachStats,
}

impl<'a> CallGraph<'a> {
    /// Index the DEX's invocation edges.
    pub fn new(dex: &'a DexFile) -> CallGraph<'a> {
        // CSR edge lists: resolve each invoke to a method index, dropping
        // dangling refs (possible only in hand-built in-memory files) and
        // duplicates (first occurrence wins, order preserved).
        let mut edge_base = Vec::with_capacity(dex.method_count() + 1);
        let mut targets: Vec<u32> = Vec::with_capacity(dex.edge_count());
        edge_base.push(0);
        for m in dex.methods() {
            let start = targets.len();
            for &r in m.invokes() {
                let Some(tgt) = dex.resolve(r) else {
                    continue;
                };
                let tgt = tgt as u32;
                if !targets[start..].contains(&tgt) {
                    targets.push(tgt);
                }
            }
            edge_base.push(targets.len() as u32);
        }
        CallGraph {
            dex,
            edge_base,
            targets,
        }
    }

    /// Total methods in the graph.
    pub fn method_count(&self) -> usize {
        self.dex.method_count()
    }

    /// Resolve a class descriptor to its index (the last class of that
    /// name). A scan of the class list: entry resolution asks once per
    /// declared component, which is cheaper than hashing every name.
    pub(crate) fn class_index(&self, name: &str) -> Option<usize> {
        self.dex.classes().rposition(|c| c.name() == name)
    }

    /// The (class, method) coordinates of a file-wide method index.
    pub fn owner_of(&self, flat: usize) -> (usize, usize) {
        let class = self.dex.method_class(flat);
        (class, flat - self.dex.class(class).method_range().start)
    }

    /// The deduplicated invocation targets of one method.
    pub fn targets_of(&self, flat: usize) -> &[u32] {
        &self.targets[self.edge_base[flat] as usize..self.edge_base[flat + 1] as usize]
    }

    /// Worklist reachability from a set of entry classes (every method of
    /// an entry class is a root, mirroring how the framework may invoke
    /// any lifecycle callback of a declared component). Entry names that
    /// match no class are ignored; dangling and duplicate edges were
    /// already dropped when the CSR index was built, so `edges_traversed`
    /// counts distinct resolved edges only.
    pub fn reach_from_classes<'n, I>(&self, entries: I) -> Reachability<'a>
    where
        I: IntoIterator<Item = &'n str>,
    {
        let mut reached = vec![false; self.method_count()];
        let mut work: Vec<u32> = Vec::new();
        for name in entries {
            if let Some(ci) = self.class_index(name) {
                for flat in self.dex.class(ci).method_range() {
                    if !reached[flat] {
                        reached[flat] = true;
                        work.push(flat as u32);
                    }
                }
            }
        }
        let mut stats = ReachStats {
            methods_total: reached.len() as u64,
            ..ReachStats::default()
        };
        while let Some(flat) = work.pop() {
            stats.methods_reached += 1;
            for &tgt in self.targets_of(flat as usize) {
                stats.edges_traversed += 1;
                if !reached[tgt as usize] {
                    reached[tgt as usize] = true;
                    work.push(tgt);
                }
            }
        }
        Reachability {
            dex: self.dex,
            reached,
            stats,
        }
    }

    /// Mark every method reachable (the conservative fallback when no
    /// entry points are declared).
    pub fn reach_all(&self) -> Reachability<'a> {
        let total = self.method_count() as u64;
        Reachability {
            dex: self.dex,
            reached: vec![true; self.method_count()],
            stats: ReachStats {
                methods_total: total,
                methods_reached: total,
                edges_traversed: 0,
            },
        }
    }
}

impl Reachability<'_> {
    /// Whether method `method` of class `class` was reached.
    pub fn is_reached(&self, class: usize, method: usize) -> bool {
        self.reached[self.dex.class(class).method_range().start + method]
    }

    /// Whether the method at file-wide index `flat` was reached.
    pub(crate) fn reached(&self, flat: usize) -> bool {
        self.reached[flat]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apicalls::ApiCallId;
    use crate::dex::MethodRef;

    /// Append a method with `calls` and `invokes` to the last class.
    fn method(dex: &mut DexFile, calls: &[u32], invokes: &[(u16, u16)]) {
        let calls: Vec<ApiCallId> = calls.iter().map(|c| ApiCallId(*c)).collect();
        let invokes: Vec<MethodRef> = invokes
            .iter()
            .map(|&(class, method)| MethodRef { class, method })
            .collect();
        dex.push_method(7, &calls, &invokes);
    }

    /// Three classes: Main → Helper; Dead is untouched.
    fn chain() -> DexFile {
        let mut dex = DexFile::default();
        dex.push_class("La/Main;");
        method(&mut dex, &[1], &[(1, 0)]);
        method(&mut dex, &[], &[]);
        dex.push_class("La/Helper;");
        method(&mut dex, &[2], &[]);
        dex.push_class("La/Dead;");
        method(&mut dex, &[3], &[]);
        dex
    }

    #[test]
    fn worklist_follows_edges() {
        let dex = chain();
        let graph = CallGraph::new(&dex);
        let r = graph.reach_from_classes(["La/Main;"]);
        assert!(r.is_reached(0, 0));
        assert!(r.is_reached(0, 1)); // every entry-class method is a root
        assert!(r.is_reached(1, 0)); // via edge
        assert!(!r.is_reached(2, 0)); // dead
        assert_eq!(r.stats.methods_reached, 3);
        assert_eq!(r.stats.methods_total, 4);
        assert_eq!(r.stats.edges_traversed, 1);
        assert_eq!(graph.owner_of(2), (1, 0));
        assert_eq!(graph.owner_of(1), (0, 1));
    }

    #[test]
    fn cycles_terminate() {
        let mut dex = DexFile::default();
        dex.push_class("La/A;");
        method(&mut dex, &[], &[(1, 0)]);
        dex.push_class("La/B;");
        method(&mut dex, &[], &[(0, 0), (1, 0)]);
        let graph = CallGraph::new(&dex);
        let r = graph.reach_from_classes(["La/A;"]);
        assert_eq!(r.stats.methods_reached, 2);
        assert_eq!(r.stats.edges_traversed, 3);
    }

    #[test]
    fn unknown_entries_reach_nothing() {
        let dex = chain();
        let graph = CallGraph::new(&dex);
        let r = graph.reach_from_classes(["Lno/Such;"]);
        assert_eq!(r.stats.methods_reached, 0);
    }

    #[test]
    fn reach_all_marks_everything() {
        let dex = chain();
        let graph = CallGraph::new(&dex);
        let r = graph.reach_all();
        assert_eq!(r.stats.methods_reached, 4);
    }

    #[test]
    fn dangling_in_memory_edges_are_dropped_at_build() {
        let mut dex = DexFile::default();
        dex.push_class("La/A;");
        method(&mut dex, &[], &[(9, 9), (0, 5)]);
        let graph = CallGraph::new(&dex);
        // Both refs dangle: neither survives CSR construction.
        assert_eq!(graph.targets.len(), 0);
        let r = graph.reach_from_classes(["La/A;"]);
        assert_eq!(r.stats.methods_reached, 1);
        assert_eq!(r.stats.edges_traversed, 0);
    }

    #[test]
    fn duplicate_edges_are_deduplicated_at_build() {
        // Main's first method invokes Helper.0 three times and itself
        // twice; the CSR index keeps one edge each, so neither the edge
        // count nor the traversal counter inflates.
        let mut dex = DexFile::default();
        dex.push_class("La/Main;");
        method(&mut dex, &[], &[(1, 0), (1, 0), (0, 0), (1, 0), (0, 0)]);
        dex.push_class("La/Helper;");
        method(&mut dex, &[], &[]);
        assert_eq!(dex.edge_count(), 5, "raw wire edges keep multiplicity");
        let graph = CallGraph::new(&dex);
        assert_eq!(graph.targets.len(), 2, "CSR deduplicates");
        assert_eq!(graph.targets_of(0), &[1, 0]);
        let r = graph.reach_from_classes(["La/Main;"]);
        assert_eq!(r.stats.methods_reached, 2);
        assert_eq!(r.stats.edges_traversed, 2);
    }

    #[test]
    fn empty_dex_is_trivially_reached() {
        let dex = DexFile::default();
        let graph = CallGraph::new(&dex);
        let r = graph.reach_from_classes([]);
        assert_eq!(r.stats.methods_reached, 0);
    }
}
