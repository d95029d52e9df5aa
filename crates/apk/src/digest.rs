//! Compact analysis-ready digest of a parsed APK.
//!
//! The paper's pipeline parses millions of APKs once and then works from
//! extracted features. [`ApkDigest`] is that extraction: everything the
//! downstream analyses need — identity, manifest facts, the WuKong-style
//! sparse API-call vector, code-segment hashes, per-Java-package
//! feature hashes for library clustering, and the statically *reachable*
//! API subset (worklist pass from the manifest-declared components).
//! A seed-1000 campaign at ÷2 000 harvests 2 792 digests with 28 599
//! package features, only 3 349 of them distinct by content. Passed
//! through one [`FeatureTable`], as the crawler passes them, they hold
//! 9.6 MB of heap, 3.4 KB per digest, summed from capacities with each
//! shared feature counted once; each with private features they held
//! 44 MB, 15.7 KB per digest. The per-snapshot bound
//! `tests/digest_memory.rs` asserts is in DESIGN §8.
//!
//! Reachability policy: a manifest with no declared components gives no
//! entry points to anchor the walk, so every method is conservatively
//! treated as reachable and the flat and reachable views coincide.

use crate::parse::ParsedApk;
use crate::permmap::PermissionMap;
use crate::reach::{CallGraph, ReachStats};
use crate::runs;
use crate::taint::{self, TaintFlow};
use marketscope_core::hash::{fnv1a64, mix64};
use marketscope_core::{DeveloperKey, PackageName, VersionCode};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Feature summary of one Java package subtree inside an APK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageFeature {
    /// Dotted Java package, e.g. `com.umeng`.
    pub java_package: String,
    /// Order-insensitive hash over the subtree's classes (method API
    /// calls + code hashes). Two apps embedding the same library version
    /// produce the same hash. Invocation edges are deliberately excluded
    /// so edge wiring never perturbs library/clone clustering.
    pub feature_hash: u64,
    /// Number of classes in the subtree.
    pub class_count: u32,
    /// Sparse API-call table of this subtree: one row per called API id,
    /// sorted by id. Read it through [`api_counts`](Self::api_counts) and
    /// [`reachable_api_counts`](Self::reachable_api_counts).
    pub api: Vec<ApiCount>,
    /// Method code-segment hashes of this subtree, sorted.
    pub code_segments: Vec<u64>,
    /// Total methods in the subtree.
    pub method_count: u32,
    /// Methods reachable from the declared components.
    pub reachable_method_count: u32,
}

/// One row of a package's API-call table: how often the subtree calls
/// API `id` from any method, and from methods reachable from the
/// manifest-declared components. Both counts saturate at `u16::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiCount {
    /// API-call id.
    pub id: u32,
    /// Calls from every method (the flat view).
    pub count: u16,
    /// Calls from reachable methods; 0 when only dead code calls `id`.
    pub reachable: u16,
}

impl PackageFeature {
    /// Sparse API-call count vector (flat: every method counted), sorted
    /// by id.
    pub fn api_counts(&self) -> impl Iterator<Item = (u32, u16)> + '_ {
        self.api.iter().map(|a| (a.id, a.count))
    }

    /// Sparse API-call count vector restricted to methods reachable from
    /// the manifest-declared components, sorted by id. Equals
    /// [`api_counts`](Self::api_counts) when the manifest declares no
    /// components.
    pub fn reachable_api_counts(&self) -> impl Iterator<Item = (u32, u16)> + '_ {
        self.api
            .iter()
            .filter(|a| a.reachable > 0)
            .map(|a| (a.id, a.reachable))
    }

    /// Whether no method of the subtree is reachable (a fully dead
    /// package — typically a bundled-but-unused library).
    pub(crate) fn is_dead(&self) -> bool {
        self.method_count > 0 && self.reachable_method_count == 0
    }
}

/// The analysis-ready digest of one APK.
#[derive(Debug, Clone, PartialEq)]
pub struct ApkDigest {
    /// Manifest package.
    pub package: PackageName,
    /// Manifest version code.
    pub version_code: VersionCode,
    /// Manifest version name.
    pub version_name: String,
    /// Declared minimum SDK (Figure 3).
    pub min_sdk: u8,
    /// App display label (fake detection input).
    pub app_label: String,
    /// Declared permissions (over-privilege input).
    pub permissions: Vec<String>,
    /// Signing developer key.
    pub developer: DeveloperKey,
    /// Whether the signature verified.
    pub signature_valid: bool,
    /// MD5 of the full file (byte identity, Section 5.3).
    pub file_md5: [u8; 16],
    /// Names of channel files found under META-INF/.
    pub channels: Vec<String>,
    /// Number of components the manifest declared (0 ⇒ reachability fell
    /// back to "everything reachable").
    pub component_count: u32,
    /// Per-Java-package features: library detection, clone detection
    /// (with library subtrees excluded), over-privilege analysis and AV
    /// scanning all read from these. Digests passed through one
    /// [`FeatureTable`] share each equal feature's allocation.
    pub package_features: Vec<Arc<PackageFeature>>,
    /// Source→sink taint flows found by the interprocedural pass over
    /// the same call graph and entry-point policy as the reachability
    /// accounting (deduplicated, sorted). The privacy-leak analyzer
    /// attributes each flow's sink package to host code or a detected
    /// third-party library.
    pub flows: Vec<TaintFlow>,
}

/// Group name of the classes without a Java package (and of malformed
/// descriptors).
const DEFAULT_PACKAGE: &str = "<default>";

/// Compare two slash-form package paths as their dotted forms compare.
/// `.` and `/` are adjacent bytes, so mapping one onto the other keeps
/// the order of every other pair: only a `.`/`/` mismatch is looked past.
fn dotted_cmp(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    for (x, y) in a.iter().zip(b) {
        if x != y && !matches!((x, y), (b'.', b'/') | (b'/', b'.')) {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

/// A run length as a `u16` count, saturating at `u16::MAX`.
fn saturating_count(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

impl ApkDigest {
    /// Extract a digest from a parsed APK.
    pub fn from_parsed(apk: &ParsedApk) -> ApkDigest {
        Self::from_parsed_with_stats(apk).0
    }

    /// Extract a digest and return the reachability-pass counters
    /// alongside it.
    pub(crate) fn from_parsed_with_stats(apk: &ParsedApk) -> (ApkDigest, ReachStats) {
        // Entry points: the classes of the manifest-declared components.
        // No components ⇒ no anchoring information ⇒ conservatively mark
        // everything reachable.
        let graph = CallGraph::new(&apk.dex);
        let reach = if apk.manifest.components.is_empty() {
            graph.reach_all()
        } else {
            graph.reach_from_classes(apk.manifest.components.iter().map(|c| c.class.as_str()))
        };
        let stats = reach.stats;
        // Taint runs here because the digest is the last point where the
        // invocation edges still exist (they are dropped below — only the
        // per-package summaries survive).
        let flows = taint::propagate(&apk.dex, &graph, &reach, PermissionMap::shared()).flows;

        // Group classes by their full Java package: in this substrate a
        // library's classes sit directly under its root package, so the
        // group name is the library root (LibRadar walks real package
        // trees at several depths; flat grouping is the equivalent here).
        // Consecutive classes of one package path form a span; spans are
        // sorted by the path in dotted form, so groups come out in the
        // order of their dotted names and two spellings of one dotted name
        // (`a.b/X`, `a/b/Y`) share a group. Everything below is
        // insensitive to the order of a group's classes, so ties may land
        // in any order.
        let dex = &apk.dex;
        let mut spans: Vec<(&str, Range<usize>)> = Vec::new();
        for class in dex.classes() {
            let path = class.package_path().unwrap_or(DEFAULT_PACKAGE);
            let ci = class.index();
            match spans.last_mut() {
                Some((last, span)) if *last == path => span.end = ci + 1,
                _ => spans.push((path, ci..ci + 1)),
            }
        }
        spans.sort_unstable_by(|a, b| dotted_cmp(a.0, b.0));
        let packages = || runs(&spans, |a, b| dotted_cmp(a.0, b.0).is_eq());
        let mut package_features = Vec::with_capacity(packages().count());
        // Scratch reused across the app: one method's sorted calls, and
        // one package's `(api id << 1) | reached` tags.
        let mut calls: Vec<u32> = Vec::new();
        let mut tags: Vec<u64> = Vec::new();
        for group in packages() {
            // Order-insensitive: hash each class, then XOR-fold with a
            // mix so permutations of the class list agree.
            let mut acc = 0u64;
            let members = || group.iter().flat_map(|(_, span)| span.clone());
            let method_count: usize = members().map(|ci| dex.class(ci).method_count()).sum();
            let mut code_segments = Vec::with_capacity(method_count);
            let mut reachable_method_count = 0u32;
            tags.clear();
            for ci in members() {
                let mut h = fnv1a64(&[]);
                for flat in dex.class(ci).method_range() {
                    let m = dex.method(flat);
                    let reached = reach.reached(flat);
                    reachable_method_count += u32::from(reached);
                    calls.clear();
                    calls.extend(m.api_calls().iter().map(|a| a.0));
                    calls.sort_unstable();
                    for &call in &calls {
                        h = mix64(h, call as u64);
                        tags.push((u64::from(call) << 1) | u64::from(reached));
                    }
                    h = mix64(h, m.code_hash());
                    code_segments.push(m.code_hash());
                }
                acc ^= mix64(h, 0xf00d);
            }
            code_segments.sort_unstable();
            // One run per API id; within a run the unreached tags sort
            // first. Counts saturate at `u16::MAX`.
            tags.sort_unstable();
            let ids = || runs(&tags, |a, b| a >> 1 == b >> 1);
            let mut api = Vec::with_capacity(ids().count());
            for run in ids() {
                api.push(ApiCount {
                    id: (run[0] >> 1) as u32,
                    count: saturating_count(run.len()),
                    reachable: saturating_count(run.len() - run.partition_point(|t| t & 1 == 0)),
                });
            }
            package_features.push(Arc::new(PackageFeature {
                java_package: group[0].0.replace('/', "."),
                feature_hash: acc,
                class_count: members().count() as u32,
                api,
                code_segments,
                method_count: method_count as u32,
                reachable_method_count,
            }));
        }
        let digest = ApkDigest {
            package: apk.manifest.package.clone(),
            version_code: apk.manifest.version_code,
            version_name: apk.manifest.version_name.clone(),
            min_sdk: apk.manifest.min_sdk,
            app_label: apk.manifest.app_label.clone(),
            permissions: apk.manifest.permissions.clone(),
            developer: apk.developer(),
            signature_valid: apk.signature_valid,
            file_md5: apk.file_md5,
            channels: apk.channels.iter().map(|(n, _)| n.clone()).collect(),
            component_count: apk.manifest.components.len() as u32,
            package_features,
            flows,
        };
        (digest, stats)
    }

    /// Parse raw APK bytes straight into a digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<ApkDigest, crate::error::ApkError> {
        Ok(Self::from_parsed(&ParsedApk::parse(bytes)?))
    }

    /// Iterate every method code-segment hash in the app.
    pub fn code_segments(&self) -> impl Iterator<Item = u64> + '_ {
        self.package_features
            .iter()
            .flat_map(|f| f.code_segments.iter().copied())
    }

    /// Total methods across packages.
    pub(crate) fn method_total(&self) -> u64 {
        self.package_features
            .iter()
            .map(|f| f.method_count as u64)
            .sum()
    }

    /// Methods reachable from the declared components.
    pub(crate) fn reachable_method_total(&self) -> u64 {
        self.package_features
            .iter()
            .map(|f| f.reachable_method_count as u64)
            .sum()
    }

    /// Share of methods *not* reachable, in `[0, 1]`; 0 for an empty
    /// app. This is the dead-code share Figure 11's caveat table reports.
    pub fn dead_code_share(&self) -> f64 {
        let total = self.method_total();
        if total == 0 {
            0.0
        } else {
            1.0 - self.reachable_method_total() as f64 / total as f64
        }
    }

    /// Java packages with methods but none reachable — bundled dead
    /// subtrees (typically unused libraries).
    pub fn dead_packages(&self) -> impl Iterator<Item = &PackageFeature> + '_ {
        self.package_features
            .iter()
            .map(Arc::as_ref)
            .filter(|f| f.is_dead())
    }
}

/// A set of package features, each held once by content. Passing every
/// digest of a snapshot through one table makes each equal feature one
/// shared allocation: library packages repeat across apps, so a snapshot
/// holds far fewer distinct features than references to them. The table
/// holds one entry per distinct feature it has seen and frees them when
/// it is dropped; features stay alive while a digest references them.
#[derive(Debug, Default)]
pub struct FeatureTable {
    features: HashSet<Held>,
}

/// A table entry: hashed by the fields the digest already computed,
/// compared field by field, so two features share an entry only when
/// their contents are equal.
#[derive(Debug)]
struct Held(Arc<PackageFeature>);

impl Hash for Held {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.feature_hash.hash(state);
        self.0.java_package.hash(state);
    }
}

impl PartialEq for Held {
    fn eq(&self, other: &Held) -> bool {
        *self.0 == *other.0
    }
}

impl Eq for Held {}

impl FeatureTable {
    /// An empty table.
    pub fn new() -> FeatureTable {
        FeatureTable::default()
    }

    /// Distinct features held.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the table holds no feature.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Point `feature` at the table's equal feature, or enter it as a new
    /// one.
    pub(crate) fn intern(&mut self, feature: &mut Arc<PackageFeature>) {
        let key = Held(Arc::clone(feature));
        match self.features.get(&key) {
            Some(held) => *feature = Arc::clone(&held.0),
            None => {
                self.features.insert(key);
            }
        }
    }

    /// `intern` every package feature of `digest`.
    pub fn intern_digest(&mut self, digest: &mut ApkDigest) {
        for feature in &mut digest.package_features {
            self.intern(feature);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apicalls::ApiCallId;
    use crate::builder::ApkBuilder;
    use crate::dex::{DexFile, MethodRef};
    use crate::manifest::{Component, ComponentKind, Manifest};

    fn build_with_components(dex: DexFile, pkg: &str, components: Vec<Component>) -> Vec<u8> {
        let manifest = Manifest {
            package: PackageName::new(pkg).unwrap(),
            version_code: VersionCode(1),
            version_name: "1.0".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "Test".into(),
            permissions: vec!["android.permission.INTERNET".into()],
            category: "Tools".into(),
            components,
        };
        ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label("d"))
            .unwrap()
    }

    fn build(dex: DexFile, pkg: &str) -> Vec<u8> {
        build_with_components(dex, pkg, vec![])
    }

    /// Every package's flat API counts, in package order.
    fn api_counts(d: &ApkDigest) -> Vec<(u32, u16)> {
        d.package_features
            .iter()
            .flat_map(|f| f.api_counts())
            .collect()
    }

    /// Append a one-method class: `calls`, code hash `hash`, no edges.
    fn class(dex: &mut DexFile, name: &str, calls: &[u32], hash: u64) {
        let calls: Vec<ApiCallId> = calls.iter().map(|c| ApiCallId(*c)).collect();
        dex.push_class(name);
        dex.push_method(hash, &calls, &[]);
    }

    /// A file of one-method, edge-free classes `(name, calls, hash)`.
    fn classes(specs: &[(&str, &[u32], u64)]) -> DexFile {
        let mut dex = DexFile::default();
        for &(name, calls, hash) in specs {
            class(&mut dex, name, calls, hash);
        }
        dex
    }

    #[test]
    fn digest_extracts_identity_and_features() {
        let bytes = build(
            classes(&[
                ("Lcom/my/app/Main;", &[1, 2, 2], 100),
                ("Lcom/umeng/analytics/A;", &[7], 200),
                ("Lcom/umeng/common/B;", &[9], 300),
            ]),
            "com.my.app",
        );
        let d = ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(d.package.as_str(), "com.my.app");
        assert!(d.signature_valid);
        assert_eq!(api_counts(&d), vec![(1, 1), (2, 2), (7, 1), (9, 1)]);
        let mut segs: Vec<u64> = d.code_segments().collect();
        segs.sort_unstable();
        assert_eq!(segs, vec![100, 200, 300]);
        let pkgs: Vec<&str> = d
            .package_features
            .iter()
            .map(|f| f.java_package.as_str())
            .collect();
        assert_eq!(
            pkgs,
            vec!["com.my.app", "com.umeng.analytics", "com.umeng.common"]
        );
        assert!(d.package_features[1..].iter().all(|f| f.class_count == 1));
    }

    #[test]
    fn feature_hash_is_order_insensitive() {
        let a = build(
            classes(&[("Lcom/lib/x/A;", &[1], 10), ("Lcom/lib/x/B;", &[2], 20)]),
            "com.my.app",
        );
        let b = build(
            classes(&[("Lcom/lib/x/B;", &[2], 20), ("Lcom/lib/x/A;", &[1], 10)]),
            "com.my.app",
        );
        let da = ApkDigest::from_bytes(&a).unwrap();
        let db = ApkDigest::from_bytes(&b).unwrap();
        let fa = da
            .package_features
            .iter()
            .find(|f| f.java_package == "com.lib.x")
            .unwrap();
        let fb = db
            .package_features
            .iter()
            .find(|f| f.java_package == "com.lib.x")
            .unwrap();
        assert_eq!(fa.feature_hash, fb.feature_hash);
    }

    #[test]
    fn feature_hash_changes_with_content() {
        let a = build(classes(&[("Lcom/lib/x/A;", &[1], 10)]), "com.my.app");
        let b = build(classes(&[("Lcom/lib/x/A;", &[1], 11)]), "com.my.app");
        let da = ApkDigest::from_bytes(&a).unwrap();
        let db = ApkDigest::from_bytes(&b).unwrap();
        let la = da
            .package_features
            .iter()
            .find(|f| f.java_package == "com.lib.x")
            .unwrap();
        let lb = db
            .package_features
            .iter()
            .find(|f| f.java_package == "com.lib.x")
            .unwrap();
        assert_ne!(la.feature_hash, lb.feature_hash);
    }

    #[test]
    fn api_counts_carry_multiplicity() {
        let bytes = build(classes(&[("Lcom/a/b/C;", &[5, 5, 5], 1)]), "com.a.b");
        let d = ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(api_counts(&d), vec![(5, 3)]); // one row per distinct id
    }

    #[test]
    fn api_counts_stay_per_package() {
        // The same API id called from two Java packages is one row of
        // each package's table.
        let bytes = build(
            classes(&[("Lcom/a/b/C;", &[5, 9], 1), ("Lcom/x/y/Z;", &[5], 2)]),
            "com.a.b",
        );
        let d = ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(d.package_features.len(), 2);
        assert_eq!(api_counts(&d), vec![(5, 1), (9, 1), (5, 1)]);
    }

    #[test]
    fn no_components_means_everything_reachable() {
        let bytes = build(
            classes(&[
                ("Lcom/my/app/Main;", &[1], 100),
                ("Lcom/umeng/analytics/A;", &[7], 200),
            ]),
            "com.my.app",
        );
        let (d, stats) = ApkDigest::from_parsed_with_stats(&ParsedApk::parse(&bytes).unwrap());
        assert_eq!(d.component_count, 0);
        assert_eq!(d.method_total(), 2);
        assert_eq!(d.reachable_method_total(), 2);
        assert_eq!(d.dead_code_share(), 0.0);
        assert_eq!(d.dead_packages().count(), 0);
        assert_eq!(stats.methods_reached, 2);
        for f in &d.package_features {
            assert!(f.api_counts().eq(f.reachable_api_counts()));
        }
    }

    #[test]
    fn components_gate_reachable_features() {
        // Main invokes the lib's A; B is a dead bundled subtree.
        let mut dex = DexFile::default();
        dex.push_class("Lcom/my/app/Main;");
        dex.push_method(
            100,
            &[ApiCallId(1)],
            &[MethodRef {
                class: 1,
                method: 0,
            }],
        );
        class(&mut dex, "Lcom/umeng/analytics/A;", &[7], 200);
        class(&mut dex, "Lcom/dead/lib/B;", &[9], 300);
        let bytes = build_with_components(
            dex,
            "com.my.app",
            vec![Component {
                kind: ComponentKind::Activity,
                class: "Lcom/my/app/Main;".into(),
            }],
        );
        let (d, stats) = ApkDigest::from_parsed_with_stats(&ParsedApk::parse(&bytes).unwrap());
        assert_eq!(d.component_count, 1);
        assert_eq!(d.method_total(), 3);
        assert_eq!(d.reachable_method_total(), 2);
        assert!((d.dead_code_share() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.edges_traversed, 1);
        // Flat view still sees everything (packages in dotted order:
        // com.dead.lib, com.my.app, com.umeng.analytics).
        assert_eq!(api_counts(&d), vec![(9, 1), (1, 1), (7, 1)]);
        // Reachable view drops the dead subtree's call.
        let reachable: Vec<(u32, u16)> = d
            .package_features
            .iter()
            .flat_map(|f| f.reachable_api_counts())
            .collect();
        assert_eq!(reachable, vec![(1, 1), (7, 1)]);
        let dead: Vec<&str> = d.dead_packages().map(|f| f.java_package.as_str()).collect();
        assert_eq!(dead, vec!["com.dead.lib"]);
    }

    #[test]
    fn digest_carries_taint_flows_with_entry_point_gating() {
        use crate::permmap::{SinkClass, SourceClass};
        let m = PermissionMap::shared();
        let src = m.source_apis(SourceClass::DeviceId)[0].0;
        let snk = m.sink_apis(SinkClass::NetworkSend)[0].0;
        let log = m.sink_apis(SinkClass::LogExfil)[0].0;
        // Main (source) → ads sink; a dead class holds a log sink that
        // must not be reported once components gate reachability.
        let mut dex = DexFile::default();
        dex.push_class("Lcom/my/app/Main;");
        dex.push_method(
            1,
            &[ApiCallId(src)],
            &[MethodRef {
                class: 1,
                method: 0,
            }],
        );
        class(&mut dex, "Lcom/ads/net/S;", &[snk], 2);
        class(&mut dex, "Lcom/dead/lib/L;", &[log], 3);
        let bytes = build_with_components(
            dex.clone(),
            "com.my.app",
            vec![Component {
                kind: ComponentKind::Activity,
                class: "Lcom/my/app/Main;".into(),
            }],
        );
        let d = ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(
            d.flows,
            vec![crate::taint::TaintFlow {
                source: SourceClass::DeviceId,
                sink: SinkClass::NetworkSend,
                sink_package: Some("com.ads.net".into()),
            }]
        );
        // Without components everything is reachable, so the same-method
        // fallback also reports the dead class's log sink — but there is
        // no path from the source to it, so only reachability (not the
        // flow set) changes... unless the walk finds one. Here it cannot:
        // the dead class has no incoming edges from the source.
        let bytes = build(dex, "com.my.app");
        let d = ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(d.flows.len(), 1, "{:?}", d.flows);
    }

    #[test]
    fn edges_do_not_perturb_feature_hash() {
        // Same classes, one wired with an edge: library clustering and
        // clone detection must see identical features.
        let plain = classes(&[("Lcom/a/b/C;", &[5], 1), ("Lcom/a/b/D;", &[6], 2)]);
        let mut wired = DexFile::default();
        wired.push_class("Lcom/a/b/C;");
        wired.push_method(
            1,
            &[ApiCallId(5)],
            &[MethodRef {
                class: 1,
                method: 0,
            }],
        );
        class(&mut wired, "Lcom/a/b/D;", &[6], 2);
        let dp = ApkDigest::from_bytes(&build(plain, "com.a.b")).unwrap();
        let dw = ApkDigest::from_bytes(&build(wired, "com.a.b")).unwrap();
        assert_eq!(
            dp.package_features[0].feature_hash,
            dw.package_features[0].feature_hash
        );
        assert_eq!(dp.package_features[0].api, dw.package_features[0].api);
    }

    /// Two apps, each bundling the same `com.lib.x` subtree beside its
    /// own code.
    fn two_apps_sharing_a_library() -> (ApkDigest, ApkDigest) {
        let a = build(
            classes(&[
                ("Lcom/my/a/Main;", &[1], 10),
                ("Lcom/lib/x/L;", &[7, 8], 70),
            ]),
            "com.my.a",
        );
        let b = build(
            classes(&[
                ("Lcom/my/b/Main;", &[2], 20),
                ("Lcom/lib/x/L;", &[7, 8], 70),
            ]),
            "com.my.b",
        );
        (
            ApkDigest::from_bytes(&a).unwrap(),
            ApkDigest::from_bytes(&b).unwrap(),
        )
    }

    fn feature<'d>(d: &'d ApkDigest, package: &str) -> &'d Arc<PackageFeature> {
        d.package_features
            .iter()
            .find(|f| f.java_package == package)
            .unwrap()
    }

    #[test]
    fn the_table_shares_equal_features_across_digests() {
        let (mut a, mut b) = two_apps_sharing_a_library();
        assert!(!Arc::ptr_eq(
            feature(&a, "com.lib.x"),
            feature(&b, "com.lib.x")
        ));
        let mut table = FeatureTable::new();
        table.intern_digest(&mut a);
        table.intern_digest(&mut b);
        assert!(Arc::ptr_eq(
            feature(&a, "com.lib.x"),
            feature(&b, "com.lib.x")
        ));
        assert!(!Arc::ptr_eq(
            feature(&a, "com.my.a"),
            feature(&b, "com.my.b")
        ));
        assert_eq!(table.len(), 3, "two own packages and one library");
    }

    #[test]
    fn the_table_keeps_features_that_only_share_their_hash_key() {
        let (a, _) = two_apps_sharing_a_library();
        let base = feature(&a, "com.lib.x");
        let mut other_rows = PackageFeature::clone(base);
        other_rows.api[0].count += 1;
        let mut other_segments = PackageFeature::clone(base);
        other_segments.code_segments[0] += 1;
        for forged in [other_rows, other_segments] {
            assert_eq!(
                (forged.feature_hash, &forged.java_package),
                (base.feature_hash, &base.java_package)
            );
            let mut table = FeatureTable::new();
            let mut first = Arc::clone(base);
            let mut second = Arc::new(forged.clone());
            table.intern(&mut first);
            table.intern(&mut second);
            assert_eq!(table.len(), 2);
            assert!(!Arc::ptr_eq(&first, &second));
            assert_eq!(*first, **base);
            assert_eq!(*second, forged);
            // Each stays findable under its own contents.
            let mut again = Arc::new(forged);
            table.intern(&mut again);
            assert!(Arc::ptr_eq(&again, &second));
        }
    }

    #[test]
    fn an_interned_digest_equals_its_copy_from_before() {
        let (mut a, mut b) = two_apps_sharing_a_library();
        let (before_a, before_b) = (a.clone(), b.clone());
        let mut table = FeatureTable::new();
        table.intern_digest(&mut a);
        table.intern_digest(&mut b);
        assert_eq!(a, before_a);
        assert_eq!(b, before_b);
        assert_eq!(format!("{a:?}"), format!("{before_a:?}"));
    }
}
