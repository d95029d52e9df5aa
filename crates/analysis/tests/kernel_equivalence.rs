//! Reference-definition oracles for the three per-app kernels.
//!
//! `OverprivilegeAnalyzer::analyze`, `AvSimulator::scan` and
//! `UniqueApp::from_digest` stream over a digest's package features and
//! read process-wide tables; the oracles below answer the same questions
//! the plain way — collect sets, probe them — and must agree on corpora
//! built to hit the cases where streaming could differ: an API id called
//! from several Java packages, dead packages, unknown permission strings,
//! repeated code-segment hashes, two families' signatures in one app,
//! two detectability markers, and hashes that share a signature's or a
//! marker's top 16 bits (what the scan's filter keys on) but are neither.

use marketscope_analysis::av::{vendor_label, AvReport, AvSimulator, ENGINE_COUNT};
use marketscope_analysis::overpriv::OverprivilegeAnalyzer;
use marketscope_apk::apicalls::{ApiCallId, API_CALL_RANGE, API_DIMENSIONS};
use marketscope_apk::builder::ApkBuilder;
use marketscope_apk::dex::{DexFile, MethodRef};
use marketscope_apk::digest::ApkDigest;
use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
use marketscope_apk::permmap::{PermSet, Permission, PermissionMap, PERMISSIONS};
use marketscope_clonedetect::UniqueApp;
use marketscope_core::hash::{fnv1a64, mix64};
use marketscope_core::propcheck::{check, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_core::{DeveloperKey, MarketId, PackageName, VersionCode};
use marketscope_ecosystem::threat::{
    detectability_marker, FamilyId, ThreatDb, DETECTABILITY_STEPS,
};
use std::collections::{BTreeSet, HashMap, HashSet};

/// How many of the deliberate cases the generated corpora really held;
/// each must be non-zero once a property has run.
#[derive(Debug, Default)]
struct Coverage {
    id_in_several_packages: usize,
    dead_package: usize,
    unknown_permission: usize,
    repeated_segment: usize,
    two_families: usize,
    tied_families: usize,
    two_markers: usize,
    filter_false_positive: usize,
}

/// Every signature and every detectability marker: the hashes the scan
/// looks up.
fn scanned_hashes(db: &ThreatDb) -> Vec<u64> {
    let signatures = (0..db.family_count()).flat_map(|f| db.signatures(FamilyId(f as u16)));
    let markers = (0..DETECTABILITY_STEPS).map(detectability_marker);
    signatures.copied().chain(markers).collect()
}

/// The top 16 bits of a hash.
fn top16(hash: u64) -> u64 {
    hash >> 48
}

impl Coverage {
    fn note(&mut self, digest: &ApkDigest, db: &ThreatDb) {
        let mut seen = HashSet::new();
        let ids = digest.package_features.iter().flat_map(|f| f.api_counts());
        self.id_in_several_packages += usize::from(ids.into_iter().any(|(id, _)| !seen.insert(id)));
        self.dead_package +=
            usize::from(digest.dead_packages().any(|f| {
                f.api_counts().next().is_some() && f.reachable_api_counts().next().is_none()
            }));
        self.unknown_permission += usize::from(
            digest
                .permissions
                .iter()
                .any(|p| !PERMISSIONS.contains(&p.as_str())),
        );
        let segments: Vec<u64> = digest.code_segments().collect();
        let distinct: HashSet<u64> = segments.iter().copied().collect();
        self.repeated_segment += usize::from(distinct.len() < segments.len());
        let mut counts: Vec<usize> = (0..db.family_count())
            .map(|f| matched_signatures(db, FamilyId(f as u16), &distinct))
            .filter(|n| *n > 0)
            .collect();
        counts.sort_unstable();
        self.two_families += usize::from(counts.len() >= 2);
        self.tied_families +=
            usize::from(counts.len() >= 2 && counts[counts.len() - 1] == counts[counts.len() - 2]);
        let markers = (0..DETECTABILITY_STEPS)
            .filter(|q| distinct.contains(&detectability_marker(*q)))
            .count();
        self.two_markers += usize::from(markers >= 2);
        let scanned = scanned_hashes(db);
        self.filter_false_positive += usize::from(
            distinct
                .iter()
                .any(|h| !scanned.contains(h) && scanned.iter().any(|s| top16(*s) == top16(*h))),
        );
    }
}

/// API ids to draw an app's calls from: permission-protected method
/// calls, intents and providers (always protected) and plain ids.
fn arb_api_pool(rng: &mut DetRng) -> Vec<u32> {
    let map = PermissionMap::shared();
    let mut pool = vec_of(rng, 2..8, |r| r.range_u64(0, API_DIMENSIONS.into()) as u32);
    for _ in 0..usize_in(rng, 1..6) {
        let perm = Permission(PERMISSIONS[rng.index(PERMISSIONS.len())]);
        pool.push(rng.pick(&map.apis_for(perm, API_CALL_RANGE)).0);
    }
    pool.push(rng.range_u64(API_CALL_RANGE.into(), API_DIMENSIONS.into()) as u32);
    pool
}

/// Code hashes to draw an app's methods from: plain hashes, up to three
/// families' signatures (sometimes the same number from each, to force
/// a tie), up to three detectability markers and up to two hashes that
/// share a signature's or a marker's top 16 bits but are neither.
fn arb_hash_pool(rng: &mut DetRng, db: &ThreatDb) -> Vec<u64> {
    let mut pool = vec_of(rng, 2..6, |r| r.range_u64(1, u64::MAX));
    let tie = rng.chance(0.4).then(|| usize_in(rng, 1..4));
    for _ in 0..usize_in(rng, 0..4) {
        let sigs = db.signatures(FamilyId(rng.index(db.family_count()) as u16));
        let take = tie.unwrap_or_else(|| usize_in(rng, 1..5));
        let from = rng.index(sigs.len() - take);
        pool.extend_from_slice(&sigs[from..from + take]);
    }
    for _ in 0..usize_in(rng, 0..4) {
        pool.push(detectability_marker(
            rng.index(DETECTABILITY_STEPS.into()) as u8
        ));
    }
    let scanned = scanned_hashes(db);
    for _ in 0..usize_in(rng, 0..3) {
        let near = top16(*rng.pick(&scanned)) << 48 | rng.range_u64(0, 1 << 48);
        if !scanned.contains(&near) {
            pool.push(near);
        }
    }
    pool
}

/// One app of 2–5 Java packages whose methods share the two pools. Most
/// apps declare the first class as a component and invoke only some of
/// the other packages, which leaves the rest dead.
fn arb_digest(rng: &mut DetRng, db: &ThreatDb) -> ApkDigest {
    let apis = arb_api_pool(rng);
    let hashes = arb_hash_pool(rng, db);
    let salt = rng.range_u64(0, 1_000_000);
    // (name, [(calls, code hash)]) per class; the root's edges are drawn
    // after the classes, then everything is written in class order.
    type Class = (String, Vec<(Vec<ApiCallId>, u64)>);
    let classes: Vec<Class> = (0..usize_in(rng, 2..6))
        .flat_map(|p| (0..2).map(move |c| format!("Lcom/k{salt}/p{p}/C{c};")))
        .map(|name| {
            let methods = vec_of(rng, 1..4, |r| {
                let calls = vec_of(r, 0..6, |r| ApiCallId(*r.pick(&apis)));
                // Every pooled hash is drawn about twice per app.
                (calls, *r.pick(&hashes))
            });
            (name, methods)
        })
        .collect();
    let mut components = Vec::new();
    let mut root_edges = Vec::new();
    if rng.chance(0.7) {
        components.push(Component {
            kind: ComponentKind::Activity,
            class: classes[0].0.clone(),
        });
        for _ in 0..usize_in(rng, 0..3) {
            let class = rng.index(classes.len());
            root_edges.push(MethodRef {
                class: class as u16,
                method: 0,
            });
        }
    }
    let mut dex = DexFile::default();
    for (ci, (name, methods)) in classes.iter().enumerate() {
        dex.push_class(name);
        for (mi, (calls, code_hash)) in methods.iter().enumerate() {
            let invokes = if ci == 0 && mi == 0 {
                &root_edges[..]
            } else {
                &[]
            };
            dex.push_method(*code_hash, calls, invokes);
        }
    }
    let mut permissions: Vec<String> = PERMISSIONS
        .iter()
        .filter(|_| rng.chance(0.3))
        .map(|p| (*p).to_owned())
        .collect();
    if rng.chance(0.6) {
        permissions.push("com.vendor.permission.PUSH".into());
        permissions.push("android.permission.NOT_IN_THE_MODEL".into());
    }
    let manifest = Manifest {
        package: PackageName::new(&format!("com.k{salt}.p0")).unwrap(),
        version_code: VersionCode(1),
        version_name: "1".into(),
        min_sdk: 9,
        target_sdk: 23,
        app_label: "K".into(),
        permissions,
        category: "Tools".into(),
        components,
    };
    let bytes = ApkBuilder::new(manifest, dex)
        .build(DeveloperKey::from_label(&format!("dev{}", salt % 13)))
        .unwrap();
    ApkDigest::from_bytes(&bytes).unwrap()
}

/// Same case count as `batch_properties.rs`; each case is a corpus.
fn property(name: &str, mut body: impl FnMut(&ApkDigest, &mut DetRng)) {
    let db = ThreatDb::standard();
    let mut coverage = Coverage::default();
    check(&format!("kernel_equivalence::{name}"), 24, |rng| {
        for _ in 0..usize_in(rng, 4..12) {
            let digest = arb_digest(rng, &db);
            coverage.note(&digest, &db);
            body(&digest, rng);
        }
    });
    let Coverage {
        id_in_several_packages,
        dead_package,
        unknown_permission,
        repeated_segment,
        two_families,
        tied_families,
        two_markers,
        filter_false_positive,
    } = coverage;
    for (case, hits) in [
        ("an id called from several packages", id_in_several_packages),
        (
            "a dead package with an empty reachable vector",
            dead_package,
        ),
        ("an unknown permission string", unknown_permission),
        ("a repeated code-segment hash", repeated_segment),
        ("two families' signatures in one app", two_families),
        ("two families with equal match counts", tied_families),
        ("two detectability markers", two_markers),
        (
            "a hash sharing a scanned hash's top 16 bits",
            filter_false_positive,
        ),
    ] {
        assert!(hits > 0, "{name}: no generated app held {case}");
    }
}

// ---------- over-privilege ----------

fn names(set: PermSet) -> BTreeSet<&'static str> {
    set.iter().map(|p| p.0).collect()
}

/// The permissions a deduplicated id set exercises, by the map's pure
/// per-id function.
fn exercised(ids: BTreeSet<u32>) -> BTreeSet<&'static str> {
    ids.into_iter()
        .filter_map(|id| PermissionMap::shared().required(ApiCallId(id)))
        .map(|p| p.0)
        .collect()
}

#[test]
fn analyze_equals_the_set_based_definition() {
    let analyzer = OverprivilegeAnalyzer::new();
    property("analyze", |d, _| {
        let flat = d.package_features.iter().flat_map(|f| f.api_counts());
        let used = exercised(flat.map(|(id, _)| id).collect());
        let reachable = d
            .package_features
            .iter()
            .flat_map(|f| f.reachable_api_counts());
        let used_reachable = exercised(reachable.map(|(id, _)| id).collect());
        let declared: BTreeSet<&'static str> = d
            .permissions
            .iter()
            .filter_map(|name| PERMISSIONS.iter().find(|p| **p == name).copied())
            .collect();

        let r = analyzer.analyze(d);
        assert_eq!(names(r.declared), declared);
        assert_eq!(names(r.used), used);
        assert_eq!(names(r.used_reachable), used_reachable);
        let unused: BTreeSet<_> = declared.difference(&used).copied().collect();
        assert_eq!(names(r.unused), unused);
        let unused_reachable: BTreeSet<_> = declared.difference(&used_reachable).copied().collect();
        assert_eq!(names(r.unused_reachable), unused_reachable);
    });
}

// ---------- AV ----------

fn matched_signatures(db: &ThreatDb, family: FamilyId, hashes: &HashSet<u64>) -> usize {
    let sigs = db.signatures(family);
    sigs.iter().filter(|s| hashes.contains(s)).count()
}

/// The scan as first written: one hash set, probed per family in id
/// order (first strict maximum wins) and per marker step in ascending
/// order, then the sixty engine coins.
fn scan_by_sets(db: &ThreatDb, digest: &ApkDigest) -> AvReport {
    let hashes: HashSet<u64> = digest.code_segments().collect();
    let mut best: Option<(FamilyId, usize)> = None;
    for f in 0..db.family_count() {
        let matched = matched_signatures(db, FamilyId(f as u16), &hashes);
        if matched > 0 && best.map_or(true, |(_, m)| matched > m) {
            best = Some((FamilyId(f as u16), matched));
        }
    }
    let md5_key = u64::from_le_bytes(digest.file_md5[..8].try_into().unwrap());
    let unit = |h: u64| (h % 1_000_000) as f64 / 1_000_000.0;
    let engines = 0..ENGINE_COUNT;
    let labels: Vec<String> = match best {
        None => engines
            .filter(|i| unit(mix64(md5_key, 0xFA15E ^ *i as u64)) < 0.000_2)
            .map(|i| format!("Heur.Generic.{i}"))
            .collect(),
        Some((family, sig_count)) => {
            let detectability = (0..DETECTABILITY_STEPS)
                .find(|q| hashes.contains(&detectability_marker(*q)))
                .map(|q| (q as f64 + 0.5) / DETECTABILITY_STEPS as f64)
                .unwrap_or(0.05 + 0.03 * sig_count as f64);
            let name = db.family(family).name;
            let variant_key = mix64(fnv1a64(name.as_bytes()), md5_key);
            engines
                .filter(|i| {
                    let u = (mix64(0xE261_7E5E, *i as u64) % 10_000) as f64 / 10_000.0;
                    let p = (detectability * (0.7 + 0.6 * u)).min(1.0);
                    unit(mix64(variant_key, 0x0e6e_0000 + *i as u64)) < p
                })
                .map(|i| vendor_label(i, name))
                .collect()
        }
    };
    AvReport {
        rank: labels.len(),
        labels,
        matched_family: best.map(|(family, _)| family),
    }
}

#[test]
fn scan_equals_the_set_based_definition() {
    let sim = AvSimulator::new();
    property("scan", |d, _| {
        assert_eq!(sim.scan(d), scan_by_sets(sim.db(), d));
    });
}

// ---------- clone inputs ----------

#[test]
fn from_digest_equals_the_map_based_definition() {
    property("from_digest", |d, rng| {
        // Any subset of the app's own packages may have been detected as
        // libraries, beside packages the app does not contain.
        let mut lib_packages: HashSet<String> = d
            .package_features
            .iter()
            .filter(|_| rng.chance(0.3))
            .map(|f| f.java_package.clone())
            .collect();
        lib_packages.insert("com.umeng".into());
        let markets = vec![(MarketId::GooglePlay, 1_000), (MarketId::ALL[3], 0)];

        let mut own_api: HashMap<u32, u32> = HashMap::new();
        let mut own_segments = Vec::new();
        for f in &d.package_features {
            if lib_packages.contains(&f.java_package) {
                continue;
            }
            for (id, c) in f.api_counts() {
                *own_api.entry(id).or_insert(0) += c as u32;
            }
            own_segments.extend_from_slice(&f.code_segments);
        }
        let mut own_api: Vec<(u32, u32)> = own_api.into_iter().collect();
        own_api.sort_unstable();
        own_segments.sort_unstable();

        let app = UniqueApp::from_digest(d, &lib_packages, markets.clone());
        assert_eq!(app.own_api, own_api);
        assert_eq!(app.own_segments, own_segments);
        assert_eq!(app.package, d.package.as_str());
        assert_eq!(app.developer, d.developer);
        assert_eq!(app.markets, markets);
    });
}
