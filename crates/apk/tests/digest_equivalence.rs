//! Reference-definition oracle for `ApkDigest::from_parsed`.
//!
//! The digest groups classes by sorting class indices on their package
//! path and counts API ids by sorting per-package tags; the taint pass
//! reads a dense per-API class byte. `oracle_features` below computes the
//! same two outputs the plain way — a `BTreeMap` keyed by the dotted
//! package string, two `BTreeMap<u32, u16>` count maps per package, and
//! per-call `source_class` / `sink_class` lookups — and must agree on
//! generated market corpora and on hand-built DEX files aimed at the
//! places the two could part: default-package and malformed descriptors,
//! a literal `<default>` package, dots inside descriptors, two spellings
//! of one dotted package, classes without methods, and a count past
//! `u16::MAX`.

use marketscope_apk::apicalls::{ApiCallId, API_DIMENSIONS};
use marketscope_apk::builder::ApkBuilder;
use marketscope_apk::dex::{DexFile, MethodRef};
use marketscope_apk::digest::{ApiCount, ApkDigest, PackageFeature};
use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
use marketscope_apk::parse::ParsedApk;
use marketscope_apk::permmap::{PermissionMap, SinkClass, SourceClass};
use marketscope_apk::reach::CallGraph;
use marketscope_apk::taint::TaintFlow;
use marketscope_core::hash::{fnv1a64, mix64};
use marketscope_core::propcheck::{check, string_of, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_core::{DeveloperKey, MarketId, PackageName, VersionCode};
use marketscope_ecosystem::{generate, profile, Scale, WorldConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Package features and taint flows of `apk`, computed with string- and
/// tree-keyed maps and per-call classification.
fn oracle_features(apk: &ParsedApk) -> (Vec<Arc<PackageFeature>>, Vec<TaintFlow>) {
    let dex = &apk.dex;
    let map = PermissionMap::shared();
    let graph = CallGraph::new(dex);
    let reach = if apk.manifest.components.is_empty() {
        graph.reach_all()
    } else {
        graph.reach_from_classes(apk.manifest.components.iter().map(|c| c.class.as_str()))
    };

    // Taint: per-method masks from per-call lookups, one walk per source
    // class, the sink package computed at every visit.
    let n = graph.method_count();
    let mut src_mask = vec![0u8; n];
    let mut snk_mask = vec![0u8; n];
    let mut flat = 0;
    for (ci, class) in dex.classes().enumerate() {
        for (mi, m) in class.methods().enumerate() {
            if reach.is_reached(ci, mi) {
                for &call in m.api_calls() {
                    if let Some(s) = map.source_class(call) {
                        src_mask[flat] |= 1 << s.index();
                    }
                    if let Some(s) = map.sink_class(call) {
                        snk_mask[flat] |= 1 << s.index();
                    }
                }
            }
            flat += 1;
        }
    }
    let mut flows = BTreeSet::new();
    for source in SourceClass::ALL {
        let mut tainted = vec![false; n];
        let mut work: Vec<usize> = (0..n)
            .filter(|&f| src_mask[f] & (1 << source.index()) != 0)
            .collect();
        work.iter().for_each(|&f| tainted[f] = true);
        while let Some(f) = work.pop() {
            if snk_mask[f] != 0 {
                let pkg = dex.class(graph.owner_of(f).0).java_package();
                for sink in SinkClass::ALL {
                    if snk_mask[f] & (1 << sink.index()) != 0 {
                        flows.insert(TaintFlow {
                            source,
                            sink,
                            sink_package: pkg.clone(),
                        });
                    }
                }
            }
            for &t in graph.targets_of(f) {
                let t = t as usize;
                let (ci, mi) = graph.owner_of(t);
                if !tainted[t] && reach.is_reached(ci, mi) {
                    tainted[t] = true;
                    work.push(t);
                }
            }
        }
    }

    // Grouping: dotted package string → classes, in file order.
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (ci, class) in dex.classes().enumerate() {
        let pkg = class
            .java_package()
            .unwrap_or_else(|| "<default>".to_owned());
        groups.entry(pkg).or_default().push(ci);
    }
    let features = groups
        .into_iter()
        .map(|(java_package, members)| {
            let mut acc = 0u64;
            let mut api_counts: BTreeMap<u32, u16> = BTreeMap::new();
            let mut reachable_api_counts: BTreeMap<u32, u16> = BTreeMap::new();
            let mut code_segments = Vec::new();
            let (mut method_count, mut reachable_method_count) = (0u32, 0u32);
            for &ci in &members {
                let mut h = fnv1a64(&[]);
                for (mi, m) in dex.class(ci).methods().enumerate() {
                    let reached = reach.is_reached(ci, mi);
                    method_count += 1;
                    reachable_method_count += u32::from(reached);
                    let mut calls: Vec<u32> = m.api_calls().iter().map(|a| a.0).collect();
                    calls.sort_unstable();
                    for call in calls {
                        h = mix64(h, call as u64);
                        let cnt = api_counts.entry(call).or_insert(0);
                        *cnt = cnt.saturating_add(1);
                        if reached {
                            let cnt = reachable_api_counts.entry(call).or_insert(0);
                            *cnt = cnt.saturating_add(1);
                        }
                    }
                    h = mix64(h, m.code_hash());
                    code_segments.push(m.code_hash());
                }
                acc ^= mix64(h, 0xf00d);
            }
            code_segments.sort_unstable();
            Arc::new(PackageFeature {
                java_package,
                feature_hash: acc,
                class_count: members.len() as u32,
                api: api_counts
                    .into_iter()
                    .map(|(id, count)| ApiCount {
                        id,
                        count,
                        reachable: reachable_api_counts.get(&id).copied().unwrap_or(0),
                    })
                    .collect(),
                code_segments,
                method_count,
                reachable_method_count,
            })
        })
        .collect();
    (features, flows.into_iter().collect())
}

/// Digest `bytes` both ways and require the same answers.
fn assert_agrees(bytes: &[u8], what: &str) -> ApkDigest {
    let apk = ParsedApk::parse(bytes).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    let digest = ApkDigest::from_parsed(&apk);
    let (features, flows) = oracle_features(&apk);
    assert_eq!(
        digest.package_features, features,
        "{what}: package features"
    );
    assert_eq!(digest.flows, flows, "{what}: flows");
    digest
}

fn build(classes: Vec<Class>, components: &[&str]) -> Vec<u8> {
    let manifest = Manifest {
        package: PackageName::new("com.hostile.app").unwrap(),
        version_code: VersionCode(1),
        version_name: "1.0".into(),
        min_sdk: 9,
        target_sdk: 23,
        app_label: "Hostile".into(),
        permissions: vec![],
        category: "Tools".into(),
        components: components
            .iter()
            .map(|c| Component {
                kind: ComponentKind::Activity,
                class: (*c).to_owned(),
            })
            .collect(),
    };
    let mut dex = DexFile::default();
    for (name, methods) in &classes {
        dex.push_class(name);
        for (calls, code_hash, invokes) in methods {
            dex.push_method(*code_hash, calls, invokes);
        }
    }
    ApkBuilder::new(manifest, dex)
        .build(DeveloperKey::from_label("hostile"))
        .unwrap()
}

/// A hand-built method before it is written: calls, code hash, edges.
type Method = (Vec<ApiCallId>, u64, Vec<MethodRef>);

/// A hand-built class before it is written: its name and methods.
type Class = (String, Vec<Method>);

fn method(calls: Vec<ApiCallId>, code_hash: u64, invokes: &[(u16, u16)]) -> Method {
    let invokes = invokes
        .iter()
        .map(|&(class, method)| MethodRef { class, method })
        .collect();
    (calls, code_hash, invokes)
}

fn class(name: &str, methods: Vec<Method>) -> Class {
    (name.to_owned(), methods)
}

#[test]
fn generated_corpora_match_oracle() {
    let mut obfuscated = 0;
    let mut apps = 0;
    for seed in [0x1517_2018, 7, 99] {
        let world = generate(WorldConfig {
            seed,
            scale: Scale { divisor: 40_000 },
        });
        for market in MarketId::ALL {
            let obf = profile(market).requires_obfuscation;
            for id in world.market_listings(market).iter().take(4) {
                let listing = world.listing(*id);
                let bytes = world.build_apk(listing.app, listing.version, obf);
                let digest = assert_agrees(&bytes, &format!("seed {seed} {market:?} {id:?}"));
                assert!(!digest.package_features.is_empty());
                obfuscated += usize::from(obf);
                apps += 1;
            }
        }
    }
    assert!(
        obfuscated > 0 && obfuscated < apps,
        "{obfuscated} of {apps}"
    );
}

#[test]
fn hostile_descriptors_match_oracle() {
    let m = PermissionMap::shared();
    let src = m.source_apis(SourceClass::DeviceId)[0];
    let net = m.sink_apis(SinkClass::NetworkSend)[0];
    let log = m.sink_apis(SinkClass::LogExfil)[0];
    let classes = vec![
        // 0: entry, a source, invokes sinks in oddly named classes.
        class(
            "Lcom/app/Main;",
            vec![method(
                vec![src, ApiCallId(3)],
                1,
                &[(1, 0), (2, 0), (4, 0), (6, 0)],
            )],
        ),
        // 1, 2: default package and a literal `<default>` package.
        class("LMain;", vec![method(vec![net, ApiCallId(3)], 2, &[])]),
        class("L<default>/X;", vec![method(vec![log], 3, &[])]),
        // 3: malformed descriptors group with the default package.
        class("garbage", vec![method(vec![ApiCallId(5)], 4, &[])]),
        // 4, 5: one dotted package, two spellings, and a zero-method class.
        class("La.b/X;", vec![method(vec![net, ApiCallId(7)], 5, &[])]),
        class("La/b/Y;", vec![]),
        class("La/b/Z;", vec![method(vec![ApiCallId(7)], 6, &[])]),
        // Slash order and dotted order disagree here: `a.c` sorts after
        // `a.b` but `a.c` before `a/b`.
        class("La.c/X;", vec![method(vec![ApiCallId(9)], 7, &[])]),
        class("La-c/X;", vec![method(vec![ApiCallId(9)], 8, &[])]),
        class("La0/X;", vec![method(vec![], 9, &[])]),
        class("L/X;", vec![method(vec![ApiCallId(11)], 10, &[])]),
        class("L;", vec![]),
        class("Lz/\u{4e2d}/X;", vec![method(vec![ApiCallId(12)], 11, &[])]),
        class("L<default>/Y;", vec![]),
    ];
    for components in [&["Lcom/app/Main;"][..], &[]] {
        let digest = assert_agrees(&build(classes.clone(), components), "hostile");
        let names: Vec<&str> = digest
            .package_features
            .iter()
            .map(|f| f.java_package.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "",
                "<default>",
                "a-c",
                "a.b",
                "a.c",
                "a0",
                "com.app",
                "z.\u{4e2d}"
            ]
        );
        assert!(!digest.flows.is_empty());
    }
}

#[test]
fn saturated_counts_match_oracle() {
    // One API id 90 000 times in one package (more than one method can
    // carry), half of it in a method no entry point reaches.
    let hot = ApiCallId(42);
    let classes = vec![
        class(
            "Lsat/A;",
            vec![
                method(vec![hot; 30_000], 1, &[]),
                method(vec![hot; 30_000], 2, &[]),
            ],
        ),
        class("Lsat/B;", vec![method(vec![hot; 30_000], 3, &[])]),
    ];
    let digest = assert_agrees(&build(classes, &["Lsat/A;"]), "saturation");
    let f = &digest.package_features[0];
    assert_eq!(f.api_counts().collect::<Vec<_>>(), vec![(42, u16::MAX)]);
    assert_eq!(
        f.reachable_api_counts().collect::<Vec<_>>(),
        vec![(42, 60_000)]
    );
}

/// Class names over an alphabet rich in separators and the characters
/// that sort around them.
fn arb_name(rng: &mut DetRng) -> String {
    match usize_in(rng, 0..8) {
        0 => string_of(rng, "a-c./<>;L", 1..=6),
        1 => format!("L{};", string_of(rng, "ab", 1..=3)),
        _ => format!(
            "L{}/{};",
            string_of(rng, "ab./<-0", 0..=5),
            string_of(rng, "XY", 1..=2)
        ),
    }
}

#[test]
fn arbitrary_dex_matches_oracle() {
    let m = PermissionMap::shared();
    let mut pool: Vec<ApiCallId> = vec![ApiCallId(0), ApiCallId(API_DIMENSIONS - 1)];
    pool.extend(SourceClass::ALL.iter().map(|&s| m.source_apis(s)[0]));
    pool.extend(SinkClass::ALL.iter().map(|&s| m.sink_apis(s)[0]));
    check("digest_equivalence::arbitrary_dex", 128, |rng| {
        let class_count = usize_in(rng, 1..10);
        let mut classes: Vec<Class> = (0..class_count)
            .map(|_| {
                let name = arb_name(rng);
                let methods = vec_of(rng, 0..4, |r| {
                    method(vec_of(r, 0..6, |r| *r.pick(&pool)), r.range_u64(0, 4), &[])
                });
                (name, methods)
            })
            .collect();
        let sizes: Vec<usize> = classes.iter().map(|c| c.1.len()).collect();
        for c in &mut classes {
            for meth in &mut c.1 {
                for _ in 0..usize_in(rng, 0..3) {
                    let target = rng.index(class_count);
                    if sizes[target] > 0 {
                        meth.2.push(MethodRef {
                            class: target as u16,
                            method: rng.index(sizes[target]) as u16,
                        });
                    }
                }
            }
        }
        let entry = classes[0].0.clone();
        let components: &[&str] = if rng.chance(0.5) { &[&entry] } else { &[] };
        assert_agrees(&build(classes, components), "arbitrary");
    });
}
