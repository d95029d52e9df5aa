//! Cross-crate property-based tests: invariants that must hold for *any*
//! input, not just the golden path.

use marketscope::analysis::taint::LeakAnalyzer;
use marketscope::apk::apicalls::{ApiCallId, API_DIMENSIONS};
use marketscope::apk::builder::ApkBuilder;
use marketscope::apk::dex::{DexFile, MethodRef};
use marketscope::apk::digest::ApkDigest;
use marketscope::apk::manifest::{Component, ComponentKind, Manifest};
use marketscope::apk::permmap::{PermissionMap, SinkClass, SourceClass};
use marketscope::apk::zip::ZipArchive;
use marketscope::clonedetect::{normalized_manhattan, segment_overlap};
use marketscope::core::json::Json;
use marketscope::core::propcheck::{any_u64, check, printable, string_of, usize_in, vec_of};
use marketscope::core::rng::DetRng;
use marketscope::core::{DeveloperKey, PackageName, SimDate, VersionCode};
use marketscope::libdetect::PackageOwnership;
use std::collections::BTreeMap;

// ---------- generators ----------

fn arb_package(rng: &mut DetRng) -> String {
    let mut seg = || string_of(rng, "a-z", 1..=1) + &string_of(rng, "a-z0-9_", 0..=6);
    format!("{}.{}.{}", seg(), seg(), seg())
}

/// A generated method before it is written: calls, code hash, edges.
type ArbMethod = (Vec<ApiCallId>, u64, Vec<MethodRef>);

/// A generated class before it is written: its name and methods.
struct ArbClass {
    name: String,
    methods: Vec<ArbMethod>,
}

fn arb_method(rng: &mut DetRng) -> ArbMethod {
    let calls = vec_of(rng, 0..6, |r| {
        ApiCallId(r.range_u64(0, API_DIMENSIONS.into()) as u32)
    });
    (calls, any_u64(rng), vec![])
}

fn arb_class(rng: &mut DetRng) -> ArbClass {
    let mut pkg = || string_of(rng, "a-z", 1..=1) + &string_of(rng, "a-z0-9", 0..=5);
    let (p1, p2) = (pkg(), pkg());
    let cls = string_of(rng, "A-Z", 1..=1) + &string_of(rng, "a-zA-Z0-9", 0..=6);
    ArbClass {
        name: format!("L{p1}/{p2}/{cls};"),
        methods: vec_of(rng, 0..4, arb_method),
    }
}

/// Write generated classes into a DEX model, in order.
fn dex_of(classes: &[ArbClass]) -> DexFile {
    let mut dex = DexFile::default();
    for class in classes {
        dex.push_class(&class.name);
        for (calls, code_hash, invokes) in &class.methods {
            dex.push_method(*code_hash, calls, invokes);
        }
    }
    dex
}

/// A dex file whose invocation edges are all valid (wired modulo the
/// generated class/method counts), exercising the tagged layout.
fn arb_wired_dex(rng: &mut DetRng) -> DexFile {
    let mut classes = vec_of(rng, 1..8, arb_class);
    let n = classes.len() as u16;
    for _ in 0..usize_in(rng, 0..24) {
        let [sc, sm, tc, tm] = [(); 4].map(|()| any_u64(rng) as u16);
        let (sc, tc) = (sc % n, tc % n);
        let src_methods = classes[sc as usize].methods.len() as u16;
        let tgt_methods = classes[tc as usize].methods.len() as u16;
        if src_methods == 0 || tgt_methods == 0 {
            continue;
        }
        let target = MethodRef {
            class: tc,
            method: tm % tgt_methods,
        };
        classes[sc as usize].methods[(sm % src_methods) as usize]
            .2
            .push(target);
    }
    dex_of(&classes)
}

fn arb_component(rng: &mut DetRng) -> Component {
    let kind = *rng.pick(&[
        ComponentKind::Activity,
        ComponentKind::Service,
        ComponentKind::Receiver,
    ]);
    let cls = string_of(rng, "A-Z", 1..=1) + &string_of(rng, "a-zA-Z0-9", 0..=6);
    Component {
        kind,
        class: format!("Lapp/{cls};"),
    }
}

fn arb_manifest(rng: &mut DetRng) -> Manifest {
    let pkg = arb_package(rng);
    let vc = rng.range_u64(1, 500) as u32;
    let sdk = rng.range_u64(0, 28) as u8;
    Manifest {
        package: PackageName::new(&pkg).expect("generated packages are valid"),
        version_code: VersionCode(vc),
        version_name: format!("{vc}.0"),
        min_sdk: sdk.max(1),
        target_sdk: sdk.max(1).saturating_add(5),
        permissions: vec_of(rng, 0..6, |r| {
            format!("android.permission.{}", string_of(r, "A-Z_", 3..=20))
        }),
        app_label: string_of(rng, " -~", 0..=30),
        category: "Tools".into(),
        components: vec_of(rng, 0..4, arb_component),
    }
}

/// `(position, xor mask)` corruptions applied modulo the buffer length.
fn flip_bytes(rng: &mut DetRng, buf: &mut [u8]) {
    for _ in 0..usize_in(rng, 1..8) {
        let i = any_u64(rng) as u16 as usize % buf.len();
        buf[i] ^= any_u64(rng) as u8;
    }
}

/// A sparse vector: distinct keys in `0..2000`, counts in `1..50`.
fn arb_sparse_vector(rng: &mut DetRng) -> Vec<(u32, u32)> {
    let entries: BTreeMap<u32, u32> = vec_of(rng, 0..40, |r| {
        (r.range_u64(0, 2000) as u32, r.range_u64(1, 50) as u32)
    })
    .into_iter()
    .collect();
    entries.into_iter().collect()
}

/// This suite's runner: 64 cases per property, streams named
/// `properties::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("properties::{name}"), 64, body);
}

// ---------- APK container ----------

#[test]
fn any_built_apk_parses_back() {
    property("any_built_apk_parses_back", |rng| {
        let manifest = arb_manifest(rng);
        let dex = dex_of(&vec_of(rng, 0..12, arb_class));
        let key = DeveloperKey::from_label(&string_of(rng, "a-z0-9", 1..=12));
        let channel = rng.chance(0.5).then(|| string_of(rng, "a-z", 1..=10));
        let mut builder = ApkBuilder::new(manifest.clone(), dex.clone());
        if let Some(ch) = &channel {
            builder = builder.channel(ch, b"chan".to_vec());
        }
        let bytes = builder.build(key).unwrap();
        let parsed = marketscope::apk::ParsedApk::parse(&bytes).unwrap();
        assert_eq!(parsed.manifest, manifest);
        assert_eq!(parsed.dex, dex);
        assert!(parsed.signature_valid);
        assert_eq!(parsed.developer(), key);
        assert_eq!(parsed.channels.len(), usize::from(channel.is_some()));
        // The digest agrees with the parse.
        let digest = ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(digest.package, manifest.package);
        assert_eq!(digest.code_segments().count(), dex.method_count());
    });
}

#[test]
fn apk_parser_never_panics_on_mutations() {
    property("apk_parser_never_panics_on_mutations", |rng| {
        let manifest = arb_manifest(rng);
        let dex = dex_of(&vec_of(rng, 0..4, arb_class));
        let mut corrupted = ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label("d"))
            .unwrap();
        flip_bytes(rng, &mut corrupted);
        // Must never panic; any Result is acceptable.
        let _ = marketscope::apk::ParsedApk::parse(&corrupted);
        let _ = ZipArchive::parse(&corrupted);
    });
}

// ---------- tagged dex surface ----------

#[test]
fn dex_v2_round_trips() {
    property("dex_v2_round_trips", |rng| {
        let dex = arb_wired_dex(rng);
        assert_eq!(DexFile::decode(&dex.encode().unwrap()).unwrap(), dex);
    });
}

#[test]
fn dex_decoder_rejects_every_truncation() {
    property("dex_decoder_rejects_every_truncation", |rng| {
        // A valid encoding consumes every byte, so *any* strict prefix
        // must be rejected — never panic, never half-parse.
        let bytes = arb_wired_dex(rng).encode().unwrap();
        let k = usize_in(rng, 0..bytes.len());
        assert!(DexFile::decode(&bytes[..k]).is_err(), "prefix of {k} bytes");
    });
}

#[test]
fn dex_decoder_is_total_under_bit_flips() {
    property("dex_decoder_is_total_under_bit_flips", |rng| {
        let mut bytes = arb_wired_dex(rng).encode().unwrap();
        flip_bytes(rng, &mut bytes);
        // Must never panic; any Result is acceptable.
        let _ = DexFile::decode(&bytes);
    });
}

// ---------- taint / leak attribution ----------

#[test]
fn leak_analysis_is_worker_invariant() {
    property("leak_analysis_is_worker_invariant", |rng| {
        let manifest = arb_manifest(rng);
        let mut classes = vec_of(rng, 1..8, arb_class);
        // Inject real source/sink API ids so a share of generated apps
        // genuinely leak (pure-random call ids rarely hit the sparse
        // sink space).
        let map = PermissionMap::standard();
        for _ in 0..usize_in(rng, 0..6) {
            let src = map.source_apis(*rng.pick(&SourceClass::ALL))[0];
            let snk = map.sink_apis(*rng.pick(&SinkClass::ALL))[0];
            let ci = rng.index(classes.len());
            if let Some(m) = classes[ci].methods.first_mut() {
                m.0.push(src);
                m.0.push(snk);
            }
        }
        let dex = dex_of(&classes);
        let bytes = ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label("prop"))
            .unwrap();
        let digest = ApkDigest::from_bytes(&bytes).unwrap();
        // Ownership roots drawn from the generated packages themselves,
        // so both Host and Library attributions occur.
        let roots: Vec<String> = dex_of(&classes)
            .classes()
            .step_by(2)
            .filter_map(|c| c.java_package())
            .collect();
        let ownership = PackageOwnership::new(roots);
        let analyzer = LeakAnalyzer::new();
        let digests: Vec<&ApkDigest> = vec![&digest; 5];
        let sequential: Vec<_> = digests
            .iter()
            .map(|d| analyzer.analyze(d, &ownership))
            .collect();
        for workers in [1usize, 2, 8] {
            let batch = analyzer.analyze_batch(&digests, &ownership, workers);
            assert_eq!(batch, sequential, "workers = {workers}");
        }
        // Attribution is a partition of the digest's flows.
        let r = &sequential[0];
        assert_eq!(r.flows.len(), digest.flows.len());
        assert_eq!(r.host_flows() + r.library_flows(), r.flows.len());
        assert_eq!(r.leaks(), !digest.flows.is_empty());
    });
}

// ---------- JSON ----------

#[test]
fn json_strings_round_trip() {
    property("json_strings_round_trip", |rng| {
        let doc = Json::Str(printable(rng, 0..=32));
        let wire = doc.to_string_compact();
        assert_eq!(Json::parse(&wire).unwrap(), doc);
    });
}

#[test]
fn json_numbers_round_trip() {
    property("json_numbers_round_trip", |rng| {
        let i = any_u64(rng) as i64;
        let wire = Json::Int(i).to_string_compact();
        assert_eq!(Json::parse(&wire).unwrap(), Json::Int(i));
    });
}

#[test]
fn json_parser_never_panics() {
    property("json_parser_never_panics", |rng| {
        let _ = Json::parse(&printable(rng, 0..=32));
    });
}

// ---------- clone metrics ----------

#[test]
fn manhattan_distance_is_a_semimetric() {
    property("manhattan_distance_is_a_semimetric", |rng| {
        let va = arb_sparse_vector(rng);
        let vb = arb_sparse_vector(rng);
        let dab = normalized_manhattan(&va, &vb);
        let dba = normalized_manhattan(&vb, &va);
        assert!((dab - dba).abs() < 1e-12, "asymmetric: {dab} vs {dba}");
        assert!((0.0..=1.0).contains(&dab), "out of range: {dab}");
        assert!(normalized_manhattan(&va, &va) == 0.0 || va.is_empty());
    });
}

#[test]
fn segment_overlap_is_bounded_and_symmetric() {
    property("segment_overlap_is_bounded_and_symmetric", |rng| {
        let mut a = vec_of(rng, 0..60, any_u64);
        let mut b = vec_of(rng, 0..60, any_u64);
        a.sort_unstable();
        b.sort_unstable();
        let sab = segment_overlap(&a, &b);
        let sba = segment_overlap(&b, &a);
        assert!((sab - sba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&sab));
        if !a.is_empty() {
            assert_eq!(segment_overlap(&a, &a), 1.0);
        }
    });
}

// ---------- dates ----------

#[test]
fn simdate_roundtrips_through_strings() {
    property("simdate_roundtrips_through_strings", |rng| {
        let days = rng.range_u64(0, 74_000) as i64 - 14_000;
        let d = SimDate::from_days(days).unwrap();
        let back: SimDate = d.to_string().parse().unwrap();
        assert_eq!(back, d);
    });
}

// ---------- install ranges ----------

#[test]
fn install_range_brackets_its_count() {
    use marketscope::core::InstallRange;
    property("install_range_brackets_its_count", |rng| {
        let v = any_u64(rng);
        let r = InstallRange::from_count(v);
        assert!(v >= r.lower_bound());
        if let Some(hi) = r.upper_bound() {
            assert!(v < hi);
        }
    });
}

// ---------- deterministic cross-crate invariants ----------

#[test]
fn world_generation_is_reproducible_across_processes_shape() {
    use marketscope::ecosystem::{generate, Scale, WorldConfig};
    // Byte-stable across two in-process generations (the cross-process
    // guarantee follows from no ambient state: no clock, no OS RNG).
    let a = generate(WorldConfig {
        seed: 1234,
        scale: Scale { divisor: 30_000 },
    });
    let b = generate(WorldConfig {
        seed: 1234,
        scale: Scale { divisor: 30_000 },
    });
    assert_eq!(a.listing_count(), b.listing_count());
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.package, y.package);
        assert_eq!(x.declared_permissions, y.declared_permissions);
    }
    let ax = a.build_apk(marketscope::ecosystem::AppId(3), 1, false);
    let bx = b.build_apk(marketscope::ecosystem::AppId(3), 1, false);
    assert_eq!(ax, bx);
}

#[test]
fn different_seeds_produce_different_worlds() {
    use marketscope::ecosystem::{generate, Scale, WorldConfig};
    let a = generate(WorldConfig {
        seed: 1,
        scale: Scale { divisor: 30_000 },
    });
    let b = generate(WorldConfig {
        seed: 2,
        scale: Scale { divisor: 30_000 },
    });
    let pa: Vec<&str> = a.apps.iter().take(20).map(|x| x.package.as_str()).collect();
    let pb: Vec<&str> = b.apps.iter().take(20).map(|x| x.package.as_str()).collect();
    assert_ne!(pa, pb);
}
