//! Property-based tests for the wire formats: DEX with invocation edges
//! and manifests with declared components must round-trip for any
//! generated input, and every strict prefix of an encoding must fail to
//! decode rather than panic or silently succeed.

use marketscope_apk::apicalls::{ApiCallId, API_DIMENSIONS};
use marketscope_apk::dex::{ClassDef, DexFile, MethodDef, MethodRef};
use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
use marketscope_core::propcheck::{any_u64, check, string_of, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_core::{PackageName, VersionCode};

/// This suite's runner: 64 cases per property, streams named
/// `format_properties::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("format_properties::{name}"), 64, body);
}

// ---------- generators ----------

fn arb_class_name(rng: &mut DetRng) -> (String, String) {
    (
        string_of(rng, "a-z", 1..=1) + &string_of(rng, "a-z0-9", 0..=5),
        string_of(rng, "A-Z", 1..=1) + &string_of(rng, "a-zA-Z0-9", 0..=6),
    )
}

/// Edges are drawn as raw index pairs and clamped onto real (class,
/// method) coordinates, so every generated DEX is well-formed by
/// construction (the decoder rejects dangling refs).
fn arb_dex(rng: &mut DetRng) -> DexFile {
    let mut classes: Vec<ClassDef> = (0..usize_in(rng, 1..6))
        .map(|ci| {
            let (pkg, cls) = arb_class_name(rng);
            ClassDef {
                // Distinct per-class suffix keeps names unique even when
                // the string generator repeats itself.
                name: format!("L{pkg}/{cls}{ci};"),
                methods: vec_of(rng, 0..4, |r| MethodDef {
                    api_calls: vec_of(r, 0..5, |r| {
                        ApiCallId(r.range_u64(0, API_DIMENSIONS.into()) as u32)
                    }),
                    code_hash: any_u64(r),
                    invokes: vec![],
                }),
            }
        })
        .collect();
    let method_counts: Vec<usize> = classes.iter().map(|c| c.methods.len()).collect();
    for method in classes.iter_mut().flat_map(|c| &mut c.methods) {
        method.invokes = vec_of(rng, 0..5, |r| (r.index(method_counts.len()), any_u64(r)))
            .into_iter()
            .filter(|(class, _)| method_counts[*class] > 0) // cannot target a method-less class
            .map(|(class, m)| MethodRef {
                class: class as u16,
                method: (m % method_counts[class] as u64) as u16,
            })
            .collect();
    }
    DexFile { classes }
}

fn arb_component(rng: &mut DetRng) -> Component {
    let kind = *rng.pick(&[
        ComponentKind::Activity,
        ComponentKind::Service,
        ComponentKind::Receiver,
    ]);
    let (pkg, cls) = arb_class_name(rng);
    Component {
        kind,
        class: format!("L{pkg}/{cls};"),
    }
}

fn arb_manifest(rng: &mut DetRng) -> Manifest {
    let mut seg = || string_of(rng, "a-z", 1..=1) + &string_of(rng, "a-z0-9_", 0..=6);
    let package = format!("{}.{}", seg(), seg());
    let vc = rng.range_u64(1, 500) as u32;
    let sdk = rng.range_u64(0, 28) as u8;
    Manifest {
        package: PackageName::new(&package).expect("generated packages are valid"),
        version_code: VersionCode(vc),
        version_name: format!("{vc}.0"),
        min_sdk: sdk.max(1),
        target_sdk: sdk.max(1).saturating_add(5),
        app_label: "App".into(),
        permissions: vec_of(rng, 0..6, |r| {
            format!("android.permission.{}", string_of(r, "A-Z_", 3..=20))
        }),
        category: "Tools".into(),
        components: vec_of(rng, 0..5, arb_component),
    }
}

fn assert_every_prefix_errors<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, marketscope_apk::ApkError>,
) {
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut} / {} bytes decoded",
            bytes.len()
        );
    }
}

// ---------- DEX ----------

#[test]
fn dex_v2_round_trips_with_edges() {
    property("dex_v2_round_trips_with_edges", |rng| {
        let dex = arb_dex(rng);
        let decoded = DexFile::decode(&dex.encode()).expect("own encoding decodes");
        assert_eq!(decoded, dex);
        assert_eq!(decoded.edge_count(), dex.edge_count());
    });
}

#[test]
fn dex_truncation_always_errors() {
    property("dex_truncation_always_errors", |rng| {
        assert_every_prefix_errors(&arb_dex(rng).encode(), DexFile::decode);
    });
}

// ---------- manifest ----------

#[test]
fn manifest_v2_round_trips_with_components() {
    property("manifest_v2_round_trips_with_components", |rng| {
        let m = arb_manifest(rng);
        let decoded = Manifest::decode(&m.encode()).expect("own encoding decodes");
        assert_eq!(decoded, m);
    });
}

#[test]
fn manifest_truncation_always_errors() {
    property("manifest_truncation_always_errors", |rng| {
        assert_every_prefix_errors(&arb_manifest(rng).encode(), Manifest::decode);
    });
}
