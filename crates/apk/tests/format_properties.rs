//! Property-based tests for the wire formats: DEX with invocation edges
//! and manifests with declared components must round-trip for any
//! generated input, and every strict prefix of an encoding must fail to
//! decode rather than panic or silently succeed. A DEX model the format
//! cannot carry must fail to encode rather than encode into other bytes.
//! Whole APKs with flipped or truncated bytes, in an entry or in the
//! container, must decode or be refused, never panic.

use marketscope_apk::apicalls::{ApiCallId, API_DIMENSIONS};
use marketscope_apk::builder::ApkBuilder;
use marketscope_apk::dex::{DexFile, MethodRef};
use marketscope_apk::digest::ApkDigest;
use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
use marketscope_apk::parse::ParsedApk;
use marketscope_apk::zip::ZipArchive;
use marketscope_apk::ApkError;
use marketscope_core::propcheck::{any_u64, check, string_of, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_core::{DeveloperKey, PackageName, VersionCode};

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
    // (name, [(calls, code hash)]) per class; edges are drawn once every
    // class's method count is known.
    type Class = (String, Vec<(Vec<ApiCallId>, u64)>);
    let classes: Vec<Class> = (0..usize_in(rng, 1..6))
        .map(|ci| {
            let (pkg, cls) = arb_class_name(rng);
            // Distinct per-class suffix keeps names unique even when
            // the string generator repeats itself.
            let name = format!("L{pkg}/{cls}{ci};");
            let methods = vec_of(rng, 0..4, |r| {
                let calls = vec_of(r, 0..5, |r| {
                    ApiCallId(r.range_u64(0, API_DIMENSIONS.into()) as u32)
                });
                (calls, any_u64(r))
            });
            (name, methods)
        })
        .collect();
    let method_counts: Vec<usize> = classes.iter().map(|c| c.1.len()).collect();
    let mut dex = DexFile::default();
    for (name, methods) in &classes {
        dex.push_class(name);
        for (calls, code_hash) in methods {
            let invokes: Vec<MethodRef> =
                vec_of(rng, 0..5, |r| (r.index(method_counts.len()), any_u64(r)))
                    .into_iter()
                    .filter(|(class, _)| method_counts[*class] > 0) // cannot target a method-less class
                    .map(|(class, m)| MethodRef {
                        class: class as u16,
                        method: (m % method_counts[class] as u64) as u16,
                    })
                    .collect();
            dex.push_method(*code_hash, calls, &invokes);
        }
    }
    dex
}

/// Models at and past each limit of the format: an empty or overlong
/// class name, more than 4 096 methods in a class, more than 65 535
/// calls or edges in a method, an API id outside the feature space, a
/// dangling edge, more than 65 536 classes. Each limit is crossed only
/// now and then, so models sitting exactly at a limit, which must still
/// encode, are common too.
fn arb_any_dex(rng: &mut DetRng) -> DexFile {
    let mut dex = DexFile::default();
    if rng.chance(0.03) {
        for _ in 0..65_537 {
            dex.push_class("La;");
        }
        return dex;
    }
    // At a limit, or one past it.
    let near = |r: &mut DetRng, limit: usize| limit + usize::from(r.chance(0.3));
    let classes = usize_in(rng, 1..4);
    for class in 0..classes {
        let name_len = if rng.chance(0.1) {
            *rng.pick(&[0, 1_024, 1_025])
        } else {
            usize_in(rng, 1..12)
        };
        dex.push_class(&"x".repeat(name_len));
        let methods = if rng.chance(0.05) {
            near(rng, 4_096)
        } else {
            usize_in(rng, 0..4)
        };
        // At most one bad API id and one dangling edge per class.
        let mut flaw = |p: f64| rng.chance(p).then(|| rng.index(methods.max(1)));
        let (bad_id, dangling) = (flaw(0.1), flaw(0.1));
        for method in 0..methods {
            let big = methods < 8 && rng.chance(0.3);
            let calls = if big {
                near(rng, 65_535)
            } else {
                usize_in(rng, 0..4)
            };
            let id = if bad_id == Some(method) {
                API_DIMENSIONS
            } else {
                rng.range_u64(0, API_DIMENSIONS.into()) as u32
            };
            // A method's edge to itself always lands; one past the last
            // class, or past its class's last method, never does.
            let (target, index) = if dangling != Some(method) {
                (class, method)
            } else if rng.chance(0.5) {
                (classes, method)
            } else {
                (class, methods)
            };
            let edge = MethodRef {
                class: target as u16,
                method: index as u16,
            };
            let edges = if big && rng.chance(0.5) {
                near(rng, 65_535)
            } else {
                usize_in(rng, 0..3)
            };
            dex.push_method(
                method as u64,
                &vec![ApiCallId(id); calls],
                &vec![edge; edges],
            );
        }
    }
    dex
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
        let bytes = dex.encode().expect("a well-formed model encodes");
        let decoded = DexFile::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, dex);
        assert_eq!(decoded.edge_count(), dex.edge_count());
    });
}

#[test]
fn dex_truncation_always_errors() {
    property("dex_truncation_always_errors", |rng| {
        let bytes = arb_dex(rng).encode().expect("a well-formed model encodes");
        assert_every_prefix_errors(&bytes, DexFile::decode);
    });
}

#[test]
fn dex_encode_refuses_or_round_trips() {
    let (mut encoded, mut refused) = (0, 0);
    property("dex_encode_refuses_or_round_trips", |rng| {
        let dex = arb_any_dex(rng);
        match dex.encode() {
            Ok(bytes) => {
                encoded += 1;
                assert_eq!(DexFile::decode(&bytes).expect("own encoding decodes"), dex);
            }
            Err(e) => {
                refused += 1;
                assert!(matches!(e, ApkError::Bounds { .. }), "{e:?}");
            }
        }
    });
    assert!(
        encoded > 0 && refused > 0,
        "{encoded} encoded, {refused} refused"
    );
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

// ---------- whole APKs on hostile bytes ----------

/// Mutated copies decoded per generated APK.
const MUTANTS: usize = 16;

/// A signed APK over generated parts, with a store channel file half
/// the time.
fn arb_apk(rng: &mut DetRng) -> Vec<u8> {
    let mut builder = ApkBuilder::new(arb_manifest(rng), arb_dex(rng));
    if rng.chance(0.5) {
        builder = builder.channel("channel.txt", vec_of(rng, 0..32, |r| r.index(256) as u8));
    }
    builder
        .build(DeveloperKey::from_label("format_properties"))
        .expect("a well-formed model builds")
}

/// XOR one to eight bytes of `bytes` with nonzero masks.
fn flip(rng: &mut DetRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..usize_in(rng, 1..9) {
        let at = rng.index(bytes.len());
        bytes[at] ^= rng.range_u64(1, 256) as u8;
    }
}

/// Every decoder an APK meets on ingest. Each must answer `Ok` or `Err`
/// (a panic fails the test), and the digest must answer exactly when
/// the parser does.
fn decode_all(bytes: &[u8]) {
    let _ = ZipArchive::parse(bytes);
    let parsed = ParsedApk::parse(bytes);
    if let Ok(apk) = &parsed {
        ApkDigest::from_parsed(apk);
    }
    assert_eq!(ApkDigest::from_bytes(bytes).is_ok(), parsed.is_ok());
}

/// Flips inside one entry, re-packed so every CRC is valid: the bytes
/// get past the container and reach the manifest, DEX and certificate
/// decoders.
#[test]
fn flipped_entries_with_valid_crcs_decode_or_error() {
    property("flipped_entries_with_valid_crcs_decode_or_error", |rng| {
        let zip = ZipArchive::parse(&arb_apk(rng)).expect("own build parses");
        for _ in 0..MUTANTS {
            let victim = rng.index(zip.entries().len());
            let mut repacked = ZipArchive::new();
            for (i, entry) in zip.entries().iter().enumerate() {
                let mut data = entry.data.clone();
                if i == victim {
                    flip(rng, &mut data);
                }
                repacked.add(&entry.name, data).expect("names stay unique");
            }
            decode_all(&repacked.to_bytes());
        }
    });
}

/// Flips and truncations anywhere in the container bytes: headers,
/// central directory, end record and payloads alike.
#[test]
fn flipped_or_truncated_containers_decode_or_error() {
    property("flipped_or_truncated_containers_decode_or_error", |rng| {
        let apk = arb_apk(rng);
        for _ in 0..MUTANTS {
            let mut bytes = apk.clone();
            if rng.chance(0.5) {
                bytes.truncate(rng.index(bytes.len()));
            } else {
                flip(rng, &mut bytes);
            }
            decode_all(&bytes);
        }
    });
}
