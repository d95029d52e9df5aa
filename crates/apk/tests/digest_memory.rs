//! A digest's heap has a stated bound: 8 B per API-table row, 8 B per
//! method, a per-package header and a per-app header (DESIGN §8). Every
//! APK of a ÷40 000 world is digested plain and packed, and its heap is
//! summed from the capacities of everything it owns.

use marketscope_apk::digest::{ApiCount, ApkDigest, PackageFeature};
use marketscope_apk::taint::TaintFlow;
use marketscope_core::MarketId;
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use std::collections::BTreeSet;
use std::mem::size_of;

/// Per package beyond its rows and methods: the `PackageFeature` itself
/// (96 B) plus up to 64 B of dotted package name.
const PACKAGE_HEADER: usize = 160;

/// Per app beyond its packages: identity strings, permissions, channel
/// names and taint flows.
const APP_HEADER: usize = 2048;

fn strings<'a>(v: impl IntoIterator<Item = &'a String>) -> usize {
    v.into_iter().map(String::capacity).sum()
}

/// Heap bytes `d` owns, summed from capacities. The package name is an
/// `Arc<str>`: its two counters plus its bytes.
fn heap_bytes(d: &ApkDigest) -> usize {
    let app = 2 * size_of::<usize>()
        + d.package.as_str().len()
        + d.version_name.capacity()
        + d.app_label.capacity()
        + d.permissions.capacity() * size_of::<String>()
        + strings(&d.permissions)
        + d.channels.capacity() * size_of::<String>()
        + strings(&d.channels)
        + d.flows.capacity() * size_of::<TaintFlow>()
        + strings(d.flows.iter().filter_map(|f| f.sink_package.as_ref()));
    let packages: usize = d
        .package_features
        .iter()
        .map(|f| {
            f.java_package.capacity()
                + f.api.capacity() * size_of::<ApiCount>()
                + f.code_segments.capacity() * size_of::<u64>()
        })
        .sum();
    app + d.package_features.capacity() * size_of::<PackageFeature>() + packages
}

#[test]
fn digest_heap_stays_within_its_stated_bound() {
    assert_eq!(size_of::<ApiCount>(), 8);
    let world = generate(WorldConfig {
        scale: Scale { divisor: 40_000 },
        ..WorldConfig::default()
    });
    let apks: BTreeSet<_> = MarketId::ALL
        .into_iter()
        .flat_map(|m| world.market_listings(m))
        .map(|id| {
            let l = world.listing(*id);
            (l.app, l.version)
        })
        .collect();
    assert!(apks.len() > 100, "{} APKs", apks.len());
    for &(app, version) in &apks {
        for obfuscated in [false, true] {
            let d = ApkDigest::from_bytes(&world.build_apk(app, version, obfuscated)).unwrap();
            let (mut rows, mut methods) = (0, 0);
            for f in &d.package_features {
                assert_eq!(f.api.capacity(), f.api.len(), "{}", f.java_package);
                assert_eq!(f.code_segments.capacity(), f.code_segments.len());
                rows += f.api.len();
                methods += f.method_count as usize;
            }
            let bound =
                8 * rows + 8 * methods + PACKAGE_HEADER * d.package_features.len() + APP_HEADER;
            let heap = heap_bytes(&d);
            assert!(
                heap <= bound,
                "{} v{version} obfuscated={obfuscated}: {heap} B > {bound} B",
                d.package
            );
        }
    }
}
