//! A snapshot's digests have a stated heap bound: 8 B per API-table row
//! and 8 B per method of each distinct package feature, a header per
//! distinct feature, and per digest an app header plus one 8-byte
//! reference per package (DESIGN §8). Every APK of a ÷40 000 world is
//! digested plain and packed, every digest passes through one
//! [`FeatureTable`], and the heap is summed from the capacities of
//! everything the digests own, each shared feature counted once.

use marketscope_apk::digest::{ApiCount, ApkDigest, FeatureTable, PackageFeature};
use marketscope_apk::taint::TaintFlow;
use marketscope_core::MarketId;
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use std::collections::{BTreeSet, HashSet};
use std::mem::size_of;
use std::sync::Arc;

/// Per distinct package feature beyond its rows and methods: the `Arc`'s
/// two counters (16 B), the `PackageFeature` itself (96 B) and up to
/// 64 B of dotted package name.
const PACKAGE_HEADER: usize = 176;

/// Per app beyond its package references: identity strings,
/// permissions, channel names and taint flows.
const APP_HEADER: usize = 2048;

/// Per package reference of an app: one `Arc` pointer.
const PACKAGE_REF: usize = size_of::<Arc<PackageFeature>>();

fn strings<'a>(v: impl IntoIterator<Item = &'a String>) -> usize {
    v.into_iter().map(String::capacity).sum()
}

/// Heap bytes `d` owns apart from its package features, summed from
/// capacities. The package name is an `Arc<str>`: its two counters plus
/// its bytes.
fn app_heap_bytes(d: &ApkDigest) -> usize {
    2 * size_of::<usize>()
        + d.package.as_str().len()
        + d.version_name.capacity()
        + d.app_label.capacity()
        + d.permissions.capacity() * size_of::<String>()
        + strings(&d.permissions)
        + d.channels.capacity() * size_of::<String>()
        + strings(&d.channels)
        + d.flows.capacity() * size_of::<TaintFlow>()
        + strings(d.flows.iter().filter_map(|f| f.sink_package.as_ref()))
        + d.package_features.capacity() * PACKAGE_REF
}

/// Heap bytes of one shared feature: its `Arc` allocation and what the
/// feature owns.
fn feature_heap_bytes(f: &PackageFeature) -> usize {
    2 * size_of::<usize>()
        + size_of::<PackageFeature>()
        + f.java_package.capacity()
        + f.api.capacity() * size_of::<ApiCount>()
        + f.code_segments.capacity() * size_of::<u64>()
}

#[test]
fn digest_heap_stays_within_its_stated_bound() {
    assert_eq!(size_of::<ApiCount>(), 8);
    assert_eq!(PACKAGE_REF, 8);
    assert!(2 * size_of::<usize>() + size_of::<PackageFeature>() + 64 <= PACKAGE_HEADER);
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
    let mut table = FeatureTable::new();
    let mut digests = Vec::with_capacity(2 * apks.len());
    for &(app, version) in &apks {
        for obfuscated in [false, true] {
            let bytes = world.build_apk(app, version, obfuscated);
            let mut d = ApkDigest::from_bytes(&bytes).unwrap();
            table.intern_digest(&mut d);
            digests.push(d);
        }
    }

    let (mut heap, mut bound, mut refs) = (0, 0, 0);
    for d in &digests {
        heap += app_heap_bytes(d);
        bound += APP_HEADER + PACKAGE_REF * d.package_features.len();
        refs += d.package_features.len();
    }
    let mut distinct = HashSet::new();
    for f in digests.iter().flat_map(|d| &d.package_features) {
        if !distinct.insert(Arc::as_ptr(f)) {
            continue;
        }
        assert_eq!(f.api.capacity(), f.api.len(), "{}", f.java_package);
        assert_eq!(f.code_segments.capacity(), f.code_segments.len());
        heap += feature_heap_bytes(f);
        bound += 8 * f.api.len() + 8 * f.method_count as usize + PACKAGE_HEADER;
    }
    assert_eq!(
        distinct.len(),
        table.len(),
        "one allocation per distinct feature"
    );
    assert!(
        distinct.len() < refs,
        "{refs} package references share {} features",
        distinct.len()
    );
    assert!(heap <= bound, "{heap} B > {bound} B");
}
