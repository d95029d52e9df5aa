//! The third-party library catalog.
//!
//! Section 4.4 of the paper clusters 6 M apps into 5,102 libraries with
//! 672 K versions, labels the top 2,000, and contrasts Google Play's
//! Google-service-dominated library mix (Table 2, top half) with the
//! Chinese markets' mix of WeChat/Baidu/Umeng/Alipay SDKs (bottom half).
//!
//! Our catalog has the same two-part structure: a **head** of named,
//! hand-labelled libraries with per-region adoption probabilities straight
//! from Table 2, and a generated Zipf-popularity **tail**. Every
//! `(library, version)` pair deterministically expands to DEX classes, so
//! the same version embedded by two apps is byte-identical — the property
//! LibRadar-style clustering keys on.

use crate::world::segment_edges;
use marketscope_apk::apicalls::{ApiCallId, API_CALL_RANGE};
use marketscope_apk::dex::DexFile;
use marketscope_core::hash::mix64;
use marketscope_core::rng::DetRng;
use std::collections::HashMap;

/// Functional category of a library (the paper's 5 labels plus the game
/// engines it lists in Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibCategory {
    /// Ad networks (AdMob, Umeng's ad arm, Airpush...).
    Ad,
    /// Analytics/tracking SDKs.
    Analytics,
    /// Social-network SDKs (Facebook Graph, WeChat).
    SocialNetworking,
    /// General development tooling (gms, gson, apache commons).
    Development,
    /// Payment SDKs (Alipay, Play vending, Square).
    Payment,
    /// Game engines (Unity, FMOD).
    GameEngine,
}

/// Region affinity driving adoption probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adoption {
    /// Probability a Google-Play-homed app embeds this library.
    pub google_play: f64,
    /// Probability a Chinese-market-homed app embeds this library.
    pub chinese: f64,
}

/// One library in the catalog.
#[derive(Debug, Clone)]
pub struct LibSpec {
    /// Root Java package, e.g. `com.umeng`.
    pub package: String,
    /// Functional category.
    pub category: LibCategory,
    /// Adoption probabilities per region.
    pub adoption: Adoption,
    /// Number of released versions.
    pub versions: u32,
    /// Classes per version (size of the library).
    pub classes: u32,
}

/// Index of a library in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibId(pub u32);

/// A concrete embedded dependency: library + version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibUse {
    /// Which library.
    pub lib: LibId,
    /// Which version (0-based, < `LibSpec::versions`).
    pub version: u32,
}

/// The full catalog: named head + generated tail.
#[derive(Debug, Clone)]
pub struct LibCatalog {
    specs: Vec<LibSpec>,
    /// Number of head (hand-labelled) entries.
    head_len: usize,
}

/// Table 2 head entries: `(package, category, GP adoption, CN adoption)`.
/// Adoption values are the paper's usage percentages.
const HEAD: [(&str, LibCategory, f64, f64); 16] = [
    (
        "com.google.android.gms",
        LibCategory::Development,
        0.661,
        0.205,
    ),
    ("com.google.ads", LibCategory::Ad, 0.621, 0.257),
    ("com.facebook", LibCategory::SocialNetworking, 0.215, 0.107),
    ("org.apache", LibCategory::Development, 0.205, 0.241),
    ("com.squareup", LibCategory::Payment, 0.138, 0.04),
    ("com.google.gson", LibCategory::Development, 0.129, 0.163),
    ("com.android.vending", LibCategory::Payment, 0.125, 0.03),
    ("com.unity3d", LibCategory::GameEngine, 0.118, 0.09),
    ("org.fmod", LibCategory::GameEngine, 0.096, 0.07),
    ("com.google.firebase", LibCategory::Development, 0.090, 0.02),
    ("com.tencent.mm", LibCategory::SocialNetworking, 0.02, 0.173),
    ("com.baidu", LibCategory::Development, 0.015, 0.169),
    ("com.umeng", LibCategory::Analytics, 0.01, 0.165),
    ("com.alipay", LibCategory::Payment, 0.008, 0.110),
    ("com.nostra13", LibCategory::Development, 0.09, 0.106),
    ("com.qq.e", LibCategory::Ad, 0.004, 0.09),
];

impl LibCatalog {
    /// Build the catalog: the 16 named head libraries plus `tail_count`
    /// generated ones with Zipf-decaying adoption. Ad libraries make up a
    /// large tail slice because the Chinese ad ecosystem is decentralized
    /// ("more than 200 ad libraries compete for the remaining 20%").
    pub(crate) fn generate(rng: &DetRng, tail_count: usize) -> LibCatalog {
        let mut specs: Vec<LibSpec> = HEAD
            .iter()
            .map(|(pkg, cat, gp, cn)| LibSpec {
                package: (*pkg).to_owned(),
                category: *cat,
                adoption: Adoption {
                    google_play: *gp,
                    chinese: *cn,
                },
                versions: 12,
                classes: 10,
            })
            .collect();
        let mut r = rng.derive("lib-catalog");
        for i in 0..tail_count {
            // A flat tail: the long tail of small SDKs is collectively
            // large but individually small — no single tail library may
            // out-rank the Table 2 head in the recovered adoption table.
            let _rank = i + 1;
            let base = 0.010 + 0.004 * r.unit();
            // 40% of the tail are small ad networks; they skew Chinese
            // but are individually tiny — AdMob dominates Google Play's
            // ad share (~90%) and AdMob+Umeng hold ~80% in China, with
            // 200+ networks splitting the rest (Section 4.4).
            let (category, gp_mult, cn_mult) = if r.chance(0.4) {
                (LibCategory::Ad, 0.08, 0.10)
            } else if r.chance(0.2) {
                (LibCategory::Analytics, 0.3, 0.5)
            } else if r.chance(0.1) {
                (LibCategory::Payment, 0.2, 0.4)
            } else {
                (LibCategory::Development, 1.0, 0.9)
            };
            specs.push(LibSpec {
                package: format!("com.sdk{i}.{}", category_slug(category)),
                category,
                adoption: Adoption {
                    google_play: (base * gp_mult).min(0.2),
                    chinese: (base * cn_mult).min(0.2),
                },
                versions: 1 + r.index(8) as u32,
                classes: 4 + r.index(12) as u32,
            });
        }
        LibCatalog {
            specs,
            head_len: HEAD.len(),
        }
    }

    /// All library specs.
    pub fn specs(&self) -> &[LibSpec] {
        &self.specs
    }

    /// Spec by id.
    pub(crate) fn spec(&self, id: LibId) -> &LibSpec {
        &self.specs[id.0 as usize]
    }

    /// The hand-labelled head (Table 2 ground truth).
    pub(crate) fn head(&self) -> &[LibSpec] {
        &self.specs[..self.head_len]
    }

    /// Deterministically expand a `(library, version)` into DEX classes,
    /// wired as one segment (see [`segment_edges`]): its block. Two apps
    /// embedding the same version get byte-identical classes; different
    /// versions share most classes (real minor releases change a fraction
    /// of the code), which LibRadar-style clustering tolerates.
    pub(crate) fn classes_for(&self, u: LibUse) -> DexFile {
        let spec = self.spec(u.lib);
        let path = spec.package.replace('.', "/");
        let classes = spec.classes as usize;
        let mut dex = DexFile::default();
        let mut calls = Vec::new();
        let mut invokes = Vec::new();
        for ci in 0..classes {
            // Roughly a quarter of a library's classes are touched by
            // every release; the rest are stable across versions.
            let last_changed = if ci % 4 == 0 { u.version } else { 0 };
            let class_seed = mix64(
                mix64(u.lib.0 as u64, 0x11b0 + ci as u64),
                last_changed as u64,
            );
            let mut r = DetRng::new(class_seed);
            let method_count = 2 + (class_seed % 4) as usize;
            dex.push_class(&format!("L{path}/C{ci};"));
            for mi in 0..method_count {
                let call_count = 1 + r.index(6);
                calls.clear();
                calls.extend(
                    (0..call_count)
                        .map(|_| ApiCallId(r.range_u64(0, API_CALL_RANGE as u64) as u32)),
                );
                invokes.clear();
                if mi == 0 {
                    segment_edges(ci, method_count, classes, &mut invokes);
                }
                dex.push_method(mix64(class_seed, 0xae70 + mi as u64), &calls, &invokes);
            }
        }
        dex
    }
}

/// The world's library blocks: every `(library, version)` some app
/// embeds, expanded once by [`LibCatalog::classes_for`] while the
/// generator works out the app's permissions, then spliced into every
/// APK that bundles it. At most one block per `(library, version)` an
/// app embeds, each with exact capacity: ≈ 440 blocks and ≈ 0.85 MB at
/// ÷2 000.
#[derive(Debug, Default)]
pub(crate) struct LibBlocks(HashMap<LibUse, DexFile>);

impl LibBlocks {
    /// Expand `u` from `catalog` unless it already is.
    pub(crate) fn fill(&mut self, catalog: &LibCatalog, u: LibUse) {
        self.0.entry(u).or_insert_with(|| {
            let mut block = catalog.classes_for(u);
            block.shrink_to_fit();
            block
        });
    }

    /// The block of `u`, if an app embeds it.
    pub(crate) fn get(&self, u: LibUse) -> Option<&DexFile> {
        self.0.get(&u)
    }
}

fn category_slug(c: LibCategory) -> &'static str {
    match c {
        LibCategory::Ad => "ads",
        LibCategory::Analytics => "track",
        LibCategory::SocialNetworking => "social",
        LibCategory::Development => "dev",
        LibCategory::Payment => "pay",
        LibCategory::GameEngine => "engine",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::dex::MethodRef;

    fn catalog() -> LibCatalog {
        LibCatalog::generate(&DetRng::new(42), 120)
    }

    #[test]
    fn head_matches_table2() {
        let c = catalog();
        assert_eq!(c.head().len(), 16);
        let gms = &c.head()[0];
        assert_eq!(gms.package, "com.google.android.gms");
        assert!(gms.adoption.google_play > gms.adoption.chinese);
        let umeng = c.head().iter().find(|s| s.package == "com.umeng").unwrap();
        assert!(umeng.adoption.chinese > umeng.adoption.google_play);
        assert_eq!(umeng.category, LibCategory::Analytics);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = LibCatalog::generate(&DetRng::new(1), 50);
        let b = LibCatalog::generate(&DetRng::new(1), 50);
        assert_eq!(a.specs.len(), b.specs.len());
        for (x, y) in a.specs().iter().zip(b.specs()) {
            assert_eq!(x.package, y.package);
            assert_eq!(x.adoption, y.adoption);
        }
    }

    /// A class's content: name, and per method its code hash, calls and
    /// edges (edges relative to the block).
    type ClassContent = (String, Vec<(u64, Vec<ApiCallId>, Vec<MethodRef>)>);

    fn contents(block: &DexFile) -> Vec<ClassContent> {
        block
            .classes()
            .map(|c| {
                let methods = c
                    .methods()
                    .map(|m| (m.code_hash(), m.api_calls().to_vec(), m.invokes().to_vec()))
                    .collect();
                (c.name().to_owned(), methods)
            })
            .collect()
    }

    #[test]
    fn same_version_is_byte_identical_across_calls() {
        let c = catalog();
        let u = LibUse {
            lib: LibId(3),
            version: 5,
        };
        assert_eq!(c.classes_for(u), c.classes_for(u));
    }

    #[test]
    fn adjacent_versions_share_most_classes() {
        let c = catalog();
        let v5 = contents(&c.classes_for(LibUse {
            lib: LibId(0),
            version: 5,
        }));
        let v6 = contents(&c.classes_for(LibUse {
            lib: LibId(0),
            version: 6,
        }));
        let shared = v5.iter().filter(|cl| v6.contains(cl)).count();
        assert!(shared >= v5.len() / 2, "only {shared}/{} shared", v5.len());
        assert_ne!(v5, v6, "versions must differ somewhere");
    }

    #[test]
    fn distinct_libraries_have_distinct_code() {
        let c = catalog();
        let a = contents(&c.classes_for(LibUse {
            lib: LibId(0),
            version: 0,
        }));
        let b = contents(&c.classes_for(LibUse {
            lib: LibId(1),
            version: 0,
        }));
        assert!(a.iter().all(|cl| !b.contains(cl)));
    }

    #[test]
    fn a_block_is_one_wired_segment() {
        let c = catalog();
        let block = c.classes_for(LibUse {
            lib: LibId(12),
            version: 0,
        });
        let classes = block.class_count();
        assert_eq!(classes, c.spec(LibId(12)).classes as usize);
        // The first class reaches every class, and every first method its
        // siblings; nothing else is wired.
        let mut want = Vec::new();
        for class in block.classes() {
            want.clear();
            segment_edges(class.index(), class.method_count(), classes, &mut want);
            let mut methods = class.methods();
            assert_eq!(methods.next().unwrap().invokes(), want);
            assert!(methods.all(|m| m.invokes().is_empty()));
        }
        let blocks = &mut LibBlocks::default();
        let u = LibUse {
            lib: LibId(12),
            version: 0,
        };
        assert!(blocks.get(u).is_none());
        blocks.fill(&c, u);
        assert_eq!(blocks.get(u), Some(&block));
    }

    #[test]
    fn tail_has_many_ad_networks() {
        let c = catalog();
        let tail_ads = c.specs()[16..]
            .iter()
            .filter(|s| s.category == LibCategory::Ad)
            .count();
        assert!(tail_ads > 25, "only {tail_ads} ad networks in tail");
    }

    #[test]
    fn class_names_live_under_lib_package() {
        let c = catalog();
        let classes = c.classes_for(LibUse {
            lib: LibId(12),
            version: 0,
        });
        for cl in classes.classes() {
            assert!(cl.name().starts_with("Lcom/umeng/"), "{}", cl.name());
            assert_eq!(cl.java_package().unwrap(), "com.umeng");
        }
    }
}
