//! The synthetic world: developers, apps, per-market listings, and the
//! deterministic APK assembly that turns them into bytes.

use crate::libs::{LibBlocks, LibCatalog, LibCategory, LibUse};
use crate::profiles::Scale;
use crate::threat::{Infection, ThreatDb};
use marketscope_apk::apicalls::ApiCallId;
use marketscope_apk::builder::ApkBuilder;
use marketscope_apk::dex::{DexFile, MethodRef};
use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
use marketscope_core::hash::mix64;
use marketscope_core::rng::DetRng;
use marketscope_core::{Category, DeveloperKey, MarketId, PackageName, SimDate, VersionCode};
use std::fmt::Write;

/// Index of an app in [`World::apps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

/// Index of a developer in [`World::developers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevId(pub u32);

/// Index of a listing in [`World::listings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListingId(pub u32);

/// How an app came to exist (ground truth for the misbehaviour analyses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A legitimate original.
    Original,
    /// A fake: mimics the display name of `of` under a new package.
    Fake {
        /// The mimicked app.
        of: AppId,
    },
    /// A signature-based clone: same package as `of`, different key.
    SigClone {
        /// The repackaged app.
        of: AppId,
    },
    /// A code-based clone: renamed package, near-identical code.
    CodeClone {
        /// The plagiarized app.
        of: AppId,
    },
}

/// A planted privacy leak (ground truth for the taint analysis).
///
/// The own root method reads the private source; where the sink call
/// lands depends on `via_tpl`: host code (the far end of the own-code
/// chain, so the flow is genuinely interprocedural) or an appended
/// class under a bundled third-party library's namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedLeak {
    /// The private-data read (e.g. a device-id API).
    pub source: ApiCallId,
    /// The exfiltration call (network send or log write).
    pub sink: ApiCallId,
    /// Whether the sink site lives in third-party-library namespace
    /// (a supply-chain leak) rather than host code.
    pub via_tpl: bool,
}

/// A developer identity.
#[derive(Debug, Clone)]
pub struct Developer {
    /// Key-derivation label (stable across runs).
    pub label: String,
    /// The signing key (what the paper extracts with ApkSigner).
    pub key: DeveloperKey,
    /// Store-visible display name.
    pub display_name: String,
}

/// One unique application (a package signed by one developer).
#[derive(Debug, Clone)]
pub struct App {
    /// Package name. **Not** unique across [`World::apps`]: signature-based
    /// clones reuse their victim's package.
    pub package: PackageName,
    /// Display name ("app name"). Fakes mimic this.
    pub label: String,
    /// Signing developer.
    pub developer: DevId,
    /// True category.
    pub category: Category,
    /// Global popularity quantile in `[0,1)`: drives downloads in every
    /// market the app is listed in, rating presence, and multi-store reach.
    pub popularity: f64,
    /// Date of the latest release.
    pub base_date: SimDate,
    /// Declared minimum SDK.
    pub min_sdk: u8,
    /// Number of released versions (version codes `1..=version_count`).
    pub version_count: u32,
    /// Embedded third-party libraries.
    pub libs: Vec<LibUse>,
    /// Seed for the app's own code.
    pub own_code_seed: u64,
    /// Root path of the app's own classes (differs from `package` for
    /// code clones, which rename).
    pub own_package: String,
    /// Number of own classes.
    pub own_class_count: u32,
    /// Optional mutation applied to own code (clones perturb the victim's
    /// code slightly).
    pub code_mutation: Option<u64>,
    /// Declared manifest permissions (used ∪ over-privileged extras).
    pub declared_permissions: Vec<String>,
    /// Planted privacy leak, if any (originals only).
    pub leak: Option<PlantedLeak>,
    /// Planted infection, if any.
    pub infection: Option<Infection>,
    /// Ground-truth provenance.
    pub provenance: Provenance,
}

/// One (market, app) listing with store metadata.
#[derive(Debug, Clone)]
pub struct Listing {
    /// The hosting market.
    pub market: MarketId,
    /// The listed app.
    pub app: AppId,
    /// The version carried by this store (`<= version_count`; lower means
    /// the store copy is outdated).
    pub version: u32,
    /// Raw install counter (`None` where the store reports none).
    pub downloads: Option<u64>,
    /// Store rating in `[0,5]`; `0.0` means unrated unless the store
    /// plants a default.
    pub rating: f64,
    /// Release/update date as reported by this store.
    pub updated: SimDate,
    /// The developer-supplied category string (possibly junk).
    pub raw_category: String,
    /// Whether this listing disappears by the second crawl.
    pub removed_in_second_crawl: bool,
}

/// Per-market ground-truth counters recorded while planting.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Planted fake listings per market.
    pub fakes: [u32; 17],
    /// Planted signature-clone listings per market.
    pub sig_clones: [u32; 17],
    /// Planted code-clone listings per market.
    pub code_clones: [u32; 17],
    /// Planted malware-tier listings per market (expected AV-rank ≥ 10).
    pub malware: [u32; 17],
    /// Planted grayware-tier listings per market (AV-rank 1–9).
    pub grayware: [u32; 17],
    /// Planted host-code privacy-leak listings per market.
    pub leaks_host: [u32; 17],
    /// Planted third-party-library privacy-leak listings per market.
    pub leaks_tpl: [u32; 17],
}

/// The generated world.
#[derive(Debug)]
pub struct World {
    /// Generation seed.
    pub seed: u64,
    /// Generation scale.
    pub scale: Scale,
    /// Third-party library catalog.
    pub libraries: LibCatalog,
    /// Threat signature database.
    pub threat_db: ThreatDb,
    /// All developers.
    pub developers: Vec<Developer>,
    /// All apps.
    pub apps: Vec<App>,
    /// All listings.
    pub listings: Vec<Listing>,
    /// Ground-truth counters.
    pub ground_truth: GroundTruth,
    pub(crate) per_market: Vec<Vec<ListingId>>,
    /// Every library version some app embeds, expanded once.
    pub(crate) lib_blocks: LibBlocks,
}

impl World {
    /// Listing ids for a market's catalog.
    pub fn market_listings(&self, market: MarketId) -> &[ListingId] {
        &self.per_market[market.index()]
    }

    /// A listing by id.
    pub fn listing(&self, id: ListingId) -> &Listing {
        &self.listings[id.0 as usize]
    }

    /// An app by id.
    pub fn app(&self, id: AppId) -> &App {
        &self.apps[id.0 as usize]
    }

    /// A developer by id.
    pub fn developer(&self, id: DevId) -> &Developer {
        &self.developers[id.0 as usize]
    }

    /// Total number of listings.
    pub fn listing_count(&self) -> usize {
        self.listings.len()
    }

    /// Deterministically build the APK bytes for `(app, version)`.
    ///
    /// `obfuscated` applies the 360-Jiagubao-style wrapping the store
    /// mandates (Section 2.1): the app's *own* classes are renamed under
    /// a packer namespace and a stub loader class is added; library code
    /// and method bodies are untouched.
    ///
    /// The DEX carries a call graph rooted at the manifest-declared
    /// components. Originals invoke every library they bundle; fakes and
    /// clones keep the victim's library subtrees *unwired* — the
    /// repackager's dead cargo — so reachability-mode over-privilege and
    /// the dead-code stats diverge from the flat baseline exactly where
    /// the paper says they should.
    ///
    /// The layout follows from counts alone: the stub when packed, the
    /// own classes, one block per bundled library, the malware payload,
    /// then the class sinking a third-party-library leak. Every class is
    /// written once, in that order, with its final name and edges:
    ///
    /// * own code forms a chain (`K0 → K1 → …`) with each class's first
    ///   method fanning out to its siblings, so everything own is
    ///   reachable from the root;
    /// * a library block and the payload are each internally coherent
    ///   (their first class fans out to the rest); library blocks come
    ///   prebuilt from the world's block table;
    /// * an original's own class `li % own_len` invokes library `li`'s
    ///   first class;
    /// * the own root invokes the payload, reads a planted leak's source
    ///   and invokes its leak class; a host leak sinks in the last own
    ///   class;
    /// * the stub bootstraps the own root.
    pub fn build_apk(&self, app_id: AppId, version: u32, obfuscated: bool) -> Vec<u8> {
        self.build_apk_with_channel(app_id, version, obfuscated, None)
    }

    /// [`build_apk`](Self::build_apk) with an optional store channel file
    /// `(name, contents)`, stored as `META-INF/<name>` after the
    /// signature: the bytes a store that injects the file into the
    /// developer's signed APK serves.
    pub fn build_apk_with_channel(
        &self,
        app_id: AppId,
        version: u32,
        obfuscated: bool,
        channel: Option<(&str, &[u8])>,
    ) -> Vec<u8> {
        let app = self.app(app_id);
        let version = version.clamp(1, app.version_count);
        let own_len = app.own_class_count as usize;
        let blocks: Vec<&DexFile> = app
            .libs
            .iter()
            .map(|lu| {
                self.lib_blocks.get(*lu).unwrap_or_else(|| {
                    unreachable!("generation expands every library version an app embeds")
                })
            })
            .collect();
        let payload = app
            .infection
            .map(|inf| payload_classes(&self.threat_db, inf, app.own_code_seed));
        let leak = app.leak.filter(|_| own_len > 0);
        let tpl_root = leak
            .filter(|leak| leak.via_tpl)
            .and_then(|_| leak_host_package(app, &self.libraries));

        let packer = obfuscated.then(|| Packer::new(&app.own_package, app.own_code_seed));
        let shift = usize::from(obfuscated);
        let mut lib_starts = Vec::with_capacity(blocks.len());
        let mut next = shift + own_len;
        for block in &blocks {
            lib_starts.push(next);
            next += block.class_count();
        }
        let payload_start = next;
        let leak_class = payload_start + payload.as_ref().map_or(0, DexFile::class_count);

        let mut dex = DexFile::default();
        if obfuscated {
            dex.push_class("Lcom/jiagu/StubLoader;");
            let boot = if own_len > 0 { &[edge(1, 0)][..] } else { &[] };
            dex.push_method(mix64(app.own_code_seed, 0x360), &[ApiCallId(1)], boot);
        }
        let own_prefix = match &packer {
            Some(packer) => packer.packed.clone(),
            None => own_path(&app.own_package),
        };
        let wire_libs = matches!(app.provenance, Provenance::Original);
        let own = OwnCode {
            seed: app.own_code_seed,
            count: app.own_class_count,
            version,
            mutation: app.code_mutation,
        };
        own.push(&mut dex, &own_prefix, |ci, methods, calls, invokes| {
            let class = shift + ci;
            invokes.extend((1..methods).map(|m| edge(class, m)));
            if ci + 1 < own_len {
                invokes.push(edge(class + 1, 0));
            }
            if wire_libs {
                let hosted = lib_starts.iter().skip(ci).step_by(own_len);
                invokes.extend(hosted.map(|&start| edge(start, 0)));
            }
            if ci == 0 {
                if payload.is_some() {
                    invokes.push(edge(payload_start, 0));
                }
                if let Some(leak) = leak {
                    calls.push(leak.source);
                    if tpl_root.is_some() {
                        invokes.push(edge(leak_class, 0));
                    }
                }
            }
            if ci + 1 == own_len && tpl_root.is_none() {
                calls.extend(leak.map(|leak| leak.sink));
            }
        });
        for segment in blocks.iter().copied().chain(payload.as_ref()) {
            match &packer {
                Some(packer) => packer.splice(&mut dex, segment),
                None => dex.append(segment),
            }
        }
        debug_assert_eq!(dex.class_count(), leak_class);
        if let (Some(root), Some(leak)) = (tpl_root, leak) {
            // A unique subpackage, so the class never clusters into the
            // library itself.
            let ns = mix64(app.own_code_seed, 0x1eaf) & 0xFFFF;
            dex.push_class(&format!("L{}/x{ns:x}/Leak;", root.replace('.', "/")));
            dex.push_method(mix64(app.own_code_seed, 0x5117), &[leak.sink], &[]);
        }
        let mut components = Vec::new();
        if dex.class_count() > 0 {
            // The launcher activity: the stub loader when packed (which
            // bootstraps the real root), the own root class otherwise.
            components.push(Component {
                kind: ComponentKind::Activity,
                class: dex.class(0).name().to_owned(),
            });
            if own_len > 1 {
                components.push(Component {
                    kind: ComponentKind::Service,
                    class: dex.class(shift + own_len - 1).name().to_owned(),
                });
            }
        }
        let manifest = Manifest {
            package: app.package.clone(),
            version_code: VersionCode(version),
            version_name: format!("{}.{}.0", version / 10, version % 10),
            min_sdk: app.min_sdk,
            target_sdk: app.min_sdk.saturating_add(8).min(27),
            app_label: app.label.clone(),
            permissions: app.declared_permissions.clone(),
            category: app.category.label().to_owned(),
            components,
        };
        let dev = self.developer(app.developer);
        let mut builder = ApkBuilder::new(manifest, dex);
        if let Some((name, contents)) = channel {
            builder = builder.channel(name, contents.to_vec());
        }
        builder
            .build(dev.key)
            .unwrap_or_else(|e| unreachable!("generated apk is structurally valid: {e:?}"))
    }
}

/// An edge to method `method` of class `class`.
pub(crate) fn edge(class: usize, method: usize) -> MethodRef {
    MethodRef {
        class: class as u16,
        method: method as u16,
    }
}

/// The edges of the first method of class `class` (of `methods` methods)
/// in a segment of `classes` classes indexed from its own first class —
/// a library block or a malware payload: it fans out to its sibling
/// methods, and the segment's first class also to every other class.
pub(crate) fn segment_edges(
    class: usize,
    methods: usize,
    classes: usize,
    out: &mut Vec<MethodRef>,
) {
    out.extend((1..methods).map(|m| edge(class, m)));
    if class == 0 {
        out.extend((1..classes).map(|c| edge(c, 0)));
    }
}

/// The bundled library whose namespace hosts a TPL leak sink: ad
/// networks first (the paper's dominant leak vector), any library
/// otherwise.
pub(crate) fn leak_host_package(app: &App, libraries: &LibCatalog) -> Option<String> {
    let ad = app
        .libs
        .iter()
        .find(|lu| libraries.spec(lu.lib).category == LibCategory::Ad);
    let lu = ad.or_else(|| app.libs.first())?;
    Some(libraries.spec(lu.lib).package.clone())
}

/// The descriptor prefix of the classes under a dotted package:
/// `com.foo` → `Lcom/foo/`.
fn own_path(package_dotted: &str) -> String {
    format!("L{}/", package_dotted.replace('.', "/"))
}

/// What an app's own code is generated from.
pub(crate) struct OwnCode {
    /// The app's own-code seed.
    pub(crate) seed: u64,
    /// Number of own classes.
    pub(crate) count: u32,
    /// The release: it churns ~20% of classes' code hashes.
    pub(crate) version: u32,
    /// A repackager's edits, if any.
    pub(crate) mutation: Option<u64>,
}

impl OwnCode {
    /// Append the app's own classes `{prefix}K{ci};` to `dex`.
    ///
    /// * `version` perturbs the code hashes of ~20% of classes (release
    ///   churn) while keeping API footprints stable;
    /// * `mutation` models a repackager's edits: ~6% of methods get one
    ///   API call swapped and ~5% get their code hash changed, leaving the
    ///   app well inside WuKong's ≥85%-shared-segments clone band even
    ///   after a malware payload is attached.
    ///
    /// `wire(ci, methods, calls, invokes)` appends to class `ci`'s first
    /// method (one of `methods`) whatever calls and edges the app's
    /// layout gives it, before the method is written.
    pub(crate) fn push(
        &self,
        dex: &mut DexFile,
        prefix: &str,
        mut wire: impl FnMut(usize, usize, &mut Vec<ApiCallId>, &mut Vec<MethodRef>),
    ) {
        let mut name = String::new();
        let mut calls = Vec::new();
        let mut invokes = Vec::new();
        for ci in 0..self.count {
            let class_seed = mix64(self.seed, 0x0c1a_5500 + ci as u64);
            let churns = ci % 5 == 0;
            let mut r = DetRng::new(class_seed);
            let method_count = 1 + r.index(5);
            name.clear();
            let _ = write!(name, "{prefix}K{ci};");
            dex.push_class(&name);
            for mi in 0..method_count {
                let call_count = r.index(8);
                calls.clear();
                calls.extend((0..call_count).map(|_| {
                    ApiCallId(
                        r.range_u64(0, marketscope_apk::apicalls::API_CALL_RANGE as u64) as u32,
                    )
                }));
                let mut code_hash = mix64(class_seed, 0xc0de_0000 + mi as u64);
                if churns {
                    code_hash = mix64(code_hash, self.version as u64);
                }
                if let Some(mseed) = self.mutation {
                    let mrng = mix64(mseed, mix64(class_seed, mi as u64));
                    if mrng % 100 < 6 {
                        if let Some(first) = calls.first_mut() {
                            *first = ApiCallId(
                                (mix64(mrng, 0xa1)
                                    % marketscope_apk::apicalls::API_DIMENSIONS as u64)
                                    as u32,
                            );
                        }
                    }
                    if mix64(mrng, 0xb2) % 100 < 5 {
                        code_hash = mix64(code_hash, mseed);
                    }
                }
                invokes.clear();
                if mi == 0 {
                    wire(ci as usize, method_count, &mut calls, &mut invokes);
                }
                dex.push_method(code_hash, &calls, &invokes);
            }
        }
    }

    /// The own classes alone, unwired, named under `package_dotted`.
    pub(crate) fn classes(&self, package_dotted: &str) -> DexFile {
        let mut dex = DexFile::default();
        self.push(&mut dex, &own_path(package_dotted), |_, _, _, _| {});
        dex
    }
}

/// Build a malware payload: a few classes under an obfuscated namespace
/// whose method code hashes carry the family's signatures, wired as one
/// segment (see [`segment_edges`]).
pub(crate) fn payload_classes(db: &ThreatDb, infection: Infection, app_seed: u64) -> DexFile {
    let sigs = db.signatures(infection.family);
    let ns = mix64(app_seed, 0xbad0) % 0xFFFF;
    // 3–4 of the family's signature hashes appear in the payload. Kept
    // small so a repackaged-malware app stays inside the clone detector's
    // 85%-shared-segments band relative to its victim (the paper finds
    // 38.3% of malware is repackaged — those must be detectable as both).
    let take = 3 + (app_seed % 2) as usize;
    let chunks = sigs[..take.min(sigs.len())].chunks(3);
    let classes = 1 + chunks.len();
    let mut dex = DexFile::default();
    let mut invokes = Vec::new();
    // Variant metadata: a marker class encoding how detectable this
    // particular variant is (see `threat::decode_detectability`).
    let step = ((infection.detectability * crate::threat::DETECTABILITY_STEPS as f64) as u8)
        .min(crate::threat::DETECTABILITY_STEPS - 1);
    dex.push_class(&format!("La{ns:x}/v;"));
    segment_edges(0, 1, classes, &mut invokes);
    dex.push_method(crate::threat::detectability_marker(step), &[], &invokes);
    for (ci, chunk) in chunks.enumerate() {
        dex.push_class(&format!("La{ns:x}/b{ci};"));
        for (mi, &sig) in chunk.iter().enumerate() {
            invokes.clear();
            if mi == 0 {
                segment_edges(ci + 1, chunk.len(), classes, &mut invokes);
            }
            // SMS / phone-state flavoured API ids.
            let call = ApiCallId((mix64(sig, mi as u64) % 2_048) as u32);
            dex.push_method(sig, &[call], &invokes);
        }
    }
    dex
}

/// 360-style packer wrapping: every class under the app's own package
/// moves under `Lcom/jiagu/p…/`, keeping the rest of its name.
struct Packer {
    /// `L{own/package}/`.
    own_path: String,
    /// `Lcom/jiagu/p{seed % 0xFFF:x}/`.
    packed: String,
}

impl Packer {
    fn new(own_package_dotted: &str, seed: u64) -> Packer {
        Packer {
            own_path: own_path(own_package_dotted),
            packed: format!("Lcom/jiagu/p{:x}/", seed % 0xFFF),
        }
    }

    /// The packed name of a class under the own package, `None` for any
    /// other class.
    fn rename(&self, name: &str) -> Option<String> {
        let tail = name.strip_prefix(&self.own_path)?;
        Some(format!("{}{};", self.packed, tail.trim_end_matches(';')))
    }

    /// Splice `segment` into `dex`, renaming any of its classes that lie
    /// under the own package.
    fn splice(&self, dex: &mut DexFile, segment: &DexFile) {
        if !segment
            .classes()
            .any(|c| c.name().starts_with(&self.own_path))
        {
            return dex.append(segment);
        }
        let mut renamed = DexFile::default();
        for class in segment.classes() {
            renamed.push_class(
                &self
                    .rename(class.name())
                    .unwrap_or_else(|| class.name().to_owned()),
            );
            for m in class.methods() {
                renamed.push_method(m.code_hash(), m.api_calls(), m.invokes());
            }
        }
        dex.append(&renamed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threat::{ThreatTier, FAMILIES};

    fn own_classes(
        seed: u64,
        package: &str,
        count: u32,
        version: u32,
        mutation: Option<u64>,
    ) -> DexFile {
        OwnCode {
            seed,
            count,
            version,
            mutation,
        }
        .classes(package)
    }

    #[test]
    fn own_classes_deterministic_and_versioned() {
        let a = own_classes(7, "com.x.y", 20, 3, None);
        let b = own_classes(7, "com.x.y", 20, 3, None);
        assert_eq!(a, b);
        let c = own_classes(7, "com.x.y", 20, 4, None);
        assert_ne!(a, c, "version must churn some code");
        // API footprints are version-stable.
        assert_eq!(a.api_calls().count(), c.api_calls().count());
        assert_eq!(a.class(3).name(), "Lcom/x/y/K3;");
    }

    #[test]
    fn mutation_stays_in_clone_band() {
        let orig = own_classes(9, "com.a.b", 40, 1, None);
        let cloned = own_classes(9, "com.a.b", 40, 1, Some(0x5eed));
        let orig_hashes: std::collections::HashSet<u64> = orig.code_segments().collect();
        let total = cloned.method_count();
        let shared = cloned
            .code_segments()
            .filter(|h| orig_hashes.contains(h))
            .count();
        let ratio = shared as f64 / total as f64;
        assert!(ratio > 0.8 && ratio < 1.0, "similarity {ratio}");
    }

    #[test]
    fn payload_carries_family_signatures() {
        let db = ThreatDb::standard();
        let fam = db.family_by_name("kuguo").unwrap();
        let inf = Infection {
            family: fam,
            tier: ThreatTier::Malware,
            detectability: 0.3,
        };
        let classes = payload_classes(&db, inf, 1234);
        let (found, matched) = db.scan(classes.code_segments()).unwrap();
        assert_eq!(found, fam);
        assert!(matched >= 3);
        // One segment: the marker class fans out to every other class.
        let fan_out: Vec<MethodRef> = (1..classes.class_count()).map(|c| edge(c, 0)).collect();
        assert_eq!(classes.method(0).invokes(), fan_out);
    }

    #[test]
    fn family_table_is_nonempty() {
        assert!(FAMILIES.len() >= 15, "need the Figure 12 families");
    }

    #[test]
    fn jiagu_wrap_renames_only_own_code() {
        let packer = Packer::new("com.own.app", 3);
        assert_eq!(
            packer.rename("Lcom/own/app/K0;").as_deref(),
            Some("Lcom/jiagu/p3/K0;")
        );
        assert_eq!(
            packer.rename("Lcom/own/app/sdk/C1;").as_deref(),
            Some("Lcom/jiagu/p3/sdk/C1;")
        );
        assert_eq!(packer.rename("Lcom/umeng/C0;"), None);
        assert_eq!(packer.rename("Lcom/own/apps/C0;"), None);
        // A segment with classes under the own package is renamed class
        // by class; its edges still land on its own classes.
        let mut segment = DexFile::default();
        segment.push_class("Lcom/own/app/sdk/C0;");
        segment.push_method(1, &[], &[edge(1, 0)]);
        segment.push_class("Lcom/umeng/C1;");
        segment.push_method(2, &[], &[]);
        let mut dex = DexFile::default();
        dex.push_class("Lcom/jiagu/StubLoader;");
        packer.splice(&mut dex, &segment);
        let names: Vec<&str> = dex.classes().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "Lcom/jiagu/StubLoader;",
                "Lcom/jiagu/p3/sdk/C0;",
                "Lcom/umeng/C1;"
            ]
        );
        assert_eq!(dex.method(0).invokes(), [edge(2, 0)]);
        // Without such a class the segment is spliced as it is.
        let mut lib = DexFile::default();
        lib.push_class("Lcom/umeng/C0;");
        lib.push_method(3, &[], &[edge(0, 0)]);
        let mut plain = DexFile::default();
        plain.push_class("Lcom/jiagu/StubLoader;");
        packer.splice(&mut plain, &lib);
        let mut expected = DexFile::default();
        expected.push_class("Lcom/jiagu/StubLoader;");
        expected.append(&lib);
        assert_eq!(plain, expected);
        assert_eq!(plain.class(1).name(), "Lcom/umeng/C0;");
    }
}
