//! # marketscope-libdetect
//!
//! Clustering-based third-party-library detection, after LibRadar
//! [Ma et al., ICSE'16] as re-applied by the paper (Section 4.4): instead
//! of relying on a stale feature database, cluster the package-subtree
//! feature hashes of the *whole crawled corpus* — a subtree whose exact
//! features recur across many apps from several unrelated developers is a
//! library, not app code.
//!
//! Output mirrors the paper's artifacts: a detected-library catalog
//! ("5,102 libraries with 672,052 versions"), per-app library lists
//! (Figure 5a), and — given a labelled subset, the stand-in for the
//! paper's manual top-2,000 labelling — ad-library statistics
//! (Figure 5b, Table 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use marketscope_apk::digest::ApkDigest;
use marketscope_core::DeveloperKey;
use std::collections::{HashMap, HashSet};

/// A feature must appear in at least this many apps to be a library...
const MIN_APPS: usize = 3;
/// ... signed by at least this many distinct developers.
const MIN_DEVELOPERS: usize = 2;

/// One detected library root package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedLibrary {
    /// Root Java package (cluster name).
    pub package: String,
    /// Number of distinct versions (distinct feature hashes under this
    /// package that met the thresholds).
    pub versions: usize,
    /// Number of apps embedding any version.
    pub apps: usize,
}

/// The detector's full output.
#[derive(Debug, Clone)]
pub struct LibraryReport {
    /// Detected libraries, sorted by descending adoption.
    pub libraries: Vec<DetectedLibrary>,
    /// For each input app (same order), the detected library packages it
    /// embeds.
    pub per_app: Vec<Vec<String>>,
}

impl LibraryReport {
    /// The ownership join over this report's detected roots.
    pub fn ownership(&self) -> PackageOwnership {
        PackageOwnership::new(self.libraries.iter().map(|l| l.package.clone()))
    }
}

/// Prefix-aware package → library-owner join: resolves a Java package to
/// the detected library root that owns it, the same subtree semantics as
/// detection itself (`com.ads.net.v2` belongs to root `com.ads.net`;
/// `com.ads.network` does not). This is the attribution side of the taint
/// pass — a leak sinking in an owned package is a *library* leak, any
/// other package is *host* code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackageOwnership {
    /// Detected roots, sorted for binary search.
    roots: Vec<String>,
}

impl PackageOwnership {
    /// Build the join from a set of detected library root packages.
    pub fn new<I: IntoIterator<Item = String>>(roots: I) -> PackageOwnership {
        let mut roots: Vec<String> = roots.into_iter().collect();
        roots.sort_unstable();
        roots.dedup();
        PackageOwnership { roots }
    }

    /// The library root owning `package`, if any: an exact root match or
    /// the *longest* root of which `package` is a dotted subpackage.
    pub fn owner_of(&self, package: &str) -> Option<&str> {
        // Try the package itself, then strip trailing segments — the
        // first hit is the longest owning root.
        let mut prefix = package;
        loop {
            if let Ok(i) = self.roots.binary_search_by(|r| r.as_str().cmp(prefix)) {
                return Some(&self.roots[i]);
            }
            match prefix.rsplit_once('.') {
                Some((head, _)) => prefix = head,
                None => return None,
            }
        }
    }
}

/// The clustering detector. Its thresholds are the paper's: a feature
/// is a library version when at least 3 apps from at least 2 developers
/// carry it.
#[derive(Debug, Clone, Default)]
pub struct LibraryDetector;

impl LibraryDetector {
    /// The detector.
    pub fn new() -> Self {
        LibraryDetector
    }

    /// Run detection over a corpus of app digests. The developer key on
    /// each digest prevents a prolific developer's shared in-house code
    /// from being mistaken for a public library.
    pub fn detect(&self, apps: &[&ApkDigest]) -> LibraryReport {
        self.detect_batch(apps, 1)
    }

    /// [`detect`](Self::detect), fanning the per-app passes out over up to
    /// `workers` threads. The tally merge is commutative (count addition and
    /// developer-set union), so the report is bit-identical to the
    /// single-threaded run for any `workers`.
    pub fn detect_batch<'a>(&self, apps: &[&'a ApkDigest], workers: usize) -> LibraryReport {
        // Pass 1: tally every (package, feature hash) across apps, keyed
        // by the package names the digests hold.
        #[derive(Default)]
        struct FeatureStat {
            apps: usize,
            developers: HashSet<DeveloperKey>,
        }
        type Stats<'a> = HashMap<(&'a str, u64), FeatureStat>;
        let fold_digest = |mut stats: Stats<'a>, digest: &&'a ApkDigest| -> Stats<'a> {
            let own = digest.package.as_str();
            for f in &digest.package_features {
                if f.java_package == own || f.java_package.starts_with("<") {
                    continue; // the app's own code cannot be its library
                }
                let stat = stats
                    .entry((f.java_package.as_str(), f.feature_hash))
                    .or_default();
                stat.apps += 1;
                stat.developers.insert(digest.developer);
            }
            stats
        };
        let stats = marketscope_core::parallel::par_fold(
            workers,
            apps,
            Stats::new,
            fold_digest,
            |mut a, b| {
                for (key, stat) in b {
                    let merged = a.entry(key).or_default();
                    merged.apps += stat.apps;
                    merged.developers.extend(stat.developers);
                }
                a
            },
        );
        // Pass 2: features meeting the thresholds are library versions.
        let mut versions_by_package: HashMap<&str, usize> = HashMap::new();
        let mut accepted: HashSet<(&str, u64)> = HashSet::new();
        for (&(pkg, hash), stat) in &stats {
            if stat.apps >= MIN_APPS && stat.developers.len() >= MIN_DEVELOPERS {
                *versions_by_package.entry(pkg).or_insert(0) += 1;
                accepted.insert((pkg, hash));
            }
        }
        // Pass 3: per-app library lists (parallel), then adoption counts
        // tallied from the index-ordered lists.
        let per_app: Vec<Vec<String>> =
            marketscope_core::parallel::par_map(workers, apps, |digest| {
                let own = digest.package.as_str();
                let mut libs: Vec<String> = digest
                    .package_features
                    .iter()
                    .filter(|f| {
                        f.java_package != own
                            && accepted.contains(&(f.java_package.as_str(), f.feature_hash))
                    })
                    .map(|f| f.java_package.clone())
                    .collect();
                libs.sort();
                libs.dedup();
                libs
            });
        let mut apps_by_package: HashMap<&str, usize> = HashMap::new();
        for libs in &per_app {
            for l in libs {
                *apps_by_package.entry(l).or_insert(0) += 1;
            }
        }
        let mut libraries: Vec<DetectedLibrary> = versions_by_package
            .into_iter()
            .map(|(package, versions)| DetectedLibrary {
                apps: apps_by_package.get(package).copied().unwrap_or(0),
                package: package.to_owned(),
                versions,
            })
            .collect();
        libraries.sort_by(|a, b| b.apps.cmp(&a.apps).then_with(|| a.package.cmp(&b.package)));
        LibraryReport { libraries, per_app }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::apicalls::ApiCallId;
    use marketscope_apk::builder::ApkBuilder;
    use marketscope_apk::dex::DexFile;
    use marketscope_apk::manifest::Manifest;
    use marketscope_core::{PackageName, VersionCode};

    fn lib_class(dex: &mut DexFile, pkg_path: &str, idx: u32, seed: u64) {
        dex.push_class(&format!("L{pkg_path}/C{idx};"));
        dex.push_method(
            seed + idx as u64,
            &[ApiCallId((seed % 1000) as u32), ApiCallId(idx)],
            &[],
        );
    }

    fn app(pkg: &str, dev: &str, libs: &[(&str, u64)], own_seed: u64) -> ApkDigest {
        let mut dex = DexFile::default();
        dex.push_class(&format!("L{}/Main;", pkg.replace('.', "/")));
        dex.push_method(own_seed, &[ApiCallId((own_seed % 40_000) as u32)], &[]);
        for (lib, seed) in libs {
            for i in 0..3 {
                lib_class(&mut dex, &lib.replace('.', "/"), i, *seed);
            }
        }
        let manifest = Manifest {
            package: PackageName::new(pkg).unwrap(),
            version_code: VersionCode(1),
            version_name: "1.0".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "T".into(),
            permissions: vec![],
            category: "Tools".into(),
            components: vec![],
        };
        let bytes = ApkBuilder::new(manifest, dex)
            .build(marketscope_core::DeveloperKey::from_label(dev))
            .unwrap();
        ApkDigest::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn detects_shared_library_across_developers() {
        let apps: Vec<ApkDigest> = (0..6)
            .map(|i| {
                app(
                    &format!("com.app{i}.x"),
                    &format!("dev{i}"),
                    &[("com.umeng.analytics", 42)],
                    1000 + i,
                )
            })
            .collect();
        let refs: Vec<&ApkDigest> = apps.iter().collect();
        let report = LibraryDetector::new().detect(&refs);
        assert_eq!(report.libraries.len(), 1);
        assert_eq!(report.libraries[0].package, "com.umeng.analytics");
        assert_eq!(report.libraries[0].apps, 6);
        assert_eq!(report.libraries[0].versions, 1);
        assert!(report
            .per_app
            .iter()
            .all(|l| l == &vec!["com.umeng.analytics".to_string()]));
    }

    #[test]
    fn single_developer_code_is_not_a_library() {
        // Same "library" in 6 apps, but all signed by one developer:
        // in-house shared code, not a third-party library.
        let apps: Vec<ApkDigest> = (0..6)
            .map(|i| {
                app(
                    &format!("com.app{i}.x"),
                    "onedev",
                    &[("com.house.util", 9)],
                    i,
                )
            })
            .collect();
        let refs: Vec<&ApkDigest> = apps.iter().collect();
        let report = LibraryDetector::new().detect(&refs);
        assert!(report.libraries.is_empty());
    }

    #[test]
    fn rare_features_are_not_libraries() {
        let a = app("com.a.x", "d1", &[("com.rare.sdk", 7)], 1);
        let b = app("com.b.x", "d2", &[("com.rare.sdk", 7)], 2);
        let refs: Vec<&ApkDigest> = vec![&a, &b];
        // MIN_APPS is 3; two apps are not enough.
        let report = LibraryDetector::new().detect(&refs);
        assert!(report.libraries.is_empty());
        assert!(report.per_app.iter().all(Vec::is_empty));
    }

    #[test]
    fn versions_are_counted_separately() {
        let mut apps = Vec::new();
        for i in 0..4 {
            apps.push(app(
                &format!("com.a{i}.x"),
                &format!("d{i}"),
                &[("com.lib.sdk", 100)],
                i,
            ));
        }
        for i in 4..8 {
            apps.push(app(
                &format!("com.a{i}.x"),
                &format!("d{i}"),
                &[("com.lib.sdk", 200)],
                i,
            ));
        }
        let refs: Vec<&ApkDigest> = apps.iter().collect();
        let report = LibraryDetector::new().detect(&refs);
        assert_eq!(report.libraries.len(), 1);
        assert_eq!(report.libraries[0].versions, 2);
        assert_eq!(report.libraries[0].apps, 8);
    }

    #[test]
    fn own_code_is_never_a_library() {
        // Many apps under the *same* vendor prefix with identical own
        // code must not turn that prefix into a library for themselves.
        let apps: Vec<ApkDigest> = (0..6)
            .map(|i| app("com.acme.tool", &format!("d{i}"), &[], 5))
            .collect();
        let refs: Vec<&ApkDigest> = apps.iter().collect();
        let report = LibraryDetector::new().detect(&refs);
        assert!(report.libraries.is_empty());
    }

    #[test]
    fn ownership_join_is_prefix_aware() {
        let own = PackageOwnership::new(
            ["com.google.ads", "com.google.ads.mediation", "com.qq.e"].map(String::from),
        );
        assert_eq!(own.roots.len(), 3);
        // Exact root.
        assert_eq!(own.owner_of("com.qq.e"), Some("com.qq.e"));
        // Dotted subpackage.
        assert_eq!(own.owner_of("com.qq.e.ads.v2"), Some("com.qq.e"));
        // Longest root wins over its own prefix.
        assert_eq!(
            own.owner_of("com.google.ads.mediation.admob"),
            Some("com.google.ads.mediation")
        );
        assert_eq!(
            own.owner_of("com.google.ads.loader"),
            Some("com.google.ads")
        );
        // String prefix without a dot boundary is NOT ownership.
        assert_eq!(own.owner_of("com.qq.ex"), None);
        assert_eq!(own.owner_of("com.google.adsx.v1"), None);
        // Host code resolves to nothing.
        assert_eq!(own.owner_of("com.myapp.main"), None);
        assert!(PackageOwnership::default().roots.is_empty());
        assert_eq!(PackageOwnership::default().owner_of("com.qq.e"), None);
    }

    #[test]
    fn report_exports_its_ownership() {
        let apps: Vec<ApkDigest> = (0..4)
            .map(|i| {
                app(
                    &format!("com.app{i}.x"),
                    &format!("dev{i}"),
                    &[("com.umeng.analytics", 3)],
                    i,
                )
            })
            .collect();
        let refs: Vec<&ApkDigest> = apps.iter().collect();
        let report = LibraryDetector::new().detect(&refs);
        let own = report.ownership();
        assert_eq!(
            own.owner_of("com.umeng.analytics.v7"),
            Some("com.umeng.analytics")
        );
        assert_eq!(own.owner_of("com.app0.x"), None);
    }

    #[test]
    fn end_to_end_against_generated_world() {
        use marketscope_ecosystem::{generate, Scale, WorldConfig};
        let w = generate(WorldConfig {
            seed: 31,
            scale: Scale { divisor: 20_000 },
        });
        // Digest every Google Play APK.
        let digests: Vec<ApkDigest> = w
            .market_listings(marketscope_core::MarketId::GooglePlay)
            .iter()
            .map(|l| {
                let listing = w.listing(*l);
                let bytes = w.build_apk(listing.app, listing.version, false);
                ApkDigest::from_bytes(&bytes).unwrap()
            })
            .collect();
        let refs: Vec<&ApkDigest> = digests.iter().collect();
        let report = LibraryDetector::new().detect(&refs);
        // The Table 2 head should surface: gms is in ~66% of GP apps.
        let apps = digests.len() as f64;
        let gms = report
            .per_app
            .iter()
            .filter(|libs| libs.iter().any(|l| l == "com.google.android.gms"))
            .count() as f64
            / apps;
        assert!(gms > 0.4, "com.google.android.gms detected in only {gms}");
        let libraries: usize = report.per_app.iter().map(Vec::len).sum();
        assert!(libraries as f64 / apps > 3.0);
        let with_libraries = report.per_app.iter().filter(|l| !l.is_empty()).count();
        assert!(with_libraries as f64 > apps * 0.7);
    }
}
