//! Over-privilege analysis (Section 6.3).
//!
//! An app is *over-privileged* when its manifest requests permissions its
//! code never exercises. The paper builds on PScout's API→permission map
//! plus static reachability; here the map is
//! [`marketscope_apk::permmap::PermissionMap`] and both footprints are
//! computed: the **flat** API set (every call anywhere in the DEX — the
//! historical baseline, inflated by dead bundled libraries) and the
//! **reachable** set (calls in methods the worklist pass reaches from the
//! manifest-declared components). The paper's dead-code caveat is the gap
//! between the two.

use marketscope_apk::apicalls::ApiCallId;
use marketscope_apk::digest::ApkDigest;
use marketscope_apk::permmap::{PermSet, PermissionMap};

/// Which API footprint the over-privilege verdict is computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FootprintMode {
    /// Every API call anywhere in the DEX (the historical baseline).
    Flat,
    /// Only calls in methods reachable from declared components.
    Reachable,
}

/// Per-app over-privilege facts, under both footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverprivilegeResult {
    /// Permissions declared in the manifest (recognized ones).
    pub declared: PermSet,
    /// Permissions exercised by any API call in the DEX (flat).
    pub used: PermSet,
    /// Declared but never exercised anywhere in the DEX (flat).
    pub unused: PermSet,
    /// Permissions exercised by *reachable* API calls.
    pub used_reachable: PermSet,
    /// Declared but not exercised by any reachable call. Superset of
    /// `unused`: a permission used only from dead code lands here.
    pub unused_reachable: PermSet,
}

impl OverprivilegeResult {
    /// Whether the app requests at least one unused permission (flat
    /// baseline; see [`Self::is_overprivileged_in`]).
    pub fn is_overprivileged(&self) -> bool {
        !self.unused.is_empty()
    }

    /// The unused permission set under a given footprint.
    pub(crate) fn unused_in(&self, mode: FootprintMode) -> PermSet {
        match mode {
            FootprintMode::Flat => self.unused,
            FootprintMode::Reachable => self.unused_reachable,
        }
    }

    /// Whether the app is over-privileged under a given footprint.
    pub fn is_overprivileged_in(&self, mode: FootprintMode) -> bool {
        !self.unused_in(mode).is_empty()
    }

    /// Number of unused permissions under a given footprint.
    pub(crate) fn unused_count_in(&self, mode: FootprintMode) -> usize {
        self.unused_in(mode).len()
    }
}

/// The analyzer: the shared permission map over both static API
/// footprints.
#[derive(Debug, Clone)]
pub struct OverprivilegeAnalyzer {
    map: &'static PermissionMap,
}

impl Default for OverprivilegeAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl OverprivilegeAnalyzer {
    /// Analyzer over the standard platform map.
    pub fn new() -> Self {
        OverprivilegeAnalyzer {
            map: PermissionMap::shared(),
        }
    }

    /// Analyze one app digest. One pass over the API rows fills both
    /// footprints; an id called from several Java packages is looked up
    /// once per package, since folding into a mask needs no dedupe pass.
    pub fn analyze(&self, digest: &ApkDigest) -> OverprivilegeResult {
        let rows = digest.package_features.iter().flat_map(|f| &f.api);
        let none = PermSet::default();
        let (used, used_reachable) = rows.fold((none, none), |(flat, reached), a| {
            let needs = self.map.used_permissions(std::iter::once(ApiCallId(a.id)));
            let reached = if a.reachable > 0 {
                reached.union(needs)
            } else {
                reached
            };
            (flat.union(needs), reached)
        });
        let declared = PermSet::from_names(digest.permissions.iter().map(String::as_str));
        OverprivilegeResult {
            declared,
            used,
            unused: declared.difference(used),
            used_reachable,
            unused_reachable: declared.difference(used_reachable),
        }
    }

    /// Analyze a batch of digests across `workers` threads.
    ///
    /// [`analyze`](Self::analyze) is a pure function of the digest, so the
    /// batch is embarrassingly parallel; results come back in input order
    /// and are bit-identical to calling `analyze` per digest, regardless of
    /// `workers`.
    pub fn analyze_batch(
        &self,
        digests: &[&ApkDigest],
        workers: usize,
    ) -> Vec<OverprivilegeResult> {
        marketscope_core::parallel::par_map(workers, digests, |d| self.analyze(d))
    }
}

/// Aggregate a population of results into the Figure 11 histogram under
/// a chosen footprint: counts of apps with 0, 1, ..., 9, and >9 unused
/// permissions.
pub fn unused_histogram_in<'a>(
    results: impl IntoIterator<Item = &'a OverprivilegeResult>,
    mode: FootprintMode,
) -> [u64; 11] {
    let mut out = [0u64; 11];
    for r in results {
        let bucket = r.unused_count_in(mode).min(10);
        out[bucket] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::builder::ApkBuilder;
    use marketscope_apk::dex::DexFile;
    use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
    use marketscope_apk::permmap::{Permission, PERMISSIONS};
    use marketscope_core::{DeveloperKey, PackageName, VersionCode};

    fn digest_of(declared: Vec<String>, dex: DexFile, components: Vec<Component>) -> ApkDigest {
        let manifest = Manifest {
            package: PackageName::new("com.t.x").unwrap(),
            version_code: VersionCode(1),
            version_name: "1".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "T".into(),
            permissions: declared,
            category: "Tools".into(),
            components,
        };
        let bytes = ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label("d"))
            .unwrap();
        ApkDigest::from_bytes(&bytes).unwrap()
    }

    fn digest_with(declared: Vec<String>, calls: Vec<u32>) -> ApkDigest {
        let calls: Vec<ApiCallId> = calls.into_iter().map(ApiCallId).collect();
        let mut dex = DexFile::default();
        dex.push_class("Lcom/t/x/Main;");
        dex.push_method(1, &calls, &[]);
        digest_of(declared, dex, vec![])
    }

    /// Find an API id requiring a given permission.
    fn api_for(perm: &str) -> u32 {
        let map = PermissionMap::standard();
        let limit = marketscope_apk::apicalls::API_CALL_RANGE;
        map.apis_for(
            Permission(PERMISSIONS.iter().find(|p| **p == perm).unwrap()),
            limit,
        )[0]
        .0
    }

    #[test]
    fn exact_declaration_is_not_overprivileged() {
        let camera_api = api_for("android.permission.CAMERA");
        let d = digest_with(vec!["android.permission.CAMERA".into()], vec![camera_api]);
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert!(!r.is_overprivileged());
        assert!(r.unused.is_empty());
        assert!(r.used.iter().any(|p| p.0.ends_with("CAMERA")));
    }

    #[test]
    fn unused_declarations_are_flagged() {
        let camera_api = api_for("android.permission.CAMERA");
        let d = digest_with(
            vec![
                "android.permission.CAMERA".into(),
                "android.permission.READ_PHONE_STATE".into(),
                "android.permission.SEND_SMS".into(),
            ],
            vec![camera_api],
        );
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert!(r.is_overprivileged());
        assert_eq!(r.unused.len(), 2);
        let dangerous = r.unused.iter().filter(|p| PermSet::DANGEROUS.contains(*p));
        assert_eq!(dangerous.count(), 2);
    }

    #[test]
    fn unknown_permission_strings_are_ignored() {
        let d = digest_with(vec!["com.custom.PERMISSION".into()], vec![]);
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert_eq!(r.declared.len(), 0);
        assert!(!r.is_overprivileged());
    }

    #[test]
    fn ids_beyond_the_feature_space_exercise_nothing() {
        use marketscope_apk::{apicalls::API_DIMENSIONS, ApiCount};
        // Digest fields are public, so a caller can hand over ids no
        // decoder would produce; they must read as "no permission".
        let mut d = digest_with(vec!["android.permission.CAMERA".into()], vec![]);
        for f in &mut d.package_features {
            for id in [API_DIMENSIONS, API_DIMENSIONS + 1, u32::MAX] {
                std::sync::Arc::make_mut(f).api.push(ApiCount {
                    id,
                    count: 1,
                    reachable: 1,
                });
            }
        }
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert!(r.used.is_empty() && r.used_reachable.is_empty());
        assert_eq!(r.unused.len(), 1);
    }

    #[test]
    fn used_but_undeclared_is_not_overprivilege() {
        // The inverse gap (missing declarations) is a crash bug, not
        // over-privilege; unused must stay empty.
        let camera_api = api_for("android.permission.CAMERA");
        let d = digest_with(vec![], vec![camera_api]);
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert!(!r.is_overprivileged());
        assert!(!r.used.is_empty());
    }

    #[test]
    fn no_components_makes_modes_agree() {
        let camera_api = api_for("android.permission.CAMERA");
        let d = digest_with(
            vec![
                "android.permission.CAMERA".into(),
                "android.permission.SEND_SMS".into(),
            ],
            vec![camera_api],
        );
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert_eq!(r.used, r.used_reachable);
        assert_eq!(r.unused, r.unused_reachable);
        assert_eq!(
            r.unused_count_in(FootprintMode::Flat),
            r.unused_count_in(FootprintMode::Reachable)
        );
    }

    /// The load-bearing divergence: a permission-gated API that lives
    /// only in a dead bundled class is "used" to the flat footprint but
    /// not to the reachable one, so only reachability mode flags the app.
    #[test]
    fn dead_code_permission_flagged_only_in_reachable_mode() {
        let camera_api = api_for("android.permission.CAMERA");
        let mut dex = DexFile::default();
        dex.push_class("Lcom/t/x/Main;");
        dex.push_method(1, &[], &[]);
        // Bundled library class nothing ever invokes.
        dex.push_class("Lcom/deadlib/sdk/Camera;");
        dex.push_method(2, &[ApiCallId(camera_api)], &[]);
        let d = digest_of(
            vec!["android.permission.CAMERA".into()],
            dex,
            vec![Component {
                kind: ComponentKind::Activity,
                class: "Lcom/t/x/Main;".into(),
            }],
        );
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        assert!(!r.is_overprivileged_in(FootprintMode::Flat));
        assert!(r.is_overprivileged_in(FootprintMode::Reachable));
        assert_eq!(r.unused_count_in(FootprintMode::Reachable), 1);
        assert!(r
            .unused_in(FootprintMode::Reachable)
            .iter()
            .any(|p| p.0.ends_with("CAMERA")));
    }

    #[test]
    fn histogram_buckets() {
        let camera_api = api_for("android.permission.CAMERA");
        let none = digest_with(vec!["android.permission.CAMERA".into()], vec![camera_api]);
        let two = digest_with(
            vec![
                "android.permission.SEND_SMS".into(),
                "android.permission.READ_SMS".into(),
            ],
            vec![],
        );
        let analyzer = OverprivilegeAnalyzer::new();
        let results = vec![analyzer.analyze(&none), analyzer.analyze(&two)];
        let h = unused_histogram_in(&results, FootprintMode::Flat);
        assert_eq!(h[0], 1);
        assert_eq!(h[2], 1);
        assert_eq!(h.iter().sum::<u64>(), 2);
        let hr = unused_histogram_in(&results, FootprintMode::Reachable);
        assert_eq!(hr, h); // no components anywhere → modes agree
    }

    #[test]
    fn many_unused_lands_in_overflow_bucket() {
        let perms: Vec<String> = PERMISSIONS
            .iter()
            .take(12)
            .map(|p| (*p).to_string())
            .collect();
        let d = digest_with(perms, vec![]);
        let r = OverprivilegeAnalyzer::new().analyze(&d);
        let h = unused_histogram_in(&[r], FootprintMode::Flat);
        assert_eq!(h[10], 1);
    }
}
