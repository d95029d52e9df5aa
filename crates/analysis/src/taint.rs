//! Privacy-leak analysis: taint flows joined against library ownership
//! (the paper's Section 6 misbehaviour catalog, extended with the
//! FlowDroid-style pass the comparison literature applies to Chinese
//! markets).
//!
//! The format-level pass ([`marketscope_apk::taint`]) runs at digest
//! time — the digest is the last point where invocation edges exist —
//! and records each source→sink flow with the Java package of the sink
//! site. This module is the analysis-facing engine: it attributes every
//! flow to **host** code or a detected **third-party library** by
//! joining the sink package against the library-detection ownership
//! index ([`PackageOwnership`]), the distinction the ecosystem papers
//! care about (an SDK exfiltrating the IMEI is a supply-chain problem;
//! host code doing it is developer intent). The pass carries no
//! instruments of its own: the report engine's `taint` stage times and
//! counts it.

use marketscope_apk::digest::ApkDigest;
use marketscope_apk::permmap::{SinkClass, SourceClass};
use marketscope_libdetect::PackageOwnership;

/// Who owns the code performing the sink call of a leak flow.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeakAttribution {
    /// The app's own (or at least un-clustered) code.
    Host,
    /// A detected third-party library, by root package.
    Library(String),
}

impl LeakAttribution {
    /// Whether the flow sinks inside a detected library.
    pub(crate) fn is_library(&self) -> bool {
        matches!(self, LeakAttribution::Library(_))
    }
}

/// One attributed leak flow.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeakFlow {
    /// What private data leaks.
    pub source: SourceClass,
    /// How it leaves the app.
    pub sink: SinkClass,
    /// Host code or a detected library root.
    pub attribution: LeakAttribution,
}

/// One app's attributed leak flows (input order preserved from the
/// digest, which is already deduplicated and sorted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakResult {
    /// Attributed flows.
    pub flows: Vec<LeakFlow>,
}

impl LeakResult {
    /// Whether the app leaks at all.
    pub fn leaks(&self) -> bool {
        !self.flows.is_empty()
    }

    /// Number of flows sinking in host code.
    pub fn host_flows(&self) -> usize {
        self.flows
            .iter()
            .filter(|f| !f.attribution.is_library())
            .count()
    }

    /// Number of flows sinking in detected libraries.
    pub fn library_flows(&self) -> usize {
        self.flows
            .iter()
            .filter(|f| f.attribution.is_library())
            .count()
    }

    /// Whether any flow sinks in a detected library.
    pub fn leaks_via_library(&self) -> bool {
        self.flows.iter().any(|f| f.attribution.is_library())
    }
}

/// The leak engine: stateless, a pure function of digest and ownership.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeakAnalyzer;

impl LeakAnalyzer {
    /// A leak analyzer.
    pub fn new() -> Self {
        LeakAnalyzer
    }

    /// Attribute one digest's taint flows against the ownership join.
    pub fn analyze(&self, digest: &ApkDigest, ownership: &PackageOwnership) -> LeakResult {
        let flows: Vec<LeakFlow> = digest
            .flows
            .iter()
            .map(|f| {
                let attribution = f
                    .sink_package
                    .as_deref()
                    .and_then(|p| ownership.owner_of(p))
                    .map_or(LeakAttribution::Host, |root| {
                        LeakAttribution::Library(root.to_owned())
                    });
                LeakFlow {
                    source: f.source,
                    sink: f.sink,
                    attribution,
                }
            })
            .collect();
        LeakResult { flows }
    }

    /// Analyze a batch of digests across `workers` threads.
    ///
    /// [`analyze`](Self::analyze) is a pure function of the digest and
    /// the ownership join, so the batch is embarrassingly parallel;
    /// results come back in input order and are bit-identical to calling
    /// `analyze` per digest, regardless of `workers`.
    pub fn analyze_batch(
        &self,
        digests: &[&ApkDigest],
        ownership: &PackageOwnership,
        workers: usize,
    ) -> Vec<LeakResult> {
        marketscope_core::parallel::par_map(workers, digests, |d| self.analyze(d, ownership))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::builder::ApkBuilder;
    use marketscope_apk::dex::{DexFile, MethodRef};
    use marketscope_apk::manifest::{Component, ComponentKind, Manifest};
    use marketscope_apk::permmap::PermissionMap;
    use marketscope_core::{DeveloperKey, PackageName, VersionCode};

    fn digest(dex: DexFile) -> ApkDigest {
        let manifest = Manifest {
            package: PackageName::new("com.t.x").unwrap(),
            version_code: VersionCode(1),
            version_name: "1".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "T".into(),
            permissions: vec![],
            category: "Tools".into(),
            components: vec![Component {
                kind: ComponentKind::Activity,
                class: "Lcom/t/x/Main;".into(),
            }],
        };
        let bytes = ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label("d"))
            .unwrap();
        ApkDigest::from_bytes(&bytes).unwrap()
    }

    /// Append a one-method class with `calls` and `invokes`.
    fn class(
        dex: &mut DexFile,
        name: &str,
        calls: &[marketscope_apk::ApiCallId],
        invokes: &[(u16, u16)],
    ) {
        let invokes: Vec<MethodRef> = invokes
            .iter()
            .map(|&(class, method)| MethodRef { class, method })
            .collect();
        dex.push_class(name);
        dex.push_method(3, calls, &invokes);
    }

    /// Main reads the device id, relays into an ad-SDK subpackage that
    /// sends it out, and also logs it from its own code.
    fn leaky_digest(m: &PermissionMap) -> ApkDigest {
        let src = m.source_apis(SourceClass::DeviceId)[0];
        let net = m.sink_apis(SinkClass::NetworkSend)[0];
        let log = m.sink_apis(SinkClass::LogExfil)[0];
        let mut dex = DexFile::default();
        class(&mut dex, "Lcom/t/x/Main;", &[src], &[(1, 0), (2, 0)]);
        class(&mut dex, "Lcom/ads/sdk/v2/Send;", &[net], &[]);
        class(&mut dex, "Lcom/t/x/Log;", &[log], &[]);
        digest(dex)
    }

    #[test]
    fn attributes_flows_to_library_and_host() {
        let m = PermissionMap::standard();
        let d = leaky_digest(&m);
        let ownership = PackageOwnership::new(["com.ads.sdk".to_owned()]);
        let r = LeakAnalyzer::new().analyze(&d, &ownership);
        assert_eq!(
            r.flows,
            vec![
                LeakFlow {
                    source: SourceClass::DeviceId,
                    sink: SinkClass::NetworkSend,
                    attribution: LeakAttribution::Library("com.ads.sdk".into()),
                },
                LeakFlow {
                    source: SourceClass::DeviceId,
                    sink: SinkClass::LogExfil,
                    attribution: LeakAttribution::Host,
                },
            ]
        );
        assert!(r.leaks());
        assert!(r.leaks_via_library());
        assert_eq!(r.host_flows(), 1);
        assert_eq!(r.library_flows(), 1);
    }

    #[test]
    fn without_detected_libraries_everything_is_host() {
        let m = PermissionMap::standard();
        let d = leaky_digest(&m);
        let r = LeakAnalyzer::new().analyze(&d, &PackageOwnership::default());
        assert_eq!(r.flows.len(), 2);
        assert_eq!(r.host_flows(), 2);
        assert!(!r.leaks_via_library());
    }

    #[test]
    fn clean_app_has_no_flows() {
        let mut dex = DexFile::default();
        class(
            &mut dex,
            "Lcom/t/x/Main;",
            &[marketscope_apk::ApiCallId(40_000)],
            &[],
        );
        let d = digest(dex);
        let r = LeakAnalyzer::new().analyze(&d, &PackageOwnership::default());
        assert!(!r.leaks());
        assert_eq!(r, LeakResult::default());
    }

    #[test]
    fn batch_is_order_preserving_and_worker_invariant() {
        let m = PermissionMap::standard();
        let leaky = leaky_digest(&m);
        let mut dex = DexFile::default();
        class(&mut dex, "Lcom/t/x/Main;", &[], &[]);
        let clean = digest(dex);
        let digests: Vec<&ApkDigest> = vec![&leaky, &clean, &leaky, &clean, &leaky];
        let ownership = PackageOwnership::new(["com.ads.sdk".to_owned()]);
        let analyzer = LeakAnalyzer::new();
        let sequential: Vec<LeakResult> = digests
            .iter()
            .map(|d| analyzer.analyze(d, &ownership))
            .collect();
        for workers in [1, 2, 8] {
            let batch = analyzer.analyze_batch(&digests, &ownership, workers);
            assert_eq!(batch, sequential, "workers = {workers}");
        }
    }
}
