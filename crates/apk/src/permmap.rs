//! The platform permission specification (PScout-style).
//!
//! PScout [Au et al., CCS'12] maps Android framework APIs, Intents and
//! Content-Provider URIs to the permissions they require; the paper uses
//! its Android 5.1.1 map (32,445 permission-related APIs, 97 intents,
//! 78 + 996 provider strings) to find over-privileged apps. We generate a
//! deterministic map over our [`ApiCallId`] space in which
//! permission-protected method calls are *rare at call sites* (~0.5% of
//! ids) — PScout's table is large, but a typical app's call mix touches
//! only a handful of protected APIs, which is exactly what makes the
//! declared-vs-used permission gap measurable. Intents and
//! Content-Provider URIs are always permission-related, as in PScout's
//! listing.

use crate::apicalls::{ApiCallId, ApiFamily};
use marketscope_core::hash::mix64;

/// An Android permission, e.g. `android.permission.CAMERA`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Permission(pub &'static str);

impl Permission {
    /// Short name without the `android.permission.` prefix.
    pub(crate) fn short(self) -> &'static str {
        self.0.rsplit('.').next().unwrap_or(self.0)
    }
}

/// All permissions in the model. The dangerous subset mirrors the ones the
/// paper reports as most over-requested (Section 6.3).
pub const PERMISSIONS: [&str; 24] = [
    "android.permission.READ_PHONE_STATE",
    "android.permission.ACCESS_COARSE_LOCATION",
    "android.permission.ACCESS_FINE_LOCATION",
    "android.permission.CAMERA",
    "android.permission.RECORD_AUDIO",
    "android.permission.READ_CONTACTS",
    "android.permission.WRITE_CONTACTS",
    "android.permission.READ_SMS",
    "android.permission.SEND_SMS",
    "android.permission.RECEIVE_SMS",
    "android.permission.READ_CALL_LOG",
    "android.permission.READ_CALENDAR",
    "android.permission.WRITE_CALENDAR",
    "android.permission.READ_EXTERNAL_STORAGE",
    "android.permission.WRITE_EXTERNAL_STORAGE",
    "android.permission.GET_ACCOUNTS",
    "android.permission.INTERNET",
    "android.permission.ACCESS_NETWORK_STATE",
    "android.permission.ACCESS_WIFI_STATE",
    "android.permission.BLUETOOTH",
    "android.permission.NFC",
    "android.permission.VIBRATE",
    "android.permission.WAKE_LOCK",
    "android.permission.RECEIVE_BOOT_COMPLETED",
];

/// Position of a permission name in [`PERMISSIONS`].
fn index_of(name: &str) -> Option<usize> {
    PERMISSIONS.iter().position(|q| *q == name)
}

/// A set of model permissions: bit `i` stands for `PERMISSIONS[i]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PermSet(u32);

impl PermSet {
    /// The dangerous subset (per Google's protection levels): the first
    /// 16 entries of [`PERMISSIONS`].
    pub const DANGEROUS: PermSet = PermSet(0xFFFF);

    /// The recognized permissions among `names`; strings outside the
    /// model (custom or vendor permissions) are ignored.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> PermSet {
        let bits = names
            .into_iter()
            .filter_map(index_of)
            .fold(0, |bits, i| bits | (1 << i));
        PermSet(bits)
    }

    /// Number of permissions in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set holds no permission.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `perm` is in the set.
    pub fn contains(self, perm: Permission) -> bool {
        index_of(perm.0).is_some_and(|i| (self.0 >> i) & 1 == 1)
    }

    /// The members, in [`PERMISSIONS`] order.
    pub fn iter(self) -> impl Iterator<Item = Permission> {
        PERMISSIONS
            .iter()
            .enumerate()
            .filter(move |(i, _)| (self.0 >> i) & 1 == 1)
            .map(|(_, p)| Permission(p))
    }

    /// The members of `self` that are not in `other`.
    pub fn difference(self, other: PermSet) -> PermSet {
        PermSet(self.0 & !other.0)
    }

    /// The members of either set.
    pub fn union(self, other: PermSet) -> PermSet {
        PermSet(self.0 | other.0)
    }
}

/// `perm_index` entry of an API id that needs no permission.
const NO_PERMISSION: u8 = u8::MAX;

/// Density of permission-protected method-call ids (~0.53%): tuned so a
/// typical app's static API footprint exercises 4–8 distinct permissions.
const PERMISSION_RELATED_NUM: u64 = 217;
const PERMISSION_RELATED_DEN: u64 = 40_960;

/// Density of *unprotected* method-call ids classified as log-exfil
/// sinks (`Log.d` of structured payloads, `System.out` writes to
/// world-readable files…). Sparse by design: a random app method almost
/// never logs sensitively, so discovered flows trace back to planted
/// ones.
const LOG_EXFIL_NUM: u64 = 21;
const LOG_EXFIL_DEN: u64 = 40_960;
const LOG_EXFIL_SALT: u64 = 0x10_6e;

/// A class of privacy-sensitive *source* APIs — framework method calls
/// whose return value is private user data. Mirrors SuSi/FlowDroid's
/// source categories restricted to the ones the paper's permission
/// analysis already models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceClass {
    /// IMEI / phone identity (`READ_PHONE_STATE`-protected getters).
    DeviceId,
    /// Coarse or fine location reads.
    Location,
    /// Contact-book and call-log reads.
    Contacts,
    /// Account-manager identity reads (`GET_ACCOUNTS`).
    Account,
}

impl SourceClass {
    /// Every source class, in taint-propagation order.
    pub const ALL: [SourceClass; 4] = [
        SourceClass::DeviceId,
        SourceClass::Location,
        SourceClass::Contacts,
        SourceClass::Account,
    ];

    /// Dense index into per-class tables (matches `ALL` order).
    pub fn index(self) -> usize {
        match self {
            SourceClass::DeviceId => 0,
            SourceClass::Location => 1,
            SourceClass::Contacts => 2,
            SourceClass::Account => 3,
        }
    }
}

/// A class of *sink* APIs — framework method calls that move data out of
/// the app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SinkClass {
    /// Socket / HTTP transmission (`INTERNET`-protected calls).
    NetworkSend,
    /// Logging or world-readable writes: unprotected, but exfiltration
    /// in PScout's extended listing.
    LogExfil,
}

impl SinkClass {
    /// Every sink class.
    pub const ALL: [SinkClass; 2] = [SinkClass::NetworkSend, SinkClass::LogExfil];

    /// Dense index into per-class tables (matches `ALL` order).
    pub fn index(self) -> usize {
        match self {
            SinkClass::NetworkSend => 0,
            SinkClass::LogExfil => 1,
        }
    }
}

/// Bit offset of the sink classes in a [`PermissionMap::taint_classes`]
/// byte: bit `SourceClass::index()` marks a source, bit
/// `SINK_SHIFT + SinkClass::index()` a sink.
pub(crate) const SINK_SHIFT: u32 = 4;

/// The API → permission map, with the source/sink classification the
/// taint pass consumes and a precomputed permission → API reverse index.
#[derive(Debug, Clone)]
pub struct PermissionMap {
    /// Forward index: per API id, the `PERMISSIONS` position of the
    /// permission it requires, or [`NO_PERMISSION`].
    perm_index: Vec<u8>,
    /// Per API id, its source and sink classes as one byte (layout at
    /// [`SINK_SHIFT`]).
    taint_class: Vec<u8>,
    /// Reverse index: per permission (in `PERMISSIONS` order), every API
    /// id requiring it, ascending.
    reverse: Vec<Vec<ApiCallId>>,
    /// Per source class (in `SourceClass::ALL` order), every source API
    /// id, ascending.
    sources: Vec<Vec<ApiCallId>>,
    /// Per sink class (in `SinkClass::ALL` order), every sink API id,
    /// ascending.
    sinks: Vec<Vec<ApiCallId>>,
}

impl Default for PermissionMap {
    fn default() -> Self {
        PermissionMap::standard()
    }
}

impl PermissionMap {
    /// The standard platform map (deterministic; same on both sides of
    /// the simulation). Builds the forward, reverse and source/sink
    /// indices once, so lookups afterwards never rescan the id space.
    pub fn standard() -> PermissionMap {
        // `required` and the two classifications are pure in the id, so
        // they can be asked of the map while its indices fill.
        let mut map = PermissionMap {
            perm_index: vec![NO_PERMISSION; crate::apicalls::API_DIMENSIONS as usize],
            taint_class: vec![0; crate::apicalls::API_DIMENSIONS as usize],
            reverse: vec![Vec::new(); PERMISSIONS.len()],
            sources: vec![Vec::new(); SourceClass::ALL.len()],
            sinks: vec![Vec::new(); SinkClass::ALL.len()],
        };
        for raw in 0..crate::apicalls::API_DIMENSIONS {
            let api = ApiCallId(raw);
            if let Some(idx) = map.required(api).and_then(|p| index_of(p.0)) {
                map.perm_index[api.index()] = idx as u8;
                map.reverse[idx].push(api);
            }
            if let Some(s) = map.source_class(api) {
                map.sources[s.index()].push(api);
                map.taint_class[api.index()] |= 1 << s.index();
            }
            if let Some(s) = map.sink_class(api) {
                map.sinks[s.index()].push(api);
                map.taint_class[api.index()] |= 1 << (SINK_SHIFT as usize + s.index());
            }
        }
        map
    }

    /// A process-wide shared copy of the standard map, for hot paths
    /// (digest extraction and over-privilege analysis run once per APK)
    /// that should not rebuild the indices each time.
    pub fn shared() -> &'static PermissionMap {
        static SHARED: std::sync::OnceLock<PermissionMap> = std::sync::OnceLock::new();
        SHARED.get_or_init(PermissionMap::standard)
    }

    /// The permission required to invoke `api`, if any.
    pub fn required(&self, api: ApiCallId) -> Option<Permission> {
        let salt = match api.family() {
            ApiFamily::MethodCall => 0x5ca7,
            ApiFamily::Intent => 0x117e,
            ApiFamily::ContentProvider => 0xc0de,
        };
        let h = mix64(api.0 as u64, salt);
        // Intents and providers are always permission-related in PScout's
        // listing; method calls only at the 32445/40960 rate.
        if api.family() == ApiFamily::MethodCall
            && h % PERMISSION_RELATED_DEN >= PERMISSION_RELATED_NUM
        {
            return None;
        }
        let idx = (mix64(h, 0x9e37) % PERMISSIONS.len() as u64) as usize;
        Some(Permission(PERMISSIONS[idx]))
    }

    /// The set of permissions actually exercised by a sequence of API
    /// calls — the "used" side of the over-privilege comparison. Served
    /// from the forward index; ids outside the feature space exercise
    /// nothing.
    pub fn used_permissions(&self, calls: impl Iterator<Item = ApiCallId>) -> PermSet {
        let bits = calls.fold(0, |bits, c| match self.perm_index.get(c.index()) {
            Some(&idx) if idx != NO_PERMISSION => bits | (1 << idx),
            _ => bits,
        });
        PermSet(bits)
    }

    /// All API ids (within a range) that exercise `perm` — used by the
    /// generator to pick code that needs a chosen permission. Served from
    /// the reverse index built in [`PermissionMap::standard`]; the index
    /// is ascending, so the range cut is a prefix.
    pub fn apis_for(&self, perm: Permission, scan_limit: u32) -> Vec<ApiCallId> {
        let Some(idx) = index_of(perm.0) else {
            return Vec::new();
        };
        self.reverse[idx]
            .iter()
            .take_while(|id| id.0 < scan_limit)
            .copied()
            .collect()
    }

    /// The privacy-source class of `api`, if any. Pure function of the
    /// permission map: `READ_PHONE_STATE`-protected method calls read the
    /// device identity, the two location permissions read location,
    /// contact-book and call-log reads share a class, and `GET_ACCOUNTS`
    /// reads account identity. Intents and providers are never sources —
    /// the taint pass tracks data returned *into* app code.
    pub fn source_class(&self, api: ApiCallId) -> Option<SourceClass> {
        if api.family() != ApiFamily::MethodCall {
            return None;
        }
        match self.required(api)?.short() {
            "READ_PHONE_STATE" => Some(SourceClass::DeviceId),
            "ACCESS_COARSE_LOCATION" | "ACCESS_FINE_LOCATION" => Some(SourceClass::Location),
            "READ_CONTACTS" | "READ_CALL_LOG" => Some(SourceClass::Contacts),
            "GET_ACCOUNTS" => Some(SourceClass::Account),
            _ => None,
        }
    }

    /// The exfiltration-sink class of `api`, if any. `INTERNET`-protected
    /// method calls transmit; a sparse slice of the *unprotected* ids are
    /// log-exfil sinks. Disjoint from every source class by construction
    /// (sources carry non-`INTERNET` permissions, log sinks carry none).
    pub fn sink_class(&self, api: ApiCallId) -> Option<SinkClass> {
        if api.family() != ApiFamily::MethodCall {
            return None;
        }
        match self.required(api) {
            Some(p) if p.short() == "INTERNET" => Some(SinkClass::NetworkSend),
            Some(_) => None,
            None => {
                if mix64(api.0 as u64, LOG_EXFIL_SALT) % LOG_EXFIL_DEN < LOG_EXFIL_NUM {
                    Some(SinkClass::LogExfil)
                } else {
                    None
                }
            }
        }
    }

    /// The taint classes of `api` as one byte, served from a dense table:
    /// bit `SourceClass::index()` is set when `api` is a source of that
    /// class (low nibble), bit `4 + SinkClass::index()` when it is a sink
    /// of that class. Zero for ids outside the feature space, as for
    /// every id [`PermissionMap::source_class`] and
    /// [`PermissionMap::sink_class`] both leave unclassified.
    pub(crate) fn taint_classes(&self, api: ApiCallId) -> u8 {
        self.taint_class.get(api.index()).copied().unwrap_or(0)
    }

    /// Every source API of one class, ascending (precomputed).
    pub fn source_apis(&self, class: SourceClass) -> &[ApiCallId] {
        &self.sources[class.index()]
    }

    /// Every sink API of one class, ascending (precomputed).
    pub fn sink_apis(&self, class: SinkClass) -> &[ApiCallId] {
        &self.sinks[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apicalls::{API_CALL_RANGE, API_DIMENSIONS};

    #[test]
    fn map_is_deterministic() {
        let m1 = PermissionMap::standard();
        let m2 = PermissionMap::standard();
        for id in (0..API_DIMENSIONS).step_by(97) {
            let a = ApiCallId(id);
            assert_eq!(m1.required(a), m2.required(a));
        }
    }

    #[test]
    fn method_call_permission_density_is_sparse() {
        let m = PermissionMap::standard();
        let related = (0..API_CALL_RANGE)
            .filter(|&id| m.required(ApiCallId(id)).is_some())
            .count() as f64;
        let rate = related / API_CALL_RANGE as f64;
        let target = PERMISSION_RELATED_NUM as f64 / PERMISSION_RELATED_DEN as f64;
        assert!((rate - target).abs() < 0.003, "rate {rate} target {target}");
    }

    #[test]
    fn intents_and_providers_always_permission_related() {
        let m = PermissionMap::standard();
        for id in API_CALL_RANGE..API_DIMENSIONS {
            assert!(m.required(ApiCallId(id)).is_some(), "id {id}");
        }
    }

    #[test]
    fn every_permission_is_reachable() {
        let m = PermissionMap::standard();
        for p in PERMISSIONS {
            let apis = m.apis_for(Permission(p), API_CALL_RANGE);
            assert!(!apis.is_empty(), "{p} has no protected APIs at all");
        }
    }

    #[test]
    fn used_permissions_dedupes() {
        let m = PermissionMap::standard();
        let apis = m.apis_for(Permission(PERMISSIONS[0]), crate::apicalls::API_CALL_RANGE);
        let used = m.used_permissions(apis.iter().copied().chain(apis.iter().copied()));
        assert_eq!(used.len(), 1);
        assert!(used.contains(Permission(PERMISSIONS[0])));
    }

    #[test]
    fn forward_index_matches_pure_mapping() {
        let m = PermissionMap::standard();
        for id in 0..API_DIMENSIONS {
            let api = ApiCallId(id);
            let used: Vec<Permission> = m.used_permissions([api].into_iter()).iter().collect();
            assert_eq!(
                used,
                m.required(api).into_iter().collect::<Vec<_>>(),
                "{id}"
            );
        }
    }

    #[test]
    fn ids_outside_the_feature_space_exercise_nothing() {
        let m = PermissionMap::standard();
        let hostile = [API_DIMENSIONS, API_DIMENSIONS + 1, u32::MAX].map(ApiCallId);
        assert!(m.used_permissions(hostile.into_iter()).is_empty());
    }

    #[test]
    fn dangerous_classification() {
        assert!(PermSet::DANGEROUS.contains(Permission("android.permission.CAMERA")));
        assert!(!PermSet::DANGEROUS.contains(Permission("android.permission.INTERNET")));
        assert_eq!(Permission("android.permission.CAMERA").short(), "CAMERA");
        let named = [
            "android.permission.READ_PHONE_STATE",
            "android.permission.ACCESS_COARSE_LOCATION",
            "android.permission.ACCESS_FINE_LOCATION",
            "android.permission.CAMERA",
            "android.permission.RECORD_AUDIO",
            "android.permission.READ_CONTACTS",
            "android.permission.WRITE_CONTACTS",
            "android.permission.READ_SMS",
            "android.permission.SEND_SMS",
            "android.permission.RECEIVE_SMS",
            "android.permission.READ_CALL_LOG",
            "android.permission.READ_CALENDAR",
            "android.permission.WRITE_CALENDAR",
            "android.permission.READ_EXTERNAL_STORAGE",
            "android.permission.WRITE_EXTERNAL_STORAGE",
            "android.permission.GET_ACCOUNTS",
        ];
        assert_eq!(PermSet::DANGEROUS, PermSet::from_names(named));
        assert_eq!(PermSet::DANGEROUS.len(), 16);
    }

    #[test]
    fn permset_full_empty_and_difference() {
        let all = PermSet::from_names(PERMISSIONS);
        assert_eq!(all.len(), 24);
        assert!(!all.is_empty());
        assert!(PERMISSIONS.iter().all(|p| all.contains(Permission(p))));
        let listed: Vec<&str> = all.iter().map(|p| p.0).collect();
        assert_eq!(listed, PERMISSIONS);

        let none = PermSet::default();
        assert!(none.is_empty());
        assert_eq!(none.len(), 0);
        assert_eq!(none.iter().count(), 0);
        assert!(!none.contains(Permission(PERMISSIONS[0])));
        // Names outside the model are neither inserted nor found.
        assert!(PermSet::from_names(["com.custom.PERMISSION"]).is_empty());
        assert!(!all.contains(Permission("com.custom.PERMISSION")));

        let rest = all.difference(PermSet::DANGEROUS);
        assert_eq!(rest.len(), 8);
        assert!(rest.iter().all(|p| !PermSet::DANGEROUS.contains(p)));
        assert_eq!(all.difference(all), none);
        assert_eq!(none.difference(all), none);
        assert_eq!(all.difference(none), all);
    }

    #[test]
    fn reverse_index_matches_linear_scan() {
        // The satellite's contract: the precomputed reverse index must
        // reproduce the old O(scan_limit) filter exactly, at every cut.
        let m = PermissionMap::standard();
        for p in PERMISSIONS {
            let perm = Permission(p);
            for limit in [0, 1_000, API_CALL_RANGE, API_DIMENSIONS] {
                let scanned: Vec<ApiCallId> = (0..limit)
                    .map(ApiCallId)
                    .filter(|id| m.required(*id) == Some(perm))
                    .collect();
                assert_eq!(m.apis_for(perm, limit), scanned, "{p} at limit {limit}");
            }
        }
        // Unknown permissions have no index entry.
        assert!(m
            .apis_for(Permission("android.permission.BOGUS"), API_DIMENSIONS)
            .is_empty());
    }

    #[test]
    fn source_and_sink_tables_match_pure_classification() {
        let m = PermissionMap::standard();
        for class in SourceClass::ALL {
            let scanned: Vec<ApiCallId> = (0..API_DIMENSIONS)
                .map(ApiCallId)
                .filter(|id| m.source_class(*id) == Some(class))
                .collect();
            assert_eq!(m.source_apis(class), scanned.as_slice(), "{class:?}");
            assert!(!scanned.is_empty(), "{class:?} has no source APIs");
        }
        for class in SinkClass::ALL {
            let scanned: Vec<ApiCallId> = (0..API_DIMENSIONS)
                .map(ApiCallId)
                .filter(|id| m.sink_class(*id) == Some(class))
                .collect();
            assert_eq!(m.sink_apis(class), scanned.as_slice(), "{class:?}");
            assert!(!scanned.is_empty(), "{class:?} has no sink APIs");
        }
    }

    #[test]
    fn taint_class_table_matches_pure_classification() {
        let m = PermissionMap::standard();
        for id in (0..API_DIMENSIONS + 4).chain([u32::MAX]) {
            let api = ApiCallId(id);
            let mut want = 0u8;
            if let Some(s) = m.source_class(api) {
                want |= 1 << s.index();
            }
            if let Some(s) = m.sink_class(api) {
                want |= 1 << (SINK_SHIFT as usize + s.index());
            }
            assert_eq!(m.taint_classes(api), want, "id {id}");
        }
    }

    #[test]
    fn sources_and_sinks_are_disjoint_method_calls() {
        let m = PermissionMap::standard();
        for id in 0..API_DIMENSIONS {
            let api = ApiCallId(id);
            let src = m.source_class(api);
            let snk = m.sink_class(api);
            assert!(
                src.is_none() || snk.is_none(),
                "id {id} is both {src:?} and {snk:?}"
            );
            if id >= API_CALL_RANGE {
                assert!(src.is_none() && snk.is_none(), "non-method id {id} tagged");
            }
        }
        // Log-exfil sinks are sparse by design (they gate false flows).
        let log = m.sink_apis(SinkClass::LogExfil).len() as f64;
        assert!(
            log / (API_CALL_RANGE as f64) < 0.002,
            "log-exfil density too high: {log}"
        );
    }

    #[test]
    fn source_classes_follow_their_permissions() {
        let m = PermissionMap::standard();
        for class in SourceClass::ALL {
            for api in m.source_apis(class) {
                let perm = m.required(*api).expect("sources are protected");
                let ok = match class {
                    SourceClass::DeviceId => perm.short() == "READ_PHONE_STATE",
                    SourceClass::Location => perm.short().ends_with("_LOCATION"),
                    SourceClass::Contacts => {
                        matches!(perm.short(), "READ_CONTACTS" | "READ_CALL_LOG")
                    }
                    SourceClass::Account => perm.short() == "GET_ACCOUNTS",
                };
                assert!(ok, "{class:?} api {} has {}", api.0, perm.0);
            }
        }
        for api in m.sink_apis(SinkClass::NetworkSend) {
            assert_eq!(m.required(*api).map(|p| p.short()), Some("INTERNET"));
        }
        for api in m.sink_apis(SinkClass::LogExfil) {
            assert_eq!(m.required(*api), None, "log sinks are unprotected");
        }
    }
}
