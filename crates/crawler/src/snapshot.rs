//! The crawled dataset model.

use std::sync::Arc;

use marketscope_apk::digest::ApkDigest;
use marketscope_core::json::Json;
use marketscope_core::{MarketId, SimDate};

/// One crawled listing: store metadata plus (if harvested) the APK digest.
#[derive(Debug, Clone)]
pub struct CrawledListing {
    /// Package name as reported by the store.
    pub package: String,
    /// App display name.
    pub label: String,
    /// Version code as reported by the store.
    pub version_code: u32,
    /// Version name string.
    pub version_name: String,
    /// Raw store category (possibly junk).
    pub raw_category: String,
    /// Normalized install count: the raw counter, or the lower bound of
    /// Google Play's range; `None` where the store reports nothing.
    pub downloads: Option<u64>,
    /// Whether `downloads` came from a binned range (Google Play).
    pub downloads_from_range: bool,
    /// Store rating (0 = unrated on most stores).
    pub rating: f64,
    /// Release/update date, if parseable.
    pub updated: Option<SimDate>,
    /// Developer display name (store metadata; *not* the signing key).
    pub developer_name: String,
    /// Parsed APK digest; `None` when the APK could not be harvested
    /// (rate-limited and missing from the offline repository). Interned
    /// behind an [`Arc`] so downstream analysis stages can share the digest
    /// without deep-copying its class/method tables.
    pub digest: Option<Arc<ApkDigest>>,
}

impl CrawledListing {
    /// Parse a store's metadata JSON document into a listing shell
    /// (no APK yet). Returns `None` if mandatory fields are missing.
    pub fn from_metadata(doc: &Json) -> Option<CrawledListing> {
        let package = doc.get("package")?.as_str()?.to_owned();
        let label = doc.get("name")?.as_str()?.to_owned();
        let version_code = doc.get("version_code")?.as_u64()? as u32;
        let (downloads, downloads_from_range) = match doc.get("downloads").and_then(Json::as_u64) {
            Some(raw) => (Some(raw), false),
            None => match doc.get("installs").and_then(Json::as_str) {
                Some(range) => (parse_install_range(range), true),
                None => (None, false),
            },
        };
        Some(CrawledListing {
            package,
            label,
            version_code,
            version_name: doc
                .get("version_name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            raw_category: doc
                .get("category")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            downloads,
            downloads_from_range,
            rating: doc.get("rating").and_then(Json::as_f64).unwrap_or(0.0),
            updated: doc
                .get("updated")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok()),
            developer_name: doc
                .get("developer")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            digest: None,
        })
    }
}

/// Parse a Google-Play-style install range ("10,000 - 100,000" or
/// "1,000,000+") down to its lower bound.
pub(crate) fn parse_install_range(s: &str) -> Option<u64> {
    let lower = s.split(['-', '+']).next()?.trim();
    let digits: String = lower.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// One market's crawled catalog.
#[derive(Debug, Clone)]
pub struct MarketSnapshot {
    /// The market.
    pub market: MarketId,
    /// Every listing harvested from it.
    pub listings: Vec<CrawledListing>,
}

impl MarketSnapshot {
    /// Number of listings whose APK digest was harvested.
    pub fn apk_count(&self) -> usize {
        self.listings.iter().filter(|l| l.digest.is_some()).count()
    }
}

/// Counters describing how a crawl went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Metadata documents fetched.
    pub metadata_fetched: u64,
    /// APKs fetched directly from stores.
    pub apks_direct: u64,
    /// APK fetches answered 429 (rate-limited).
    pub rate_limited: u64,
    /// APKs recovered from the offline repository.
    pub apks_backfilled: u64,
    /// Listings left without an APK.
    pub apks_missing: u64,
    /// APK payloads that failed to parse.
    pub parse_failures: u64,
    /// Packages found via parallel search in markets that did not list
    /// them in their own index walk.
    pub parallel_search_hits: u64,
    /// Terminal non-404 fetch failures (metadata, index walk, APK, or
    /// repository backfill) that survived the client's retry policy.
    pub fetch_errors: u64,
    /// Markets quarantined mid-harvest after a run of consecutive
    /// terminal failures.
    pub markets_quarantined: u64,
    /// APK fetches deferred past a quarantine to the revisit pass.
    pub fetches_deferred: u64,
    /// Deferred fetches the market answered on revisit.
    pub revisit_recovered: u64,
}

/// The assembled dataset: 17 market snapshots plus crawl statistics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-market catalogs, in [`MarketId::ALL`] order.
    pub markets: Vec<MarketSnapshot>,
    /// Crawl statistics.
    pub stats: CrawlStats,
}

impl Snapshot {
    /// The snapshot for one market.
    pub fn market(&self, m: MarketId) -> &MarketSnapshot {
        &self.markets[m.index()]
    }

    /// Total listings across all markets (the paper's "6,267,247 apps").
    pub fn total_listings(&self) -> usize {
        self.markets.iter().map(|m| m.listings.len()).sum()
    }

    /// Total harvested APKs (the paper's "4,522,411 APK files").
    pub fn total_apks(&self) -> usize {
        self.markets.iter().map(|m| m.apk_count()).sum()
    }

    /// Iterate `(market, listing)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MarketId, &CrawledListing)> {
        self.markets
            .iter()
            .flat_map(|m| m.listings.iter().map(move |l| (m.market, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_range_parsing() {
        assert_eq!(parse_install_range("10,000 - 100,000"), Some(10_000));
        assert_eq!(parse_install_range("1,000,000+"), Some(1_000_000));
        assert_eq!(parse_install_range("0 - 10"), Some(0));
        assert_eq!(parse_install_range("junk"), None);
    }

    #[test]
    fn range_string_round_trips_to_lower_bound() {
        use marketscope_core::InstallRange;
        use marketscope_market::endpoints::install_range_string;
        for v in [0u64, 9, 75_123, 999_999] {
            let s = install_range_string(v);
            let lo = parse_install_range(&s).unwrap();
            assert_eq!(lo, InstallRange::from_count(v).lower_bound(), "{s}");
        }
        // Above 1M the bound tightens but stays below the raw value.
        for v in [5_000_000u64, 42_000_000, 800_000_000] {
            let lo = parse_install_range(&install_range_string(v)).unwrap();
            assert!(lo <= v && lo >= v / 5, "{v} → {lo}");
        }
    }

    #[test]
    fn metadata_parsing_chinese_store() {
        let doc = Json::parse(
            r#"{"package":"com.a.b","name":"App","version_code":3,
                "version_name":"0.3.0","category":"Game","downloads":12345,
                "rating":4.2,"updated":"2016-05-01","developer":"Foo Studio"}"#,
        )
        .unwrap();
        let l = CrawledListing::from_metadata(&doc).unwrap();
        assert_eq!(l.package, "com.a.b");
        assert_eq!(l.downloads, Some(12345));
        assert!(!l.downloads_from_range);
        assert_eq!(l.updated.unwrap().to_string(), "2016-05-01");
        assert_eq!(l.rating, 4.2);
    }

    #[test]
    fn metadata_parsing_google_play_range() {
        let doc = Json::parse(
            r#"{"package":"com.a.b","name":"App","version_code":3,
                "installs":"50,000 - 100,000","rating":4.5}"#,
        )
        .unwrap();
        let l = CrawledListing::from_metadata(&doc).unwrap();
        assert_eq!(l.downloads, Some(50_000));
        assert!(l.downloads_from_range);
    }

    #[test]
    fn metadata_parsing_missing_installs() {
        let doc =
            Json::parse(r#"{"package":"com.a.b","name":"App","version_code":1,"rating":0.0}"#)
                .unwrap();
        let l = CrawledListing::from_metadata(&doc).unwrap();
        assert_eq!(l.downloads, None);
    }

    #[test]
    fn metadata_parsing_rejects_incomplete() {
        let doc = Json::parse(r#"{"name":"App"}"#).unwrap();
        assert!(CrawledListing::from_metadata(&doc).is_none());
    }
}
