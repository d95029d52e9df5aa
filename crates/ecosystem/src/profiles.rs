//! Per-market ground-truth profiles.
//!
//! Each profile encodes what the paper *measured* for one market (Tables
//! 1, 3, 4 and 6; Figures 2, 4, 5 and 9) as generation targets. The
//! synthetic world plants these rates; the analysis pipeline must then
//! *recover* them from crawled bytes — that closed loop is what makes the
//! reproduction meaningful at any scale.

use marketscope_core::MarketId;

/// How many listings to generate: paper catalog sizes divided by
/// `divisor`, so all per-market proportions are preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Paper catalog size divisor.
    pub divisor: u32,
}

impl Scale {
    /// Test scale: ~1/4000 of the paper (≈1.6 K listings).
    pub const SMALL: Scale = Scale { divisor: 4000 };
    /// Bench/report scale: ~1/400 of the paper (≈15.7 K listings).
    pub const MEDIUM: Scale = Scale { divisor: 400 };
    /// Stress scale: ~1/100 of the paper (≈63 K listings).
    pub const LARGE: Scale = Scale { divisor: 100 };

    /// Scaled catalog size for a market (at least 8 so every market has
    /// enough listings for rate planting even at tiny scales).
    pub(crate) fn catalog(self, market: MarketId) -> usize {
        (profile(market).paper_catalog_size / self.divisor as u64).max(8) as usize
    }

    /// Total scaled listings across all markets.
    pub fn total_listings(self) -> usize {
        MarketId::ALL.iter().map(|m| self.catalog(*m)).sum()
    }
}

/// Ground-truth generation targets for one market.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketProfile {
    /// Which market this profile describes.
    pub id: MarketId,
    /// Table 1 "Size (#Apps)".
    pub paper_catalog_size: u64,
    /// Table 1 "#Developers".
    pub paper_developers: u64,
    /// Table 1 "% Unique Developers".
    pub unique_dev_pct: f64,
    /// Table 1: requires a software copyright certificate.
    pub copyright_check: bool,
    /// Table 1: app vetting before publication.
    pub app_vetting: bool,
    /// Table 1: explicit security checks.
    pub security_check: bool,
    /// Table 1: vetting time in days (`None` where the paper reports N/A).
    pub vetting_days: Option<f64>,
    /// Table 1: rates app quality.
    pub quality_rating: bool,
    /// Table 1: requires a privacy policy.
    pub privacy_policy: bool,
    /// Table 1: informs users about ads.
    pub reports_ads: bool,
    /// Table 1: informs users about in-app purchases.
    pub reports_iap: bool,
    /// Whether the store reports install counts at all (Xiaomi and App
    /// China do not — Section 4.2).
    pub reports_installs: bool,
    /// Figure 2 row: target share of listings per install bucket.
    pub download_dist: [f64; 7],
    /// Figure 6: share of listings with no user rating.
    pub unrated_share: f64,
    /// Figure 6: the store's default rating for unrated apps (PC Online
    /// plants 3.0; everyone else effectively 0).
    pub default_rating: f64,
    /// Figure 4: share of listings released/updated before 2017.
    pub old_release_share: f64,
    /// Figure 4: share released within 6 months of the first crawl.
    pub fresh_release_share: f64,
    /// Figure 3: share of listings declaring min SDK < 9.
    pub low_api_share: f64,
    /// Figure 5a: share of apps embedding at least one third-party library.
    pub tpl_presence: f64,
    /// Figure 5a: mean third-party libraries per app.
    pub avg_tpls: f64,
    /// Figure 5b: share of apps embedding at least one ad library.
    pub ad_presence: f64,
    /// Section 4.1: share of listings whose store category is junk
    /// (NULL or non-descriptive).
    pub junk_category_share: f64,
    /// Table 3: share of fake apps.
    pub fake_rate: f64,
    /// Table 3: share of signature-based clones.
    pub sig_clone_rate: f64,
    /// Table 3: share of code-based clones.
    pub code_clone_rate: f64,
    /// Table 4 "≥1": share flagged by at least one AV engine.
    pub av1_rate: f64,
    /// Table 4 "≥10": share flagged by at least ten engines (malware).
    pub av10_rate: f64,
    /// Table 4 "≥20".
    pub av20_rate: f64,
    /// Section 6 extension: share of listings planted with a privacy
    /// leak (a taint flow from a private source to an exfiltration
    /// sink). Tracks the market's general hygiene — clean stores vet
    /// SDK behaviour, grey markets do not.
    pub leak_rate: f64,
    /// Table 6: share of identified malware removed by the second crawl
    /// (`None` for markets excluded from the post-analysis).
    pub malware_removal_rate: Option<f64>,
    /// Figure 9: share of this store's multi-store apps carrying the
    /// highest version seen anywhere.
    pub up_to_date_share: f64,
    /// Section 5.2: share of the catalog published only in this store.
    pub single_store_share: f64,
    /// 360 requires Jiagubao obfuscation before upload (Section 2.1).
    pub requires_obfuscation: bool,
    /// Google Play rate-limits APK downloads (Section 3.1).
    pub rate_limited_downloads: bool,
    /// Baidu indexes apps by sequential integer (Section 3).
    pub incremental_index: bool,
}

/// The profile for a market.
pub fn profile(market: MarketId) -> &'static MarketProfile {
    &PROFILES[market.index()]
}

/// All 17 profiles in [`MarketId::ALL`] order.
pub(crate) fn all_profiles() -> &'static [MarketProfile; 17] {
    &PROFILES
}

macro_rules! pct {
    ($v:expr) => {
        $v / 100.0
    };
}

/// One static profile per market; values transcribed from the paper.
// One AV rate happens to equal 3.14% — measured data, not an approximation
// of a mathematical constant.
#[allow(clippy::approx_constant)]
static PROFILES: [MarketProfile; 17] = [
    MarketProfile {
        id: MarketId::GooglePlay,
        paper_catalog_size: 2_031_946,
        paper_developers: 538_283,
        unique_dev_pct: pct!(57.04),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(0.2),
        quality_rating: false,
        privacy_policy: true,
        reports_ads: true,
        reports_iap: true,
        reports_installs: true,
        download_dist: [0.0405, 0.1790, 0.3052, 0.2538, 0.1515, 0.0562, 0.0121],
        unrated_share: pct!(9.3),
        default_rating: 0.0,
        old_release_share: pct!(66.0),
        fresh_release_share: pct!(23.0),
        low_api_share: pct!(22.0),
        tpl_presence: pct!(94.0),
        avg_tpls: 8.0,
        ad_presence: pct!(70.0),
        junk_category_share: pct!(2.0),
        fake_rate: pct!(0.03),
        sig_clone_rate: pct!(4.01),
        code_clone_rate: pct!(17.82),
        av1_rate: pct!(17.03),
        av10_rate: pct!(2.09),
        av20_rate: pct!(0.32),
        leak_rate: pct!(8.0),
        malware_removal_rate: Some(pct!(84.0)),
        up_to_date_share: pct!(95.4),
        single_store_share: pct!(77.0),
        requires_obfuscation: false,
        rate_limited_downloads: true,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::TencentMyapp,
        paper_catalog_size: 636_265,
        paper_developers: 294_950,
        unique_dev_pct: pct!(10.61),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(1.0),
        quality_rating: true,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.5587, 0.1237, 0.1550, 0.1038, 0.0421, 0.0121, 0.0035],
        unrated_share: pct!(80.0),
        default_rating: 0.0,
        old_release_share: pct!(90.0),
        fresh_release_share: pct!(5.0),
        low_api_share: pct!(63.0),
        tpl_presence: pct!(92.0),
        avg_tpls: 12.0,
        ad_presence: pct!(55.0),
        junk_category_share: pct!(40.0),
        fake_rate: pct!(0.53),
        sig_clone_rate: pct!(8.24),
        code_clone_rate: pct!(22.73),
        av1_rate: pct!(34.15),
        av10_rate: pct!(11.16),
        av20_rate: pct!(3.45),
        leak_rate: pct!(18.0),
        malware_removal_rate: Some(pct!(8.75)),
        up_to_date_share: pct!(89.4),
        single_store_share: pct!(15.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::BaiduMarket,
        paper_catalog_size: 227_454,
        paper_developers: 107_698,
        unique_dev_pct: pct!(15.10),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0, 0.3498, 0.2591, 0.2321, 0.0765, 0.0540, 0.0226],
        unrated_share: pct!(60.0),
        default_rating: 0.0,
        old_release_share: pct!(90.0),
        fresh_release_share: pct!(5.0),
        low_api_share: pct!(63.0),
        tpl_presence: pct!(91.0),
        avg_tpls: 11.0,
        ad_presence: pct!(54.0),
        junk_category_share: pct!(5.0),
        fake_rate: pct!(0.48),
        sig_clone_rate: pct!(10.98),
        code_clone_rate: pct!(17.38),
        av1_rate: pct!(42.77),
        av10_rate: pct!(12.24),
        av20_rate: pct!(3.30),
        leak_rate: pct!(22.0),
        malware_removal_rate: Some(pct!(23.99)),
        up_to_date_share: pct!(52.9),
        single_store_share: pct!(8.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: true,
    },
    MarketProfile {
        id: MarketId::Market360,
        paper_catalog_size: 163_121,
        paper_developers: 90_226,
        unique_dev_pct: pct!(6.80),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(1.0),
        quality_rating: true,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: true,
        reports_installs: true,
        download_dist: [0.1654, 0.1608, 0.1925, 0.2579, 0.1278, 0.0724, 0.0197],
        unrated_share: pct!(55.0),
        default_rating: 0.0,
        old_release_share: pct!(90.0),
        fresh_release_share: pct!(5.0),
        low_api_share: pct!(63.0),
        tpl_presence: pct!(93.0),
        avg_tpls: 20.0,
        ad_presence: pct!(56.0),
        junk_category_share: pct!(40.0),
        fake_rate: pct!(0.50),
        sig_clone_rate: pct!(5.43),
        code_clone_rate: pct!(23.26),
        av1_rate: pct!(41.40),
        av10_rate: pct!(12.35),
        av20_rate: pct!(3.10),
        leak_rate: pct!(21.0),
        malware_removal_rate: Some(pct!(43.0)),
        up_to_date_share: pct!(82.5),
        single_store_share: pct!(10.0),
        requires_obfuscation: true,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::OppoMarket,
        paper_catalog_size: 426_419,
        paper_developers: 209_197,
        unique_dev_pct: pct!(14.37),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0, 0.0, 0.8431, 0.1047, 0.0316, 0.0155, 0.0043],
        unrated_share: pct!(82.0),
        default_rating: 0.0,
        old_release_share: pct!(90.0),
        fresh_release_share: pct!(5.0),
        low_api_share: pct!(63.0),
        tpl_presence: pct!(92.0),
        avg_tpls: 12.0,
        ad_presence: pct!(52.0),
        junk_category_share: pct!(40.0),
        fake_rate: pct!(0.38),
        sig_clone_rate: pct!(5.85),
        code_clone_rate: pct!(20.94),
        av1_rate: pct!(42.97),
        av10_rate: pct!(16.43),
        av20_rate: pct!(6.00),
        leak_rate: pct!(22.0),
        malware_removal_rate: None, // OPPO became app-only before the 2nd crawl
        up_to_date_share: pct!(90.2),
        single_store_share: pct!(22.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::XiaomiMarket,
        paper_catalog_size: 91_190,
        paper_developers: 55_669,
        unique_dev_pct: pct!(5.78),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: false,
        download_dist: [0.0; 7],
        unrated_share: pct!(45.0),
        default_rating: 0.0,
        old_release_share: pct!(88.0),
        fresh_release_share: pct!(6.0),
        low_api_share: pct!(60.0),
        tpl_presence: pct!(92.0),
        avg_tpls: 11.0,
        ad_presence: pct!(52.0),
        junk_category_share: pct!(5.0),
        fake_rate: 0.0,
        sig_clone_rate: pct!(8.00),
        code_clone_rate: pct!(20.11),
        av1_rate: pct!(55.11),
        av10_rate: pct!(9.12),
        av20_rate: pct!(1.82),
        leak_rate: pct!(27.0),
        malware_removal_rate: Some(pct!(32.50)),
        up_to_date_share: pct!(63.9),
        single_store_share: pct!(5.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::MeizuMarket,
        paper_catalog_size: 80_573,
        paper_developers: 50_451,
        unique_dev_pct: pct!(0.58),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0763, 0.1350, 0.4537, 0.1954, 0.0797, 0.0428, 0.0142],
        unrated_share: pct!(50.0),
        default_rating: 0.0,
        old_release_share: pct!(88.0),
        fresh_release_share: pct!(6.0),
        low_api_share: pct!(58.0),
        tpl_presence: pct!(90.0),
        avg_tpls: 10.0,
        ad_presence: pct!(50.0),
        junk_category_share: pct!(4.0),
        fake_rate: pct!(1.14),
        sig_clone_rate: pct!(6.65),
        code_clone_rate: pct!(18.42),
        av1_rate: pct!(51.40),
        av10_rate: pct!(10.70),
        av20_rate: pct!(3.14),
        leak_rate: pct!(25.0),
        malware_removal_rate: Some(pct!(29.18)),
        up_to_date_share: pct!(69.1),
        single_store_share: pct!(0.9),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::HuaweiMarket,
        paper_catalog_size: 51_303,
        paper_developers: 32_927,
        unique_dev_pct: pct!(5.66),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(4.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0010, 0.0, 0.3805, 0.2733, 0.1764, 0.1173, 0.0416],
        unrated_share: pct!(35.0),
        default_rating: 0.0,
        old_release_share: pct!(85.0),
        fresh_release_share: pct!(8.0),
        low_api_share: pct!(55.0),
        tpl_presence: pct!(91.0),
        avg_tpls: 10.0,
        ad_presence: pct!(52.0),
        junk_category_share: pct!(3.0),
        fake_rate: pct!(0.33),
        sig_clone_rate: pct!(11.54),
        code_clone_rate: pct!(18.76),
        av1_rate: pct!(57.48),
        av10_rate: pct!(4.71),
        av20_rate: pct!(0.57),
        leak_rate: pct!(24.0),
        malware_removal_rate: Some(pct!(26.92)),
        up_to_date_share: pct!(72.7),
        single_store_share: pct!(4.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::LenovoMm,
        paper_catalog_size: 37_716,
        paper_developers: 24_565,
        unique_dev_pct: pct!(0.79),
        copyright_check: true,
        app_vetting: true,
        security_check: false,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0004, 0.1470, 0.0, 0.5354, 0.1678, 0.1102, 0.0319],
        unrated_share: pct!(45.0),
        default_rating: 0.0,
        old_release_share: pct!(88.0),
        fresh_release_share: pct!(5.0),
        low_api_share: pct!(60.0),
        tpl_presence: pct!(89.0),
        avg_tpls: 10.0,
        ad_presence: pct!(50.0),
        junk_category_share: pct!(4.0),
        fake_rate: pct!(0.67),
        sig_clone_rate: pct!(7.81),
        code_clone_rate: pct!(16.37),
        av1_rate: pct!(54.20),
        av10_rate: pct!(7.53),
        av20_rate: pct!(1.52),
        leak_rate: pct!(26.0),
        malware_removal_rate: Some(pct!(22.75)),
        up_to_date_share: pct!(60.4),
        single_store_share: pct!(2.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::Pp25,
        paper_catalog_size: 1_013_208,
        paper_developers: 470_073,
        unique_dev_pct: pct!(19.06),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0027, 0.0463, 0.6802, 0.2034, 0.0482, 0.0149, 0.0037],
        unrated_share: pct!(83.0),
        default_rating: 0.0,
        old_release_share: pct!(92.0),
        fresh_release_share: pct!(4.0),
        low_api_share: pct!(65.0),
        tpl_presence: pct!(92.0),
        avg_tpls: 12.0,
        ad_presence: pct!(54.0),
        junk_category_share: pct!(40.0),
        fake_rate: pct!(0.35),
        sig_clone_rate: pct!(7.16),
        code_clone_rate: pct!(24.08),
        av1_rate: pct!(32.36),
        av10_rate: pct!(8.26),
        av20_rate: pct!(2.06),
        leak_rate: pct!(19.0),
        malware_removal_rate: Some(pct!(19.63)),
        up_to_date_share: pct!(91.8),
        single_store_share: pct!(21.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::Wandoujia,
        paper_catalog_size: 554_138,
        paper_developers: 291_114,
        unique_dev_pct: pct!(0.97),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0196, 0.0474, 0.4366, 0.3524, 0.1217, 0.0177, 0.0038],
        unrated_share: pct!(70.0),
        default_rating: 0.0,
        old_release_share: pct!(91.0),
        fresh_release_share: pct!(4.5),
        low_api_share: pct!(64.0),
        tpl_presence: pct!(91.0),
        avg_tpls: 11.0,
        ad_presence: pct!(53.0),
        junk_category_share: pct!(6.0),
        fake_rate: pct!(0.39),
        sig_clone_rate: pct!(5.98),
        code_clone_rate: pct!(21.23),
        av1_rate: pct!(31.99),
        av10_rate: pct!(7.98),
        av20_rate: pct!(2.19),
        leak_rate: pct!(18.0),
        malware_removal_rate: Some(pct!(34.51)),
        up_to_date_share: pct!(90.0),
        single_store_share: pct!(0.8),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::HiApk,
        paper_catalog_size: 246_023,
        paper_developers: 115_191,
        unique_dev_pct: pct!(3.65),
        copyright_check: false,
        app_vetting: false,
        security_check: false,
        vetting_days: None,
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0, 0.0, 0.7824, 0.1315, 0.0593, 0.0205, 0.0053],
        unrated_share: pct!(72.0),
        default_rating: 0.0,
        old_release_share: pct!(93.0),
        fresh_release_share: pct!(3.0),
        low_api_share: pct!(67.0),
        tpl_presence: pct!(90.0),
        avg_tpls: 11.0,
        ad_presence: pct!(53.0),
        junk_category_share: pct!(7.0),
        fake_rate: pct!(0.64),
        sig_clone_rate: pct!(7.51),
        code_clone_rate: pct!(20.08),
        av1_rate: pct!(41.89),
        av10_rate: pct!(11.12),
        av20_rate: pct!(2.72),
        leak_rate: pct!(22.0),
        malware_removal_rate: None, // HiApk discontinued service by end of 2017
        up_to_date_share: pct!(66.6),
        single_store_share: pct!(6.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::AnZhi,
        paper_catalog_size: 223_043,
        paper_developers: 74_145,
        unique_dev_pct: pct!(21.93),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0010, 0.0135, 0.4972, 0.4283, 0.0486, 0.0084, 0.0023],
        unrated_share: pct!(68.0),
        default_rating: 0.0,
        old_release_share: pct!(91.0),
        fresh_release_share: pct!(4.0),
        low_api_share: pct!(64.0),
        tpl_presence: pct!(90.0),
        avg_tpls: 11.0,
        ad_presence: pct!(53.0),
        junk_category_share: pct!(6.0),
        fake_rate: pct!(0.57),
        sig_clone_rate: pct!(4.92),
        code_clone_rate: pct!(20.71),
        av1_rate: pct!(55.32),
        av10_rate: pct!(11.37),
        av20_rate: pct!(2.41),
        leak_rate: pct!(26.0),
        malware_removal_rate: Some(pct!(27.61)),
        up_to_date_share: pct!(75.9),
        single_store_share: pct!(23.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::Liqu,
        paper_catalog_size: 179_147,
        paper_developers: 101_336,
        unique_dev_pct: pct!(6.10),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: None,
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0001, 0.0003, 0.0001, 0.7183, 0.2232, 0.0514, 0.0061],
        unrated_share: pct!(70.0),
        default_rating: 0.0,
        old_release_share: pct!(92.0),
        fresh_release_share: pct!(3.5),
        low_api_share: pct!(65.0),
        tpl_presence: pct!(90.0),
        avg_tpls: 11.0,
        ad_presence: pct!(53.0),
        junk_category_share: pct!(7.0),
        fake_rate: pct!(0.40),
        sig_clone_rate: pct!(5.32),
        code_clone_rate: pct!(16.68),
        av1_rate: pct!(45.91),
        av10_rate: pct!(13.00),
        av20_rate: pct!(4.27),
        leak_rate: pct!(23.0),
        malware_removal_rate: Some(pct!(14.08)),
        up_to_date_share: pct!(79.7),
        single_store_share: pct!(7.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::PcOnline,
        paper_catalog_size: 134_863,
        paper_developers: 65_225,
        unique_dev_pct: pct!(2.58),
        copyright_check: false,
        app_vetting: false,
        security_check: false,
        vetting_days: None,
        quality_rating: false,
        privacy_policy: false,
        reports_ads: false,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.1307, 0.7419, 0.0862, 0.0298, 0.0091, 0.0021, 0.0002],
        unrated_share: pct!(75.0),
        default_rating: 3.0,
        old_release_share: pct!(93.0),
        fresh_release_share: pct!(2.5),
        low_api_share: pct!(68.0),
        tpl_presence: pct!(85.0),
        avg_tpls: 9.0,
        ad_presence: pct!(50.0),
        junk_category_share: pct!(8.0),
        fake_rate: pct!(1.89),
        sig_clone_rate: pct!(8.60),
        code_clone_rate: pct!(23.34),
        av1_rate: pct!(55.93),
        av10_rate: pct!(24.01),
        av20_rate: pct!(8.37),
        leak_rate: pct!(28.0),
        malware_removal_rate: Some(pct!(0.01)),
        up_to_date_share: pct!(84.1),
        single_store_share: pct!(9.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::Sougou,
        paper_catalog_size: 128_403,
        paper_developers: 66_759,
        unique_dev_pct: pct!(4.04),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(1.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: true,
        download_dist: [0.0077, 0.1783, 0.5513, 0.2227, 0.0251, 0.0115, 0.0031],
        unrated_share: pct!(70.0),
        default_rating: 0.0,
        old_release_share: pct!(92.0),
        fresh_release_share: pct!(3.0),
        low_api_share: pct!(66.0),
        tpl_presence: pct!(89.0),
        avg_tpls: 10.0,
        ad_presence: pct!(52.0),
        junk_category_share: pct!(7.0),
        fake_rate: pct!(1.83),
        sig_clone_rate: pct!(4.86),
        code_clone_rate: pct!(18.28),
        av1_rate: pct!(52.41),
        av10_rate: pct!(16.53),
        av20_rate: pct!(4.59),
        leak_rate: pct!(27.0),
        malware_removal_rate: Some(pct!(24.24)),
        up_to_date_share: pct!(69.3),
        single_store_share: pct!(5.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
    MarketProfile {
        id: MarketId::AppChina,
        paper_catalog_size: 42_435,
        paper_developers: 23_699,
        unique_dev_pct: pct!(3.22),
        copyright_check: true,
        app_vetting: true,
        security_check: true,
        vetting_days: Some(2.0),
        quality_rating: false,
        privacy_policy: false,
        reports_ads: true,
        reports_iap: false,
        reports_installs: false,
        download_dist: [0.0; 7],
        unrated_share: pct!(65.0),
        default_rating: 0.0,
        old_release_share: pct!(92.0),
        fresh_release_share: pct!(3.0),
        low_api_share: pct!(66.0),
        tpl_presence: pct!(88.0),
        avg_tpls: 10.0,
        ad_presence: pct!(51.0),
        junk_category_share: pct!(6.0),
        fake_rate: 0.0,
        sig_clone_rate: pct!(10.17),
        code_clone_rate: pct!(13.23),
        av1_rate: pct!(48.55),
        av10_rate: pct!(14.13),
        av20_rate: pct!(4.27),
        leak_rate: pct!(24.0),
        malware_removal_rate: Some(pct!(20.51)),
        up_to_date_share: pct!(77.2),
        single_store_share: pct!(4.0),
        requires_obfuscation: false,
        rate_limited_downloads: false,
        incremental_index: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_in_market_order() {
        for (i, p) in PROFILES.iter().enumerate() {
            assert_eq!(p.id.index(), i, "{:?} out of order", p.id);
        }
    }

    #[test]
    fn paper_totals_match_table1() {
        let total: u64 = PROFILES.iter().map(|p| p.paper_catalog_size).sum();
        assert_eq!(total, 6_267_247, "Table 1 total apps");
    }

    #[test]
    fn download_distributions_are_near_stochastic() {
        for p in PROFILES.iter() {
            let sum: f64 = p.download_dist.iter().sum();
            if p.reports_installs {
                assert!((0.97..=1.01).contains(&sum), "{:?} sums to {sum}", p.id);
            } else {
                assert_eq!(sum, 0.0, "{:?} must not report installs", p.id);
            }
        }
    }

    #[test]
    fn rates_are_probabilities() {
        for p in PROFILES.iter() {
            for (name, v) in [
                ("fake", p.fake_rate),
                ("sig_clone", p.sig_clone_rate),
                ("code_clone", p.code_clone_rate),
                ("av1", p.av1_rate),
                ("av10", p.av10_rate),
                ("av20", p.av20_rate),
                ("leak", p.leak_rate),
                ("unrated", p.unrated_share),
                ("old", p.old_release_share),
                ("fresh", p.fresh_release_share),
                ("low_api", p.low_api_share),
                ("tpl", p.tpl_presence),
                ("ad", p.ad_presence),
                ("junk", p.junk_category_share),
                ("uptodate", p.up_to_date_share),
                ("single", p.single_store_share),
            ] {
                assert!((0.0..=1.0).contains(&v), "{:?} {name} = {v}", p.id);
            }
            assert!(
                p.av20_rate <= p.av10_rate && p.av10_rate <= p.av1_rate,
                "{:?}",
                p.id
            );
        }
    }

    #[test]
    fn av_ordering_and_special_cases() {
        assert!(profile(MarketId::GooglePlay).av10_rate < 0.03);
        assert!(profile(MarketId::PcOnline).av10_rate > 0.2);
        assert!(profile(MarketId::Market360).requires_obfuscation);
        assert!(profile(MarketId::GooglePlay).rate_limited_downloads);
        assert!(profile(MarketId::BaiduMarket).incremental_index);
        assert!(!profile(MarketId::XiaomiMarket).reports_installs);
        assert!(!profile(MarketId::AppChina).reports_installs);
        assert_eq!(profile(MarketId::PcOnline).default_rating, 3.0);
        // Google Play is the cleanest leak-wise; every Chinese market
        // plants at least twice its rate.
        let gp_leak = profile(MarketId::GooglePlay).leak_rate;
        for m in MarketId::ALL {
            if m != MarketId::GooglePlay {
                assert!(profile(m).leak_rate >= 2.0 * gp_leak, "{m:?}");
            }
        }
        assert_eq!(profile(MarketId::HiApk).malware_removal_rate, None);
        assert_eq!(profile(MarketId::OppoMarket).malware_removal_rate, None);
        assert!(!profile(MarketId::HiApk).copyright_check);
        assert!(!profile(MarketId::PcOnline).copyright_check);
    }

    #[test]
    fn scale_preserves_proportions() {
        let s = Scale::SMALL;
        let gp = s.catalog(MarketId::GooglePlay);
        let pp = s.catalog(MarketId::Pp25);
        // 25PP is roughly half of Google Play in the paper.
        let ratio = pp as f64 / gp as f64;
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
        assert!(s.total_listings() > 1_000);
        assert!(Scale::MEDIUM.total_listings() > 10 * s.total_listings() / 2);
    }

    #[test]
    fn tiny_markets_keep_a_floor() {
        let s = Scale { divisor: 1_000_000 };
        for m in MarketId::ALL {
            assert!(s.catalog(m) >= 8);
        }
    }
}
