//! The world generator: plants every per-market ground truth the paper
//! measured, at a configurable scale, from a single seed.
//!
//! Generation order matters and mirrors the real ecosystem's causality:
//!
//! 1. **originals** — legitimate apps with developers, categories,
//!    popularity, release history, libraries and permissions, assigned to
//!    markets under per-market catalog quotas (single-store shares first,
//!    then multi-store apps whose reach grows with popularity);
//! 2. **fakes and clones** — parasitic apps derived from victims
//!    (Table 3 rates; Figure 10 origin mix);
//! 3. **malware** — infections over existing apps, preferring clones
//!    (the paper finds 38.3% of malware is repackaged), at Table 4 rates,
//!    plus the named Table 5 top-malware specials;
//! 4. **removal** — second-crawl disappearance at Table 6 rates.

use crate::libs::{LibBlocks, LibCatalog, LibUse};
use crate::names::NameForge;
use crate::profiles::{all_profiles, profile, MarketProfile, Scale};
use crate::threat::{FamilyRegion, Infection, ThreatDb, ThreatTier, FAMILIES};
use crate::world::{
    App, AppId, DevId, Developer, GroundTruth, Listing, ListingId, OwnCode, PlantedLeak,
    Provenance, World,
};
use marketscope_apk::dex::DexFile;
use marketscope_apk::permmap::{PermissionMap, SinkClass, SourceClass, PERMISSIONS};
use marketscope_core::rng::{DetRng, WeightedIndex};
use marketscope_core::{Category, DeveloperKey, MarketId, MarketKind, PackageName, SimDate};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Master seed; every byte of the world follows from it.
    pub seed: u64,
    /// Catalog scale.
    pub scale: Scale,
}

/// Share of planted privacy leaks whose sink lives in a bundled
/// third-party ad library; the rest sink in host code (Section 6
/// extension — the host-vs-TPL attribution split).
const LEAK_TPL_SHARE: f64 = 0.4;

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x5eed_cafe,
            scale: Scale::SMALL,
        }
    }
}

/// Generate a world.
pub fn generate(config: WorldConfig) -> World {
    Generator::new(config).run()
}

/// Category weights for non-vendor markets (games ≈ half the catalog,
/// Figure 1).
const CATEGORY_WEIGHTS: [(Category, f64); 21] = [
    (Category::Game, 0.45),
    (Category::Lifestyle, 0.07),
    (Category::Personalization, 0.06),
    (Category::Tools, 0.06),
    (Category::Entertainment, 0.05),
    (Category::Education, 0.04),
    (Category::Video, 0.04),
    (Category::News, 0.03),
    (Category::Social, 0.03),
    (Category::Music, 0.03),
    (Category::Shopping, 0.03),
    (Category::Books, 0.025),
    (Category::Finance, 0.02),
    (Category::Photography, 0.02),
    (Category::Communication, 0.02),
    (Category::Health, 0.015),
    (Category::Business, 0.015),
    (Category::Location, 0.01),
    (Category::Browsers, 0.005),
    (Category::InputMethods, 0.005),
    (Category::Security, 0.005),
];

/// Vendor stores skew away from games toward personalization/tools.
const VENDOR_CATEGORY_WEIGHTS: [(Category, f64); 21] = [
    (Category::Game, 0.32),
    (Category::Personalization, 0.13),
    (Category::Tools, 0.10),
    (Category::Lifestyle, 0.08),
    (Category::Entertainment, 0.06),
    (Category::Education, 0.05),
    (Category::Video, 0.04),
    (Category::News, 0.04),
    (Category::Social, 0.03),
    (Category::Music, 0.03),
    (Category::Shopping, 0.03),
    (Category::Books, 0.03),
    (Category::Finance, 0.025),
    (Category::Photography, 0.02),
    (Category::Communication, 0.02),
    (Category::Health, 0.015),
    (Category::Business, 0.015),
    (Category::Location, 0.01),
    (Category::Browsers, 0.005),
    (Category::InputMethods, 0.005),
    (Category::Security, 0.005),
];

const JUNK_CATEGORIES: [&str; 5] = ["", "Unclassified", "102229", "9999", "未分类"];

/// Distribution of extra (unused) permissions for over-privileged apps
/// (Figure 11: mode at 3, tail beyond 9).
const EXTRA_PERM_WEIGHTS: [f64; 11] = [
    0.0, 0.12, 0.18, 0.22, 0.15, 0.10, 0.08, 0.05, 0.04, 0.03, 0.03,
];

/// Table 5's named top-malware apps: package, family, detectability,
/// hosting markets.
const SPECIALS: [(&str, &str, f64, &[MarketId]); 10] = [
    (
        "com.trustport.mobilesecurity_eicar_test_file",
        "eicar",
        0.80,
        &[MarketId::Wandoujia, MarketId::Pp25],
    ),
    ("games.hexalab.home", "mofin", 0.785, &[MarketId::Liqu]),
    (
        "com.wb.gc.ljfk.baidu",
        "ramnit",
        0.78,
        &[MarketId::BaiduMarket, MarketId::HiApk],
    ),
    (
        "com.ypt.merchant",
        "ramnit",
        0.775,
        &[
            MarketId::TencentMyapp,
            MarketId::Wandoujia,
            MarketId::OppoMarket,
            MarketId::Pp25,
            MarketId::Liqu,
        ],
    ),
    (
        "com.wsljtwinmobi",
        "ramnit",
        0.765,
        &[MarketId::TencentMyapp, MarketId::Pp25],
    ),
    (
        "com.wb.gc.ljfk.tx",
        "ramnit",
        0.755,
        &[MarketId::TencentMyapp],
    ),
    (
        "com.wgljd",
        "ramnit",
        0.75,
        &[MarketId::TencentMyapp, MarketId::Market360],
    ),
    (
        "com.zoner.android.eicar",
        "eicar",
        0.74,
        &[MarketId::GooglePlay, MarketId::Wandoujia, MarketId::Pp25],
    ),
    (
        "com.zhiyun.cnhyb.activity",
        "ramnit",
        0.735,
        &[MarketId::BaiduMarket],
    ),
    ("com.fai.shuiligongcheng", "ramnit", 0.73, &[MarketId::Pp25]),
];

struct Generator {
    config: WorldConfig,
    rng: DetRng,
    forge: NameForge,
    libraries: LibCatalog,
    threat_db: ThreatDb,
    permmap: PermissionMap,
    developers: Vec<Developer>,
    apps: Vec<App>,
    listings: Vec<Listing>,
    per_market: Vec<Vec<ListingId>>,
    ground_truth: GroundTruth,
    /// (market index, package) pairs already listed — a market never
    /// hosts two apps with the same package.
    market_packages: HashSet<(usize, String)>,
    /// Original apps per market (victim pools for clones).
    originals_by_market: Vec<Vec<AppId>>,
    /// Popular originals (fake victims need a >1M-install official app).
    popular_apps: Vec<AppId>,
    /// Apps already victimized by a signature clone (repackagers pile on
    /// the same popular targets — the paper's com.dino example has 11
    /// distinct cloner keys).
    sig_victims: Vec<AppId>,
    /// Apps already victimized by a code clone (same piling-on effect).
    code_victims: Vec<AppId>,
    /// Developer pools by region for reuse.
    dev_pool_gp: Vec<DevId>,
    dev_pool_cn: Vec<DevId>,
    dev_pool_both: Vec<DevId>,
    /// Every library version an app embeds, expanded once.
    lib_blocks: LibBlocks,
}

impl Generator {
    fn new(config: WorldConfig) -> Self {
        let root = DetRng::new(config.seed);
        let libraries = LibCatalog::generate(&root, 150);
        Generator {
            forge: NameForge::new(root.derive("names")),
            rng: root.derive("generator"),
            libraries,
            threat_db: ThreatDb::standard(),
            permmap: PermissionMap::standard(),
            developers: Vec::new(),
            apps: Vec::new(),
            listings: Vec::new(),
            per_market: vec![Vec::new(); 17],
            ground_truth: GroundTruth::default(),
            market_packages: HashSet::new(),
            originals_by_market: vec![Vec::new(); 17],
            popular_apps: Vec::new(),
            sig_victims: Vec::new(),
            code_victims: Vec::new(),
            dev_pool_gp: Vec::new(),
            dev_pool_cn: Vec::new(),
            dev_pool_both: Vec::new(),
            lib_blocks: LibBlocks::default(),
            config,
        }
    }

    fn run(mut self) -> World {
        let scale = self.config.scale;
        // Per-market quota split: originals vs reserved misbehaviour.
        let mut base_quota = [0usize; 17];
        for p in all_profiles() {
            let quota = scale.catalog(p.id);
            let reserved = (quota as f64
                * (p.fake_rate + 0.75 * (p.sig_clone_rate + p.code_clone_rate)))
                .round() as usize;
            base_quota[p.id.index()] = quota.saturating_sub(reserved).max(4);
        }
        self.generate_originals(&base_quota);
        self.plant_fakes_and_clones(scale);
        self.plant_malware(scale);
        self.plant_specials();
        self.apply_removal();
        World {
            seed: self.config.seed,
            scale,
            libraries: self.libraries,
            threat_db: self.threat_db,
            developers: self.developers,
            apps: self.apps,
            listings: self.listings,
            ground_truth: self.ground_truth,
            per_market: self.per_market,
            lib_blocks: self.lib_blocks,
        }
    }

    // ----- phase 1: originals ------------------------------------------

    fn generate_originals(&mut self, base_quota: &[usize; 17]) {
        // Single-store apps first.
        for m in MarketId::ALL {
            let p = profile(m);
            let singles = (base_quota[m.index()] as f64 * p.single_store_share).round() as usize;
            for _ in 0..singles {
                // Popularity is a global *quantile*: keep it uniform so
                // downstream quantile-coupled draws (downloads, ratings)
                // reproduce each market's marginal distributions.
                let pop = self.rng.unit();
                self.create_original(m, vec![m], pop);
            }
        }
        // Multi-store apps until quotas drain.
        let mut remaining: Vec<usize> = MarketId::ALL
            .iter()
            .map(|m| {
                let p = profile(*m);
                base_quota[m.index()]
                    - ((base_quota[m.index()] as f64 * p.single_store_share).round() as usize)
            })
            .collect();
        let mut guard = 0usize;
        while remaining.iter().sum::<usize>() > 0 && guard < 10_000_000 {
            guard += 1;
            let weights: Vec<f64> = remaining.iter().map(|&r| r as f64).collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                break;
            }
            let home_idx = WeightedIndex::new(&weights).sample(&mut self.rng);
            let home = MarketId::ALL[home_idx];
            let pop = self.rng.unit();
            let markets = self.choose_market_set(home, pop, &remaining);
            for m in &markets {
                remaining[m.index()] = remaining[m.index()].saturating_sub(1);
            }
            self.create_original(home, markets, pop);
        }
    }

    /// Choose the market set for a multi-store app: reach grows with
    /// popularity; Chinese-homed apps cluster within Chinese stores and
    /// cross into Google Play ~25% of the time (Section 5.2).
    fn choose_market_set(
        &mut self,
        home: MarketId,
        pop: f64,
        remaining: &[usize],
    ) -> Vec<MarketId> {
        let mut set = vec![home];
        let extra_cap = if pop > 0.97 {
            16
        } else if pop > 0.85 {
            7
        } else {
            3
        };
        let extra = 1 + self.rng.index(extra_cap);
        let include_gp = home != MarketId::GooglePlay && self.rng.chance(0.25);
        if include_gp && remaining[MarketId::GooglePlay.index()] > 0 {
            set.push(MarketId::GooglePlay);
        }
        let mut guard = 0;
        while set.len() < 1 + extra && guard < 64 {
            guard += 1;
            let weights: Vec<f64> = MarketId::ALL
                .iter()
                .map(|m| {
                    // GP inclusion was decided above, so it is excluded
                    // here alongside exhausted and already-chosen markets.
                    if set.contains(m) || remaining[m.index()] == 0 || *m == MarketId::GooglePlay {
                        0.0
                    } else {
                        remaining[m.index()] as f64
                    }
                })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                break;
            }
            let idx = WeightedIndex::new(&weights).sample(&mut self.rng);
            set.push(MarketId::ALL[idx]);
        }
        set
    }

    fn create_original(&mut self, home: MarketId, markets: Vec<MarketId>, pop: f64) -> AppId {
        let package = self.forge.package();
        let label = self.forge.label(0.12);
        let category = self.sample_category(home);
        let (base_date, min_sdk) = self.sample_date_and_sdk(home);
        let version_count = self.sample_version_count();
        let libs = self.sample_libs(home);
        let own_code_seed = self
            .rng
            .derive_indexed("own-code", self.apps.len() as u64)
            .seed();
        let own_class_count = 16 + self.rng.index(32) as u32;
        let developer = self.pick_developer(&markets);
        let leak = self.sample_leak(home, &libs, self.apps.len() as u64);
        let mut app = App {
            package: PackageName::new(&package)
                .unwrap_or_else(|_| unreachable!("forge emits valid packages")),
            label,
            developer,
            category,
            popularity: pop,
            base_date,
            min_sdk,
            version_count,
            libs,
            own_code_seed,
            own_package: package.clone(),
            own_class_count,
            code_mutation: None,
            declared_permissions: Vec::new(),
            leak,
            infection: None,
            provenance: Provenance::Original,
        };
        app.declared_permissions = self.compute_permissions(&app, home);
        let id = AppId(self.apps.len() as u32);
        self.apps.push(app);
        if pop > 0.95 {
            self.popular_apps.push(id);
        }
        for m in markets {
            self.add_listing(m, id);
            self.originals_by_market[m.index()].push(id);
        }
        id
    }

    fn sample_category(&mut self, home: MarketId) -> Category {
        let table: &[(Category, f64)] = if home.kind() == MarketKind::Vendor {
            &VENDOR_CATEGORY_WEIGHTS
        } else {
            &CATEGORY_WEIGHTS
        };
        let weights: Vec<f64> = table.iter().map(|(_, w)| *w).collect();
        table[WeightedIndex::new(&weights).sample(&mut self.rng)].0
    }

    fn sample_date_and_sdk(&mut self, home: MarketId) -> (SimDate, u8) {
        let p = profile(home);
        let crawl = SimDate::FIRST_CRAWL;
        let u = self.rng.unit();
        let date = if u < p.old_release_share {
            // 2010 .. end of 2016.
            let lo = SimDate::from_ymd_const(2010, 1, 1).days();
            let hi = SimDate::from_ymd_const(2016, 12, 31).days();
            SimDate::from_days(self.rng.range_u64(0, (hi - lo) as u64 + 1) as i64 + lo)
                .unwrap_or_else(|_| unreachable!("2010..2016 days are in range"))
        } else if u < p.old_release_share + p.fresh_release_share {
            crawl.plus_days(-(self.rng.index(180) as i64))
        } else {
            let lo = SimDate::from_ymd_const(2017, 1, 1).days();
            let hi = crawl.plus_days(-180).days();
            SimDate::from_days(self.rng.range_u64(0, (hi - lo).max(1) as u64) as i64 + lo)
                .unwrap_or_else(|_| unreachable!("2017..crawl days are in range"))
        };
        let is_old = date.year() < 2017;
        // Condition low-API on age so the Figure 3 share lands at the
        // profile's target: P(low) = P(low|old)·P(old).
        let p_low_given_old = (p.low_api_share / p.old_release_share.max(0.05)).min(1.0);
        let min_sdk = if is_old && self.rng.chance(p_low_given_old) {
            *self.rng.pick(&[4u8, 5, 6, 7, 7, 8, 8, 8])
        } else if is_old {
            *self.rng.pick(&[9u8, 9, 10, 11, 14, 15, 16])
        } else {
            *self.rng.pick(&[9u8, 14, 16, 19, 19, 21, 21, 23])
        };
        (date, min_sdk)
    }

    fn sample_version_count(&mut self) -> u32 {
        // Figure 8(a): ~86% of package clusters carry one version; the
        // tail reaches 14.
        if self.rng.chance(0.86) {
            1
        } else {
            2 + self.rng.index(13).min(12) as u32
        }
    }

    fn sample_libs(&mut self, home: MarketId) -> Vec<LibUse> {
        let p = profile(home);
        if !self.rng.chance(p.tpl_presence) {
            return Vec::new();
        }
        let is_gp = home == MarketId::GooglePlay;
        let mut out = Vec::new();
        // Head libraries by their Table 2 adoption probabilities.
        for (i, spec) in self.libraries.head().iter().enumerate() {
            let pr = if is_gp {
                spec.adoption.google_play
            } else {
                spec.adoption.chinese
            };
            if self.rng.chance(pr) {
                let version = recent_version(&mut self.rng, spec.versions);
                out.push(LibUse {
                    lib: crate::libs::LibId(i as u32),
                    version,
                });
            }
        }
        // Fill toward the market's average library count from the tail,
        // sampling by relative adoption weight. The tail must stay
        // individually below the Table 2 head: no small SDK may out-rank
        // AdMob or WeChat in the recovered Table 2.
        let target = (p.avg_tpls * (0.5 + self.rng.unit())) as usize;
        let head_len = self.libraries.head().len();
        let weights: Vec<f64> = self.libraries.specs()[head_len..]
            .iter()
            .map(|s| {
                if is_gp {
                    s.adoption.google_play
                } else {
                    s.adoption.chinese
                }
            })
            .collect();
        let index = WeightedIndex::new(&weights);
        let mut guard = 0;
        while out.len() < target && guard < 200 {
            guard += 1;
            let idx = head_len + index.sample(&mut self.rng);
            let id = crate::libs::LibId(idx as u32);
            if out.iter().any(|u| u.lib == id) {
                continue;
            }
            let spec = &self.libraries.specs()[idx];
            let version = recent_version(&mut self.rng, spec.versions);
            out.push(LibUse { lib: id, version });
        }
        out
    }

    fn pick_developer(&mut self, markets: &[MarketId]) -> DevId {
        let has_gp = markets.contains(&MarketId::GooglePlay);
        let has_cn = markets.iter().any(|m| m.is_chinese());
        // Reuse probabilities tuned to Section 5.1: >50% of developers
        // appear on Google Play, 57% of those nowhere else, and ~48% of
        // all developers are Chinese-market-only. Cross-pool reuse is what
        // creates developers spanning both worlds.
        let choice = self.rng.unit();
        let pick_from = |pool: &[DevId], rng: &mut marketscope_core::rng::DetRng| {
            if pool.is_empty() {
                None
            } else {
                Some(pool[rng.index(pool.len())])
            }
        };
        let reused = match (has_gp, has_cn) {
            (true, false) => {
                if choice < 0.30 {
                    pick_from(&self.dev_pool_gp, &mut self.rng)
                } else if choice < 0.38 {
                    pick_from(&self.dev_pool_both, &mut self.rng)
                } else {
                    None
                }
            }
            (false, true) => {
                // A tenth of Chinese-market releases come from developers
                // already publishing (other apps) on Google Play — few
                // single apps span both worlds, but many *developers* do.
                if choice < 0.45 {
                    pick_from(&self.dev_pool_cn, &mut self.rng)
                } else if choice < 0.53 {
                    pick_from(&self.dev_pool_both, &mut self.rng)
                } else if choice < 0.75 {
                    pick_from(&self.dev_pool_gp, &mut self.rng)
                } else {
                    None
                }
            }
            _ => {
                // Apps spanning both worlds frequently come from
                // developers first seen on one side — this is what pulls
                // the GP-only share down toward the paper's 57%.
                if choice < 0.20 {
                    pick_from(&self.dev_pool_both, &mut self.rng)
                } else if choice < 0.52 {
                    pick_from(&self.dev_pool_gp, &mut self.rng)
                } else if choice < 0.80 {
                    pick_from(&self.dev_pool_cn, &mut self.rng)
                } else {
                    None
                }
            }
        };
        if let Some(id) = reused {
            return id;
        }
        let id = self.new_developer();
        match (has_gp, has_cn) {
            (true, false) => self.dev_pool_gp.push(id),
            (false, true) => self.dev_pool_cn.push(id),
            _ => self.dev_pool_both.push(id),
        }
        id
    }

    fn new_developer(&mut self) -> DevId {
        let label = format!("dev-{:06}", self.developers.len());
        let key = DeveloperKey::from_label(&label);
        let display_name = self.forge.developer_name();
        let id = DevId(self.developers.len() as u32);
        self.developers.push(Developer {
            label,
            key,
            display_name,
        });
        id
    }

    /// Decide whether this original leaks private data, and how.
    ///
    /// The decision runs on an independent per-app stream
    /// (`derive_indexed`) so adding the leak layer never perturbs the
    /// main generation stream. Device identifiers dominate the source
    /// mix (the paper's IMEI-centric leak reports) and most flows
    /// exfiltrate over the network; the rest land in logs. The sink
    /// sits in third-party-library code with probability
    /// `LEAK_TPL_SHARE` — only possible when the app bundles one.
    fn sample_leak(
        &mut self,
        home: MarketId,
        libs: &[LibUse],
        app_index: u64,
    ) -> Option<PlantedLeak> {
        let mut r = self.rng.derive_indexed("leak", app_index);
        if !r.chance(profile(home).leak_rate) {
            return None;
        }
        let source_class = if r.chance(0.55) {
            SourceClass::DeviceId
        } else {
            *r.pick(&[
                SourceClass::Location,
                SourceClass::Contacts,
                SourceClass::Account,
            ])
        };
        let sink_class = if r.chance(0.8) {
            SinkClass::NetworkSend
        } else {
            SinkClass::LogExfil
        };
        let sources = self.permmap.source_apis(source_class);
        let sinks = self.permmap.sink_apis(sink_class);
        let source = sources[r.index(sources.len())];
        let sink = sinks[r.index(sinks.len())];
        let via_tpl = !libs.is_empty() && r.chance(LEAK_TPL_SHARE);
        Some(PlantedLeak {
            source,
            sink,
            via_tpl,
        })
    }

    fn compute_permissions(&mut self, app: &App, home: MarketId) -> Vec<String> {
        // Used permissions: own code, every embedded library (whose block
        // is expanded here, once per world) and the planted leak's calls,
        // which are real uses: declaring their permissions keeps leaky
        // apps from reading as under-declared.
        let own = OwnCode {
            seed: app.own_code_seed,
            count: app.own_class_count,
            version: app.version_count,
            mutation: app.code_mutation,
        }
        .classes(&app.own_package);
        for lu in &app.libs {
            self.lib_blocks.fill(&self.libraries, *lu);
        }
        let libs = app.libs.iter().filter_map(|lu| self.lib_blocks.get(*lu));
        let leak = app.leak.into_iter().flat_map(|l| [l.source, l.sink]);
        let used: BTreeSet<&'static str> = self
            .permmap
            .used_permissions(
                own.api_calls()
                    .chain(libs.flat_map(DexFile::api_calls))
                    .chain(leak),
            )
            .iter()
            .map(|p| p.0)
            .collect();
        // Over-privilege extras (Figure 11).
        let p = profile(home);
        let overprivileged = if home == MarketId::GooglePlay {
            self.rng.chance(0.65)
        } else {
            self.rng.chance(0.82)
        };
        let _ = p;
        let mut declared: Vec<String> = used.iter().map(|s| (*s).to_owned()).collect();
        if overprivileged {
            let count = WeightedIndex::new(&EXTRA_PERM_WEIGHTS)
                .sample(&mut self.rng)
                .max(1);
            let unused: Vec<&'static str> = PERMISSIONS
                .iter()
                .copied()
                .filter(|p| !used.contains(p))
                .collect();
            let mut weights: Vec<f64> = unused
                .iter()
                .map(|p| match *p {
                    // The paper's most over-requested permissions.
                    "android.permission.READ_PHONE_STATE" => 3.0,
                    "android.permission.ACCESS_COARSE_LOCATION" => 2.0,
                    "android.permission.ACCESS_FINE_LOCATION" => 2.0,
                    "android.permission.CAMERA" => 1.5,
                    _ => 1.0,
                })
                .collect();
            for _ in 0..count.min(unused.len()) {
                if weights.iter().sum::<f64>() <= 0.0 {
                    break;
                }
                let idx = WeightedIndex::new(&weights).sample(&mut self.rng);
                declared.push(unused[idx].to_owned());
                weights[idx] = 0.0;
            }
        }
        declared.sort();
        declared.dedup();
        declared
    }

    // ----- listings -----------------------------------------------------

    fn add_listing(&mut self, market: MarketId, app_id: AppId) -> Option<ListingId> {
        let pkg = self.apps[app_id.0 as usize].package.as_str().to_owned();
        if !self.market_packages.insert((market.index(), pkg)) {
            return None; // market already lists this package
        }
        let p = profile(market);
        let app = &self.apps[app_id.0 as usize];
        let (app_versions, app_pop, app_date) = (app.version_count, app.popularity, app.base_date);
        // Version skew (Figure 9): single-version apps are trivially
        // current; multi-version apps are outdated here with the market's
        // complement probability.
        let version = if app_versions == 1 || self.rng.chance(p.up_to_date_share) {
            app_versions
        } else {
            1 + self.rng.index(app_versions as usize - 1) as u32
        };
        let downloads = self.sample_downloads(p, app_pop);
        let rating = self.sample_rating(p, app_pop, market);
        let updated = if version == app_versions {
            app_date
        } else {
            let lag = 40 * (app_versions - version) as i64 + self.rng.index(60) as i64;
            let d = app_date.plus_days(-lag);
            let floor = SimDate::from_ymd_const(2009, 1, 1);
            if d < floor {
                floor
            } else {
                d
            }
        };
        let raw_category = if self.rng.chance(p.junk_category_share) {
            (*self.rng.pick(&JUNK_CATEGORIES)).to_owned()
        } else {
            self.apps[app_id.0 as usize].category.label().to_owned()
        };
        let listing = Listing {
            market,
            app: app_id,
            version,
            downloads,
            rating,
            updated,
            raw_category,
            removed_in_second_crawl: false,
        };
        let id = ListingId(self.listings.len() as u32);
        self.listings.push(listing);
        self.per_market[market.index()].push(id);
        Some(id)
    }

    fn sample_downloads(&mut self, p: &MarketProfile, popularity: f64) -> Option<u64> {
        if !p.reports_installs {
            return None;
        }
        // Quantile-coupled bucket draw: the app's global popularity plus
        // noise is pushed through the market's Figure 2 inverse CDF, so
        // each market's bucket distribution matches its profile while an
        // app stays consistently popular (or not) across stores.
        let noise = (self.rng.unit() - 0.5) * 0.24;
        let q = (popularity + noise).clamp(0.0, 0.999_999);
        let mut acc = 0.0;
        let mut bucket = 6usize;
        let total: f64 = p.download_dist.iter().sum();
        for (i, share) in p.download_dist.iter().enumerate() {
            acc += share / total;
            if q < acc {
                bucket = i;
                break;
            }
        }
        let range = marketscope_core::InstallRange::ALL[bucket];
        let lo = range.lower_bound().max(1);
        let value = match range.upper_bound() {
            Some(hi) => {
                // Log-uniform within the bucket.
                let u = self.rng.unit();
                let v = (lo as f64) * ((hi as f64 / lo as f64).powf(u));
                (v as u64).clamp(range.lower_bound(), hi - 1)
            }
            None => {
                // Heavy Pareto tail above 1M: the top 0.1% of apps must
                // carry the bulk of total downloads (Section 4.2).
                marketscope_core::rng::pareto_u64(&mut self.rng, 1.0e6, 0.5, 5_000_000_000)
            }
        };
        Some(value)
    }

    fn sample_rating(&mut self, p: &MarketProfile, popularity: f64, market: MarketId) -> f64 {
        // Unpopular apps go unrated; couple to popularity with noise.
        let q = (popularity + (self.rng.unit() - 0.5) * 0.3).clamp(0.0, 1.0);
        if q < p.unrated_share {
            return p.default_rating;
        }
        let r = if market == MarketId::GooglePlay {
            // >50% of rated GP apps sit above 4.
            3.0 + 2.0 * self.rng.unit().powf(0.6)
        } else {
            1.5 + 3.5 * self.rng.unit().powf(0.9)
        };
        (r.min(5.0) * 10.0).round() / 10.0
    }

    // ----- phase 2: fakes and clones ------------------------------------

    fn plant_fakes_and_clones(&mut self, scale: Scale) {
        for m in MarketId::ALL {
            let p = profile(m);
            let quota = scale.catalog(m);
            // At tiny scales a nonzero paper rate must still plant at
            // least one specimen, or rate-recovery tests lose the signal.
            let at_least_one = |x: f64| {
                if x > 0.0 {
                    (x.round() as usize).max(1)
                } else {
                    0
                }
            };
            // Calibration: the detectors count *both* sides of a clone
            // relation, and victims spread across markets; planting at
            // roughly half (SB) / 85% (CB) of the paper's rate makes the
            // *measured* rates land on Table 3.
            let fakes = at_least_one(quota as f64 * p.fake_rate);
            let sigs = at_least_one(quota as f64 * p.sig_clone_rate * 0.5);
            let codes = at_least_one(quota as f64 * p.code_clone_rate * 0.6);
            for _ in 0..fakes {
                self.plant_fake(m);
            }
            for _ in 0..sigs {
                self.plant_sig_clone(m);
            }
            for _ in 0..codes {
                self.plant_code_clone(m);
            }
        }
    }

    fn plant_fake(&mut self, market: MarketId) {
        let Some(&victim) = pick_opt(&mut self.rng, &self.popular_apps) else {
            return;
        };
        let v = &self.apps[victim.0 as usize];
        let label = v.label.clone();
        let category = v.category;
        let package = self.forge.package();
        let (base_date, min_sdk) = self.sample_date_and_sdk(market);
        let developer = self.new_developer();
        let own_code_seed = self
            .rng
            .derive_indexed("fake-code", self.apps.len() as u64)
            .seed();
        let mut app = App {
            package: PackageName::new(&package)
                .unwrap_or_else(|_| unreachable!("forge emits valid packages")),
            label,
            developer,
            category,
            popularity: 0.02 + self.rng.unit() * 0.05,
            base_date,
            min_sdk,
            version_count: 1,
            libs: self.sample_libs(market),
            own_code_seed,
            own_package: package,
            own_class_count: 4 + self.rng.index(8) as u32,
            code_mutation: None,
            declared_permissions: Vec::new(),
            leak: None,
            infection: None,
            provenance: Provenance::Fake { of: victim },
        };
        app.declared_permissions = self.compute_permissions(&app, market);
        let id = AppId(self.apps.len() as u32);
        self.apps.push(app);
        if self.add_listing(market, id).is_some() {
            // Fakes must sit below the heuristic's 1,000-install bar.
            if let Some(l) = self.per_market[market.index()].last() {
                let lst = &mut self.listings[l.0 as usize];
                if lst.downloads.is_some() {
                    lst.downloads = Some(self.rng.range_u64(0, 900));
                }
                lst.rating = profile(market).default_rating;
            }
            self.ground_truth.fakes[market.index()] += 1;
        }
    }

    /// Victim-market mix for clones (Figure 10): Google Play is the
    /// premier source; intra-market cloning is also common.
    fn pick_clone_victim(&mut self, dest: MarketId) -> Option<AppId> {
        for _ in 0..12 {
            let u = self.rng.unit();
            let origin = if u < 0.35 {
                MarketId::GooglePlay
            } else if u < 0.65 {
                dest
            } else {
                let weights: Vec<f64> = MarketId::ALL
                    .iter()
                    .map(|m| {
                        if m.is_chinese() {
                            self.originals_by_market[m.index()].len() as f64
                        } else {
                            0.0
                        }
                    })
                    .collect();
                if weights.iter().sum::<f64>() <= 0.0 {
                    continue;
                }
                MarketId::ALL[WeightedIndex::new(&weights).sample(&mut self.rng)]
            };
            let pool = &self.originals_by_market[origin.index()];
            if pool.is_empty() {
                continue;
            }
            // Popularity-biased victim choice: clone what users search for.
            let idx = self.rng.index(pool.len());
            let cand = pool[idx];
            if self.apps[cand.0 as usize].popularity > 0.3 || self.rng.chance(0.3) {
                return Some(cand);
            }
        }
        None
    }

    fn plant_sig_clone(&mut self, market: MarketId) {
        for _ in 0..8 {
            // Re-victimize an already-cloned app 60% of the time: the
            // per-market clone rate then grows without linearly growing
            // the victim-side spread across markets.
            let victim = if !self.sig_victims.is_empty() && self.rng.chance(0.6) {
                self.sig_victims[self.rng.index(self.sig_victims.len())]
            } else {
                match self.pick_clone_victim(market) {
                    Some(v) => v,
                    None => return,
                }
            };
            let v = self.apps[victim.0 as usize].clone();
            // A market cannot host two apps with one package: skip victims
            // already listed in `market` under this package.
            if self
                .market_packages
                .contains(&(market.index(), v.package.as_str().to_owned()))
            {
                continue;
            }
            let developer = self.new_developer();
            let mut app = App {
                package: v.package.clone(),
                label: v.label.clone(),
                developer,
                category: v.category,
                popularity: v.popularity * (0.2 + 0.4 * self.rng.unit()),
                base_date: v.base_date,
                min_sdk: v.min_sdk,
                version_count: v.version_count,
                libs: v.libs.clone(),
                own_code_seed: v.own_code_seed,
                own_package: v.own_package.clone(),
                own_class_count: v.own_class_count,
                code_mutation: Some(
                    self.rng
                        .derive_indexed("sigmut", self.apps.len() as u64)
                        .seed(),
                ),
                declared_permissions: Vec::new(),
                leak: None,
                infection: None,
                provenance: Provenance::SigClone { of: victim },
            };
            app.declared_permissions = self.compute_permissions(&app, market);
            let id = AppId(self.apps.len() as u32);
            self.apps.push(app);
            if self.add_listing(market, id).is_some() {
                self.ground_truth.sig_clones[market.index()] += 1;
                self.sig_victims.push(victim);
            }
            return;
        }
    }

    fn plant_code_clone(&mut self, market: MarketId) {
        // Repackagers pile onto the same attractive victims: 70% of code
        // clones re-target an already-cloned app. Without this the victim
        // population grows linearly with scale and its cross-market
        // spread inflates every market's measured clone rate.
        let victim = if !self.code_victims.is_empty() && self.rng.chance(0.7) {
            self.code_victims[self.rng.index(self.code_victims.len())]
        } else {
            match self.pick_clone_victim(market) {
                Some(v) => v,
                None => return,
            }
        };
        let v = self.apps[victim.0 as usize].clone();
        let package = self.forge.repackage_of(v.package.as_str());
        let developer = self.new_developer();
        let label = if self.rng.chance(0.5) {
            v.label.clone()
        } else {
            format!("{} Free", v.label)
        };
        let mut app = App {
            package: PackageName::new(&package)
                .unwrap_or_else(|_| unreachable!("forge emits valid packages")),
            label,
            developer,
            category: v.category,
            popularity: v.popularity * (0.1 + 0.4 * self.rng.unit()),
            base_date: v.base_date,
            min_sdk: v.min_sdk,
            // Repackagers work from the victim's current release; matching
            // the version keeps the shared code segments aligned.
            version_count: v.version_count,
            libs: v.libs.clone(),
            own_code_seed: v.own_code_seed,
            own_package: package.clone(),
            own_class_count: v.own_class_count,
            code_mutation: Some(
                self.rng
                    .derive_indexed("cbmut", self.apps.len() as u64)
                    .seed(),
            ),
            declared_permissions: Vec::new(),
            leak: None,
            infection: None,
            provenance: Provenance::CodeClone { of: victim },
        };
        app.declared_permissions = self.compute_permissions(&app, market);
        let id = AppId(self.apps.len() as u32);
        self.apps.push(app);
        if self.add_listing(market, id).is_some() {
            self.ground_truth.code_clones[market.index()] += 1;
            self.code_victims.push(victim);
        }
    }

    // ----- phase 3: malware ----------------------------------------------

    fn plant_malware(&mut self, scale: Scale) {
        // Process markets by ascending malware rate: the clean markets
        // (Google Play first) plant their few, region-typical infections
        // before cross-market spillover from the dirty markets can fill
        // their quotas with foreign families.
        let mut order: Vec<MarketId> = MarketId::ALL.to_vec();
        order.sort_by(|a, b| {
            profile(*a)
                .av10_rate
                .partial_cmp(&profile(*b).av10_rate)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for tier_pass in [ThreatTier::Malware, ThreatTier::Grayware] {
            for &m in &order {
                let p = profile(m);
                let quota = scale.catalog(m);
                let target = match tier_pass {
                    ThreatTier::Malware => (quota as f64 * p.av10_rate).round() as usize,
                    // Grayware also spreads through multi-market apps;
                    // plant slightly under target to land on Table 4's
                    // ≥1 column after the spill.
                    _ => (quota as f64 * (p.av1_rate - p.av10_rate) * 0.85).round() as usize,
                };
                let current = self.infected_in_market(m, tier_pass);
                let needed = target.saturating_sub(current);
                self.infect_in_market(m, tier_pass, needed);
            }
        }
    }

    fn infected_in_market(&self, m: MarketId, tier: ThreatTier) -> usize {
        self.per_market[m.index()]
            .iter()
            .filter(|l| {
                let app = &self.apps[self.listings[l.0 as usize].app.0 as usize];
                match app.infection {
                    Some(inf) => match tier {
                        ThreatTier::Grayware => inf.tier == ThreatTier::Grayware,
                        _ => inf.tier != ThreatTier::Grayware,
                    },
                    None => false,
                }
            })
            .count()
    }

    fn infect_in_market(&mut self, m: MarketId, tier: ThreatTier, needed: usize) {
        if needed == 0 {
            return;
        }
        let m_self = m;
        // Candidates: uninfected apps listed in m, cheapest collateral
        // first (fewest other listings), clones preferred for malware
        // (38.3% of the paper's malware is repackaged).
        let mut listing_count: HashMap<AppId, usize> = HashMap::new();
        for l in &self.listings {
            *listing_count.entry(l.app).or_insert(0) += 1;
        }
        let mut candidates: Vec<AppId> = self.per_market[m.index()]
            .iter()
            .map(|l| self.listings[l.0 as usize].app)
            .filter(|a| self.apps[a.0 as usize].infection.is_none())
            .collect();
        candidates.sort_by_key(|a| a.0);
        candidates.dedup();
        // Vetting coupling: an app listed in a strictly-vetted store
        // (Google Play, Huawei, Lenovo...) would have been caught there,
        // so infections avoid such apps — that selection effect, not
        // random chance, is what keeps the clean stores clean while they
        // share catalogs with the dirty ones.
        let mut app_markets: HashMap<AppId, Vec<MarketId>> = HashMap::new();
        for l in &self.listings {
            app_markets.entry(l.app).or_default().push(l.market);
        }
        let mut scored: Vec<(f64, AppId)> = candidates
            .into_iter()
            .map(|a| {
                let is_clone = !matches!(self.apps[a.0 as usize].provenance, Provenance::Original);
                let spread = listing_count.get(&a).copied().unwrap_or(1) as f64;
                // Prefer clones for malware, but only enough that ~38% of
                // the malware population ends up repackaged (Section 6.4).
                let clone_bonus =
                    if is_clone && tier == ThreatTier::Malware && self.rng.chance(0.05) {
                        -2.0
                    } else {
                        0.0
                    };
                let vet_penalty: f64 = app_markets
                    .get(&a)
                    .map(|ms| {
                        ms.iter()
                            .filter(|m| **m != m_self)
                            .map(|m| (0.14 - profile(*m).av10_rate).max(0.0) * 40.0)
                            .sum()
                    })
                    .unwrap_or(0.0);
                (
                    spread + clone_bonus + vet_penalty + self.rng.unit() * 1.5,
                    a,
                )
            })
            .collect();
        scored.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
        // A second ordering for *spread* infections: widely published in
        // the lax markets, never touching the strictly-vetted ones.
        // Section 7 finds 11,623 Google Play malware samples also hosted
        // by Chinese stores (the GPRM overlap), so Google Play's pass
        // draws from this list almost half the time.
        let mut spread_order: Vec<AppId> = scored
            .iter()
            .map(|(_, a)| *a)
            .filter(|a| {
                app_markets.get(a).is_some_and(|ms| {
                    ms.iter()
                        .all(|m2| *m2 == m_self || profile(*m2).av10_rate >= 0.08)
                        && ms.len() >= 2
                })
            })
            .collect();
        spread_order.sort_by_key(|a| std::cmp::Reverse(app_markets.get(a).map_or(0, Vec::len)));
        let spread_p = if m == MarketId::GooglePlay {
            0.45
        } else {
            0.04
        };
        let mut infected = 0usize;
        let mut cursor = 0usize;
        let mut spread_cursor = 0usize;
        while infected < needed && cursor < scored.len() {
            let app_id = if self.rng.chance(spread_p) && spread_cursor < spread_order.len() {
                let a = spread_order[spread_cursor];
                spread_cursor += 1;
                a
            } else {
                let a = scored[cursor].1;
                cursor += 1;
                a
            };
            if self.apps[app_id.0 as usize].infection.is_some() {
                continue; // already taken by the other ordering
            }
            let family = self.pick_family(m);
            let detectability = Infection::sample_detectability(tier, self.rng.unit());
            self.apps[app_id.0 as usize].infection = Some(Infection {
                family,
                tier,
                detectability,
            });
            infected += 1;
        }
        // Ground truth per market is tallied later in one recount pass,
        // because infections spill across markets.
    }

    fn pick_family(&mut self, m: MarketId) -> crate::threat::FamilyId {
        let is_gp = m == MarketId::GooglePlay;
        let weights: Vec<f64> = FAMILIES
            .iter()
            .map(|f| {
                if f.tier == ThreatTier::Benchmark {
                    return 0.0;
                }
                match f.region {
                    FamilyRegion::GooglePlay => {
                        if is_gp {
                            f.weight
                        } else {
                            f.weight * 0.02
                        }
                    }
                    FamilyRegion::Chinese => {
                        if is_gp {
                            f.weight * 0.05
                        } else {
                            f.weight
                        }
                    }
                    FamilyRegion::Both => f.weight,
                }
            })
            .collect();
        crate::threat::FamilyId(WeightedIndex::new(&weights).sample(&mut self.rng) as u16)
    }

    // ----- phase 4: Table 5 specials -------------------------------------

    fn plant_specials(&mut self) {
        for (pkg, family_name, detectability, markets) in SPECIALS {
            let family = self
                .threat_db
                .family_by_name(family_name)
                .unwrap_or_else(|| unreachable!("SPECIALS families exist in the threat db"));
            let tier = self.threat_db.family(family).tier;
            let developer = self.new_developer();
            let own_code_seed = self
                .rng
                .derive_indexed("special", self.apps.len() as u64)
                .seed();
            let (base_date, min_sdk) = self.sample_date_and_sdk(markets[0]);
            let mut app = App {
                package: PackageName::new(pkg)
                    .unwrap_or_else(|_| unreachable!("table 5 packages are valid")),
                label: pkg.rsplit('.').next().unwrap_or("app").to_owned(),
                developer,
                category: Category::Tools,
                popularity: 0.3,
                base_date,
                min_sdk,
                version_count: 1,
                libs: Vec::new(),
                own_code_seed,
                own_package: pkg.to_owned(),
                own_class_count: 6,
                code_mutation: None,
                declared_permissions: Vec::new(),
                leak: None,
                infection: Some(Infection {
                    family,
                    tier,
                    detectability,
                }),
                provenance: Provenance::Original,
            };
            app.declared_permissions = self.compute_permissions(&app, markets[0]);
            let id = AppId(self.apps.len() as u32);
            self.apps.push(app);
            for m in markets {
                self.add_listing(*m, id);
            }
        }
    }

    // ----- phase 5: removal ----------------------------------------------

    fn apply_removal(&mut self) {
        // Recount ground truth (infections spread across markets) and
        // apply Table 6 removal rates to malware-tier listings.
        for i in 0..self.listings.len() {
            let market = self.listings[i].market;
            let app = &self.apps[self.listings[i].app.0 as usize];
            let p = profile(market);
            match app.infection {
                Some(inf) if inf.tier == ThreatTier::Grayware => {
                    self.ground_truth.grayware[market.index()] += 1;
                }
                Some(_) => {
                    self.ground_truth.malware[market.index()] += 1;
                    let rate = p.malware_removal_rate.unwrap_or(0.0);
                    if self.rng.chance(rate) {
                        self.listings[i].removed_in_second_crawl = true;
                    }
                }
                None => {
                    // Background churn: ~1% of clean apps disappear too.
                    if self.rng.chance(0.01) {
                        self.listings[i].removed_in_second_crawl = true;
                    }
                }
            }
            if let Some(leak) = self.apps[self.listings[i].app.0 as usize].leak {
                if leak.via_tpl {
                    self.ground_truth.leaks_tpl[market.index()] += 1;
                } else {
                    self.ground_truth.leaks_host[market.index()] += 1;
                }
            }
        }
    }
}

/// Apps overwhelmingly ship one of a library's three most recent
/// versions; without this concentration, version fragmentation starves
/// the clustering detector of recurrences at small corpus scales.
fn recent_version(rng: &mut DetRng, versions: u32) -> u32 {
    let window = versions.min(3);
    versions - 1 - rng.index(window as usize) as u32
}

fn pick_opt<'a, T>(rng: &mut DetRng, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.index(items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        generate(WorldConfig {
            seed: 7,
            scale: Scale { divisor: 20_000 },
        })
    }

    #[test]
    fn planted_leaks_materialize_in_digests() {
        let w = tiny_world();
        let mut checked_tpl = false;
        let mut checked_host = false;
        for (i, app) in w.apps.iter().enumerate() {
            let Some(leak) = app.leak else { continue };
            if checked_tpl && checked_host {
                break;
            }
            let bytes = w.build_apk(AppId(i as u32), app.version_count, false);
            let d = marketscope_apk::digest::ApkDigest::from_bytes(&bytes).unwrap();
            assert!(!d.flows.is_empty(), "planted leak produced no taint flow");
            if leak.via_tpl {
                let root = crate::world::leak_host_package(app, &w.libraries).unwrap();
                assert!(
                    d.flows.iter().any(|f| f
                        .sink_package
                        .as_deref()
                        .is_some_and(|p| p.starts_with(&root))),
                    "TPL leak must sink under {root}"
                );
                checked_tpl = true;
            } else {
                assert!(
                    d.flows
                        .iter()
                        .any(|f| f.sink_package.as_deref() == Some(app.own_package.as_str())),
                    "host leak must sink in own code"
                );
                checked_host = true;
            }
        }
        assert!(checked_tpl, "no TPL leak planted at this scale");
        assert!(checked_host, "no host leak planted at this scale");
    }

    #[test]
    fn ground_truth_counts_leaks_per_market() {
        let w = tiny_world();
        let host: u32 = w.ground_truth.leaks_host.iter().sum();
        let tpl: u32 = w.ground_truth.leaks_tpl.iter().sum();
        assert!(host > 0, "no host leaks tallied");
        assert!(tpl > 0, "no TPL leaks tallied");
        // The realized TPL share sits near the configured 0.4 coin;
        // library-less apps can only leak from host code, pulling it
        // below the raw rate.
        let share = f64::from(tpl) / f64::from(host + tpl);
        assert!((0.15..0.55).contains(&share), "tpl share {share}");
        // Only originals leak, so every tally row is bounded by the
        // market's listing count.
        let planted: u32 = host + tpl;
        assert!((planted as usize) < w.listing_count());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.apps.len(), b.apps.len());
        assert_eq!(a.listings.len(), b.listings.len());
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.package, y.package);
            assert_eq!(x.own_code_seed, y.own_code_seed);
        }
        // And the bytes agree.
        let apk_a = a.build_apk(AppId(0), 1, false);
        let apk_b = b.build_apk(AppId(0), 1, false);
        assert_eq!(apk_a, apk_b);
    }

    #[test]
    fn catalog_sizes_roughly_match_scale() {
        let w = tiny_world();
        for m in MarketId::ALL {
            let want = w.scale.catalog(m);
            let got = w.market_listings(m).len();
            // Tiny floor-sized markets pick up absolute spill from
            // multi-store assignment and misbehaviour floors.
            assert!(
                (got as f64) > want as f64 * 0.7 && (got as f64) < want as f64 * 1.4 + 6.0,
                "{m}: want ~{want}, got {got}"
            );
        }
    }

    #[test]
    fn google_play_is_largest_market() {
        let w = tiny_world();
        let gp = w.market_listings(MarketId::GooglePlay).len();
        for m in MarketId::chinese() {
            if m != MarketId::Pp25 {
                assert!(gp > w.market_listings(m).len(), "{m}");
            }
        }
    }

    #[test]
    fn no_market_hosts_duplicate_packages() {
        let w = tiny_world();
        for m in MarketId::ALL {
            let mut seen = HashSet::new();
            for l in w.market_listings(m) {
                let pkg = w.app(w.listing(*l).app).package.clone();
                assert!(seen.insert(pkg.as_str().to_owned()), "{m} duplicates {pkg}");
            }
        }
    }

    #[test]
    fn sig_clones_share_package_with_distinct_keys() {
        let w = tiny_world();
        let mut found = 0;
        for app in &w.apps {
            if let Provenance::SigClone { of } = app.provenance {
                let victim = w.app(of);
                assert_eq!(victim.package, app.package);
                let vk = w.developer(victim.developer).key;
                let ck = w.developer(app.developer).key;
                assert_ne!(vk, ck);
                found += 1;
            }
        }
        assert!(found > 0, "no sig clones planted");
    }

    #[test]
    fn code_clones_rename_but_reuse_code() {
        let w = tiny_world();
        let mut found = 0;
        for app in &w.apps {
            if let Provenance::CodeClone { of } = app.provenance {
                let victim = w.app(of);
                assert_ne!(victim.package, app.package);
                assert_eq!(victim.own_code_seed, app.own_code_seed);
                assert!(app.code_mutation.is_some());
                found += 1;
            }
        }
        assert!(found > 0, "no code clones planted");
    }

    #[test]
    fn fakes_mimic_popular_labels_with_low_downloads() {
        let w = tiny_world();
        let mut found = 0;
        for (i, app) in w.apps.iter().enumerate() {
            if let Provenance::Fake { of } = app.provenance {
                let victim = w.app(of);
                assert_eq!(victim.label, app.label);
                assert_ne!(victim.package, app.package);
                for l in &w.listings {
                    if l.app.0 as usize == i {
                        if let Some(d) = l.downloads {
                            assert!(d < 1000, "fake with {d} downloads");
                        }
                    }
                }
                found += 1;
            }
        }
        assert!(found > 0, "no fakes planted");
    }

    #[test]
    fn malware_rates_track_profiles() {
        let w = generate(WorldConfig {
            seed: 11,
            scale: Scale { divisor: 5_000 },
        });
        // PC Online must be dirtier than Google Play, Huawei cleaner than
        // OPPO — the orderings Section 6.4 highlights.
        let rate = |m: MarketId| {
            let listings = w.market_listings(m);
            let mal = listings
                .iter()
                .filter(|l| {
                    w.app(w.listing(**l).app)
                        .infection
                        .is_some_and(|i| i.tier != ThreatTier::Grayware)
                })
                .count();
            mal as f64 / listings.len() as f64
        };
        assert!(rate(MarketId::PcOnline) > rate(MarketId::GooglePlay) * 3.0);
        assert!(rate(MarketId::OppoMarket) > rate(MarketId::HuaweiMarket));
    }

    #[test]
    fn specials_exist_in_their_markets() {
        let w = tiny_world();
        let eicar = w
            .apps
            .iter()
            .position(|a| a.package.as_str() == "com.zoner.android.eicar")
            .expect("eicar benchmark planted");
        let markets: Vec<MarketId> = w
            .listings
            .iter()
            .filter(|l| l.app.0 as usize == eicar)
            .map(|l| l.market)
            .collect();
        assert!(markets.contains(&MarketId::GooglePlay));
        assert!(markets.contains(&MarketId::Wandoujia));
        assert!(markets.contains(&MarketId::Pp25));
    }

    #[test]
    fn removal_follows_table6_ordering() {
        let w = generate(WorldConfig {
            seed: 3,
            scale: Scale { divisor: 2_000 },
        });
        let removal_rate = |m: MarketId| {
            let (mut mal, mut removed) = (0usize, 0usize);
            for l in w.market_listings(m) {
                let lst = w.listing(*l);
                let infected = w
                    .app(lst.app)
                    .infection
                    .is_some_and(|i| i.tier != ThreatTier::Grayware);
                if infected {
                    mal += 1;
                    if lst.removed_in_second_crawl {
                        removed += 1;
                    }
                }
            }
            removed as f64 / mal.max(1) as f64
        };
        assert!(removal_rate(MarketId::GooglePlay) > 0.6);
        assert!(removal_rate(MarketId::PcOnline) < 0.1);
    }

    #[test]
    fn apk_bytes_parse_back() {
        let w = tiny_world();
        for id in [0u32, 5, 20] {
            let app = &w.apps[id as usize];
            let bytes = w.build_apk(AppId(id), app.version_count, false);
            let parsed = marketscope_apk::ParsedApk::parse(&bytes).unwrap();
            assert_eq!(parsed.manifest.package, app.package);
            assert!(parsed.signature_valid);
            assert_eq!(parsed.developer(), w.developer(app.developer).key);
        }
    }

    #[test]
    fn originals_are_fully_wired_but_clones_carry_dead_libs() {
        let w = tiny_world();
        let find = |want_original: bool| {
            w.apps.iter().position(|a| {
                matches!(a.provenance, Provenance::Original) == want_original
                    && !a.libs.is_empty()
                    && a.infection.is_none()
            })
        };
        // Originals invoke every library they bundle: nothing is dead.
        let orig = find(true).expect("an original with libraries");
        let bytes = w.build_apk(AppId(orig as u32), 1, false);
        let d = marketscope_apk::ApkDigest::from_bytes(&bytes).unwrap();
        assert!(d.component_count > 0);
        assert_eq!(d.dead_code_share(), 0.0, "original app has dead code");
        // Fakes and clones keep the victim's libraries as dead cargo.
        let clone = find(false).expect("a fake or clone with libraries");
        let bytes = w.build_apk(AppId(clone as u32), 1, false);
        let d = marketscope_apk::ApkDigest::from_bytes(&bytes).unwrap();
        assert!(d.dead_code_share() > 0.0, "clone libraries must be dead");
        assert!(d.dead_packages().count() >= 1);
        // The flat footprint still sees the dead libraries' API calls.
        let (flat, reachable) = d.package_features.iter().fold((0, 0), |(f, r), p| {
            (
                f + p.api_counts().count(),
                r + p.reachable_api_counts().count(),
            )
        });
        assert!(flat >= reachable);
    }

    #[test]
    fn packed_apps_stay_fully_reachable_via_the_stub() {
        let w = tiny_world();
        let orig = w
            .apps
            .iter()
            .position(|a| matches!(a.provenance, Provenance::Original) && !a.libs.is_empty())
            .unwrap();
        let bytes = w.build_apk(AppId(orig as u32), 1, true);
        let d = marketscope_apk::ApkDigest::from_bytes(&bytes).unwrap();
        assert_eq!(d.dead_code_share(), 0.0, "stub must bootstrap the root");
    }

    #[test]
    fn obfuscated_build_keeps_identity() {
        let w = tiny_world();
        let bytes = w.build_apk(AppId(0), 1, true);
        let parsed = marketscope_apk::ParsedApk::parse(&bytes).unwrap();
        assert_eq!(parsed.manifest.package, w.apps[0].package);
        assert!(parsed
            .dex
            .classes()
            .any(|c| c.name().starts_with("Lcom/jiagu/")));
    }

    #[test]
    fn downloads_follow_figure2_shape() {
        let w = generate(WorldConfig {
            seed: 5,
            scale: Scale { divisor: 2_000 },
        });
        // OPPO's modal bucket is 100-1K (84.31%); Tencent's is 0-10.
        let modal = |m: MarketId| {
            let mut h = marketscope_core::installs::InstallHistogram::new();
            for l in w.market_listings(m) {
                if let Some(d) = w.listing(*l).downloads {
                    h.record(d);
                }
            }
            let shares = h.shares();
            shares
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(modal(MarketId::OppoMarket), 2);
        assert_eq!(modal(MarketId::TencentMyapp), 0);
        // Xiaomi reports nothing.
        assert!(w
            .market_listings(MarketId::XiaomiMarket)
            .iter()
            .all(|l| w.listing(*l).downloads.is_none()));
    }

    #[test]
    fn ratings_respect_store_defaults() {
        let w = tiny_world();
        let pco: Vec<f64> = w
            .market_listings(MarketId::PcOnline)
            .iter()
            .map(|l| w.listing(*l).rating)
            .collect();
        assert!(pco.contains(&3.0), "PC Online default rating missing");
        let gp_unrated = w
            .market_listings(MarketId::GooglePlay)
            .iter()
            .filter(|l| w.listing(**l).rating == 0.0)
            .count() as f64
            / w.market_listings(MarketId::GooglePlay).len() as f64;
        assert!(gp_unrated < 0.3, "GP unrated share {gp_unrated}");
    }
}
