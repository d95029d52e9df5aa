//! Ground-truth invariants of the generated world: publishing dynamics,
//! metadata coupling, and misbehaviour structure — checked directly on
//! the world (no crawl), at a moderately large scale so rates are tight.

use marketscope_core::{MarketId, SimDate};
use marketscope_ecosystem::{generate, profile, Provenance, Scale, ThreatTier, WorldConfig};
use std::collections::{HashMap, HashSet};

fn world() -> marketscope_ecosystem::World {
    generate(WorldConfig {
        seed: 0xD15C0,
        scale: Scale { divisor: 2_000 },
    })
}

#[test]
fn single_store_shares_track_profiles() {
    let w = world();
    let mut stores_per_app: HashMap<u32, usize> = HashMap::new();
    for l in &w.listings {
        *stores_per_app.entry(l.app.0).or_insert(0) += 1;
    }
    // Google Play: ~77% single-store; Wandoujia/Meizu ≈1%.
    let single_share = |m: MarketId| {
        let ids = w.market_listings(m);
        let singles = ids
            .iter()
            .filter(|l| stores_per_app[&w.listing(**l).app.0] == 1)
            .count();
        singles as f64 / ids.len() as f64
    };
    let gp = single_share(MarketId::GooglePlay);
    assert!((0.6..0.9).contains(&gp), "GP single-store {gp}");
    // Planted misbehaviour apps (clones, fakes) are single-market, so the
    // measured share sits above the planted original share; the paper's
    // per-market ordering (AnZhi/OPPO high, Wandoujia/Meizu low) is the
    // preserved shape.
    assert!(
        single_share(MarketId::Wandoujia) < single_share(MarketId::AnZhi),
        "Wandoujia {} vs AnZhi {}",
        single_share(MarketId::Wandoujia),
        single_share(MarketId::AnZhi)
    );
    assert!(single_share(MarketId::MeizuMarket) < single_share(MarketId::OppoMarket));
}

#[test]
fn popular_apps_reach_more_markets() {
    let w = world();
    let mut stores_per_app: HashMap<u32, usize> = HashMap::new();
    for l in &w.listings {
        *stores_per_app.entry(l.app.0).or_insert(0) += 1;
    }
    let mean_reach = |lo: f64, hi: f64| {
        let (mut total, mut n) = (0usize, 0usize);
        for (i, a) in w.apps.iter().enumerate() {
            if matches!(a.provenance, Provenance::Original)
                && a.popularity >= lo
                && a.popularity < hi
            {
                total += stores_per_app.get(&(i as u32)).copied().unwrap_or(0);
                n += 1;
            }
        }
        total as f64 / n.max(1) as f64
    };
    let unpopular = mean_reach(0.0, 0.5);
    let popular = mean_reach(0.97, 1.0);
    assert!(
        popular > unpopular * 1.5,
        "popular reach {popular} vs unpopular {unpopular}"
    );
}

#[test]
fn min_sdk_is_coupled_to_release_age() {
    let w = world();
    let cutoff = SimDate::from_ymd(2017, 1, 1).unwrap();
    let (mut old_low, mut old_n, mut new_low, mut new_n) = (0usize, 0usize, 0usize, 0usize);
    for a in &w.apps {
        if a.base_date < cutoff {
            old_n += 1;
            if a.min_sdk < 9 {
                old_low += 1;
            }
        } else {
            new_n += 1;
            if a.min_sdk < 9 {
                new_low += 1;
            }
        }
    }
    let old_rate = old_low as f64 / old_n.max(1) as f64;
    let new_rate = new_low as f64 / new_n.max(1) as f64;
    assert!(old_rate > 0.3, "old apps low-API rate {old_rate}");
    assert!(new_rate < 0.1, "recent apps low-API rate {new_rate}");
}

#[test]
fn outdated_listings_have_older_dates() {
    let w = world();
    for l in &w.listings {
        let a = w.app(l.app);
        if l.version < a.version_count {
            assert!(
                l.updated <= a.base_date,
                "outdated copy dated {} after base {}",
                l.updated,
                a.base_date
            );
        }
    }
}

#[test]
fn clones_never_share_a_developer_with_their_victim() {
    let w = world();
    for a in &w.apps {
        let victim = match a.provenance {
            Provenance::SigClone { of }
            | Provenance::CodeClone { of }
            | Provenance::Fake { of } => w.app(of),
            Provenance::Original => continue,
        };
        assert_ne!(
            w.developer(a.developer).key,
            w.developer(victim.developer).key,
            "{} clones its own developer",
            a.package
        );
    }
}

#[test]
fn fakes_always_have_a_popular_victim() {
    let w = world();
    let mut found = 0;
    for a in &w.apps {
        if let Provenance::Fake { of } = a.provenance {
            let victim = w.app(of);
            assert!(
                victim.popularity > 0.95,
                "fake victim pop {}",
                victim.popularity
            );
            assert_eq!(victim.label, a.label);
            found += 1;
        }
    }
    assert!(found >= 10, "only {found} fakes at this scale");
}

#[test]
fn grayware_and_malware_rates_scale_with_profiles() {
    let w = world();
    for m in [
        MarketId::PcOnline,
        MarketId::GooglePlay,
        MarketId::TencentMyapp,
    ] {
        let ids = w.market_listings(m);
        let mal = ids
            .iter()
            .filter(|l| {
                w.app(w.listing(**l).app)
                    .infection
                    .is_some_and(|i| i.tier != ThreatTier::Grayware)
            })
            .count() as f64
            / ids.len() as f64;
        let target = profile(m).av10_rate;
        assert!(
            (mal - target).abs() < target.max(0.02) * 0.8 + 0.02,
            "{m}: planted {mal} vs target {target}"
        );
    }
}

#[test]
fn benchmark_specials_exist_exactly_once() {
    let w = world();
    let mut eicar_count = 0;
    let mut seen: HashSet<&str> = HashSet::new();
    for a in &w.apps {
        if a.package.as_str().contains("eicar") {
            eicar_count += 1;
        }
        if a.package.as_str() == "com.ypt.merchant" {
            assert!(seen.insert("ypt"), "duplicate special");
            let markets: Vec<MarketId> = w
                .listings
                .iter()
                .filter(|l| w.app(l.app).package.as_str() == "com.ypt.merchant")
                .map(|l| l.market)
                .collect();
            assert_eq!(markets.len(), 5, "{markets:?}");
        }
    }
    assert_eq!(eicar_count, 2, "two EICAR benchmark apps");
}

#[test]
fn removal_only_touches_what_the_market_hosts() {
    let w = world();
    // Removed listings must be real listings, and clean-app churn is
    // rare (~1%).
    let mut clean_removed = 0usize;
    let mut clean_total = 0usize;
    for l in &w.listings {
        if w.app(l.app).infection.is_none() {
            clean_total += 1;
            if l.removed_in_second_crawl {
                clean_removed += 1;
            }
        }
    }
    let churn = clean_removed as f64 / clean_total.max(1) as f64;
    assert!((0.002..0.03).contains(&churn), "clean churn {churn}");
}

#[test]
fn listings_reference_valid_apps_and_versions() {
    let w = world();
    for l in &w.listings {
        let a = w.app(l.app);
        assert!(
            l.version >= 1 && l.version <= a.version_count,
            "{}",
            a.package
        );
        assert!(l.rating >= 0.0 && l.rating <= 5.0);
        if let Some(d) = l.downloads {
            assert!(d <= 5_000_000_000, "absurd download counter {d}");
        } else {
            assert!(
                !profile(l.market).reports_installs,
                "{} must report installs",
                l.market
            );
        }
    }
}
