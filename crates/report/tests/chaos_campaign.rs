//! Acceptance: a full campaign under seeded heavy chaos completes,
//! replays bit-identically for the same seed, and the ops summary
//! reports the degradation the fault plans actually caused. Every
//! market replays exactly, digests included.

use marketscope_ecosystem::Scale;
use marketscope_market::ChaosProfile;
use marketscope_report::{run_campaign, Campaign, CampaignConfig};

fn chaos_config() -> CampaignConfig {
    CampaignConfig {
        scale: Scale { divisor: 60_000 },
        chaos: Some(ChaosProfile::heavy(0xC4A05)),
        ..CampaignConfig::default()
    }
}

type DegradedRow = (String, u64, u64, Vec<(String, u64)>, u64, u64, u64);

fn degraded_rows(c: &Campaign) -> Vec<DegradedRow> {
    c.ops
        .degraded
        .iter()
        .map(|m| {
            (
                m.market.clone(),
                m.faults_injected,
                m.fetch_errors,
                m.error_kinds.clone(),
                m.quarantines,
                m.deferred,
                m.recovered,
            )
        })
        .collect()
}

#[test]
fn heavy_chaos_campaign_completes_and_replays_bit_identically() {
    let a = run_campaign(chaos_config());
    let b = run_campaign(chaos_config());

    // The campaign completed: a non-trivial catalog was harvested even
    // with every Chinese market faulted.
    assert!(a.snapshot.total_listings() > 0);
    assert!(a.snapshot.total_apks() > 0);

    for (ma, mb) in a.snapshot.markets.iter().zip(&b.snapshot.markets) {
        assert_eq!(ma.market, mb.market);
        assert_eq!(
            ma.listings.len(),
            mb.listings.len(),
            "{}: catalog size diverged between replays",
            ma.market
        );
        for (la, lb) in ma.listings.iter().zip(&mb.listings) {
            assert_eq!(la.package, lb.package, "{}", ma.market);
            assert_eq!(la.version_code, lb.version_code, "{}", ma.market);
            match (&la.digest, &lb.digest) {
                (Some(da), Some(db)) => {
                    assert_eq!(
                        da.file_md5, db.file_md5,
                        "{}: {} bytes diverged",
                        ma.market, la.package
                    );
                    assert_eq!(da.channels, db.channels);
                }
                (None, None) => {}
                _ => panic!("{}: digest presence diverged for {}", ma.market, la.package),
            }
        }
    }

    // Second-crawl catalogs (presence only) replay too.
    for (ma, mb) in a.second.markets.iter().zip(&b.second.markets) {
        let packages = |m: &marketscope_crawler::MarketSnapshot| {
            m.listings
                .iter()
                .map(|l| l.package.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(packages(ma), packages(mb), "{}", ma.market);
    }

    // Chaos-driven degradation accounting is part of the replay: same
    // faults injected, same errors surfaced, same quarantine decisions.
    assert_eq!(a.snapshot.stats.fetch_errors, b.snapshot.stats.fetch_errors);
    assert_eq!(
        a.snapshot.stats.markets_quarantined,
        b.snapshot.stats.markets_quarantined
    );
    assert_eq!(
        a.snapshot.stats.fetches_deferred,
        b.snapshot.stats.fetches_deferred
    );
    assert_eq!(
        a.snapshot.stats.revisit_recovered,
        b.snapshot.stats.revisit_recovered
    );

    // The ops summary reports the degradation, and it replays exactly.
    let rows = degraded_rows(&a);
    assert!(
        !rows.is_empty(),
        "heavy chaos must show up in the ops summary"
    );
    assert!(
        rows.iter().any(|(_, faults, ..)| *faults > 0),
        "injected fault counts must reach the ops summary"
    );
    assert!(
        !rows.iter().any(|(market, ..)| market == "googleplay"),
        "Google Play is never faulted"
    );
    assert_eq!(rows, degraded_rows(&b), "degradation accounting diverged");

    // Retries are how most of the chaos was absorbed; the client's
    // resilience counters must be visible to the summary.
    let resilience = a.ops.resilience.expect("resilience line present");
    assert!(resilience.retries > 0);

    // And the rendered report carries the section.
    let rendered = a.ops.render();
    assert!(rendered.contains("Degraded markets"), "{rendered}");
    assert!(rendered.contains("resilience:"), "{rendered}");
}
