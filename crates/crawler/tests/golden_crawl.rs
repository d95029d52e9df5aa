//! Crawl answers are pinned: one FNV-1a 64 over both crawls of three
//! small worlds, run the way `run_campaign` runs them (seed share 0.75,
//! then a second, metadata-only crawl seeded from the first crawl's
//! Google Play listings after the fleet switches phase).
//!
//! Hashed per market, in [`MarketId::ALL`] order: every listing's
//! package, version and metadata fields, and — for every market except
//! Google Play — whether its APK was harvested, the digest's file MD5 and
//! its channel files. Then the enumeration's [`CrawlStats`] fields.
//!
//! A second value pins Google Play's harvest over the same three worlds:
//! each listing's digest presence and file MD5, then the first crawl's
//! direct, rate-limited, backfilled and missing counts. Play's download
//! limit counts requests, not time, so which of its fetches go direct and
//! which are backfilled is a function of the seed. A change to how the
//! crawler enumerates, searches or harvests that moves any answer moves
//! one of the values.

use marketscope_core::hash::fnv1a64_update;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlStats, CrawlTargets, Crawler, Snapshot};
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::{CrawlPhase, MarketFleet};
use std::sync::Arc;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        // Length-prefixed, so adjacent fields cannot trade bytes.
        self.0 = fnv1a64_update(self.0, &(data.len() as u64).to_le_bytes());
        self.0 = fnv1a64_update(self.0, data);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_snapshot(h: &mut Fnv, snapshot: &Snapshot) {
    for market in MarketId::ALL {
        let listings = &snapshot.market(market).listings;
        h.bytes(market.slug().as_bytes());
        h.u64(listings.len() as u64);
        for l in listings {
            h.bytes(l.package.as_bytes());
            h.u64(u64::from(l.version_code));
            h.bytes(l.version_name.as_bytes());
            h.bytes(l.label.as_bytes());
            h.bytes(l.raw_category.as_bytes());
            h.u64(l.downloads.map_or(u64::MAX, |d| d));
            h.u64(u64::from(l.downloads_from_range));
            h.u64(l.rating.to_bits());
            h.bytes(
                l.updated
                    .map(|d| d.to_string())
                    .unwrap_or_default()
                    .as_bytes(),
            );
            h.bytes(l.developer_name.as_bytes());
            if market == MarketId::GooglePlay {
                continue;
            }
            match &l.digest {
                Some(d) => {
                    h.u64(1);
                    h.bytes(&d.file_md5);
                    h.u64(d.channels.len() as u64);
                    for c in &d.channels {
                        h.bytes(c.as_bytes());
                    }
                }
                None => h.u64(0),
            }
        }
    }
    let CrawlStats {
        metadata_fetched,
        parallel_search_hits,
        fetch_errors,
        parse_failures,
        ..
    } = snapshot.stats;
    for v in [
        metadata_fetched,
        parallel_search_hits,
        fetch_errors,
        parse_failures,
    ] {
        h.u64(v);
    }
}

/// Both crawls of one world, as `run_campaign` drives them, hashed.
fn campaign_crawls(seed: u64, h: &mut Fnv) {
    let (first, second) = crawl_pair(seed);
    hash_snapshot(h, &first);
    hash_snapshot(h, &second);
}

/// Both crawls of one world, as `run_campaign` drives them.
fn crawl_pair(seed: u64) -> (Snapshot, Snapshot) {
    let world = Arc::new(generate(WorldConfig {
        seed,
        scale: Scale { divisor: 40_000 },
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    let gp = world.market_listings(MarketId::GooglePlay);
    let seeds: Vec<String> = gp
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as f64) < gp.len() as f64 * 0.75)
        .map(|(_, l)| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect();
    let first = Crawler::new(CrawlConfig {
        seeds,
        ..CrawlConfig::default()
    })
    .crawl(&targets);
    fleet.set_phase(CrawlPhase::Second);
    let second = Crawler::new(CrawlConfig {
        seeds: first
            .market(MarketId::GooglePlay)
            .listings
            .iter()
            .map(|l| l.package.clone())
            .collect(),
        fetch_apks: false,
        ..CrawlConfig::default()
    })
    .crawl(&targets);
    fleet.stop();
    (first, second)
}

#[test]
fn campaign_crawls_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in [0x1517_2018, 7, 99] {
        campaign_crawls(seed, &mut h);
    }
    assert_eq!(
        h.0, 0xd186_6cac_1d6d_4b9a,
        "crawl answers moved: {:#018x}",
        h.0
    );
}

#[test]
fn google_play_harvests_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in [0x1517_2018, 7, 99] {
        let (first, _) = crawl_pair(seed);
        for l in &first.market(MarketId::GooglePlay).listings {
            match &l.digest {
                Some(d) => {
                    h.u64(1);
                    h.bytes(&d.file_md5);
                }
                None => h.u64(0),
            }
        }
        let s = &first.stats;
        for v in [
            s.apks_direct,
            s.rate_limited,
            s.apks_backfilled,
            s.apks_missing,
        ] {
            h.u64(v);
        }
    }
    assert_eq!(
        h.0, 0xf810_e007_2fb1_9472,
        "Google Play's harvest moved: {:#018x}",
        h.0
    );
}
