//! Checks of the harness's own footing, run before anything is timed:
//! every workload's inputs flow from `benchmark/stubs/rand`, so that
//! generator must be the one the numbers were calibrated on.

use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_market::MarketFleet;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// xoshiro256++ from state (1, 2, 3, 4), as the reference C
/// implementation prints it.
const XOSHIRO_REFERENCE: [u64; 10] = [
    41943041,
    58720359,
    3588806011781223,
    3591011842654386,
    9228616714210784205,
    9973669472204895162,
    14011001112246962877,
    12406186145184390807,
    15849039046786891736,
    10450023813501588000,
];

/// SplitMix64 from state 0, the seeding sequence.
const SPLITMIX_REFERENCE: [u64; 4] = [
    0xe220_a839_7b1d_cdaf,
    0x6e78_9e6a_a1b9_65f4,
    0x06c4_5d18_8009_454f,
    0xf88b_b8a8_724c_81ec,
];

/// The generator's arithmetic: microseconds.
pub fn generator() -> Result<(), String> {
    let mut rng = SmallRng::from_state([1, 2, 3, 4]);
    for (i, want) in XOSHIRO_REFERENCE.iter().enumerate() {
        let got = rng.next_u64();
        if got != *want {
            return Err(format!(
                "xoshiro256++ output {i} is {got}, reference says {want}"
            ));
        }
    }
    if SmallRng::seed_from_u64(0) != SmallRng::from_state(SPLITMIX_REFERENCE) {
        return Err("seed_from_u64 does not expand the seed with SplitMix64".to_owned());
    }
    // `Standard` f64 keeps the top 53 bits. `gen_range` keeps the high
    // half of a widening multiply and rejects a draw whose low half lies
    // above the zone: over 0..2^40 that rejects the second and third
    // reference outputs and accepts the fourth.
    let mut rng = SmallRng::from_state([1, 2, 3, 4]);
    let unit: f64 = rng.gen();
    if unit != (41943041u64 >> 11) as f64 / (1u64 << 53) as f64 {
        return Err(format!("gen::<f64>() is {unit}"));
    }
    let pick = rng.gen_range(0..1u64 << 40);
    if pick != 3591011842654386 >> 24 {
        return Err(format!("gen_range(0..2^40) is {pick}"));
    }
    Ok(())
}

/// The generator end to end: the committed `BENCH_fanout_baseline.json`
/// recorded 1 508 first-crawl listings for seed 353894936 at divisor
/// 4000. About half a second, so the suite runner checks it once, not
/// every workload process.
pub fn calibrated_world() -> Result<(), String> {
    let world = Arc::new(crate::workloads::world(353_894_936, 4000));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).map_err(|e| e.to_string())?;
    let crawler = Crawler::new(CrawlConfig {
        seeds: crate::workloads::gp_seeds(&world, 0.75),
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let snapshot = crawler.crawl(&CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    });
    fleet.stop();
    match snapshot.total_listings() {
        1508 => Ok(()),
        n => Err(format!(
            "seed 353894936 at divisor 4000 crawls {n} listings; the committed baseline has 1508"
        )),
    }
}
