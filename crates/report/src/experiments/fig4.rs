//! Figure 4: distribution of app release/update dates — Google Play
//! versus the Chinese alternative markets.

use marketscope_core::{MarketId, SimDate};
use marketscope_crawler::Snapshot;
use marketscope_metrics::table::pct;
use marketscope_metrics::Table;

/// Year buckets 2010-and-earlier through 2017.
pub(crate) const YEARS: [&str; 8] = [
    "≤2010", "2011", "2012", "2013", "2014", "2015", "2016", "2017",
];

/// The two series of Figure 4 plus the freshness statistics quoted in
/// Section 4.3.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Google Play's share per year bucket.
    pub google_play: [f64; 8],
    /// Aggregated Chinese markets' share per year bucket.
    pub chinese: [f64; 8],
    /// Share released before 2017 (GP, Chinese).
    pub old_share: (f64, f64),
    /// Share released within 6 months of the first crawl (GP, Chinese).
    pub fresh_share: (f64, f64),
}

fn bucket(year: i32) -> usize {
    (year.clamp(2010, 2017) - 2010) as usize
}

/// Tally the store-reported update dates.
pub fn run(snapshot: &Snapshot) -> Fig4 {
    let fresh_floor = SimDate::FIRST_CRAWL.plus_days(-180);
    let tally = |markets: Vec<MarketId>| -> ([f64; 8], f64, f64) {
        let mut counts = [0u64; 8];
        let (mut old, mut fresh, mut total) = (0u64, 0u64, 0u64);
        for m in markets {
            for l in &snapshot.market(m).listings {
                let Some(date) = l.updated else { continue };
                counts[bucket(date.year())] += 1;
                total += 1;
                if date.year() < 2017 {
                    old += 1;
                }
                if date >= fresh_floor {
                    fresh += 1;
                }
            }
        }
        let t = total.max(1) as f64;
        let mut shares = [0.0; 8];
        for (s, c) in shares.iter_mut().zip(counts) {
            *s = c as f64 / t;
        }
        (shares, old as f64 / t, fresh as f64 / t)
    };
    let (google_play, gp_old, gp_fresh) = tally(vec![MarketId::GooglePlay]);
    let (chinese, cn_old, cn_fresh) = tally(MarketId::chinese().collect());
    Fig4 {
        google_play,
        chinese,
        old_share: (gp_old, cn_old),
        fresh_share: (gp_fresh, cn_fresh),
    }
}

impl Fig4 {
    /// Render both series.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Year", "Google Play", "Chinese markets"]);
        for (i, y) in YEARS.iter().enumerate() {
            t.row([
                (*y).to_owned(),
                pct(self.google_play[i]),
                pct(self.chinese[i]),
            ]);
        }
        format!(
            "Figure 4: release/update dates (pre-2017: GP {} vs CN {}; last 6 months: GP {} vs CN {})\n{}",
            pct(self.old_share.0),
            pct(self.old_share.1),
            pct(self.fresh_share.0),
            pct(self.fresh_share.1),
            t.render()
        )
    }
}
