//! Figure 3: distribution of the minimum API level declared per app —
//! Google Play against the spread of the 16 Chinese stores.

use marketscope_core::MarketId;
use marketscope_crawler::Snapshot;
use marketscope_metrics::table::pct;
use marketscope_metrics::Table;

/// Figure 3's level buckets: `<7, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, >16`.
pub(crate) const LEVELS: [&str; 12] = [
    "<7", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", ">16",
];

fn bucket(min_sdk: u8) -> usize {
    match min_sdk {
        0..=6 => 0,
        7..=16 => (min_sdk - 6) as usize,
        _ => 11,
    }
}

/// Per-market level shares and the headline low-API statistic.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// `shares[market][level bucket]`.
    pub shares: Vec<[f64; 12]>,
    /// Share of apps declaring min SDK < 9 per market (Section 4.3's
    /// "63% vs 22%" comparison).
    pub low_api_share: Vec<f64>,
}

/// Read declared min-SDK levels from the harvested manifests.
pub fn run(snapshot: &Snapshot) -> Fig3 {
    let mut shares = Vec::with_capacity(17);
    let mut low = Vec::with_capacity(17);
    for &market in &MarketId::ALL {
        let mut counts = [0u64; 12];
        let mut low_count = 0u64;
        let mut total = 0u64;
        for l in &snapshot.market(market).listings {
            if let Some(d) = &l.digest {
                counts[bucket(d.min_sdk)] += 1;
                if d.min_sdk < 9 {
                    low_count += 1;
                }
                total += 1;
            }
        }
        let total = total.max(1) as f64;
        let mut out = [0.0; 12];
        for (o, c) in out.iter_mut().zip(counts) {
            *o = c as f64 / total;
        }
        shares.push(out);
        low.push(low_count as f64 / total);
    }
    Fig3 {
        shares,
        low_api_share: low,
    }
}

impl Fig3 {
    /// Google Play's low-API share.
    pub fn google_play_low(&self) -> f64 {
        self.low_api_share[MarketId::GooglePlay.index()]
    }

    /// Mean low-API share over the 16 Chinese markets.
    pub fn chinese_low_mean(&self) -> f64 {
        let sum: f64 = MarketId::chinese()
            .map(|m| self.low_api_share[m.index()])
            .sum();
        sum / 16.0
    }

    /// Render Google Play (the triangle marker in the paper's figure)
    /// against a box plot over the 16 Chinese markets per level.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Level",
            "Google Play",
            "CN min",
            "CN q1",
            "CN median",
            "CN q3",
            "CN max",
        ]);
        for (b, label) in LEVELS.iter().enumerate() {
            let cn: Vec<f64> = MarketId::chinese()
                .map(|m| self.shares[m.index()][b])
                .collect();
            let bp = marketscope_metrics::BoxPlot::new(&cn)
                .unwrap_or_else(|| unreachable!("16 Chinese markets are non-empty"));
            t.row([
                (*label).to_owned(),
                pct(self.shares[MarketId::GooglePlay.index()][b]),
                pct(bp.min),
                pct(bp.q1),
                pct(bp.median),
                pct(bp.q3),
                pct(bp.max),
            ]);
        }
        format!(
            "Figure 3: minimum API level (low-API share: GP {} vs CN mean {})\n{}",
            pct(self.google_play_low()),
            pct(self.chinese_low_mean()),
            t.render()
        )
    }
}
