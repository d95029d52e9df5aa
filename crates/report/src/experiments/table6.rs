//! Table 6: percentage of identified malware removed between the two
//! crawls, with the Google-Play-removed (GPRM) overlap columns.
//!
//! As in the paper, HiApk (service discontinued) and OPPO (no longer
//! web-accessible) are excluded from the removal comparison.

use crate::context::Analyzed;
use marketscope_analysis::removal::{removal_rates, RemovalInput, RemovalReport};
use marketscope_core::MarketId;
use marketscope_crawler::Snapshot;
use marketscope_metrics::table::pct;
use marketscope_metrics::Table;
use std::collections::HashSet;

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// One report per included market.
    pub reports: Vec<RemovalReport>,
}

/// Markets excluded from the paper's post-analysis.
pub(crate) fn excluded(market: MarketId) -> bool {
    matches!(market, MarketId::HiApk | MarketId::OppoMarket)
}

/// Diff the malware sets against the second crawl.
pub fn run(analyzed: &Analyzed, second: &Snapshot) -> Table6 {
    let inputs: Vec<RemovalInput> = MarketId::ALL
        .iter()
        .filter(|m| !excluded(**m))
        .map(|&market| {
            let second_set: HashSet<String> = second
                .market(market)
                .listings
                .iter()
                .map(|l| l.package.clone())
                .collect();
            RemovalInput {
                market,
                flagged: analyzed.malware_packages(market),
                second_crawl: second_set,
            }
        })
        .collect();
    Table6 {
        reports: removal_rates(&inputs),
    }
}

impl Table6 {
    /// Report for one market, if included.
    pub fn market(&self, m: MarketId) -> Option<&RemovalReport> {
        self.reports.iter().find(|r| r.market == m)
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Market",
            "#Malware",
            "%Removed",
            "#Overlap GPRM",
            "%GPRM also removed",
        ]);
        for r in &self.reports {
            let gprm_rate = if r.gprm_overlap == 0 {
                "-".to_owned()
            } else {
                pct(r.gprm_removed as f64 / r.gprm_overlap as f64)
            };
            t.row([
                r.market.name().to_owned(),
                r.flagged.to_string(),
                pct(r.rate),
                if r.market == MarketId::GooglePlay {
                    "-".to_owned()
                } else {
                    r.gprm_overlap.to_string()
                },
                gprm_rate,
            ]);
        }
        format!("Table 6: malware removal between crawls\n{}", t.render())
    }
}
