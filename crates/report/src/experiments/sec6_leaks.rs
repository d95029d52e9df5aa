//! Section 6 extension: privacy-leak prevalence per market, with each
//! taint flow attributed to **host** code or a detected **third-party
//! library** (the FlowDroid-style pass the comparison literature runs
//! over Chinese markets).
//!
//! A leaky app has at least one source→sink flow in its representative
//! digest; flows whose sink package falls under a detected library root
//! count as supply-chain (TPL) leaks, everything else as developer
//! intent. The table contrasts Google Play against the Chinese spread
//! and reports the corpus-wide TPL share the generator planted.

use crate::context::Analyzed;
use marketscope_analysis::taint::LeakAttribution;
use marketscope_core::MarketId;
use marketscope_metrics::table::pct;
use marketscope_metrics::Table;
use std::collections::HashMap;

/// One market's leak measurements.
#[derive(Debug, Clone)]
pub struct MarketLeaks {
    /// The market.
    pub market: MarketId,
    /// Unique apps listed there.
    pub apps: usize,
    /// Apps with at least one leak flow.
    pub leaky: usize,
    /// Flows sinking in host code, summed over the market's apps.
    pub host_flows: usize,
    /// Flows sinking in detected libraries.
    pub library_flows: usize,
}

impl MarketLeaks {
    /// Share of the market's apps that leak.
    pub fn leak_share(&self) -> f64 {
        if self.apps == 0 {
            0.0
        } else {
            self.leaky as f64 / self.apps as f64
        }
    }

    /// Share of the market's flows attributed to libraries.
    pub(crate) fn tpl_flow_share(&self) -> f64 {
        let total = self.host_flows + self.library_flows;
        if total == 0 {
            0.0
        } else {
            self.library_flows as f64 / total as f64
        }
    }
}

/// The experiment's data: one row per market plus the library roots
/// most often blamed for flows.
#[derive(Debug, Clone)]
pub struct LeaksReport {
    /// Per-market rows in [`MarketId::ALL`] order.
    pub rows: Vec<MarketLeaks>,
    /// Detected library roots by attributed flow count, descending.
    pub top_library_roots: Vec<(String, usize)>,
}

/// Aggregate the shared leak results per market.
pub fn run(analyzed: &Analyzed) -> LeaksReport {
    let rows = MarketId::ALL
        .iter()
        .map(|&market| {
            let mut row = MarketLeaks {
                market,
                apps: 0,
                leaky: 0,
                host_flows: 0,
                library_flows: 0,
            };
            for i in analyzed.apps_in(market) {
                let r = &analyzed.leaks[i];
                row.apps += 1;
                if r.leaks() {
                    row.leaky += 1;
                }
                row.host_flows += r.host_flows();
                row.library_flows += r.library_flows();
            }
            row
        })
        .collect();
    let mut root_counts: HashMap<&str, usize> = HashMap::new();
    for r in &analyzed.leaks {
        for f in &r.flows {
            if let LeakAttribution::Library(root) = &f.attribution {
                *root_counts.entry(root.as_str()).or_insert(0) += 1;
            }
        }
    }
    let mut top_library_roots: Vec<(String, usize)> = root_counts
        .into_iter()
        .map(|(p, n)| (p.to_owned(), n))
        .collect();
    top_library_roots.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    top_library_roots.truncate(5);
    LeaksReport {
        rows,
        top_library_roots,
    }
}

impl LeaksReport {
    /// One market's row.
    pub fn market(&self, m: MarketId) -> &MarketLeaks {
        &self.rows[m.index()]
    }

    /// Mean leaky-app share over the 16 Chinese markets.
    pub fn chinese_mean_leak_share(&self) -> f64 {
        let shares: Vec<f64> = MarketId::chinese()
            .map(|m| self.market(m).leak_share())
            .collect();
        shares.iter().sum::<f64>() / shares.len() as f64
    }

    /// Corpus-wide share of flows attributed to libraries.
    pub fn corpus_tpl_share(&self) -> f64 {
        let host: usize = self.rows.iter().map(|r| r.host_flows).sum();
        let tpl: usize = self.rows.iter().map(|r| r.library_flows).sum();
        if host + tpl == 0 {
            0.0
        } else {
            tpl as f64 / (host + tpl) as f64
        }
    }

    /// Render the per-market table plus the most-blamed library roots.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Market",
            "Apps",
            "Leaky",
            "Leak share",
            "Host flows",
            "TPL flows",
            "TPL share",
        ]);
        for r in &self.rows {
            t.row([
                r.market.name().to_owned(),
                r.apps.to_string(),
                r.leaky.to_string(),
                pct(r.leak_share()),
                r.host_flows.to_string(),
                r.library_flows.to_string(),
                pct(r.tpl_flow_share()),
            ]);
        }
        let tops: Vec<String> = self
            .top_library_roots
            .iter()
            .map(|(p, n)| format!("{p} ({n})"))
            .collect();
        format!(
            "Privacy leaks per market, host vs third-party library (top TPL roots: {})\n{}",
            if tops.is_empty() {
                "none".to_owned()
            } else {
                tops.join(", ")
            },
            t.render()
        )
    }
}
