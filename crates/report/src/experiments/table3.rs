//! Table 3: fake and cloned apps across stores (fake %, signature-based
//! clone %, code-based clone %).

use crate::context::Analyzed;
use marketscope_core::MarketId;
use marketscope_metrics::table::pct;
use marketscope_metrics::Table;

/// One market's misbehaviour shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// The market.
    pub market: MarketId,
    /// Share of apps judged fake.
    pub fake: f64,
    /// Share of apps that are signature-based copies: in a
    /// multi-signature package cluster, and not its representative
    /// (the likelier original).
    pub sig_clone: f64,
    /// Share of apps in confirmed code-clone pairs.
    pub code_clone: f64,
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows in market order.
    pub rows: Vec<Table3Row>,
}

/// Read the shared detection artifacts per market.
pub fn run(analyzed: &Analyzed) -> Table3 {
    let detector = marketscope_clonedetect::CloneDetector::new();
    let rows = MarketId::ALL
        .iter()
        .map(|&market| Table3Row {
            market,
            fake: analyzed
                .fake_report
                .market_rate(&analyzed.fake_inputs, market),
            sig_clone: analyzed
                .sig_report
                .market_rate(&analyzed.clone_inputs, market),
            code_clone: detector.market_code_clone_rate(
                &analyzed.clone_inputs,
                &analyzed.code_pairs,
                market,
            ),
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Row for one market.
    pub fn row(&self, market: MarketId) -> &Table3Row {
        &self.rows[market.index()]
    }

    /// Average over all markets (the paper's bottom row).
    pub fn average(&self) -> (f64, f64, f64) {
        let n = self.rows.len() as f64;
        (
            self.rows.iter().map(|r| r.fake).sum::<f64>() / n,
            self.rows.iter().map(|r| r.sig_clone).sum::<f64>() / n,
            self.rows.iter().map(|r| r.code_clone).sum::<f64>() / n,
        )
    }

    /// Render with the average row.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Market", "Fake", "SB clones", "CB clones"]);
        for r in &self.rows {
            t.row([
                r.market.name().to_owned(),
                pct(r.fake),
                pct(r.sig_clone),
                pct(r.code_clone),
            ]);
        }
        let (f, s, c) = self.average();
        t.row(["Average".to_owned(), pct(f), pct(s), pct(c)]);
        format!(
            "Table 3: fake and cloned apps across stores\n{}",
            t.render()
        )
    }
}
