//! Figure 13: multi-dimensional radar comparison of Google Play, Tencent,
//! PC Online, Huawei and Lenovo — each metric min-max normalized to
//! [0, 100] across the five markets.

use crate::context::Analyzed;
use crate::experiments::{table3, table4};
use marketscope_core::MarketId;
use marketscope_crawler::Snapshot;
use marketscope_metrics::Radar;

/// The five compared markets, as in the paper.
pub const COMPARED: [MarketId; 5] = [
    MarketId::GooglePlay,
    MarketId::TencentMyapp,
    MarketId::PcOnline,
    MarketId::HuaweiMarket,
    MarketId::LenovoMm,
];

/// Radar axes.
pub(crate) const AXES: [&str; 6] = [
    "catalog size",
    "agg downloads",
    "malware %",
    "fake %",
    "clone %",
    "rated share",
];

/// The radar with raw values retained.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Raw metric values per compared market (axes order).
    pub raw: Vec<(MarketId, [f64; 6])>,
    /// The normalized radar.
    pub radar: Radar,
}

/// Gather the five markets' metrics.
pub fn run(analyzed: &Analyzed, snapshot: &Snapshot) -> Fig13 {
    let t3 = table3::run(analyzed);
    let t4 = table4::run(analyzed);
    let mut radar = Radar::new(AXES);
    let mut raw = Vec::new();
    for &m in &COMPARED {
        let ms = snapshot.market(m);
        let downloads: u64 = ms.listings.iter().filter_map(|l| l.downloads).sum();
        let rated = ms.listings.iter().filter(|l| l.rating > 0.0).count() as f64
            / ms.listings.len().max(1) as f64;
        let values = [
            ms.listings.len() as f64,
            downloads as f64,
            t4.row(m).av10,
            t3.row(m).fake,
            t3.row(m).code_clone,
            rated,
        ];
        radar.series(m.name(), values.to_vec());
        raw.push((m, values));
    }
    Fig13 { raw, radar }
}

impl Fig13 {
    /// Render the normalized matrix.
    pub fn render(&self) -> String {
        format!(
            "Figure 13: multi-dimensional market comparison\n{}",
            self.radar.render()
        )
    }
}
