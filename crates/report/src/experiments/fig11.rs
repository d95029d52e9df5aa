//! Figure 11: distribution of over-privileged apps — Google Play against
//! the Chinese-market spread, bucketed by number of unused permissions.
//!
//! Two footprints are reported side by side: the **flat** baseline (every
//! API call in the DEX counts as used — the historical measurement) and
//! the **reachability** mode (only calls reachable from the
//! manifest-declared components count), plus the per-market dead-code
//! share that explains the gap — the paper's bundled-but-unreached
//! library caveat.

use crate::context::Analyzed;
use marketscope_analysis::overpriv::{unused_histogram_in, FootprintMode};
use marketscope_core::MarketId;
use marketscope_metrics::table::pct;
use marketscope_metrics::Table;
use std::collections::HashMap;

/// Bucket labels (0..9 unused permissions, then >9).
pub(crate) const BUCKETS: [&str; 11] = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", ">9"];

/// Bucket shares and over-privilege rates under one footprint.
#[derive(Debug, Clone)]
pub struct ModeView {
    /// Google Play's share per bucket.
    pub google_play: [f64; 11],
    /// Aggregated Chinese-market share per bucket.
    pub chinese: [f64; 11],
    /// Per-market bucket shares (market × bucket) — the paper plots box
    /// plots over the 16 Chinese markets against Google Play's marker.
    pub per_market: Vec<[f64; 11]>,
    /// Share of over-privileged apps per market.
    pub overprivileged_share: Vec<f64>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Flat-footprint view (the historical baseline).
    pub flat: ModeView,
    /// Reachability-footprint view (dead code discounted).
    pub reachable: ModeView,
    /// Mean dead-code share (unreached methods / total) per market.
    pub dead_code_share: Vec<f64>,
    /// Mean number of fully dead Java packages per app, per market.
    pub dead_packages_mean: Vec<f64>,
    /// The most commonly unused permissions (short name → share of all
    /// over-privileged declarations; flat baseline).
    pub top_unused: Vec<(String, f64)>,
}

fn mode_view(analyzed: &Analyzed, mode: FootprintMode) -> ModeView {
    let shares = |indices: &[usize]| -> [f64; 11] {
        let h = unused_histogram_in(indices.iter().map(|i| &analyzed.overpriv[*i]), mode);
        let total = h.iter().sum::<u64>().max(1) as f64;
        let mut out = [0.0; 11];
        for (o, c) in out.iter_mut().zip(h) {
            *o = c as f64 / total;
        }
        out
    };
    let gp: Vec<usize> = analyzed.apps_in(MarketId::GooglePlay).collect();
    let cn: Vec<usize> = (0..analyzed.apps.len())
        .filter(|i| {
            analyzed.apps[*i]
                .markets
                .iter()
                .any(|(m, _)| m.is_chinese())
        })
        .collect();
    let per_market: Vec<[f64; 11]> = MarketId::ALL
        .iter()
        .map(|&m| shares(&analyzed.apps_in(m).collect::<Vec<_>>()))
        .collect();
    let overprivileged_share = MarketId::ALL
        .iter()
        .map(|&m| {
            let idx: Vec<usize> = analyzed.apps_in(m).collect();
            if idx.is_empty() {
                return 0.0;
            }
            idx.iter()
                .filter(|i| analyzed.overpriv[**i].is_overprivileged_in(mode))
                .count() as f64
                / idx.len() as f64
        })
        .collect();
    ModeView {
        google_play: shares(&gp),
        chinese: shares(&cn),
        per_market,
        overprivileged_share,
    }
}

/// Aggregate the shared over-privilege results.
pub fn run(analyzed: &Analyzed) -> Fig11 {
    let flat = mode_view(analyzed, FootprintMode::Flat);
    let reachable = mode_view(analyzed, FootprintMode::Reachable);

    // Dead-code accounting per market, from the representative digests.
    let mut dead_code_share = Vec::with_capacity(MarketId::ALL.len());
    let mut dead_packages_mean = Vec::with_capacity(MarketId::ALL.len());
    for &m in MarketId::ALL.iter() {
        let idx: Vec<usize> = analyzed.apps_in(m).collect();
        if idx.is_empty() {
            dead_code_share.push(0.0);
            dead_packages_mean.push(0.0);
            continue;
        }
        let n = idx.len() as f64;
        dead_code_share.push(
            idx.iter()
                .map(|i| analyzed.apps[*i].digest.dead_code_share())
                .sum::<f64>()
                / n,
        );
        dead_packages_mean.push(
            idx.iter()
                .map(|i| analyzed.apps[*i].digest.dead_packages().count() as f64)
                .sum::<f64>()
                / n,
        );
    }

    // Most over-requested permissions across the corpus (flat baseline).
    let mut unused_counts: HashMap<&'static str, usize> = HashMap::new();
    let mut over_apps = 0usize;
    for r in &analyzed.overpriv {
        if r.is_overprivileged() {
            over_apps += 1;
            for p in r.unused.iter() {
                *unused_counts.entry(p.0).or_insert(0) += 1;
            }
        }
    }
    let mut top_unused: Vec<(String, f64)> = unused_counts
        .into_iter()
        .map(|(p, n)| {
            let short = p.rsplit('.').next().unwrap_or(p).to_owned();
            (short, n as f64 / over_apps.max(1) as f64)
        })
        .collect();
    top_unused.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    top_unused.truncate(6);
    Fig11 {
        flat,
        reachable,
        dead_code_share,
        dead_packages_mean,
        top_unused,
    }
}

impl Fig11 {
    /// Over-privileged share of one market (flat baseline).
    pub fn market_share(&self, m: MarketId) -> f64 {
        self.flat.overprivileged_share[m.index()]
    }

    /// Over-privileged share of one market under reachability.
    pub fn market_share_reachable(&self, m: MarketId) -> f64 {
        self.reachable.overprivileged_share[m.index()]
    }

    /// Mean dead-code share of one market.
    pub fn market_dead_code(&self, m: MarketId) -> f64 {
        self.dead_code_share[m.index()]
    }

    fn render_mode(view: &ModeView, title: &str) -> String {
        let mut t = Table::new(["#Unused", "Google Play", "CN q1", "CN median", "CN q3"]);
        for (i, b) in BUCKETS.iter().enumerate() {
            let cn: Vec<f64> = MarketId::chinese()
                .map(|m| view.per_market[m.index()][i])
                .collect();
            let bp = marketscope_metrics::BoxPlot::new(&cn)
                .unwrap_or_else(|| unreachable!("16 Chinese markets are non-empty"));
            t.row([
                (*b).to_owned(),
                pct(view.google_play[i]),
                pct(bp.q1),
                pct(bp.median),
                pct(bp.q3),
            ]);
        }
        format!("{title}\n{}", t.render())
    }

    /// Render both footprints plus the dead-code table.
    pub fn render(&self) -> String {
        let tops: Vec<String> = self
            .top_unused
            .iter()
            .map(|(p, s)| format!("{p} {}", pct(*s)))
            .collect();
        let mut dead = Table::new([
            "Market",
            "Dead code",
            "Dead pkgs/app",
            "Over-priv flat",
            "Over-priv reach",
        ]);
        for &m in MarketId::ALL.iter() {
            dead.row([
                m.name().to_owned(),
                pct(self.dead_code_share[m.index()]),
                format!("{:.2}", self.dead_packages_mean[m.index()]),
                pct(self.flat.overprivileged_share[m.index()]),
                pct(self.reachable.overprivileged_share[m.index()]),
            ]);
        }
        format!(
            "Figure 11: over-privileged apps (top unused: {})\n{}\n{}\nDead code per market\n{}",
            tops.join(", "),
            Self::render_mode(&self.flat, "Flat footprint (baseline)"),
            Self::render_mode(
                &self.reachable,
                "Reachable footprint (entry-point analysis)"
            ),
            dead.render()
        )
    }
}
