//! Section 5.3: IDE- and app-store-introduced biases.
//!
//! The paper asks: are two listings with the same package name, version
//! and developer *byte-identical*? It found 546,703 listings where the
//! MD5 differs although the identity triple matches — and, after manual
//! DEX inspection, attributed essentially all of them to store channel
//! files (`META-INF/kgchannel`) and to 360's mandated re-packing. We
//! automate that inspection: group harvested digests by identity triple,
//! compare MD5s, and classify the cause of each divergence.

use marketscope_core::MarketId;
use marketscope_crawler::Snapshot;
use marketscope_metrics::table::{count, pct};
use marketscope_metrics::Table;
use std::collections::HashMap;

/// Why two same-identity listings differ in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivergenceCause {
    /// Different channel files under META-INF/ (signature still valid).
    ChannelFiles,
    /// One side was re-packed by the store (360 Jiagubao): DEX differs
    /// but the identity triple matches.
    StoreRepacking,
    /// Anything else (would indicate real tampering).
    Unexplained,
}

/// The analysis result.
#[derive(Debug, Clone)]
pub struct Sec53 {
    /// Identity triples observed in ≥2 markets.
    pub multi_store_triples: usize,
    /// ... of which all copies are byte-identical.
    pub byte_identical: usize,
    /// ... of which copies diverge, by cause.
    pub diverging: HashMap<DivergenceCause, usize>,
    /// Markets most often responsible for channel divergence.
    pub channel_markets: Vec<(MarketId, usize)>,
}

/// Group by (package, version, developer) and classify MD5 divergence.
pub fn run(snapshot: &Snapshot) -> Sec53 {
    // (package, version, developer) → [(market, digest)]
    let mut groups: HashMap<_, Vec<_>> = HashMap::new();
    for (market, listing) in snapshot.iter() {
        let Some(d) = &listing.digest else { continue };
        groups
            .entry((listing.package.as_str(), d.version_code.0, d.developer.0))
            .or_default()
            .push((market, d));
    }
    let mut multi = 0usize;
    let mut identical = 0usize;
    let mut diverging: HashMap<DivergenceCause, usize> = HashMap::new();
    let mut channel_counts: HashMap<MarketId, usize> = HashMap::new();
    for entries in groups.values() {
        if entries.len() < 2 {
            continue;
        }
        multi += 1;
        let first = entries[0].1;
        if entries.iter().all(|(_, d)| d.file_md5 == first.file_md5) {
            identical += 1;
            continue;
        }
        // Diverging: classify. If the code segments match across copies,
        // only META-INF content can differ → channel files. If the code
        // differs, a store re-packed it.
        let cause = if entries
            .iter()
            .all(|(_, d)| d.code_segments().eq(first.code_segments()))
        {
            for (m, d) in entries {
                if !d.channels.is_empty() {
                    *channel_counts.entry(*m).or_insert(0) += 1;
                }
            }
            DivergenceCause::ChannelFiles
        } else if entries
            .iter()
            .any(|(m, _)| marketscope_ecosystem::profile(*m).requires_obfuscation)
        {
            DivergenceCause::StoreRepacking
        } else {
            DivergenceCause::Unexplained
        };
        *diverging.entry(cause).or_insert(0) += 1;
    }
    let mut channel_markets: Vec<(MarketId, usize)> = channel_counts.into_iter().collect();
    channel_markets.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.index().cmp(&b.0.index())));
    Sec53 {
        multi_store_triples: multi,
        byte_identical: identical,
        diverging,
        channel_markets,
    }
}

impl Sec53 {
    /// Count for one cause.
    pub fn cause(&self, c: DivergenceCause) -> usize {
        self.diverging.get(&c).copied().unwrap_or(0)
    }

    /// Total diverging triples.
    pub fn total_diverging(&self) -> usize {
        self.diverging.values().sum()
    }

    /// Render the classification.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Class", "Triples", "Share"]);
        let total = self.multi_store_triples.max(1);
        t.row([
            "byte-identical everywhere".to_owned(),
            count(self.byte_identical as u64),
            pct(self.byte_identical as f64 / total as f64),
        ]);
        for (label, cause) in [
            ("diverge: channel files only", DivergenceCause::ChannelFiles),
            ("diverge: store re-packing", DivergenceCause::StoreRepacking),
            ("diverge: unexplained", DivergenceCause::Unexplained),
        ] {
            let n = self.cause(cause);
            t.row([
                label.to_owned(),
                count(n as u64),
                pct(n as f64 / total as f64),
            ]);
        }
        format!(
            "Section 5.3: byte identity of same-(package, version, developer) listings\n{}",
            t.render()
        )
    }
}
