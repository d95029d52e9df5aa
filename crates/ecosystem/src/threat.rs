//! The threat model: malware families, payload signatures, detectability.
//!
//! The paper measures malware prevalence by uploading every APK to
//! VirusTotal and thresholding the **AV-rank** (how many of ~60 engines
//! flag a sample), then labels families with AVClass. We model the part of
//! that world that produces those observations:
//!
//! * a *family* is a named strain with a region bias (Figure 12: `kuguo`
//!   tops Chinese markets, `airpush`/`revmob` dominate Google Play);
//! * an infected app embeds a *payload*: DEX classes whose code-segment
//!   hashes come from the family's signature set (this is what scanners
//!   actually key on);
//! * each sample has a *detectability* in `[0,1]` — the probability that
//!   a random engine recognizes it — giving the AV-rank distribution its
//!   spread (grayware sits at rank 1–9, malware at 10+, EICAR-style
//!   benchmark files near the top of Table 5).
//!
//! [`ThreatDb`] is the shared signature database: the generator uses it to
//! build payloads, the AV simulator in `marketscope-analysis` uses it to
//! recognize them. Sharing it is realistic — AV vendors ship signature
//! databases of known strains.

use marketscope_core::hash::{fnv1a64, mix64};
use std::sync::OnceLock;

/// Severity tier of an infection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreatTier {
    /// Flagged by a handful of engines (1–9): aggressive adware and other
    /// potentially-unwanted programs.
    Grayware,
    /// Flagged by ten or more engines: the paper's malware threshold.
    Malware,
    /// AV benchmark files (EICAR): flagged by nearly every engine.
    Benchmark,
}

/// A malware family known to the signature database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FamilyId(pub u16);

/// Region bias of a family's distribution (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyRegion {
    /// Predominantly found in Google Play (airpush, revmob, leadbolt...).
    GooglePlay,
    /// Predominantly found in Chinese markets (kuguo, dowgin, secapk...).
    Chinese,
    /// Found everywhere (smsreg, gappusin...).
    Both,
}

/// Static description of one family.
#[derive(Debug, Clone)]
pub struct Family {
    /// Canonical (AVClass-style) family name.
    pub name: &'static str,
    /// Distribution bias.
    pub region: FamilyRegion,
    /// Relative prevalence weight within its region.
    pub weight: f64,
    /// Default tier for samples of this family.
    pub tier: ThreatTier,
}

/// The family table. Weights follow Figure 12's ordering: `kuguo` leads
/// the Chinese markets (12.69% of malware there), `airpush` (29.04%) and
/// `revmob` (15.09%) lead Google Play.
pub(crate) const FAMILIES: [Family; 18] = [
    Family {
        name: "kuguo",
        region: FamilyRegion::Chinese,
        weight: 12.69,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "dowgin",
        region: FamilyRegion::Chinese,
        weight: 7.2,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "secapk",
        region: FamilyRegion::Chinese,
        weight: 6.0,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "youmi",
        region: FamilyRegion::Chinese,
        weight: 5.2,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "adwo",
        region: FamilyRegion::Chinese,
        weight: 4.1,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "domob",
        region: FamilyRegion::Chinese,
        weight: 3.6,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "commplat",
        region: FamilyRegion::Chinese,
        weight: 3.2,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "adend",
        region: FamilyRegion::Chinese,
        weight: 2.7,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "smspay",
        region: FamilyRegion::Chinese,
        weight: 2.4,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "jiagu",
        region: FamilyRegion::Chinese,
        weight: 2.0,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "ramnit",
        region: FamilyRegion::Chinese,
        weight: 1.6,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "airpush",
        region: FamilyRegion::GooglePlay,
        weight: 29.04,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "revmob",
        region: FamilyRegion::GooglePlay,
        weight: 15.09,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "leadbolt",
        region: FamilyRegion::GooglePlay,
        weight: 6.5,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "mofin",
        region: FamilyRegion::GooglePlay,
        weight: 1.2,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "smsreg",
        region: FamilyRegion::Both,
        weight: 8.1,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "gappusin",
        region: FamilyRegion::Both,
        weight: 6.3,
        tier: ThreatTier::Malware,
    },
    Family {
        name: "eicar",
        region: FamilyRegion::Both,
        weight: 0.01,
        tier: ThreatTier::Benchmark,
    },
];

/// Number of signature hashes per family.
const SIGNATURES_PER_FAMILY: usize = 16;

/// The shared signature database.
#[derive(Debug, Clone)]
pub struct ThreatDb {
    /// Per-family signature hash sets (indexed by `FamilyId.0`).
    signatures: Vec<[u64; SIGNATURES_PER_FAMILY]>,
    /// Every signature with its `(family, ordinal within the family)` —
    /// what `scan` searches.
    index: HashTable<(u16, u8)>,
}

/// A table of hashes sorted for bisection, behind a 65 536-bit (8 KiB)
/// filter over their top 16 bits. A clear bit proves a hash absent, so
/// most lookups of a hash the table does not hold skip the search.
#[derive(Debug, Clone)]
struct HashTable<T> {
    filter: Vec<u64>,
    rows: Vec<(u64, T)>,
}

/// The filter word and bit standing for `hash`'s top 16 bits.
fn filter_bit(hash: u64) -> (usize, u64) {
    ((hash >> 54) as usize, 1 << ((hash >> 48) & 63))
}

impl<T: Copy + Ord> HashTable<T> {
    fn new(mut rows: Vec<(u64, T)>) -> HashTable<T> {
        rows.sort_unstable();
        let mut filter = vec![0u64; 1 << 10];
        for (hash, _) in &rows {
            let (word, bit) = filter_bit(*hash);
            filter[word] |= bit;
        }
        HashTable { filter, rows }
    }

    /// The payload stored beside `hash`.
    fn get(&self, hash: u64) -> Option<T> {
        let (word, bit) = filter_bit(hash);
        if self.filter[word] & bit == 0 {
            return None;
        }
        let at = self.rows.binary_search_by_key(&hash, |e| e.0).ok()?;
        Some(self.rows[at].1)
    }
}

impl ThreatDb {
    /// The standard database covering `FAMILIES`. Deterministic: both
    /// sides of the simulation construct the identical table.
    pub fn standard() -> ThreatDb {
        let mut index = Vec::new();
        let signatures = FAMILIES
            .iter()
            .enumerate()
            .map(|(fi, fam)| {
                let base = fnv1a64(fam.name.as_bytes());
                let mut sigs = [0u64; SIGNATURES_PER_FAMILY];
                for (si, s) in sigs.iter_mut().enumerate() {
                    *s = mix64(base, (fi as u64) << 32 | si as u64 | 0x7437_0000_0000);
                    index.push((*s, (fi as u16, si as u8)));
                }
                sigs
            })
            .collect();
        ThreatDb {
            signatures,
            index: HashTable::new(index),
        }
    }

    /// Look up a family id by canonical name.
    pub fn family_by_name(&self, name: &str) -> Option<FamilyId> {
        FAMILIES
            .iter()
            .position(|f| f.name == name)
            .map(|i| FamilyId(i as u16))
    }

    /// The family metadata for an id.
    pub fn family(&self, id: FamilyId) -> &'static Family {
        &FAMILIES[id.0 as usize]
    }

    /// The signature hashes of a family (what a payload embeds and what a
    /// scanner greps method code-hashes for).
    pub fn signatures(&self, id: FamilyId) -> &[u64] {
        &self.signatures[id.0 as usize]
    }

    /// Classify a stream of method code-hashes: the family whose
    /// signatures appear, if any, and how many distinct signatures matched
    /// (more matches → higher-confidence detection; equal counts go to the
    /// lowest family id). A hash repeated in the stream counts once: each
    /// family keeps one bit per signature ordinal.
    pub fn scan(&self, code_hashes: impl Iterator<Item = u64>) -> Option<(FamilyId, usize)> {
        let mut matched = [0u16; FAMILIES.len()];
        for h in code_hashes {
            if let Some((family, ordinal)) = self.index.get(h) {
                matched[family as usize] |= 1 << ordinal;
            }
        }
        let mut best: Option<(FamilyId, usize)> = None;
        for (fi, bits) in matched.iter().enumerate() {
            let count = bits.count_ones() as usize;
            if count > 0 && best.map_or(true, |(_, m)| count > m) {
                best = Some((FamilyId(fi as u16), count));
            }
        }
        best
    }

    /// Number of families.
    pub fn family_count(&self) -> usize {
        self.signatures.len()
    }
}

/// Quantization steps for the detectability marker.
pub const DETECTABILITY_STEPS: u8 = 64;

/// The marker hash a payload embeds to encode its (quantized)
/// detectability — the residue of how well the variant is obfuscated.
/// Scanners decode it from bytes; nothing outside the APK is consulted.
pub fn detectability_marker(step: u8) -> u64 {
    mix64(
        0xD37E_C7AB_1117_55AA,
        step.min(DETECTABILITY_STEPS - 1) as u64,
    )
}

/// Decode a detectability marker from a sample's code hashes; when
/// several markers are present the lowest step wins.
pub fn decode_detectability(code_hashes: impl Iterator<Item = u64>) -> Option<f64> {
    static MARKERS: OnceLock<HashTable<u8>> = OnceLock::new();
    let markers = MARKERS.get_or_init(|| {
        HashTable::new(
            (0..DETECTABILITY_STEPS)
                .map(|q| (detectability_marker(q), q))
                .collect(),
        )
    });
    code_hashes
        .filter_map(|h| markers.get(h))
        .min()
        .map(|q| (q as f64 + 0.5) / DETECTABILITY_STEPS as f64)
}

/// Ground-truth infection attached to an app by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Infection {
    /// The family.
    pub family: FamilyId,
    /// Severity tier.
    pub tier: ThreatTier,
    /// Probability a random engine recognizes this particular variant.
    pub detectability: f64,
}

impl Infection {
    /// Typical detectability band for a tier: grayware lands at AV-rank
    /// 1–9, malware at 10–40, benchmarks at 44+ (matching Table 5's top
    /// ranks of 44–48, out of 60 engines).
    pub(crate) fn base_detectability(tier: ThreatTier) -> (f64, f64) {
        match tier {
            ThreatTier::Grayware => (0.03, 0.12),
            ThreatTier::Malware => (0.20, 0.62),
            ThreatTier::Benchmark => (0.74, 0.82),
        }
    }

    /// Sample a detectability within a tier's band. Malware skews toward
    /// the low end (cube law) so the AV-rank ≥ 20 share lands near the
    /// paper's ≈0.3 × (AV-rank ≥ 10) ratio.
    pub(crate) fn sample_detectability(tier: ThreatTier, unit: f64) -> f64 {
        let (lo, hi) = Self::base_detectability(tier);
        let u = match tier {
            ThreatTier::Malware => unit.powf(3.0),
            _ => unit,
        };
        lo + (hi - lo) * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_is_deterministic() {
        let a = ThreatDb::standard();
        let b = ThreatDb::standard();
        for i in 0..a.family_count() {
            assert_eq!(
                a.signatures(FamilyId(i as u16)),
                b.signatures(FamilyId(i as u16))
            );
        }
    }

    #[test]
    fn signatures_are_distinct_across_families() {
        let db = ThreatDb::standard();
        let mut all: Vec<u64> = (0..db.family_count())
            .flat_map(|i| db.signatures(FamilyId(i as u16)).to_vec())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "signature collision");
    }

    #[test]
    fn scan_recognizes_planted_payload() {
        let db = ThreatDb::standard();
        let kuguo = db.family_by_name("kuguo").unwrap();
        let sigs = db.signatures(kuguo);
        let code = vec![1u64, 2, sigs[0], sigs[3], 99];
        let (fam, matched) = db.scan(code.into_iter()).unwrap();
        assert_eq!(fam, kuguo);
        assert_eq!(matched, 2);
    }

    #[test]
    fn scan_clean_code_is_none() {
        let db = ThreatDb::standard();
        assert!(db.scan([1u64, 2, 3].into_iter()).is_none());
    }

    #[test]
    fn scan_prefers_strongest_match() {
        let db = ThreatDb::standard();
        let a = db.family_by_name("airpush").unwrap();
        let b = db.family_by_name("kuguo").unwrap();
        let mut code = db.signatures(a)[..1].to_vec();
        code.extend_from_slice(&db.signatures(b)[..3]);
        let (fam, _) = db.scan(code.into_iter()).unwrap();
        assert_eq!(fam, b);
    }

    #[test]
    fn repeated_signature_counts_once() {
        let db = ThreatDb::standard();
        let kuguo = db.family_by_name("kuguo").unwrap();
        let sigs = db.signatures(kuguo);
        let code = [sigs[2], 7, sigs[2], sigs[9], sigs[2], sigs[9]];
        assert_eq!(db.scan(code.into_iter()), Some((kuguo, 2)));
    }

    #[test]
    fn equal_match_counts_go_to_the_lowest_family() {
        let db = ThreatDb::standard();
        let low = db.family_by_name("dowgin").unwrap();
        let high = db.family_by_name("airpush").unwrap();
        assert!(low.0 < high.0);
        // The higher family's signatures come first in the stream.
        let mut code = db.signatures(high)[..3].to_vec();
        code.extend_from_slice(&db.signatures(low)[4..7]);
        assert_eq!(db.scan(code.into_iter()), Some((low, 3)));
    }

    #[test]
    fn two_markers_decode_to_the_lowest_step() {
        let step = |q: u8| (q as f64 + 0.5) / DETECTABILITY_STEPS as f64;
        let code = [1, detectability_marker(40), 2, detectability_marker(5), 3];
        assert_eq!(decode_detectability(code.into_iter()), Some(step(5)));
        assert_eq!(
            decode_detectability(code.into_iter().rev()),
            Some(step(5)),
            "stream order must not matter"
        );
        assert_eq!(decode_detectability([1u64, 2, 3].into_iter()), None);
    }

    #[test]
    fn family_regions_match_figure12() {
        let db = ThreatDb::standard();
        let kuguo = db.family(db.family_by_name("kuguo").unwrap());
        assert_eq!(kuguo.region, FamilyRegion::Chinese);
        let airpush = db.family(db.family_by_name("airpush").unwrap());
        assert_eq!(airpush.region, FamilyRegion::GooglePlay);
        assert!(airpush.weight > 25.0);
    }

    #[test]
    fn detectability_bands_are_ordered() {
        let (g_lo, g_hi) = Infection::base_detectability(ThreatTier::Grayware);
        let (m_lo, m_hi) = Infection::base_detectability(ThreatTier::Malware);
        let (b_lo, b_hi) = Infection::base_detectability(ThreatTier::Benchmark);
        assert!(g_lo < g_hi && g_hi <= m_lo + 0.1);
        assert!(m_lo < m_hi && m_hi < b_lo);
        assert!(b_lo < b_hi && b_hi < 1.0);
    }
}
