//! The simulated anti-virus ensemble (Section 6.4's VirusTotal stand-in).
//!
//! Sixty engines scan a sample's code-segment hashes against the shared
//! threat-signature database. A sample that carries a known family's
//! payload also carries a *variant marker* encoding how detectable the
//! variant is (obfuscation residue); each engine combines that
//! detectability with its own sensitivity and a deterministic per-engine
//! coin to decide whether it flags the sample. The resulting **AV-rank**
//! (number of flagging engines) has exactly the structure the paper
//! thresholds at ≥1 / ≥10 / ≥20.
//!
//! Flagging engines also emit a vendor-flavoured label string (e.g.
//! `Trojan.AndroidOS.Kuguo.a`) for AVClass-style family voting.

use marketscope_apk::digest::ApkDigest;
use marketscope_core::hash::{fnv1a64, mix64};
use marketscope_ecosystem::threat::{decode_detectability, FamilyId, ThreatDb};

/// Number of simulated engines (VirusTotal aggregates "more than 60").
pub const ENGINE_COUNT: usize = 60;

/// One sample's scan outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AvReport {
    /// How many engines flagged the sample (the paper's AV-rank).
    pub rank: usize,
    /// Raw labels from the flagging engines.
    pub labels: Vec<String>,
    /// The family matched in the signature database, if any.
    pub matched_family: Option<FamilyId>,
}

/// The ensemble scanner.
#[derive(Debug, Clone)]
pub struct AvSimulator {
    db: ThreatDb,
    /// Per-engine sensitivity multipliers in `[0.7, 1.3]`.
    sensitivity: [f64; ENGINE_COUNT],
}

impl AvSimulator {
    /// Standard ensemble over the standard signature database.
    pub fn new() -> AvSimulator {
        Self::with_db(ThreatDb::standard())
    }

    /// Ensemble over an explicit database.
    pub(crate) fn with_db(db: ThreatDb) -> AvSimulator {
        let mut sensitivity = [1.0; ENGINE_COUNT];
        for (i, s) in sensitivity.iter_mut().enumerate() {
            let u = (mix64(0xE261_7E5E, i as u64) % 10_000) as f64 / 10_000.0;
            *s = 0.7 + 0.6 * u;
        }
        AvSimulator { db, sensitivity }
    }

    /// Scan one sample.
    pub fn scan(&self, digest: &ApkDigest) -> AvReport {
        let Some((family, sig_count)) = self.db.scan(digest.code_segments()) else {
            // Clean sample: engines almost never false-positive here; a
            // tiny deterministic residue keeps the model honest.
            let mut rank = 0;
            let mut labels = Vec::new();
            for i in 0..ENGINE_COUNT {
                let coin = unit(mix64(md5_key(digest), 0xFA15E ^ i as u64));
                if coin < 0.000_2 {
                    rank += 1;
                    labels.push(format!("Heur.Generic.{i}"));
                }
            }
            return AvReport {
                rank,
                labels,
                matched_family: None,
            };
        };
        // Detectability from the variant marker; fall back to a value
        // implied by how many signatures are present.
        let detectability =
            decode_detectability(digest.code_segments()).unwrap_or(0.05 + 0.03 * sig_count as f64);
        let fam = self.db.family(family);
        let variant_key = mix64(fnv1a64(fam.name.as_bytes()), md5_key(digest));
        let mut rank = 0;
        let mut labels = Vec::new();
        for i in 0..ENGINE_COUNT {
            let p = (detectability * self.sensitivity[i]).min(1.0);
            let coin = unit(mix64(variant_key, 0x0e6e_0000 + i as u64));
            if coin < p {
                rank += 1;
                labels.push(vendor_label(i, fam.name));
            }
        }
        AvReport {
            rank,
            labels,
            matched_family: Some(family),
        }
    }

    /// Scan a batch of digests across `workers` threads.
    ///
    /// [`scan`](Self::scan) is a pure function of the digest, so the batch
    /// is embarrassingly parallel; results come back in input order and are
    /// bit-identical to calling `scan` per digest, regardless of `workers`.
    pub fn scan_batch(&self, digests: &[&ApkDigest], workers: usize) -> Vec<AvReport> {
        marketscope_core::parallel::par_map(workers, digests, |d| self.scan(d))
    }

    /// The signature database in use.
    pub fn db(&self) -> &ThreatDb {
        &self.db
    }
}

impl Default for AvSimulator {
    fn default() -> Self {
        Self::new()
    }
}

fn md5_key(digest: &ApkDigest) -> u64 {
    let mut k = [0u8; 8];
    k.copy_from_slice(&digest.file_md5[..8]);
    u64::from_le_bytes(k)
}

fn unit(h: u64) -> f64 {
    (h % 1_000_000) as f64 / 1_000_000.0
}

/// Vendor-flavoured rendering of a family name, cycling through the label
/// styles real engines use (what AVClass has to normalize away).
pub fn vendor_label(engine: usize, family: &str) -> String {
    let cap = {
        let mut c = family.chars();
        match c.next() {
            Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
            None => String::new(),
        }
    };
    match engine % 5 {
        0 => format!("Trojan.AndroidOS.{cap}.a"),
        1 => format!("Adware/{cap}"),
        2 => format!("Android.{cap}.Gen"),
        3 => format!("PUA:{}", family.to_uppercase()),
        _ => format!("{cap}.variant{}", engine % 7),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::builder::ApkBuilder;
    use marketscope_apk::dex::DexFile;
    use marketscope_apk::manifest::Manifest;
    use marketscope_core::{DeveloperKey, PackageName, VersionCode};
    use marketscope_ecosystem::threat::{detectability_marker, DETECTABILITY_STEPS};
    use std::collections::HashSet;

    fn sample(family: Option<(&str, f64)>, salt: u64) -> ApkDigest {
        let db = ThreatDb::standard();
        let mut dex = DexFile::default();
        dex.push_class("Lcom/s/x/Main;");
        dex.push_method(0x1000 + salt, &[], &[]);
        if let Some((name, d)) = family {
            let fam = db.family_by_name(name).unwrap();
            let sigs = db.signatures(fam);
            let step = ((d * DETECTABILITY_STEPS as f64) as u8).min(DETECTABILITY_STEPS - 1);
            dex.push_class("La1b2/c;");
            for s in &sigs[..6] {
                dex.push_method(*s, &[], &[]);
            }
            dex.push_method(detectability_marker(step), &[], &[]);
        }
        let manifest = Manifest {
            package: PackageName::new("com.s.x").unwrap(),
            version_code: VersionCode(1),
            version_name: "1".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "S".into(),
            permissions: vec![],
            category: "Tools".into(),
            components: vec![],
        };
        let bytes = ApkBuilder::new(manifest, dex)
            .build(DeveloperKey::from_label(&format!("d{salt}")))
            .unwrap();
        ApkDigest::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn clean_samples_have_near_zero_rank() {
        let sim = AvSimulator::new();
        for salt in 0..50 {
            let r = sim.scan(&sample(None, salt));
            assert!(r.rank <= 1, "clean rank {} at salt {salt}", r.rank);
            assert_eq!(r.matched_family, None);
        }
    }

    #[test]
    fn malware_detectability_drives_rank() {
        let sim = AvSimulator::new();
        let mut low_ranks = Vec::new();
        let mut high_ranks = Vec::new();
        for salt in 0..20 {
            low_ranks.push(sim.scan(&sample(Some(("kuguo", 0.08)), salt)).rank);
            high_ranks.push(sim.scan(&sample(Some(("kuguo", 0.5)), salt)).rank);
        }
        let low_avg: f64 = low_ranks.iter().sum::<usize>() as f64 / 20.0;
        let high_avg: f64 = high_ranks.iter().sum::<usize>() as f64 / 20.0;
        assert!(low_avg > 1.0 && low_avg < 10.0, "low avg {low_avg}");
        assert!(high_avg > 20.0 && high_avg < 45.0, "high avg {high_avg}");
    }

    #[test]
    fn benchmark_tier_lands_near_table5_ranks() {
        let sim = AvSimulator::new();
        let r = sim.scan(&sample(Some(("eicar", 0.8)), 1));
        assert!(r.rank >= 40, "eicar rank {}", r.rank);
    }

    #[test]
    fn scan_is_deterministic() {
        let sim = AvSimulator::new();
        let d = sample(Some(("airpush", 0.3)), 7);
        assert_eq!(sim.scan(&d), sim.scan(&d));
    }

    #[test]
    fn labels_come_from_flagging_engines_only() {
        let sim = AvSimulator::new();
        let r = sim.scan(&sample(Some(("dowgin", 0.4)), 3));
        assert_eq!(r.labels.len(), r.rank);
        assert!(r.labels.iter().all(|l| l.to_lowercase().contains("dowgin")));
    }

    #[test]
    fn vendor_labels_vary_by_engine() {
        let styles: HashSet<String> = (0..10).map(|i| vendor_label(i, "kuguo")).collect();
        assert!(styles.len() >= 5, "{styles:?}");
    }
}
