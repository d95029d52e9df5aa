//! AVClass-style family labeling (Sebastián et al., RAID'16).
//!
//! Engines disagree on naming: `Trojan.AndroidOS.Kuguo.a`, `Adware/Kuguo`
//! and `PUA:KUGUO` are one family. AVClass normalizes labels into tokens,
//! strips generic/vendor noise, and takes a plurality vote across engines.

use std::collections::HashMap;

/// Tokens that carry no family information.
const GENERIC_TOKENS: [&str; 16] = [
    "trojan",
    "adware",
    "android",
    "androidos",
    "os",
    "gen",
    "generic",
    "pua",
    "heur",
    "malware",
    "riskware",
    "agent",
    "win32",
    "a",
    "b",
    "variant",
];

/// Normalize one engine label into candidate family tokens.
pub(crate) fn normalize_label(label: &str) -> Vec<String> {
    label
        .split(|c: char| !c.is_ascii_alphanumeric())
        .map(|t| t.to_ascii_lowercase())
        .filter(|t| t.len() >= 3)
        .filter(|t| !GENERIC_TOKENS.contains(&t.as_str()))
        .filter(|t| !t.starts_with("variant"))
        .filter(|t| !t.chars().all(|c| c.is_ascii_digit()))
        .collect()
}

/// Plurality vote over all engines' labels; `None` when no token
/// survives normalization.
pub fn plurality_family(labels: &[String]) -> Option<String> {
    let mut votes: HashMap<String, usize> = HashMap::new();
    for label in labels {
        // One vote per engine per token (dedup within a label).
        let mut tokens = normalize_label(label);
        tokens.sort();
        tokens.dedup();
        for t in tokens {
            *votes.entry(t).or_insert(0) += 1;
        }
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(fam, _)| fam)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_strips_noise() {
        assert_eq!(normalize_label("Trojan.AndroidOS.Kuguo.a"), vec!["kuguo"]);
        assert_eq!(normalize_label("Adware/Dowgin"), vec!["dowgin"]);
        assert_eq!(normalize_label("PUA:KUGUO"), vec!["kuguo"]);
        assert_eq!(normalize_label("Android.Airpush.Gen"), vec!["airpush"]);
        assert!(normalize_label("Heur.Generic.17").is_empty());
    }

    #[test]
    fn plurality_voting() {
        let labels = vec![
            "Trojan.AndroidOS.Kuguo.a".to_owned(),
            "Adware/Kuguo".to_owned(),
            "Android.Dowgin.Gen".to_owned(),
            "PUA:KUGUO".to_owned(),
        ];
        assert_eq!(plurality_family(&labels).as_deref(), Some("kuguo"));
    }

    #[test]
    fn vote_ties_break_deterministically() {
        let labels = vec!["Adware/Aaa".to_owned(), "Adware/Bbb".to_owned()];
        // One vote each; the tiebreak must be stable across runs.
        let first = plurality_family(&labels);
        for _ in 0..10 {
            assert_eq!(plurality_family(&labels), first);
        }
        assert_eq!(first.as_deref(), Some("aaa"));
    }

    #[test]
    fn empty_and_generic_only_labels_yield_none() {
        assert_eq!(plurality_family(&[]), None);
        assert_eq!(plurality_family(&["Heur.Generic.3".to_owned()]), None);
    }

    #[test]
    fn all_engine_label_styles_normalize_to_family() {
        for i in 0..10 {
            let label = crate::av::vendor_label(i, "ramnit");
            let tokens = normalize_label(&label);
            assert!(
                tokens.contains(&"ramnit".to_owned()),
                "{label} → {tokens:?}"
            );
        }
    }
}
