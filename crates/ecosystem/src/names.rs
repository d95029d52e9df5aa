//! Name pools: app labels, package names, developer names.
//!
//! Figure 8(b) shows ~22% of apps sharing a display name with at least one
//! other app. That comes from two very different sources that the fake-app
//! heuristic must be able to tell apart: *generic* names that are common
//! and legitimate ("Flashlight", "Calculator"), and *mimicked* names where
//! a fake copies a popular app's label. The pools here feed both.

use marketscope_core::rng::DetRng;

/// Generic app names that legitimately recur across unrelated apps
/// (the paper's examples: Flashlight, Calculator, Wallpaper).
pub(crate) const GENERIC_NAMES: [&str; 24] = [
    "Flashlight",
    "Calculator",
    "Wallpaper",
    "Compass",
    "Notes",
    "Weather",
    "Alarm Clock",
    "File Manager",
    "Music Player",
    "Video Player",
    "Camera",
    "Gallery",
    "Cleaner",
    "Battery Saver",
    "QR Scanner",
    "Browser",
    "Keyboard",
    "Recorder",
    "Timer",
    "Translator",
    "Radio",
    "Stopwatch",
    "Launcher",
    "Ringtones",
];

const ADJECTIVES: [&str; 28] = [
    "Super", "Happy", "Smart", "Quick", "Magic", "Golden", "Lucky", "Tiny", "Mega", "Ultra",
    "Cloud", "Star", "Dragon", "Panda", "Phoenix", "Jade", "Silver", "Rapid", "Bright", "Cosmic",
    "Pixel", "Turbo", "Neon", "Crystal", "Bamboo", "Lotus", "Ocean", "Thunder",
];

const NOUNS: [&str; 30] = [
    "Runner", "Farm", "Chef", "Market", "Diary", "Quest", "Saga", "Wallet", "Reader", "Studio",
    "Garden", "Racer", "Puzzle", "Chess", "Poker", "Taxi", "Shop", "Chat", "News", "Maps",
    "Fitness", "Doctor", "Bank", "Karaoke", "Comics", "Academy", "Kitchen", "Castle", "Journey",
    "Arena",
];

const DOMAIN_WORDS: [&str; 26] = [
    "tech",
    "soft",
    "games",
    "mobi",
    "apps",
    "studio",
    "lab",
    "works",
    "media",
    "net",
    "digital",
    "wang",
    "zhang",
    "li",
    "liu",
    "chen",
    "yang",
    "huang",
    "zhao",
    "wu",
    "interactive",
    "fun",
    "cloud",
    "data",
    "smart",
    "play",
];

/// Render a counter as a short base-36 tag ("2F", "Z9", ...).
fn base36(mut n: u64) -> String {
    const DIGITS: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let mut out = Vec::new();
    loop {
        out.push(DIGITS[(n % 36) as usize]);
        n /= 36;
        if n == 0 {
            break;
        }
    }
    out.reverse();
    String::from_utf8(out).unwrap_or_else(|_| unreachable!("DIGITS are ascii"))
}

/// Chinese-flavoured label fragments for ecosystem colour (the crawler and
/// JSON layer must survive non-ASCII metadata).
const CN_LABELS: [&str; 8] = [
    "快乐", "音乐", "视频", "阅读", "购物", "游戏", "天气", "相机",
];

/// Generates unique package names and plausible labels.
#[derive(Debug)]
pub(crate) struct NameForge {
    rng: DetRng,
    counter: u64,
}

impl NameForge {
    /// A forge drawing from `rng`.
    pub(crate) fn new(rng: DetRng) -> Self {
        NameForge { rng, counter: 0 }
    }

    /// A fresh, globally unique package name like `com.luckysoft.runner7`.
    pub(crate) fn package(&mut self) -> String {
        self.counter += 1;
        let d1 = self.rng.pick(&DOMAIN_WORDS);
        let d2 = self.rng.pick(&DOMAIN_WORDS);
        let n = self.rng.pick(&NOUNS).to_ascii_lowercase();
        let tld = if self.rng.chance(0.55) {
            "com"
        } else if self.rng.chance(0.5) {
            "cn"
        } else {
            "org"
        };
        format!("{tld}.{d1}{d2}.{n}{}", self.counter)
    }

    /// A fresh package name shaped like a repackager's rename of
    /// `original` (keeps the final segment, swaps the vendor domain).
    pub(crate) fn repackage_of(&mut self, original: &str) -> String {
        self.counter += 1;
        let last = original.rsplit('.').next().unwrap_or("app");
        let d = self.rng.pick(&DOMAIN_WORDS);
        format!("com.{d}{}.{last}", self.counter)
    }

    /// A display label. With probability `generic_p`, one of the generic
    /// recurring names (these legitimately collide across apps, feeding
    /// Figure 8(b)'s shared-name share); otherwise a *unique* fresh name —
    /// accidental full-name collisions between unrelated branded apps are
    /// rare in practice, and planted fakes supply the mimicry.
    pub(crate) fn label(&mut self, generic_p: f64) -> String {
        if self.rng.chance(generic_p) {
            return (*self.rng.pick(&GENERIC_NAMES)).to_owned();
        }
        self.counter += 1;
        let a = self.rng.pick(&ADJECTIVES);
        let n = self.rng.pick(&NOUNS);
        let tag = base36(self.counter);
        if self.rng.chance(0.12) {
            format!("{a} {n} {} {tag}", self.rng.pick(&CN_LABELS))
        } else {
            format!("{a} {n} {tag}")
        }
    }

    /// A developer display name.
    pub(crate) fn developer_name(&mut self) -> String {
        self.counter += 1;
        let d = self.rng.pick(&DOMAIN_WORDS);
        let n = self.rng.pick(&NOUNS);
        format!("{}{} {}", d[..1].to_ascii_uppercase(), &d[1..], n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_core::PackageName;

    #[test]
    fn packages_are_unique_and_valid() {
        let mut f = NameForge::new(DetRng::new(5));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let p = f.package();
            assert!(PackageName::is_valid(&p), "{p}");
            assert!(seen.insert(p), "duplicate package");
        }
    }

    #[test]
    fn repackage_keeps_last_segment() {
        let mut f = NameForge::new(DetRng::new(5));
        let p = f.repackage_of("com.kugou.android");
        assert!(PackageName::is_valid(&p), "{p}");
        assert!(p.ends_with(".android"), "{p}");
        assert!(!p.starts_with("com.kugou."), "{p}");
    }

    #[test]
    fn labels_mix_generic_and_fresh() {
        let mut f = NameForge::new(DetRng::new(9));
        let labels: Vec<String> = (0..500).map(|_| f.label(0.2)).collect();
        let generic = labels
            .iter()
            .filter(|l| GENERIC_NAMES.contains(&l.as_str()))
            .count();
        assert!(generic > 50 && generic < 200, "generic count {generic}");
    }

    #[test]
    fn forge_is_deterministic() {
        let mut a = NameForge::new(DetRng::new(1));
        let mut b = NameForge::new(DetRng::new(1));
        for _ in 0..50 {
            assert_eq!(a.package(), b.package());
            assert_eq!(a.label(0.3), b.label(0.3));
        }
    }
}
