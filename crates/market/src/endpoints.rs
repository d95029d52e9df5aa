//! JSON encoding of store metadata.
//!
//! Wire format is deliberately market-flavoured: Google Play reports an
//! `installs` *range string* ("10,000 - 100,000"), Chinese stores report a
//! raw `downloads` counter (or nothing at all for Xiaomi/App China); every
//! store reports name, package, version, category, rating, update date and
//! developer display name. The crawler has to normalize — exactly the
//! chore Section 4.2 describes.

use marketscope_core::json::Json;
use marketscope_core::{InstallRange, MarketId};
use marketscope_ecosystem::{profile, Listing, World};

/// Encode one listing's store-visible metadata.
pub fn listing_json(world: &World, listing: &Listing) -> Json {
    let app = world.app(listing.app);
    let dev = world.developer(app.developer);
    let p = profile(listing.market);
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("package", Json::from(app.package.as_str())),
        ("name", Json::from(app.label.as_str())),
        ("version_code", Json::from(listing.version as u64)),
        (
            "version_name",
            Json::from(format!(
                "{}.{}.0",
                listing.version / 10,
                listing.version % 10
            )),
        ),
        ("category", Json::from(listing.raw_category.as_str())),
        ("rating", Json::from(listing.rating)),
        ("updated", Json::from(listing.updated.to_string())),
        ("developer", Json::from(dev.display_name.as_str())),
    ];
    if p.reports_installs {
        if let Some(d) = listing.downloads {
            if listing.market == MarketId::GooglePlay {
                fields.push(("installs", Json::from(install_range_string(d))));
            } else {
                fields.push(("downloads", Json::from(d)));
            }
        }
    }
    Json::obj(fields)
}

/// Google Play's range rendering of an install counter. Above 1M the
/// real store keeps binning (1M–5M, 5M–10M, 10M–50M, ...); reproducing
/// that keeps aggregate-download estimates from collapsing to 1M per
/// blockbuster.
pub fn install_range_string(installs: u64) -> String {
    if installs >= 1_000_000 {
        // Lower bound = largest 1/5 × 10^k step at or below the value.
        let mut lo: u64 = 1_000_000;
        loop {
            let next = if lo.to_string().starts_with('1') {
                lo * 5
            } else {
                lo * 2
            };
            if next > installs {
                break;
            }
            lo = next;
        }
        return format!("{}+", group(lo));
    }
    let r = InstallRange::from_count(installs);
    match r.upper_bound() {
        Some(hi) => format!("{} - {}", group(r.lower_bound()), group(hi)),
        None => format!("{}+", group(r.lower_bound())),
    }
}

fn group(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        let remaining = s.len() - i;
        if i > 0 && remaining % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_strings_match_google_play_style() {
        assert_eq!(install_range_string(75_123), "10,000 - 100,000");
        assert_eq!(install_range_string(5), "0 - 10");
        assert_eq!(install_range_string(2_000_000), "1,000,000+");
        assert_eq!(install_range_string(7_000_000), "5,000,000+");
        assert_eq!(install_range_string(60_000_000), "50,000,000+");
        assert_eq!(install_range_string(1_500_000_000), "1,000,000,000+");
    }

    #[test]
    fn grouping() {
        assert_eq!(group(0), "0");
        assert_eq!(group(1_000), "1,000");
        assert_eq!(group(1_234_567), "1,234,567");
    }
}
