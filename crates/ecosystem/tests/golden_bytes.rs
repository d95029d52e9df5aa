//! Generator bytes are pinned: one FNV-1a 64 over a fixed corpus of
//! `World::build_apk` outputs, each followed by its `ApkDigest` `Debug`
//! text. A change to how the generator lays out, names, wires or encodes
//! an app's classes, or to what the digest reads back, moves the value.

use marketscope_apk::digest::ApkDigest;
use marketscope_core::hash::fnv1a64_update;
use marketscope_core::MarketId;
use marketscope_ecosystem::{generate, profile, Scale, WorldConfig};

/// FNV-1a 64 over seeds {0x15172018, 7, 99} × 17 markets × the first
/// `per_market` listings at `divisor`, each APK built plain or packed as
/// its market requires; returns (hash, APKs, APK bytes).
fn corpus_fnv(divisor: u32, per_market: usize) -> (u64, usize, usize) {
    let (mut state, mut apps, mut bytes) = (0xcbf2_9ce4_8422_2325u64, 0, 0);
    for seed in [0x1517_2018, 7, 99] {
        let world = generate(WorldConfig {
            seed,
            scale: Scale { divisor },
        });
        for market in MarketId::ALL {
            let obfuscated = profile(market).requires_obfuscation;
            for id in world.market_listings(market).iter().take(per_market) {
                let listing = world.listing(*id);
                let apk = world.build_apk(listing.app, listing.version, obfuscated);
                let digest = ApkDigest::from_bytes(&apk).expect("a generated APK decodes");
                state = fnv1a64_update(state, &apk);
                state = fnv1a64_update(state, format!("{digest:?}").as_bytes());
                apps += 1;
                bytes += apk.len();
            }
        }
    }
    (state, apps, bytes)
}

/// The corpus `digest_equivalence` digests (÷40 000, four listings per
/// market).
#[test]
fn generator_bytes_and_digests_are_pinned() {
    assert_eq!(
        corpus_fnv(40_000, 4),
        (0x127e_d2dd_fef1_093b, 204, 3_334_181)
    );
}

/// The larger corpus the APK codec ledger quotes (÷2 000, sixty listings
/// per market): run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "2 592 APKs; seconds in release, minutes in debug"]
fn ledger_corpus_is_pinned() {
    assert_eq!(
        corpus_fnv(2_000, 60),
        (0xf9bb_b9fc_9473_e068, 2_592, 43_894_679)
    );
}
