//! `apk_codec`: the APK encoder (`World::build_apk`) beside the decoder
//! and digest extractor (`ApkDigest::from_bytes`) over one corpus — the
//! `apk` crate and the `ecosystem` builder in isolation. Reads sit beside
//! writes of the same format, so a decoder gain that taxes the encoder,
//! or the reverse, shows.

use super::{Layer, Rep, Workload};
use crate::harness::{self, InputHash, Recorder};
use marketscope_apk::digest::ApkDigest;
use marketscope_apk::parse::ParsedApk;
use marketscope_apk::zip::ZipArchive;
use marketscope_core::MarketId;
use marketscope_ecosystem::{profile, AppId, World};
use std::hint::black_box;
use std::time::Instant;

const DIVISOR: u32 = 2000;
/// First listings of each market: ~1 000 APKs, ~16 MB; one encode pass
/// takes ~0.3 s and one decode-and-digest pass ~0.55 s here.
const PER_MARKET: usize = 60;

pub struct ApkCodec {
    world: World,
    /// (app, version, obfuscated) of every corpus member.
    builds: Vec<(AppId, u32, bool)>,
    /// The corpus as set-up encoded it, and each member's file MD5.
    corpus: Vec<Vec<u8>>,
    md5: Vec<[u8; 16]>,
    bytes: u64,
    failed: u64,
    /// (encode seconds, decode seconds) of each repetition.
    passes: Vec<(f64, f64)>,
}

impl Workload for ApkCodec {
    fn setup(seed: u64) -> Self {
        let world = super::world(seed, DIVISOR);
        let builds: Vec<(AppId, u32, bool)> = MarketId::ALL
            .iter()
            .flat_map(|&market| {
                let obfuscated = profile(market).requires_obfuscation;
                world
                    .market_listings(market)
                    .iter()
                    .take(PER_MARKET)
                    .map(|id| world.listing(*id))
                    .map(move |l| (l.app, l.version, obfuscated))
                    .collect::<Vec<_>>()
            })
            .collect();
        let corpus: Vec<Vec<u8>> = builds
            .iter()
            .map(|&(app, version, obfuscated)| world.build_apk(app, version, obfuscated))
            .collect();
        let md5 = corpus
            .iter()
            .map(|bytes| {
                ApkDigest::from_bytes(bytes)
                    .expect("a generated APK decodes")
                    .file_md5
            })
            .collect();
        let bytes = corpus.iter().map(|b| b.len() as u64).sum();
        ApkCodec {
            world,
            builds,
            corpus,
            md5,
            bytes,
            failed: 0,
            passes: Vec::new(),
        }
    }

    fn rep(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep {
        let start = Instant::now();
        let (encoded, encode_s) = rec.span("apk.encode_pass", parent, |pass| {
            self.builds
                .iter()
                .map(|&(app, version, obfuscated)| {
                    rec.span("ecosystem.build_apk", pass, |_| {
                        self.world.build_apk(app, version, obfuscated)
                    })
                    .0
                })
                .collect::<Vec<_>>()
        });
        let (digests, decode_s) = rec.span("apk.decode_pass", parent, |pass| {
            encoded
                .iter()
                .map(|bytes| {
                    rec.span("apk.digest_from_bytes", pass, |_| {
                        ApkDigest::from_bytes(bytes)
                    })
                    .0
                })
                .collect::<Vec<_>>()
        });
        let wall_s = start.elapsed().as_secs_f64();
        // A repetition's APK must decode, and to the very bytes set-up
        // saw: the digest carries the file's MD5.
        let failed = digests
            .iter()
            .zip(&self.md5)
            .filter(|(digest, md5)| digest.as_ref().map_or(true, |d| d.file_md5 != **md5))
            .count() as u64;
        self.failed += failed;
        self.passes.push((encode_s, decode_s));
        Rep {
            wall_s,
            ops: self.builds.len() as u64 - failed,
            attempted: 2 * self.builds.len() as u64,
            failed,
        }
    }

    fn check(&mut self) -> Vec<String> {
        if self.failed > 0 {
            return vec![format!(
                "{} APKs failed to decode or changed bytes between passes",
                self.failed
            )];
        }
        Vec::new()
    }

    fn schedule_hash(&self) -> f64 {
        let mut hash = InputHash::new();
        for md5 in &self.md5 {
            hash.bytes(md5);
        }
        hash.finish()
    }

    fn layers(&mut self, rec: &Recorder, parent: Option<usize>, _: f64, _: f64) -> Vec<Layer> {
        let mb = self.bytes as f64 / 1e6;
        let apps = self.corpus.len() as f64;
        // One pass over the corpus per layer, three times, median.
        let pass = |name: &'static str, f: &dyn Fn()| {
            let times: Vec<f64> = (0..3).map(|_| rec.span(name, parent, |_| f()).1).collect();
            harness::median(&times)
        };
        let zip_parse_s = pass("apk.zip_parse", &|| {
            for bytes in &self.corpus {
                black_box(ZipArchive::parse(black_box(bytes)).expect("corpus member is a ZIP"));
            }
        });
        let parse_s = pass("apk.parse", &|| {
            for bytes in &self.corpus {
                black_box(ParsedApk::parse(black_box(bytes)).expect("corpus member parses"));
            }
        });
        let parsed: Vec<ParsedApk> = self
            .corpus
            .iter()
            .map(|b| ParsedApk::parse(b).expect("corpus member parses"))
            .collect();
        let digest_s = pass("apk.digest", &|| {
            for apk in &parsed {
                black_box(ApkDigest::from_parsed(black_box(apk)));
            }
        });
        let archives: Vec<ZipArchive> = self
            .corpus
            .iter()
            .map(|b| ZipArchive::parse(b).expect("corpus member is a ZIP"))
            .collect();
        let zip_write_s = pass("apk.zip_write", &|| {
            for archive in &archives {
                black_box(black_box(archive).to_bytes());
            }
        });
        let encode_s = harness::median(&self.passes.iter().map(|p| p.0).collect::<Vec<_>>());
        let decode_s = harness::median(&self.passes.iter().map(|p| p.1).collect::<Vec<_>>());
        vec![
            ("apk.encode_mb_per_s", mb / encode_s),
            ("apk.decode_mb_per_s", mb / decode_s),
            ("ecosystem.build_apk_us_per_app", encode_s * 1e6 / apps),
            ("apk.zip_parse_mb_per_s", mb / zip_parse_s),
            ("apk.parse_mb_per_s", mb / parse_s),
            ("apk.digest_us_per_app", digest_s * 1e6 / apps),
            ("apk.zip_write_mb_per_s", mb / zip_write_s),
            ("apk.corpus_bytes", self.bytes as f64),
            ("apk.corpus_apps", apps),
        ]
    }
}
