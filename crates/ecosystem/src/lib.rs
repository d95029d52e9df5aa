//! # marketscope-ecosystem
//!
//! The synthetic Android ecosystem standing in for the paper's 6.2 M-app
//! crawl. A single seed expands into developers, apps, per-market listings
//! and deterministic APK bytes, with every per-market ground truth the
//! paper measured planted at a configurable scale:
//!
//! * catalog sizes, developer counts and features (Table 1) — [`profiles`];
//! * download, rating, release-date and min-SDK distributions
//!   (Figures 2, 3, 4, 6);
//! * the third-party library catalog with its Google-Play vs Chinese-market
//!   adoption split (Table 2, Figure 5) — [`libs`];
//! * publishing dynamics: single/multi-store apps, developer market
//!   spread, outdated versions (Figures 7, 8, 9);
//! * fakes, signature clones, code clones (Table 3, Figure 10), malware
//!   families and AV detectability (Tables 4, 5; Figure 12) — [`threat`];
//! * second-crawl removal behaviour (Table 6).
//!
//! The analyses in the downstream crates never look at this ground truth —
//! they work from crawled bytes; the planted values exist so the pipeline's
//! *recovered* tables can be validated against what was planted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod libs;
pub mod names;
pub mod profiles;
pub mod threat;
pub mod world;

pub use generate::{generate, WorldConfig};
pub use libs::{LibCatalog, LibCategory, LibId, LibUse};
pub use profiles::{profile, MarketProfile, Scale};
pub use threat::{Family, FamilyId, Infection, ThreatDb, ThreatTier};
pub use world::{
    App, AppId, DevId, Developer, GroundTruth, Listing, ListingId, PlantedLeak, Provenance, World,
};
