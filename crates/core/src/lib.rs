//! # marketscope-core
//!
//! Foundation crate for the *marketscope* workspace: a Rust reproduction of
//! the measurement pipeline from *"Beyond Google Play: A Large-Scale
//! Comparative Study of Chinese Android App Markets"* (Wang et al.,
//! IMC 2018).
//!
//! This crate holds the vocabulary shared by every other crate:
//!
//! * identifiers for apps, packages, developers and markets ([`ids`],
//!   [`market`]);
//! * the consolidated 22-entry app-category taxonomy used by the paper to
//!   compare stores with incompatible native taxonomies ([`category`]);
//! * Google-Play-style install ranges and the normalization the paper
//!   applies to raw Chinese-market download counters ([`installs`]);
//! * a tiny simulated calendar ([`time`]);
//! * self-contained hashing (CRC-32, FNV-1a, MD5) used for APK identity and
//!   content digests ([`hash`]);
//! * a small, strict JSON value/parser/serializer used as the wire format
//!   between simulated market servers and the crawler ([`json`]);
//! * deterministic, seedable randomness with the heavy-tailed samplers the
//!   synthetic-world generator needs ([`rng`]);
//! * the seeded case runner and generators every property suite in the
//!   workspace runs on ([`propcheck`]).
//!
//! Everything in the workspace is deterministic given a single `u64` seed;
//! no module here reads the wall clock or any ambient state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod error;
pub mod hash;
pub mod ids;
pub mod installs;
pub mod json;
pub mod market;
pub mod parallel;
pub mod propcheck;
pub mod rng;
pub mod time;

pub use category::Category;
pub use error::CoreError;
pub use ids::{AppKey, DeveloperKey, PackageName, VersionCode};
pub use installs::InstallRange;
pub use market::{MarketId, MarketKind};
pub use time::SimDate;
