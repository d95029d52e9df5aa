//! # marketscope-apk
//!
//! A from-scratch Android-package substrate: enough of the APK container
//! format family to let every analysis in the paper run over *real parsed
//! bytes* rather than oracle structs.
//!
//! An APK here is a genuine ZIP archive (stored entries, CRC-32-checked,
//! central directory + EOCD) containing:
//!
//! * `AndroidManifest.xml` — a compact binary manifest ([`manifest`],
//!   AXML-inspired: magic + string pool + typed attribute records) carrying
//!   the package name, version code/name, min/target SDK, declared
//!   permissions and the store category hint;
//! * `classes.dex` — a DEX-inspired code container ([`dex`]): a string
//!   pool of class names plus per-method lists of framework **API-call
//!   ids** (the 45k-dimension feature space the paper's WuKong-based clone
//!   detector uses), per-method code-segment hashes and invocation edges,
//!   held in memory as flat class and method tables;
//! * `META-INF/CERT.SF` — the developer signature ([`cert`]): a key
//!   digest plus a MAC over the archive payload, giving the same equality
//!   semantics as the paper's `ApkSigner`-extracted signatures (a
//!   repackager without the key cannot keep the original identity);
//! * optional channel files (`META-INF/*channel*`) — the store-injected
//!   metadata the paper found to be the *only* difference between many
//!   same-version listings (Section 5.3).
//!
//! [`builder::ApkBuilder`] produces archives; [`parse::ParsedApk`] is the
//! safe parser every downstream analysis consumes. All parsers are total:
//! malformed input yields typed errors, never panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apicalls;
pub mod builder;
pub mod cert;
pub mod dex;
pub mod digest;
pub mod error;
pub mod manifest;
pub mod parse;
pub mod permmap;
pub mod reach;
pub mod taint;
pub mod zip;

pub use apicalls::{ApiCallId, API_DIMENSIONS};
pub use builder::ApkBuilder;
pub use cert::Signature;
pub use dex::{ClassView, DexFile, MethodRef, MethodView};
pub use digest::{ApiCount, ApkDigest, FeatureTable, PackageFeature};
pub use error::ApkError;
pub use manifest::{Component, ComponentKind, Manifest};
pub use parse::ParsedApk;
pub use permmap::{Permission, PermissionMap, SinkClass, SourceClass};
pub use reach::{CallGraph, ReachStats, Reachability};
pub use taint::TaintFlow;
pub use zip::{ZipArchive, ZipEntry};

/// The maximal runs of `items` whose members `same` relates to the run's
/// first item — `slice::chunk_by` for an equivalence, within the MSRV.
pub(crate) fn runs<'a, T>(
    mut items: &'a [T],
    same: impl Fn(&T, &T) -> bool + 'a,
) -> impl Iterator<Item = &'a [T]> + 'a {
    std::iter::from_fn(move || {
        let first = items.first()?;
        let len = items
            .iter()
            .position(|x| !same(first, x))
            .unwrap_or(items.len());
        let (run, rest) = items.split_at(len);
        items = rest;
        Some(run)
    })
}
