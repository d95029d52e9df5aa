//! # marketscope-loadgen
//!
//! An empty crate. The load-generation harness that lived here is
//! retired: `benchmark/` at the repository root is the one harness the
//! pipeline's performance is measured with.
//!
//! The crate stays only because `benchmark/Cargo.lock` records the
//! `marketscope-report → marketscope-loadgen` dependency edge and this
//! crate's own `[dependencies]`, and cargo rewrites that lock file when
//! either moves. The next change that is allowed to edit `benchmark/`
//! deletes this crate together with the edge and its lock entry.

#![forbid(unsafe_code)]
