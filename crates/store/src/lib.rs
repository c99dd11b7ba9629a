//! Persistent plan store: a versioned binary serialization for
//! [`CompiledProgram`](tssa_pipelines::CompiledProgram) and an on-disk
//! cache so compiled plans survive process restarts.
//!
//! The paper's pipeline amortizes an expensive compile across many
//! executions; without persistence that amortization resets on every
//! deploy or crash. This crate closes the loop:
//!
//! - [`bytes`] — little-endian encode/decode primitives (also reused by the
//!   binary tensor wire codec in `tssa-net`).
//! - [`format`] — the plan file format: magic + version + content hash +
//!   roster fingerprint + coarse class hash + checksum header, payload
//!   carrying the pipeline's name, the transformed graph as textual IR and
//!   the compile statistics. The
//!   [`ExecConfig`](tssa_backend::ExecConfig) is the named pipeline's, so
//!   the file does not store it.
//! - [`store`] — [`PlanStore`]: a cache directory keyed by content hash,
//!   reads that treat every damaged or stale entry as an evict-and-miss,
//!   and an async writer thread so saves never block serving.
//!
//! Invalidation is two-level: the *content hash* (what program, which
//! pipeline, which shapes) names the entry, and the *roster fingerprint*
//! (which passes the compiler would run today) guards it — if the optimizer
//! changed since the entry was written, the entry is stale and recompiled.
//!
//! # Examples
//!
//! ```
//! use tssa_pipelines::{Pipeline, TensorSsa};
//! use tssa_store::{roster_fingerprint, PlanStore};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = tssa_frontend::compile(
//!     "def f(x: Tensor):
//!          y = x.clone()
//!          y[0] = relu(y[0])
//!          return y
//! ")?;
//! let pipeline = TensorSsa::default();
//! let plan = Arc::new(pipeline.compile(&g));
//! let fp = roster_fingerprint(pipeline.roster().iter().copied());
//!
//! let dir = std::env::temp_dir().join("tssa-store-doc");
//! let store = PlanStore::open(&dir)?;
//! store.save_async_with(0xF00D, fp, Arc::clone(&plan), 0);
//! store.flush();
//! let warm = store.load(0xF00D, fp).expect("intact entry");
//! assert_eq!(warm.pipeline, "TensorSSA");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod bytes;
pub mod format;
pub mod store;

pub use format::{
    peek_header, Expected, PlanHeader, StoreError, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use store::{PlanStore, StoreStats};

/// FNV-1a over a byte slice — the repo's standard content hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_parts([bytes])
}

/// FNV-1a over the concatenation of `parts`, without building it.
fn fnv64_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.into_iter().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a pass roster: FNV-1a over the pass names in order, with
/// a separator byte so `["a", "bc"]` and `["ab", "c"]` differ.
pub fn roster_fingerprint<'a>(names: impl IntoIterator<Item = &'a str>) -> u64 {
    fnv64_parts(
        names
            .into_iter()
            .flat_map(|name| [name.as_bytes(), &[0xFF]]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_fingerprint_separates_boundaries() {
        assert_ne!(
            roster_fingerprint(["a", "bc"]),
            roster_fingerprint(["ab", "c"])
        );
        assert_ne!(roster_fingerprint(["a"]), roster_fingerprint(["a", "a"]));
        assert_eq!(
            roster_fingerprint(["cse", "dce"]),
            roster_fingerprint(vec!["cse", "dce"])
        );
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the published reference implementation.
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64_parts([&b"ab"[..], b"", b"c"]), fnv64(b"abc"));
        assert_eq!(roster_fingerprint(["a"]), fnv64(b"a\xFF"));
    }
}
