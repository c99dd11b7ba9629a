//! The versioned binary plan file format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TSSAPLAN"
//! 8       4     format version (FORMAT_VERSION)
//! 12      8     content hash  — the cache key the file is named by
//! 20      8     roster fingerprint — FNV-1a over the pass roster
//! 28      8     coarse class hash — the class identity with every pin
//!               erased (rank + dtype only; 0 when not class-eligible), so
//!               a warm restart can find the class plan for a *new* concrete
//!               shape without decoding every payload
//! 36      8     payload length in bytes
//! 44      8     checksum — FNV-1a over header bytes [0, 44) ++ payload,
//!               so a flipped bit anywhere in the file is detected
//! 52      …     payload
//! ```
//!
//! The header is self-describing: every field needed to decide whether the
//! payload is worth decoding (right format? right program? right pass
//! roster? intact?) sits at a fixed offset before the payload. The payload
//! serializes the [`CompiledProgram`]: the pipeline's name, conversion
//! stats, fusion/parallel counts, the transformed graph as textual IR — the
//! printer/parser round-trip is the graph codec — and the optional
//! [`ShapeSignature`] with its constraints as typed records. The
//! [`ExecConfig`](tssa_backend::ExecConfig) is not stored: it is a constant
//! of the pipeline, which decode looks up by name with
//! [`PipelineKind::from_name`].

use crate::bytes::{ByteReader, ByteWriter, Truncated};
use crate::fnv64_parts;
use std::fmt;
use tssa_core::ConversionStats;
use tssa_ir::{parse_graph, Constraint, DimClass, DimVar, ShapeSignature, SymDim, SymExpr};
use tssa_pipelines::{CompiledProgram, PipelineKind};

/// File magic: the first eight bytes of every plan file.
pub const MAGIC: [u8; 8] = *b"TSSAPLAN";

/// Current format version. Bump on any layout change; readers reject other
/// versions (a version-mismatched file is a cache miss, never a crash).
/// v2: payload carries the optional shape signature; header flags carry its
/// polymorphic-dim count.
/// v3: header carries the class + coarse class hashes, the payload carries
/// the admitted-shape census, and the checksum covers the header prefix as
/// well as the payload.
/// v4: the `ExecConfig` record loses its machine-local thread count.
/// v5: the payload loses the admitted-shape census (per-bucket hits live in
/// `tssa_plan_class_hits_total` only, so serving a request never rewrites a
/// plan file). A v4 file is a stale miss: evicted, then recompiled.
/// v6: the signature's constraints are typed records (a kind byte, 0 for
/// `=` and 1 for `>=`, then both sides as affine expressions) instead of
/// rendered strings, so admission never parses text. A v5 file is a stale
/// miss: evicted, then recompiled.
/// v7: the payload names the pipeline and stores neither its `ExecConfig`
/// (a constant of the pipeline, looked up by name on decode) nor the pass
/// names; the header loses the flags word and the class hash, which no
/// reader used. A v6 file is a stale miss: evicted, then recompiled.
pub const FORMAT_VERSION: u32 = 7;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 52;

/// Byte length of the checksummed header prefix (everything before the
/// checksum field itself).
const CHECKSUMMED_PREFIX: usize = 44;

/// Why a plan file could not be decoded. Every variant is a recoverable
/// cache miss for the store: evict the file and recompile.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error reading or writing the entry.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a plan file.
    BadMagic,
    /// The file ends before a declared field or the declared payload length.
    Truncated(Truncated),
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The payload checksum does not match — bit rot or a torn write.
    ChecksumMismatch,
    /// The header's roster fingerprint differs from the live pipeline's pass
    /// roster — the plan was compiled by a different optimizer.
    RosterMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the live roster.
        expected: u64,
    },
    /// The header's content hash differs from the requested key — the file
    /// holds a different program.
    KeyMismatch {
        /// Hash found in the header.
        found: u64,
        /// Hash the caller asked for.
        expected: u64,
    },
    /// The payload is structurally invalid (unknown pipeline name,
    /// unparseable graph text).
    Parse(String),
}

impl StoreError {
    /// Short stable kind label for metrics
    /// (`tssa_plan_cache_disk_*_total` counters bucket on it).
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io(_) => "io",
            StoreError::BadMagic => "bad_magic",
            StoreError::Truncated(_) => "truncated",
            StoreError::VersionMismatch { .. } => "version",
            StoreError::ChecksumMismatch => "checksum",
            StoreError::RosterMismatch { .. } => "roster",
            StoreError::KeyMismatch { .. } => "key",
            StoreError::Parse(_) => "parse",
        }
    }

    /// True for entries that are stale (written by a different compiler or
    /// format revision) rather than damaged.
    pub fn is_stale(&self) -> bool {
        matches!(
            self,
            StoreError::VersionMismatch { .. }
                | StoreError::RosterMismatch { .. }
                | StoreError::KeyMismatch { .. }
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "plan store i/o: {e}"),
            StoreError::BadMagic => write!(f, "not a plan file (bad magic)"),
            StoreError::Truncated(t) => write!(f, "corrupt plan file: {t}"),
            StoreError::VersionMismatch { found, expected } => {
                write!(f, "plan format version {found}, reader expects {expected}")
            }
            StoreError::ChecksumMismatch => write!(f, "plan payload checksum mismatch"),
            StoreError::RosterMismatch { found, expected } => write!(
                f,
                "plan pass roster {found:#018x} does not match live roster {expected:#018x}"
            ),
            StoreError::KeyMismatch { found, expected } => write!(
                f,
                "plan content hash {found:#018x} does not match requested {expected:#018x}"
            ),
            StoreError::Parse(msg) => write!(f, "plan payload invalid: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<Truncated> for StoreError {
    fn from(t: Truncated) -> StoreError {
        StoreError::Truncated(t)
    }
}

/// What the reader requires of a file before decoding its payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    /// Required content hash (the cache key), if any.
    pub content_hash: Option<u64>,
    /// Required roster fingerprint of the live pipeline, if any.
    pub roster_fingerprint: Option<u64>,
}

/// The fixed-size header of a plan file, readable without decoding (or
/// checksumming) the payload — the cheap surface ops tooling and the
/// serving layer's cache reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanHeader {
    /// Format version the file was written with.
    pub version: u32,
    /// Content hash (the cache key).
    pub content_hash: u64,
    /// Pass-roster fingerprint of the compiling pipeline.
    pub roster_fingerprint: u64,
    /// Coarse (rank + dtype) class hash (0 when not class-eligible). A warm
    /// restart scans headers for this value to find the class plan serving
    /// a concrete shape it has never stored exactly.
    pub coarse_hash: u64,
    /// Declared payload length in bytes.
    pub payload_len: u64,
}

/// Read just the header of a plan file image. Validates magic only — the
/// caller sees version/fingerprints and decides what to do.
///
/// # Errors
///
/// [`StoreError::BadMagic`] or [`StoreError::Truncated`].
pub fn peek_header(bytes: &[u8]) -> Result<PlanHeader, StoreError> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(8, "magic")? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    Ok(PlanHeader {
        version: r.get_u32("version")?,
        content_hash: r.get_u64("content hash")?,
        roster_fingerprint: r.get_u64("roster fingerprint")?,
        coarse_hash: r.get_u64("coarse class hash")?,
        payload_len: r.get_u64("payload length")?,
    })
}

fn put_expr(w: &mut ByteWriter, e: &SymExpr) {
    w.put_i64(e.constant_term());
    w.put_u32(e.terms().len() as u32);
    for &(v, c) in e.terms() {
        w.put_u32(v.input);
        w.put_u32(v.dim);
        w.put_i64(c);
    }
}

fn get_expr(p: &mut ByteReader<'_>) -> Result<SymExpr, StoreError> {
    let c0 = p.get_i64("expr constant")?;
    let n = p.get_u32("expr term count")? as usize;
    let mut terms = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let input = p.get_u32("term input")?;
        let dim = p.get_u32("term dim")?;
        let coef = p.get_i64("term coefficient")?;
        terms.push((DimVar { input, dim }, coef));
    }
    SymExpr::from_parts(c0, terms).ok_or_else(|| StoreError::Parse("expr overflows i64".into()))
}

fn put_signature(w: &mut ByteWriter, sig: Option<&ShapeSignature>) {
    let Some(sig) = sig else {
        w.put_u8(0);
        return;
    };
    w.put_u8(1);
    w.put_u32(sig.inputs.len() as u32);
    for classes in &sig.inputs {
        match classes {
            None => w.put_u8(0),
            Some(dims) => {
                w.put_u8(1);
                w.put_u32(dims.len() as u32);
                for c in dims {
                    match c {
                        DimClass::Polymorphic => w.put_u8(0),
                        DimClass::Specialized(n) => {
                            w.put_u8(1);
                            w.put_u64(*n as u64);
                        }
                        DimClass::DataDependent => w.put_u8(2),
                    }
                }
            }
        }
    }
    w.put_u32(sig.outputs.len() as u32);
    for shape in &sig.outputs {
        match shape {
            None => w.put_u8(0),
            Some(dims) => {
                w.put_u8(1);
                w.put_u32(dims.len() as u32);
                for d in dims {
                    match d {
                        SymDim::Known(e) => {
                            w.put_u8(0);
                            put_expr(w, e);
                        }
                        SymDim::Unknown(taint) => {
                            w.put_u8(1);
                            w.put_u32(taint.len() as u32);
                            for v in taint {
                                w.put_u32(v.input);
                                w.put_u32(v.dim);
                            }
                        }
                    }
                }
            }
        }
    }
    w.put_u32(sig.constraints.len() as u32);
    for c in &sig.constraints {
        let (kind, a, b) = match c {
            Constraint::Eq(a, b) => (0, a, b),
            Constraint::Ge(a, b) => (1, a, b),
        };
        w.put_u8(kind);
        put_expr(w, a);
        put_expr(w, b);
    }
}

fn get_signature(p: &mut ByteReader<'_>) -> Result<Option<ShapeSignature>, StoreError> {
    if p.get_u8("signature present")? == 0 {
        return Ok(None);
    }
    let n_inputs = p.get_u32("signature input count")? as usize;
    let mut inputs = Vec::with_capacity(n_inputs.min(64));
    for _ in 0..n_inputs {
        if p.get_u8("input classes present")? == 0 {
            inputs.push(None);
            continue;
        }
        let n_dims = p.get_u32("input dim count")? as usize;
        let mut dims = Vec::with_capacity(n_dims.min(64));
        for _ in 0..n_dims {
            dims.push(match p.get_u8("dim class tag")? {
                0 => DimClass::Polymorphic,
                1 => DimClass::Specialized(p.get_u64("specialized extent")? as usize),
                2 => DimClass::DataDependent,
                t => return Err(StoreError::Parse(format!("unknown dim class tag {t}"))),
            });
        }
        inputs.push(Some(dims));
    }
    let n_outputs = p.get_u32("signature output count")? as usize;
    let mut outputs = Vec::with_capacity(n_outputs.min(64));
    for _ in 0..n_outputs {
        if p.get_u8("output shape present")? == 0 {
            outputs.push(None);
            continue;
        }
        let n_dims = p.get_u32("output dim count")? as usize;
        let mut dims = Vec::with_capacity(n_dims.min(64));
        for _ in 0..n_dims {
            dims.push(match p.get_u8("sym dim tag")? {
                0 => SymDim::Known(get_expr(p)?),
                1 => {
                    let n_taint = p.get_u32("taint count")? as usize;
                    let mut taint = std::collections::BTreeSet::new();
                    for _ in 0..n_taint {
                        let input = p.get_u32("taint input")?;
                        let dim = p.get_u32("taint dim")?;
                        taint.insert(DimVar { input, dim });
                    }
                    SymDim::Unknown(taint)
                }
                t => return Err(StoreError::Parse(format!("unknown sym dim tag {t}"))),
            });
        }
        outputs.push(Some(dims));
    }
    let n_constraints = p.get_u32("constraint count")? as usize;
    let mut constraints = Vec::with_capacity(n_constraints.min(64));
    for _ in 0..n_constraints {
        let kind = p.get_u8("constraint kind")?;
        let (a, b) = (get_expr(p)?, get_expr(p)?);
        constraints.push(match kind {
            0 => Constraint::Eq(a, b),
            1 => Constraint::Ge(a, b),
            t => return Err(StoreError::Parse(format!("unknown constraint kind {t}"))),
        });
    }
    Ok(Some(ShapeSignature {
        inputs,
        outputs,
        constraints,
    }))
}

/// Serialize `plan` into a self-contained plan file image that no shape
/// class can find by its coarse hash.
pub fn encode_plan(plan: &CompiledProgram, content_hash: u64, roster_fingerprint: u64) -> Vec<u8> {
    encode_plan_with(plan, content_hash, roster_fingerprint, 0)
}

/// Serialize `plan` into a self-contained plan file image whose header
/// carries `coarse_hash` (0 when the plan is not class-eligible).
pub(crate) fn encode_plan_with(
    plan: &CompiledProgram,
    content_hash: u64,
    roster_fingerprint: u64,
    coarse_hash: u64,
) -> Vec<u8> {
    let mut p = ByteWriter::with_capacity(1024);
    p.put_str(plan.pipeline);
    let c = &plan.conversion;
    for v in [
        c.candidates,
        c.mutations_removed,
        c.views_rewritten,
        c.updates_inserted,
        c.loop_carries_added,
        c.branch_returns_added,
    ] {
        p.put_u64(v as u64);
    }
    p.put_u64(plan.fusion_groups as u64);
    p.put_u64(plan.parallel_loops as u64);
    p.put_str(&plan.graph.to_string());
    put_signature(&mut p, plan.signature.as_ref());
    let payload = p.into_bytes();

    let mut w = ByteWriter::with_capacity(HEADER_LEN + payload.len());
    w.put_raw(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(content_hash);
    w.put_u64(roster_fingerprint);
    w.put_u64(coarse_hash);
    w.put_u64(payload.len() as u64);
    let mut bytes = w.into_bytes();
    debug_assert_eq!(bytes.len(), CHECKSUMMED_PREFIX);
    let checksum = fnv64_parts([&bytes[..], &payload]);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// Decode a whole plan file image, validating the header against
/// `expected`.
///
/// The decoded program's `passes` record is empty: a disk-loaded plan ran
/// no passes in this process (that is the point). Its `exec_config` is its
/// pipeline's.
///
/// # Errors
///
/// Any [`StoreError`]; callers treat every variant as a cache miss. A
/// pipeline name no [`PipelineKind`] carries is [`StoreError::Parse`].
pub fn decode_plan_full(bytes: &[u8], expected: Expected) -> Result<CompiledProgram, StoreError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_raw(8, "magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.get_u32("version")?;
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let content_hash = r.get_u64("content hash")?;
    if let Some(want) = expected.content_hash {
        if content_hash != want {
            return Err(StoreError::KeyMismatch {
                found: content_hash,
                expected: want,
            });
        }
    }
    let roster_fp = r.get_u64("roster fingerprint")?;
    if let Some(want) = expected.roster_fingerprint {
        if roster_fp != want {
            return Err(StoreError::RosterMismatch {
                found: roster_fp,
                expected: want,
            });
        }
    }
    let _coarse_hash = r.get_u64("coarse class hash")?;
    let payload_len = r.get_u64("payload length")? as usize;
    let checksum = r.get_u64("checksum")?;
    let payload = r.get_raw(
        payload_len,
        "payload", // declared length runs past EOF => truncated
    )?;
    if bytes.len() < CHECKSUMMED_PREFIX
        || fnv64_parts([&bytes[..CHECKSUMMED_PREFIX], payload]) != checksum
    {
        return Err(StoreError::ChecksumMismatch);
    }

    let mut p = ByteReader::new(payload);
    let name = p.get_str("pipeline name")?;
    let pipeline = PipelineKind::from_name(name)
        .ok_or_else(|| StoreError::Parse(format!("unknown pipeline {name:?}")))?
        .pipeline();
    let mut conv = [0usize; 6];
    for (i, slot) in conv.iter_mut().enumerate() {
        *slot = p.get_u64(CONVERSION_FIELDS[i])? as usize;
    }
    let conversion = ConversionStats {
        candidates: conv[0],
        mutations_removed: conv[1],
        views_rewritten: conv[2],
        updates_inserted: conv[3],
        loop_carries_added: conv[4],
        branch_returns_added: conv[5],
    };
    let fusion_groups = p.get_u64("fusion groups")? as usize;
    let parallel_loops = p.get_u64("parallel loops")? as usize;
    let text = p.get_str("graph text")?;
    let graph = parse_graph(text).map_err(|e| StoreError::Parse(format!("graph: {e}")))?;
    graph
        .verify()
        .map_err(|e| StoreError::Parse(format!("graph verify: {e:?}")))?;
    let signature = get_signature(&mut p)?;
    let mut plan = CompiledProgram::new(graph, pipeline.exec_config(), pipeline.name());
    plan.conversion = conversion;
    plan.fusion_groups = fusion_groups;
    plan.parallel_loops = parallel_loops;
    plan.signature = signature;
    Ok(plan)
}

const CONVERSION_FIELDS: [&str; 6] = [
    "candidates",
    "mutations removed",
    "views rewritten",
    "updates inserted",
    "loop carries",
    "branch returns",
];
