//! A compact, versioned, checksummed binary container for durable
//! snapshots (`.sersnap` files).
//!
//! The format is deliberately simple — a fixed header followed by
//! independently CRC-checked sections — so the decoder can reject every
//! kind of on-disk damage (truncation, bit flips, version skew,
//! duplicated or missing sections, trailing garbage) with a typed
//! [`SnapshotError`] instead of panicking or silently accepting a wrong
//! payload:
//!
//! ```text
//! magic   8 B   "SERSNAP\0"
//! version u32   FORMAT_VERSION
//! count   u32   number of sections
//! then per section:
//!   tag     4 B   FourCC section name
//!   len     u64   payload length in bytes
//!   crc     u32   CRC-32 (IEEE) of tag ‖ len ‖ payload
//!   payload len B
//! ```
//!
//! All integers are little-endian; `f64` values are stored as their IEEE
//! bit patterns, so round trips are bitwise exact. Writes go through
//! [`SnapshotWriter::write_atomic`]: the bytes land in a temporary file
//! in the destination directory which is atomically renamed over the
//! target, so a crash mid-write (exercised by the `snapshot::torn_write`
//! fail point) can never tear an existing snapshot.
//!
//! This module also carries the [`Circuit`] section codec, whose decoder
//! funnels through [`Circuit::from_parts`] so every structural invariant
//! (arity, acyclicity, name uniqueness, dangling references) is
//! re-validated on restore.
//!
//! # Example
//!
//! ```
//! use ser_netlist::snapshot::{Snapshot, SnapshotWriter, SectionTag};
//!
//! const TAG: SectionTag = SectionTag(*b"DEMO");
//! let mut w = SnapshotWriter::new();
//! w.begin_section(TAG);
//! w.f64(1.5);
//! w.str("hello");
//! w.end_section();
//! let bytes = w.to_bytes();
//!
//! let snap = Snapshot::from_bytes(&bytes).unwrap();
//! let mut s = snap.section(TAG).unwrap();
//! assert_eq!(s.f64().unwrap(), 1.5);
//! assert_eq!(s.str().unwrap(), "hello");
//! s.finish().unwrap();
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::circuit::Circuit;
use crate::gate::{GateKind, Node};
use crate::id::NodeId;

/// The 8-byte file magic opening every snapshot.
pub const MAGIC: [u8; 8] = *b"SERSNAP\0";

/// Current container format version. Decoders reject anything else with
/// [`SnapshotError::UnsupportedVersion`]. Version 2 session images hold
/// inputs only (sparse `P_ij`, no per-node derived tables); version 1
/// images are refused.
pub const FORMAT_VERSION: u32 = 2;

/// The section holding a [`Circuit`] (see [`write_circuit_section`]).
pub const TAG_CIRCUIT: SectionTag = SectionTag(*b"CIRC");

/// A FourCC section name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectionTag(pub [u8; 4]);

impl fmt::Display for SectionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
            for &b in &self.0 {
                write!(f, "{}", b as char)?;
            }
            Ok(())
        } else {
            write!(f, "{:02x?}", self.0)
        }
    }
}

/// Typed decode/encode failure of a snapshot file.
///
/// Every variant is a *rejection*: the decoder never hands back a
/// partially-parsed or silently-corrupt payload.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this decoder supports.
        supported: u32,
    },
    /// The file ends before the advertised structure does.
    Truncated {
        /// What the decoder was reading when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its stored CRC-32.
    CrcMismatch {
        /// The damaged section.
        section: SectionTag,
    },
    /// The same section tag appears twice.
    DuplicateSection {
        /// The repeated tag.
        section: SectionTag,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent tag.
        section: SectionTag,
    },
    /// Bytes remain after the last advertised section.
    TrailingBytes {
        /// How many unexpected bytes follow the structure.
        extra: usize,
    },
    /// A section's payload is structurally invalid (bad length, code,
    /// UTF-8, or a domain invariant its consumer re-validates).
    Malformed {
        /// The offending section.
        section: SectionTag,
        /// Human-readable cause.
        reason: String,
    },
    /// A fault-injection hook forced this failure (`fail-points` builds
    /// only).
    FaultInjected(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supports {supported})"
                )
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::CrcMismatch { section } => {
                write!(f, "CRC mismatch in section `{section}`")
            }
            SnapshotError::DuplicateSection { section } => {
                write!(f, "duplicate section `{section}`")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "missing section `{section}`")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last section")
            }
            SnapshotError::Malformed { section, reason } => {
                write!(f, "malformed section `{section}`: {reason}")
            }
            SnapshotError::FaultInjected(name) => {
                write!(f, "fault injected at `{name}`")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn crc32_feed(mut state: u32, bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    for &b in bytes {
        state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_feed(!0, bytes)
}

/// The stored per-section checksum covers the framing too (tag and
/// length), so a bit flip anywhere in a section — not just its payload —
/// is caught.
fn section_crc(tag: SectionTag, body: &[u8]) -> u32 {
    let mut state = crc32_feed(!0, &tag.0);
    state = crc32_feed(state, &(body.len() as u64).to_le_bytes());
    !crc32_feed(state, body)
}

/// Builds a snapshot section by section, then serializes or atomically
/// writes the container.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(SectionTag, Vec<u8>)>,
    current: Option<(SectionTag, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new section; primitives write into it until
    /// [`end_section`](Self::end_section).
    ///
    /// # Panics
    ///
    /// Panics if a section is already open (encoder bug, not data).
    pub fn begin_section(&mut self, tag: SectionTag) {
        assert!(self.current.is_none(), "section already open");
        self.current = Some((tag, Vec::new()));
    }

    /// Closes the open section.
    ///
    /// # Panics
    ///
    /// Panics if no section is open.
    pub fn end_section(&mut self) {
        let done = self.current.take().expect("no section open");
        self.sections.push(done);
    }

    fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.current.as_mut().expect("no section open").1
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf().push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE bit pattern (bitwise exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix; the section carries one).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf().extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf().extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed `u32` vector.
    pub fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }

    /// Appends a length-prefixed `f64` vector (bitwise exact).
    pub fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    /// Serializes the container to bytes.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.current.is_none(), "unclosed section");
        let payload: usize = self.sections.iter().map(|(_, b)| b.len() + 16).sum();
        let mut out = Vec::with_capacity(16 + payload);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, body) in &self.sections {
            out.extend_from_slice(&tag.0);
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(&section_crc(*tag, body).to_le_bytes());
            out.extend_from_slice(body);
        }
        out
    }

    /// Writes the container to `path` atomically: the bytes go to a
    /// temporary file in the same directory, which is then renamed over
    /// the target. A crash (or the `snapshot::torn_write` fail point)
    /// between the two steps leaves any existing snapshot at `path`
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure,
    /// [`SnapshotError::FaultInjected`] from the armed fail point.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        crate::failpoint!("snapshot::torn_write", {
            // Simulated crash mid-write: half the bytes reach the
            // temporary file, the rename never happens, and the target
            // stays whatever it was.
            fs::write(&tmp, &bytes[..bytes.len() / 2])?;
            return Err(SnapshotError::FaultInjected("snapshot::torn_write"));
        });
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// A parsed, CRC-verified snapshot container.
#[derive(Debug, Clone)]
pub struct Snapshot {
    version: u32,
    sections: Vec<(SectionTag, Vec<u8>)>,
}

impl Snapshot {
    /// Parses and fully validates a container: magic, version, section
    /// framing, per-section CRCs, duplicate tags and trailing bytes.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] decode rejection; on error nothing of the
    /// input is trusted or retained.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut pos = 0usize;
        let take =
            |pos: &mut usize, n: usize, context: &'static str| -> Result<usize, SnapshotError> {
                let start = *pos;
                let end = start
                    .checked_add(n)
                    .ok_or(SnapshotError::Truncated { context })?;
                if end > bytes.len() {
                    return Err(SnapshotError::Truncated { context });
                }
                *pos = end;
                Ok(start)
            };

        let at = take(&mut pos, 8, "magic")?;
        if bytes[at..at + 8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let at = take(&mut pos, 4, "version")?;
        let version = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let at = take(&mut pos, 4, "section count")?;
        let count = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));

        let mut sections: Vec<(SectionTag, Vec<u8>)> = Vec::new();
        for _ in 0..count {
            let at = take(&mut pos, 4, "section tag")?;
            let tag = SectionTag(bytes[at..at + 4].try_into().expect("4 bytes"));
            let at = take(&mut pos, 8, "section length")?;
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            let at = take(&mut pos, 4, "section crc")?;
            let crc = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated {
                context: "section payload",
            })?;
            let at = take(&mut pos, len, "section payload")?;
            let body = &bytes[at..at + len];
            if section_crc(tag, body) != crc {
                return Err(SnapshotError::CrcMismatch { section: tag });
            }
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(SnapshotError::DuplicateSection { section: tag });
            }
            sections.push((tag, body.to_vec()));
        }
        if pos != bytes.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: bytes.len() - pos,
            });
        }
        Ok(Snapshot { version, sections })
    }

    /// Reads and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, or any decode
    /// rejection from [`Snapshot::from_bytes`]. The `snapshot::short_read`
    /// and `snapshot::crc_flip` fail points corrupt the in-memory bytes
    /// before validation to prove the rejections fire.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        #[allow(unused_mut)]
        let mut bytes = fs::read(path.as_ref())?;
        crate::failpoint!("snapshot::short_read", {
            // Simulated short read: the tail of the file never arrives.
            let keep = bytes.len().saturating_sub(7);
            bytes.truncate(keep);
        });
        crate::failpoint!("snapshot::crc_flip", {
            // Simulated media bit rot inside the last section's payload.
            if let Some(last) = bytes.last_mut() {
                *last ^= 0x01;
            }
        });
        Self::from_bytes(&bytes)
    }

    /// The container's format version (currently always
    /// [`FORMAT_VERSION`]).
    #[inline]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Tags present, in file order.
    pub fn tags(&self) -> impl Iterator<Item = SectionTag> + '_ {
        self.sections.iter().map(|(t, _)| *t)
    }

    /// Opens the section `tag` for reading.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when absent.
    pub fn section(&self, tag: SectionTag) -> Result<SectionReader<'_>, SnapshotError> {
        let (_, body) = self
            .sections
            .iter()
            .find(|(t, _)| *t == tag)
            .ok_or(SnapshotError::MissingSection { section: tag })?;
        Ok(SectionReader {
            tag,
            buf: body,
            pos: 0,
        })
    }
}

/// Cursor over one section's payload; every read is bounds-checked and
/// returns [`SnapshotError::Malformed`] instead of panicking.
#[derive(Debug)]
pub struct SectionReader<'a> {
    tag: SectionTag,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn malformed(&self, reason: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.tag,
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.malformed("unexpected end of section"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] at end of section.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] at end of section.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] at end of section.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] at end of section or on overflow.
    pub fn read_len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.malformed(format!("length {v} overflows usize")))
    }

    /// Reads an `f64` from its IEEE bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] at end of section.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a length beyond the section or
    /// invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.read_len()?;
        if n > self.remaining() {
            return Err(self.malformed("string length beyond section end"));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed("invalid UTF-8"))
    }

    /// Consumes and returns the rest of the payload (for sections whose
    /// body is an opaque embedded document).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Reads a length-prefixed `u32` vector. The length is validated
    /// against the bytes actually present before any allocation, so a
    /// corrupt count cannot trigger an absurd reservation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a length beyond the section.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.read_len()?;
        if n.checked_mul(4).is_none_or(|b| b > self.remaining()) {
            return Err(self.malformed("u32 vector length beyond section end"));
        }
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a length-prefixed `f64` vector (bitwise exact), with the
    /// same pre-allocation length validation as
    /// [`vec_u32`](Self::vec_u32).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a length beyond the section.
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.read_len()?;
        if n.checked_mul(8).is_none_or(|b| b > self.remaining()) {
            return Err(self.malformed("f64 vector length beyond section end"));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed {
                section: self.tag,
                reason: format!(
                    "{} unread byte(s) at section end",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

/// Stable wire code of a [`GateKind`] (independent of enum layout).
pub fn gate_kind_code(kind: GateKind) -> u8 {
    match kind {
        GateKind::Input => 0,
        GateKind::And => 1,
        GateKind::Nand => 2,
        GateKind::Or => 3,
        GateKind::Nor => 4,
        GateKind::Xor => 5,
        GateKind::Xnor => 6,
        GateKind::Not => 7,
        GateKind::Buf => 8,
    }
}

/// Inverse of [`gate_kind_code`]; `None` for unknown codes.
pub fn gate_kind_from_code(code: u8) -> Option<GateKind> {
    Some(match code {
        0 => GateKind::Input,
        1 => GateKind::And,
        2 => GateKind::Nand,
        3 => GateKind::Or,
        4 => GateKind::Nor,
        5 => GateKind::Xor,
        6 => GateKind::Xnor,
        7 => GateKind::Not,
        8 => GateKind::Buf,
        _ => return None,
    })
}

/// Encodes `circuit` as the [`TAG_CIRCUIT`] section of `w`.
pub fn write_circuit_section(w: &mut SnapshotWriter, circuit: &Circuit) {
    w.begin_section(TAG_CIRCUIT);
    w.str(circuit.name());
    w.u64(circuit.node_count() as u64);
    for node in circuit.nodes() {
        w.u8(gate_kind_code(node.kind));
        w.str(&node.name);
        w.u64(node.fanin.len() as u64);
        for &f in &node.fanin {
            w.u32(f.index() as u32);
        }
    }
    let pos: Vec<u32> = circuit
        .primary_outputs()
        .iter()
        .map(|id| id.index() as u32)
        .collect();
    w.vec_u32(&pos);
    w.end_section();
}

/// Decodes the [`TAG_CIRCUIT`] section of `snap`, funnelling through
/// [`Circuit::from_parts`] so every structural invariant is re-checked.
///
/// # Errors
///
/// [`SnapshotError::MissingSection`] or [`SnapshotError::Malformed`]
/// (including any [`NetlistError`](crate::NetlistError) surfaced by the
/// validating constructor).
pub fn read_circuit_section(snap: &Snapshot) -> Result<Circuit, SnapshotError> {
    let mut s = snap.section(TAG_CIRCUIT)?;
    let name = s.str()?;
    let n = s.read_len()?;
    // Each node costs at least kind (1) + name len (8) + fanin len (8).
    if n.checked_mul(17).is_none_or(|b| b > s.remaining()) {
        return Err(SnapshotError::Malformed {
            section: TAG_CIRCUIT,
            reason: "node count beyond section end".into(),
        });
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let code = s.u8()?;
        let kind = gate_kind_from_code(code).ok_or_else(|| SnapshotError::Malformed {
            section: TAG_CIRCUIT,
            reason: format!("unknown gate kind code {code}"),
        })?;
        let node_name = s.str()?;
        let fanin = s
            .vec_u32()?
            .into_iter()
            .map(|i| NodeId::new(i as usize))
            .collect();
        nodes.push(Node {
            kind,
            fanin,
            name: node_name,
        });
    }
    let primary_outputs: Vec<NodeId> = s
        .vec_u32()?
        .into_iter()
        .map(|i| NodeId::new(i as usize))
        .collect();
    s.finish()?;
    Circuit::from_parts(name, nodes, primary_outputs).map_err(|e| SnapshotError::Malformed {
        section: TAG_CIRCUIT,
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    const T1: SectionTag = SectionTag(*b"AAAA");
    const T2: SectionTag = SectionTag(*b"BBBB");

    fn two_section_bytes() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(T1);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(1 << 40);
        w.f64(-0.0);
        w.str("π section");
        w.vec_u32(&[1, 2, 3]);
        w.vec_f64(&[f64::NAN, 1.5]);
        w.end_section();
        w.begin_section(T2);
        w.bytes(b"opaque");
        w.end_section();
        w.to_bytes()
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        let bytes = two_section_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.version(), FORMAT_VERSION);
        let mut s = snap.section(T1).unwrap();
        assert_eq!(s.u8().unwrap(), 7);
        assert_eq!(s.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(s.u64().unwrap(), 1 << 40);
        assert_eq!(s.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.str().unwrap(), "π section");
        assert_eq!(s.vec_u32().unwrap(), vec![1, 2, 3]);
        let v = s.vec_f64().unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(v[1], 1.5);
        s.finish().unwrap();
        let mut s2 = snap.section(T2).unwrap();
        assert_eq!(s2.rest(), b"opaque");
        s2.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = two_section_bytes();
        bytes[0] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = two_section_bytes();
        bytes[8] = 0xFE;
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found, supported }
                if found != FORMAT_VERSION && supported == FORMAT_VERSION),
            "{err}"
        );
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = two_section_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_crc() {
        let bytes = two_section_bytes();
        // Flip one bit in every payload byte position; each must be
        // caught by a CRC (payload) or framing (header) rejection.
        for i in 16..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= bit;
                assert!(
                    Snapshot::from_bytes(&corrupt).is_err(),
                    "flip at byte {i} bit {bit:#x} accepted"
                );
            }
        }
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(T1);
        w.u8(1);
        w.end_section();
        w.begin_section(T1);
        w.u8(2);
        w.end_section();
        let err = Snapshot::from_bytes(&w.to_bytes()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::DuplicateSection { section } if section == T1),
            "{err}"
        );
    }

    #[test]
    fn missing_section_and_trailing_bytes_are_rejected() {
        let bytes = two_section_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let missing = SectionTag(*b"ZZZZ");
        assert!(matches!(
            snap.section(missing),
            Err(SnapshotError::MissingSection { section }) if section == missing
        ));
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&padded),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn oversized_inner_lengths_are_rejected_without_allocation() {
        let mut w = SnapshotWriter::new();
        w.begin_section(T1);
        w.u64(u64::MAX); // an absurd vector count
        w.end_section();
        let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
        let mut s = snap.section(T1).unwrap();
        assert!(matches!(s.vec_f64(), Err(SnapshotError::Malformed { .. })));
        let mut s = snap.section(T1).unwrap();
        assert!(matches!(s.vec_u32(), Err(SnapshotError::Malformed { .. })));
        let mut s = snap.section(T1).unwrap();
        assert!(matches!(s.str(), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn unread_bytes_fail_finish() {
        let bytes = two_section_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let s = snap.section(T1).unwrap();
        assert!(matches!(s.finish(), Err(SnapshotError::Malformed { .. })));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("sersnap_test_rw");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.sersnap");
        let mut w = SnapshotWriter::new();
        write_circuit_section(&mut w, &generate::c17());
        w.write_atomic(&path).unwrap();
        let snap = Snapshot::read_file(&path).unwrap();
        let back = read_circuit_section(&snap).unwrap();
        assert_eq!(back, generate::c17());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn circuit_codec_round_trips_structures() {
        for circuit in [generate::c17(), generate::sec32("t")] {
            let mut w = SnapshotWriter::new();
            write_circuit_section(&mut w, &circuit);
            let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
            let back = read_circuit_section(&snap).unwrap();
            assert_eq!(back, circuit);
        }
    }

    #[test]
    fn circuit_decoder_revalidates_structure() {
        // A structurally broken circuit (dangling fan-in) must be caught
        // by the from_parts funnel, not accepted.
        let mut w = SnapshotWriter::new();
        w.begin_section(TAG_CIRCUIT);
        w.str("broken");
        w.u64(1);
        w.u8(gate_kind_code(GateKind::Not));
        w.str("g");
        w.u64(1);
        w.u32(5); // fan-in id out of range
        w.vec_u32(&[0]);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
        let err = read_circuit_section(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn gate_kind_codes_round_trip() {
        let mut all = vec![GateKind::Input];
        all.extend(GateKind::GATES);
        for kind in all {
            assert_eq!(gate_kind_from_code(gate_kind_code(kind)), Some(kind));
        }
        assert_eq!(gate_kind_from_code(9), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
