//! Checksummed frames, the file layer the persistence subsystem
//! (`tc-persist`) builds its snapshot and WAL files on, and the one
//! encoding of a [`CsrGraph`] those frames carry.
//!
//! A frame gives its payload end-to-end integrity: a magic/version
//! header, a 4-byte content tag, the payload length, and a CRC32 of the
//! payload. Corruption anywhere surfaces as a typed [`BinError`], never a
//! panic and never a silently wrong value:
//!
//! ```text
//! magic   4 bytes  b"TCFR"
//! version 2 bytes  u16 = 1
//! tag     4 bytes  content kind (tc-persist's tags)
//! len     8 bytes  u64 payload length
//! crc     4 bytes  CRC32 (IEEE) of the payload
//! payload len bytes
//! ```
//!
//! [`write_frame`]/[`read_frame`] are content-agnostic. Inside a payload,
//! a graph is the little-endian CSR that [`graph_to_bytes`] writes and
//! [`graph_from_bytes`] reads back, re-validating every CSR invariant:
//!
//! ```text
//! n         8 bytes  u64 vertex count
//! m         8 bytes  u64 undirected edge count
//! offsets   (n+1) × u64
//! adjacency 2m × u32
//! ```

use crate::{CsrGraph, VertexId};
use std::io::{Read, Write};

/// Frame-layer magic.
pub const FRAME_MAGIC: &[u8; 4] = b"TCFR";

/// Frame-layer format version.
pub const FRAME_VERSION: u16 = 1;

/// Defensive cap on a single frame payload (16 GiB): header `len` fields
/// beyond it are treated as corruption.
const MAX_FRAME_PAYLOAD: u64 = 1 << 34;

/// Errors from binary (de)serialization.
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Structurally invalid payload.
    Corrupt(String),
    /// Frame payload failed its CRC32 check — the file was altered or
    /// bit-rotted after it was written.
    Checksum {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
    /// The stream ended inside a frame (torn write): the header promised
    /// more bytes than the file holds.
    Truncated,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "I/O error: {e}"),
            BinError::BadMagic => write!(f, "not a recognised tc-graph binary file"),
            BinError::Corrupt(msg) => write!(f, "corrupt graph file: {msg}"),
            BinError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            BinError::Truncated => write!(f, "frame truncated mid-payload (torn write)"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

/// The graph payload: `n`, `m`, the offsets and the adjacency,
/// little-endian.
fn encode_graph(g: &CsrGraph, w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &v in g.neighbor_array() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// The one CSR decoder: reads an [`encode_graph`] payload and
/// re-validates every CSR invariant. The header's counts must fit in the
/// bytes that follow it before anything is allocated for them.
fn decode_graph(mut bytes: &[u8]) -> Result<CsrGraph, BinError> {
    let n = read_u64(&mut bytes)?;
    let m = read_u64(&mut bytes)?;
    // (n + 1) offsets of 8 bytes, then 2m neighbours of 4.
    let offset_bytes = n.checked_add(1).and_then(|o| o.checked_mul(8));
    let needed = offset_bytes
        .zip(m.checked_mul(8))
        .and_then(|(o, a)| o.checked_add(a));
    let (Some(offset_bytes), Some(needed)) = (offset_bytes, needed) else {
        return Err(BinError::Corrupt(format!("implausible sizes n={n} m={m}")));
    };
    if needed > bytes.len() as u64 {
        return Err(BinError::Corrupt(format!(
            "n={n} m={m} need {needed} bytes, {} remain",
            bytes.len()
        )));
    }
    let (offsets, neighbors) = bytes[..needed as usize].split_at(offset_bytes as usize);
    let offsets: Vec<usize> = offsets
        .chunks_exact(8)
        .map(|o| u64::from_le_bytes(o.try_into().expect("8 bytes")) as usize)
        .collect();
    let neighbors: Vec<VertexId> = neighbors
        .chunks_exact(4)
        .map(|v| u32::from_le_bytes(v.try_into().expect("4 bytes")))
        .collect();
    if offsets.last().map(|&o| o as u64) != Some(2 * m) {
        return Err(BinError::Corrupt("offsets and edge count disagree".into()));
    }
    CsrGraph::try_from_parts(offsets, neighbors).map_err(BinError::Corrupt)
}

fn read_u64(r: &mut impl Read) -> Result<u64, BinError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

// --- CRC32 (IEEE 802.3, polynomial 0xEDB88320) ---------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice — the checksum the frame layer records.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- Frame layer ----------------------------------------------------------

/// One decoded frame: its content tag and verified payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Content kind (writer-defined).
    pub tag: [u8; 4],
    /// The payload, already CRC-verified.
    pub payload: Vec<u8>,
}

/// Writes one checksummed frame: header (magic, version, tag, length,
/// CRC32 of `payload`) then the payload itself.
pub fn write_frame<W: Write>(mut w: W, tag: [u8; 4], payload: &[u8]) -> Result<(), BinError> {
    w.write_all(FRAME_MAGIC)?;
    w.write_all(&FRAME_VERSION.to_le_bytes())?;
    w.write_all(&tag)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads the next frame and verifies its checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream (no bytes where the next
/// frame would start) — the loop-termination case WAL replay relies on.
/// A stream that ends *inside* a frame is a torn write
/// ([`BinError::Truncated`]); a payload that fails its CRC is
/// [`BinError::Checksum`]. Neither panics.
pub fn read_frame<R: Read>(mut r: R) -> Result<Option<Frame>, BinError> {
    // The first header byte decides between clean EOF and a torn frame.
    let mut magic = [0u8; 4];
    let mut got = 0usize;
    while got < magic.len() {
        match r.read(&mut magic[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(BinError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(BinError::Io(e)),
        }
    }
    if &magic != FRAME_MAGIC {
        return Err(BinError::BadMagic);
    }
    let mut header = [0u8; 18]; // version(2) + tag(4) + len(8) + crc(4)
    r.read_exact(&mut header).map_err(truncated_on_eof)?;
    let version = u16::from_le_bytes([header[0], header[1]]);
    if version != FRAME_VERSION {
        return Err(BinError::Corrupt(format!(
            "unsupported frame version {version}"
        )));
    }
    let tag = [header[2], header[3], header[4], header[5]];
    let len = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(BinError::Corrupt(format!(
            "implausible frame payload length {len}"
        )));
    }
    let expected = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
    // The buffer grows with the bytes actually read, so a corrupt length
    // cannot ask for more memory than the stream holds.
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(BinError::Truncated);
    }
    let actual = crc32(&payload);
    if actual != expected {
        return Err(BinError::Checksum { expected, actual });
    }
    Ok(Some(Frame { tag, payload }))
}

fn truncated_on_eof(e: std::io::Error) -> BinError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        BinError::Truncated
    } else {
        BinError::Io(e)
    }
}

// --- Graph payload ---------------------------------------------------------

/// Serializes a graph into payload bytes; `tc-persist` embeds these
/// inside its own frames.
pub fn graph_to_bytes(g: &CsrGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + (g.num_vertices() + 1) * 8 + 2 * g.num_edges() * 4);
    encode_graph(g, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Deserializes [`graph_to_bytes`] output, re-validating every CSR
/// invariant. Counts that overrun `bytes` are [`BinError::Corrupt`].
pub fn graph_from_bytes(bytes: &[u8]) -> Result<CsrGraph, BinError> {
    decode_graph(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, power_law_configuration};

    const TAG: [u8; 4] = *b"TEST";

    /// `g` as one frame, the way tc-persist frames its graphs.
    fn framed(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG, &graph_to_bytes(g)).expect("write");
        buf
    }

    /// Reads one frame, checks its tag and decodes the graph inside.
    fn unframe(bytes: &[u8]) -> Result<CsrGraph, BinError> {
        let frame = read_frame(bytes)?.ok_or(BinError::Truncated)?;
        if frame.tag != TAG {
            return Err(BinError::Corrupt(format!("tag {:?}", frame.tag)));
        }
        graph_from_bytes(&frame.payload)
    }

    #[test]
    fn round_trips_exactly() {
        for g in [
            CsrGraph::empty(0),
            CsrGraph::empty(7),
            erdos_renyi(100, 300, 1),
            power_law_configuration(200, 2.2, 6.0, 2),
        ] {
            assert_eq!(graph_from_bytes(&graph_to_bytes(&g)).expect("read"), g);
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut buf = framed(&erdos_renyi(20, 40, 2));
        buf[0] ^= 0xFF;
        assert!(matches!(read_frame(&buf[..]), Err(BinError::BadMagic)));
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut buf = graph_to_bytes(&erdos_renyi(50, 120, 3));
        buf.truncate(buf.len() - 5);
        assert!(graph_from_bytes(&buf).is_err());
    }

    #[test]
    fn rejects_tampered_adjacency() {
        let mut buf = graph_to_bytes(&erdos_renyi(50, 120, 3));
        // Flip a byte inside the adjacency region (breaks symmetry/sorting).
        let idx = buf.len() - 3;
        buf[idx] ^= 0xFF;
        assert!(matches!(graph_from_bytes(&buf), Err(BinError::Corrupt(_))));
    }

    #[test]
    fn rejects_corrupt_offsets() {
        let g = erdos_renyi(50, 120, 3);
        let clean = graph_to_bytes(&g);
        // offsets[1] past the adjacency, then offsets[n] short of 2m.
        let n = g.num_vertices();
        for (at, value) in [(1, u64::MAX), (n, 0)] {
            let mut buf = clean.clone();
            let start = 16 + 8 * at;
            buf[start..start + 8].copy_from_slice(&value.to_le_bytes());
            assert!(
                matches!(graph_from_bytes(&buf), Err(BinError::Corrupt(_))),
                "offsets[{at}] = {value}"
            );
        }
    }

    #[test]
    fn rejects_implausible_header() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(graph_from_bytes(&buf), Err(BinError::Corrupt(_))));
    }

    #[test]
    fn rejects_counts_beyond_the_payload() {
        // Counts that pass any fixed cap but overrun the bytes that are
        // there: no allocation is attempted for them.
        for (n, m) in [((1u64 << 33) - 1, 0u64), (0, 1 << 35), (3, 1)] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&n.to_le_bytes());
            buf.extend_from_slice(&m.to_le_bytes());
            assert!(
                matches!(graph_from_bytes(&buf), Err(BinError::Corrupt(_))),
                "n={n} m={m}"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frames_round_trip_and_terminate_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, *b"AAAA", b"first payload").expect("write");
        write_frame(&mut buf, *b"BBBB", b"").expect("write");
        let mut r = &buf[..];
        let a = read_frame(&mut r).expect("read").expect("frame present");
        assert_eq!(
            (a.tag, a.payload.as_slice()),
            (*b"AAAA", &b"first payload"[..])
        );
        let b = read_frame(&mut r).expect("read").expect("frame present");
        assert_eq!((b.tag, b.payload.len()), (*b"BBBB", 0));
        assert!(read_frame(&mut r).expect("clean EOF").is_none());
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Flip ANY single byte of a framed graph and reading reports a
        // typed error — never a panic, never a silently different graph.
        let g = erdos_renyi(30, 60, 7);
        let clean = framed(&g);
        assert_eq!(unframe(&clean).expect("clean frame"), g);
        for idx in 0..clean.len() {
            let mut buf = clean.clone();
            buf[idx] ^= 0x40;
            match unframe(&buf) {
                Err(_) => {}
                Ok(h) => panic!("flip at byte {idx} went undetected (got {h:?})"),
            }
        }
        // Payload flips specifically surface as checksum mismatches.
        let payload_start = clean.len() - 8;
        let mut buf = clean.clone();
        buf[payload_start] ^= 0xFF;
        assert!(matches!(unframe(&buf), Err(BinError::Checksum { .. })));
    }

    #[test]
    fn torn_frames_are_distinguished_from_clean_eof() {
        let buf = framed(&erdos_renyi(20, 40, 2));
        // Cut inside the payload: torn.
        let torn = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(torn), Err(BinError::Truncated)));
        // Cut inside the header: also torn.
        assert!(matches!(read_frame(&buf[..9]), Err(BinError::Truncated)));
        // No bytes at all: clean end-of-stream.
        assert!(read_frame(&[][..]).expect("clean").is_none());
    }

    #[test]
    fn a_length_beyond_the_stream_is_torn_not_allocated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG, b"").expect("write");
        // The header's payload length, raised to the largest accepted.
        buf[10..18].copy_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        assert!(matches!(read_frame(&buf[..]), Err(BinError::Truncated)));
    }
}
