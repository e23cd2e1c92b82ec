//! Payload encodings for the three durable record kinds, built on
//! `tc_graph::binary_io`'s checksummed frame layer.
//!
//! Every payload is little-endian and self-describing: enum variants are
//! stored as stable string tokens (the service wire names), never as
//! discriminant integers, so reordering a Rust enum can never silently
//! reinterpret old files. Decoding validates everything it can
//! structurally — unknown tokens, short buffers, and trailing garbage
//! all surface as [`PersistError::Corrupt`], and the frame layer below
//! has already rejected bit-flips via CRC32.

use crate::PersistError;
use std::sync::Arc;
use tc_core::{DirectionScheme, OrderingScheme, PreprocessResult};
use tc_datasets::Dataset;
use tc_graph::binary_io::{graph_from_bytes, graph_to_bytes};
use tc_graph::{DirectedGraph, Permutation, VertexId};
use tc_stream::{EdgeOp, StreamCounters, StreamSnapshot};

/// Frame tag for a preprocessed registry-entry snapshot: the oriented
/// CSR and the permutation.
pub const TAG_ENTRY: [u8; 4] = *b"PEN2";
/// Frame tag of the retired entry layout, which also stored the
/// relabelled undirected graph. Recovery reports such files as corrupt
/// and the variant is preprocessed again on demand.
pub(crate) const TAG_ENTRY_RETIRED: [u8; 4] = *b"PENT";
/// Frame tag for a stream-state snapshot.
pub const TAG_STREAM: [u8; 4] = *b"PSTR";
/// Frame tag for one WAL record (one logged update batch).
pub const TAG_WAL: [u8; 4] = *b"WREC";

/// The identity of one preprocessed registry entry — the persistence
/// twin of `tc-service`'s cache key, expressed in crate-local terms so
/// `tc-persist` never depends on the service layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrepKey {
    /// The dataset the variant was preprocessed from.
    pub dataset: Dataset,
    /// Edge-directing scheme.
    pub direction: DirectionScheme,
    /// Vertex-ordering scheme.
    pub ordering: OrderingScheme,
    /// Bucket size `k` the ordering was tuned for.
    pub bucket_size: u32,
}

/// One recovered (or to-be-written) registry entry: its key, the
/// preprocessed variant, and the memoised triangle count if the live
/// entry had computed it.
#[derive(Debug)]
pub struct EntryRecord {
    /// Cache identity.
    pub key: PrepKey,
    /// The preprocessed variant (timings zeroed — recovery never
    /// re-pays them).
    pub prep: PreprocessResult,
    /// Memoised exact triangle count, if the live entry had one.
    pub triangles: Option<u64>,
}

/// One recovered (or to-be-written) stream snapshot: the dataset, the
/// WAL sequence number of the last batch folded into it, and the
/// serializable stream image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamRecord {
    /// The streamed dataset.
    pub dataset: Dataset,
    /// WAL records with `seq <= last_seq` are already reflected here
    /// and must be skipped on replay.
    pub last_seq: u64,
    /// The stream image ([`tc_stream::DynamicGraph::snapshot`]).
    pub snapshot: StreamSnapshot,
}

/// One WAL record: a globally-ordered sequence number, the dataset it
/// mutates, and the batch exactly as the service received it (post-
/// normalization happens in `apply_batch`, deterministically).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global, strictly-increasing log position (file order == seq
    /// order; per-dataset apply order == per-dataset seq order).
    pub seq: u64,
    /// The dataset the batch mutates.
    pub dataset: Dataset,
    /// The logged operations.
    pub ops: Vec<EdgeOp>,
}

// --- stable string tokens -------------------------------------------------

/// Stable on-disk token for a direction scheme (the service wire name).
pub fn direction_token(d: DirectionScheme) -> &'static str {
    match d {
        DirectionScheme::IdBased => "id",
        DirectionScheme::DegreeBased => "degree",
        DirectionScheme::ADirection => "a",
        DirectionScheme::ADirectionPhased => "a-phased",
    }
}

/// Parses [`direction_token`] output.
pub fn parse_direction_token(t: &str) -> Option<DirectionScheme> {
    match t {
        "id" => Some(DirectionScheme::IdBased),
        "degree" => Some(DirectionScheme::DegreeBased),
        "a" => Some(DirectionScheme::ADirection),
        "a-phased" => Some(DirectionScheme::ADirectionPhased),
        _ => None,
    }
}

/// Stable on-disk token for an ordering scheme.
pub fn ordering_token(o: OrderingScheme) -> &'static str {
    match o {
        OrderingScheme::Original => "origin",
        OrderingScheme::DegreeOrder => "d-order",
        OrderingScheme::AOrder => "a-order",
        OrderingScheme::Dfs => "dfs",
        OrderingScheme::BfsR => "bfs-r",
        OrderingScheme::SlashBurn => "slashburn",
        OrderingScheme::Gro => "gro",
    }
}

/// Parses [`ordering_token`] output.
pub fn parse_ordering_token(t: &str) -> Option<OrderingScheme> {
    match t {
        "origin" => Some(OrderingScheme::Original),
        "d-order" => Some(OrderingScheme::DegreeOrder),
        "a-order" => Some(OrderingScheme::AOrder),
        "dfs" => Some(OrderingScheme::Dfs),
        "bfs-r" => Some(OrderingScheme::BfsR),
        "slashburn" => Some(OrderingScheme::SlashBurn),
        "gro" => Some(OrderingScheme::Gro),
        _ => None,
    }
}

/// Resolves a dataset by its stable name.
pub fn parse_dataset_token(name: &str) -> Option<Dataset> {
    Dataset::all().into_iter().find(|d| d.name() == name)
}

// --- byte-level reader/writer helpers -------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u64(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn put_pairs(buf: &mut Vec<u8>, pairs: &[(VertexId, VertexId)]) {
    put_u64(buf, pairs.len() as u64);
    for &(u, v) in pairs {
        put_u32(buf, u);
        put_u32(buf, v);
    }
}

/// Bounded sequential reader over a decoded payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("payload shorter than its fields claim"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, PersistError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(corrupt("implausible string length"));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("non-UTF-8 string field"))
    }

    /// Reads a count of `item_bytes`-byte items and checks that they fit
    /// in the bytes left, so no count can ask for more memory than its
    /// payload holds.
    fn count(&mut self, item_bytes: u64) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let left = (self.buf.len() - self.pos) as u64;
        match n.checked_mul(item_bytes) {
            Some(bytes) if bytes <= left => Ok(n as usize),
            _ => Err(corrupt(format!(
                "{n} items of {item_bytes} bytes overrun the {left} bytes left"
            ))),
        }
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.count(1)?;
        self.take(len)
    }

    fn pairs(&mut self) -> Result<Vec<(VertexId, VertexId)>, PersistError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let u = self.u32()?;
            let v = self.u32()?;
            out.push((u, v));
        }
        Ok(out)
    }

    pub(crate) fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

pub(crate) fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

// --- entry snapshot payload -----------------------------------------------

/// Encodes an entry snapshot payload (frame tag [`TAG_ENTRY`]).
pub fn encode_entry(key: &PrepKey, prep: &PreprocessResult, triangles: Option<u64>) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, key.dataset.name());
    put_str(&mut buf, direction_token(key.direction));
    put_str(&mut buf, ordering_token(key.ordering));
    put_u32(&mut buf, key.bucket_size);
    match triangles {
        Some(t) => {
            buf.push(1);
            put_u64(&mut buf, t);
        }
        None => buf.push(0),
    }
    let directed = prep.directed();
    put_u64(&mut buf, directed.offsets().len() as u64);
    for &o in directed.offsets() {
        put_u64(&mut buf, o as u64);
    }
    put_u64(&mut buf, directed.out_neighbor_array().len() as u64);
    for &v in directed.out_neighbor_array() {
        put_u32(&mut buf, v);
    }
    put_u64(&mut buf, prep.permutation().len() as u64);
    for &v in prep.permutation().as_slice() {
        put_u32(&mut buf, v);
    }
    buf
}

/// Decodes [`encode_entry`] output, re-validating every structural
/// invariant (the oriented CSR's, the permutation's, and that they
/// cover the same vertices, via [`PreprocessResult::from_parts`]).
pub fn decode_entry(payload: &[u8]) -> Result<EntryRecord, PersistError> {
    let mut r = Reader::new(payload);
    let dataset_name = r.str()?;
    let dataset = parse_dataset_token(dataset_name)
        .ok_or_else(|| corrupt(format!("unknown dataset token \"{dataset_name}\"")))?;
    let dtok = r.str()?;
    let direction = parse_direction_token(dtok)
        .ok_or_else(|| corrupt(format!("unknown direction token \"{dtok}\"")))?;
    let otok = r.str()?;
    let ordering = parse_ordering_token(otok)
        .ok_or_else(|| corrupt(format!("unknown ordering token \"{otok}\"")))?;
    let bucket_size = r.u32()?;
    let triangles = match r.take(1)?[0] {
        0 => None,
        1 => Some(r.u64()?),
        b => return Err(corrupt(format!("bad triangles-present flag {b}"))),
    };
    let n_off = r.count(8)?;
    let mut offsets = Vec::with_capacity(n_off);
    for _ in 0..n_off {
        offsets.push(r.u64()? as usize);
    }
    let n_out = r.count(4)?;
    let mut out_neighbors: Vec<VertexId> = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        out_neighbors.push(r.u32()?);
    }
    let n_perm = r.count(4)?;
    let mut old_to_new: Vec<VertexId> = Vec::with_capacity(n_perm);
    for _ in 0..n_perm {
        old_to_new.push(r.u32()?);
    }
    r.finish()?;
    let directed = DirectedGraph::try_from_parts(offsets, out_neighbors).map_err(corrupt)?;
    let permutation = Permutation::new(old_to_new).map_err(corrupt)?;
    let prep = PreprocessResult::from_parts(directed, permutation).map_err(corrupt)?;
    Ok(EntryRecord {
        key: PrepKey {
            dataset,
            direction,
            ordering,
            bucket_size,
        },
        prep,
        triangles,
    })
}

// --- stream snapshot payload ----------------------------------------------

/// Encodes a stream snapshot payload (frame tag [`TAG_STREAM`]).
pub fn encode_stream(rec: &StreamRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, rec.dataset.name());
    put_u64(&mut buf, rec.last_seq);
    let s = &rec.snapshot;
    put_u64(&mut buf, s.triangles);
    put_u64(&mut buf, s.num_edges as u64);
    put_u64(&mut buf, s.max_delta_edges as u64);
    let c = s.counters;
    for v in [
        c.batches,
        c.inserts,
        c.deletes,
        c.noops,
        c.rejected,
        c.superseded,
        c.compactions,
    ] {
        put_u64(&mut buf, v);
    }
    put_bytes(&mut buf, &graph_to_bytes(&s.base));
    put_pairs(&mut buf, &s.adds);
    put_pairs(&mut buf, &s.dels);
    buf
}

/// Decodes [`encode_stream`] output. Overlay-vs-base consistency is
/// validated later by [`tc_stream::DynamicGraph::restore`].
pub fn decode_stream(payload: &[u8]) -> Result<StreamRecord, PersistError> {
    let mut r = Reader::new(payload);
    let dataset_name = r.str()?;
    let dataset = parse_dataset_token(dataset_name)
        .ok_or_else(|| corrupt(format!("unknown dataset token \"{dataset_name}\"")))?;
    let last_seq = r.u64()?;
    let triangles = r.u64()?;
    let num_edges = r.u64()? as usize;
    let max_delta_edges = r.u64()? as usize;
    let counters = StreamCounters {
        batches: r.u64()?,
        inserts: r.u64()?,
        deletes: r.u64()?,
        noops: r.u64()?,
        rejected: r.u64()?,
        superseded: r.u64()?,
        compactions: r.u64()?,
    };
    let base = graph_from_bytes(r.bytes()?)?;
    let adds = r.pairs()?;
    let dels = r.pairs()?;
    r.finish()?;
    Ok(StreamRecord {
        dataset,
        last_seq,
        snapshot: StreamSnapshot {
            base: Arc::new(base),
            adds,
            dels,
            triangles,
            num_edges,
            max_delta_edges,
            counters,
        },
    })
}

// --- WAL record payload ---------------------------------------------------

/// Encodes one WAL record payload (frame tag [`TAG_WAL`]).
pub fn encode_wal(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, rec.seq);
    put_str(&mut buf, rec.dataset.name());
    put_u64(&mut buf, rec.ops.len() as u64);
    for op in &rec.ops {
        let (u, v) = op.endpoints();
        buf.push(if op.is_insert() { 1 } else { 0 });
        put_u32(&mut buf, u);
        put_u32(&mut buf, v);
    }
    buf
}

/// Decodes [`encode_wal`] output.
pub fn decode_wal(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let dataset_name = r.str()?;
    let dataset = parse_dataset_token(dataset_name)
        .ok_or_else(|| corrupt(format!("unknown dataset token \"{dataset_name}\"")))?;
    // One kind byte and two endpoints per op.
    let n = r.count(9)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = r.take(1)?[0];
        let u = r.u32()?;
        let v = r.u32()?;
        ops.push(match kind {
            1 => EdgeOp::Insert(u, v),
            0 => EdgeOp::Delete(u, v),
            b => return Err(corrupt(format!("bad op kind {b}"))),
        });
    }
    r.finish()?;
    Ok(WalRecord { seq, dataset, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::Preprocessor;
    use tc_graph::generators::power_law_configuration;
    use tc_stream::DynamicGraph;

    #[test]
    fn tokens_round_trip_every_variant() {
        for d in [
            DirectionScheme::IdBased,
            DirectionScheme::DegreeBased,
            DirectionScheme::ADirection,
            DirectionScheme::ADirectionPhased,
        ] {
            assert_eq!(parse_direction_token(direction_token(d)), Some(d));
        }
        for o in OrderingScheme::all() {
            assert_eq!(parse_ordering_token(ordering_token(o)), Some(o));
        }
        for ds in Dataset::all() {
            assert_eq!(parse_dataset_token(ds.name()), Some(ds));
        }
    }

    #[test]
    fn entry_payload_round_trips() {
        let g = power_law_configuration(200, 2.2, 6.0, 5);
        let prep = Preprocessor::new().run(&g);
        let key = PrepKey {
            dataset: Dataset::EmailEucore,
            direction: DirectionScheme::ADirection,
            ordering: OrderingScheme::AOrder,
            bucket_size: 64,
        };
        let buf = encode_entry(&key, &prep, Some(42));
        let rec = decode_entry(&buf).expect("decode");
        assert_eq!(rec.key, key);
        assert_eq!(rec.triangles, Some(42));
        assert_eq!(rec.prep.directed(), prep.directed());
        assert_eq!(rec.prep.permutation(), prep.permutation());

        let buf = encode_entry(&key, &prep, None);
        assert_eq!(decode_entry(&buf).expect("decode").triangles, None);
    }

    #[test]
    fn entry_decoder_rejects_an_invalid_oriented_csr() {
        let g = power_law_configuration(50, 2.2, 4.0, 1);
        let prep = Preprocessor::new().run(&g);
        let key = PrepKey {
            dataset: Dataset::EmailEucore,
            direction: DirectionScheme::ADirection,
            ordering: OrderingScheme::AOrder,
            bucket_size: 64,
        };
        let buf = encode_entry(&key, &prep, None);
        // The first out-neighbour id sits right after the offsets and the
        // edge count; point it past the last vertex.
        let n = g.num_vertices();
        let first = buf.len() - (8 + 4 * n) - 4 * prep.directed().num_edges();
        let mut bad = buf.clone();
        bad[first..first + 4].copy_from_slice(&(n as u32 + 5).to_le_bytes());
        assert!(decode_entry(&bad).is_err());
        // A permutation that maps its first and last vertex to one id.
        let mut bad = buf;
        let len = bad.len();
        bad.copy_within(len - 4 * n..len - 4 * n + 4, len - 4);
        assert!(decode_entry(&bad).is_err());
    }

    #[test]
    fn stream_payload_round_trips() {
        let g = power_law_configuration(100, 2.2, 5.0, 9);
        let mut dg = DynamicGraph::new(g);
        dg.apply_batch(&[EdgeOp::Insert(0, 1), EdgeOp::Delete(1, 2)]);
        let rec = StreamRecord {
            dataset: Dataset::EmailEucore,
            last_seq: 7,
            snapshot: dg.snapshot(),
        };
        let buf = encode_stream(&rec);
        assert_eq!(decode_stream(&buf).expect("decode"), rec);
    }

    #[test]
    fn wal_payload_round_trips() {
        let rec = WalRecord {
            seq: 99,
            dataset: Dataset::Gowalla,
            ops: vec![
                EdgeOp::Insert(3, 8),
                EdgeOp::Delete(8, 3),
                EdgeOp::Insert(0, 1),
            ],
        };
        let buf = encode_wal(&rec);
        assert_eq!(decode_wal(&buf).expect("decode"), rec);
    }

    /// An entry payload's fields up to its directed offsets.
    fn entry_prefix() -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, Dataset::EmailEucore.name());
        put_str(&mut buf, direction_token(DirectionScheme::ADirection));
        put_str(&mut buf, ordering_token(OrderingScheme::AOrder));
        put_u32(&mut buf, 64);
        buf.push(0);
        buf
    }

    /// A count that fits any fixed cap but not the bytes after it.
    const HUGE: u64 = (1 << 33) - 1;

    fn is_corrupt<T>(decoded: Result<T, PersistError>) -> bool {
        matches!(decoded, Err(PersistError::Corrupt(_)))
    }

    #[test]
    fn entry_offset_count_beyond_the_payload_is_corrupt() {
        let mut buf = entry_prefix();
        put_u64(&mut buf, HUGE);
        assert!(is_corrupt(decode_entry(&buf)));
    }

    #[test]
    fn entry_out_neighbour_count_beyond_the_payload_is_corrupt() {
        let mut buf = entry_prefix();
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, HUGE);
        assert!(is_corrupt(decode_entry(&buf)));
    }

    #[test]
    fn entry_permutation_length_beyond_the_payload_is_corrupt() {
        let mut buf = entry_prefix();
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, HUGE);
        assert!(is_corrupt(decode_entry(&buf)));
    }

    #[test]
    fn stream_pair_counts_beyond_the_payload_are_corrupt() {
        let rec = StreamRecord {
            dataset: Dataset::EmailEucore,
            last_seq: 0,
            snapshot: DynamicGraph::new(tc_graph::CsrGraph::empty(3)).snapshot(),
        };
        let clean = encode_stream(&rec);
        // The payload ends with two empty pair lists: adds, then dels.
        let lists = clean.len() - 16;
        for (list, counts) in [("adds", [HUGE, 0]), ("dels", [0, HUGE])] {
            let mut buf = clean[..lists].to_vec();
            for n in counts {
                put_u64(&mut buf, n);
            }
            assert!(is_corrupt(decode_stream(&buf)), "{list}");
        }
    }

    #[test]
    fn wal_op_count_beyond_the_payload_is_corrupt() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        put_str(&mut buf, Dataset::EmailEucore.name());
        put_u64(&mut buf, HUGE);
        assert_eq!(buf.len(), 32);
        assert!(is_corrupt(decode_wal(&buf)));
    }

    #[test]
    fn decoders_reject_garbage_without_panicking() {
        for payload in [&b""[..], &b"\x01\x02\x03"[..], &[0xFF; 64][..]] {
            assert!(decode_entry(payload).is_err());
            assert!(decode_stream(payload).is_err());
            assert!(decode_wal(payload).is_err());
        }
        // Trailing garbage after a valid record is corruption too.
        let mut buf = encode_wal(&WalRecord {
            seq: 1,
            dataset: Dataset::EmailEucore,
            ops: vec![],
        });
        buf.push(0);
        assert!(decode_wal(&buf).is_err());
    }
}
