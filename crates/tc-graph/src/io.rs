//! Plain-text edge-list reading and writing.
//!
//! The format is the SNAP convention the paper's datasets ship in: one
//! `u v` pair per line, `#`-prefixed comment lines, whitespace-separated,
//! vertex ids need not be contiguous (they are compacted on load).

use crate::{CsrGraph, GraphBuilder, VertexId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is neither a comment nor a `u v` pair.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error on line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses an edge list from any reader. Vertex ids are compacted to
/// `0..n` in first-appearance order; the mapping is discarded (triangle
/// counts are label-invariant).
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, VertexId> = HashMap::new();
    let mut builder = GraphBuilder::new(0);
    let intern = |raw: u64, remap: &mut HashMap<u64, VertexId>| -> VertexId {
        let next = remap.len() as VertexId;
        *remap.entry(raw).or_insert(next)
    };
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(IoError::Parse {
                line: idx + 1,
                content: line.clone(),
            });
        };
        let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(IoError::Parse {
                line: idx + 1,
                content: line.clone(),
            });
        };
        let u = intern(a, &mut remap);
        let v = intern(b, &mut remap);
        builder.grow_vertices(remap.len());
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

/// Reads an edge-list file from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a graph as an edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# undirected graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_style_input() {
        let text = "# comment\n% also comment\n10 20\n20 30\n10 30\n40 40\n";
        let g = read_edge_list(text.as_bytes()).expect("parse");
        // A self-loop's vertex is kept, isolated.
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn rejects_garbage_lines() {
        let err = read_edge_list("1 2\nfoo bar\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_single_token_lines() {
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn round_trips_through_text() {
        let g = crate::generators::erdos_renyi(60, 150, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("write");
        let h = read_edge_list(&buf[..]).expect("read");
        // Ids were written already compacted in ascending order, so the
        // round trip is exact for vertices that have at least one edge.
        assert_eq!(g.num_edges(), h.num_edges());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).expect("parse");
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
