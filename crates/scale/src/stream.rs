//! [`EdgeStream`]: replayable edge producers.
//!
//! A stream emits its edges in a fixed, reproducible order into an
//! [`EdgeSink`], which hands them on a bounded chunk at a time. A
//! multi-pass consumer (the two-pass CSR builder, depth relaxation)
//! replays the stream once per pass. Nothing in this contract ever
//! requires the full edge list in memory.

use crate::ScaleError;
use fp_graph::quote_input;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// Edges an [`EdgeSink`] buffers before handing them on (1 MiB of
/// `(u32, u32)` pairs).
const CHUNK: usize = 128 * 1024;

/// A replayable producer of `(source, target)` edges over `u32` ids.
///
/// Contract: [`EdgeStream::replay`] emits the whole edge sequence from
/// its first edge, and every call emits the same sequence. Multi-pass
/// consumers replay once per pass and refuse a stream whose later pass
/// disagrees with the first ([`ScaleError::NotReplayable`]). The trait
/// is object safe, so front-ends can pick a producer at run time.
pub trait EdgeStream {
    /// Total node count, when the producer knows it up front.
    ///
    /// Generators always know; file readers usually do not. A hint
    /// covers isolated nodes beyond the largest id seen on an edge.
    fn node_hint(&self) -> Option<u64> {
        None
    }

    /// Emit every edge, from the first, into `sink`, and stop at the
    /// first error `sink` returns.
    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError>;
}

/// The consumer an [`EdgeSink`] hands each chunk to.
type Consume<'a> = dyn FnMut(&[(u32, u32)]) -> Result<(), ScaleError> + 'a;

/// Where a replay's edges go: a fixed buffer that hands its consumer
/// one chunk at a time, so the consumer's dynamic call is paid per
/// chunk, never per edge. Built by [`for_each_chunk`].
pub struct EdgeSink<'a> {
    buf: Vec<(u32, u32)>,
    consume: &'a mut Consume<'a>,
}

impl EdgeSink<'_> {
    /// Append the edge `u → v`, handing the chunk on when it fills.
    #[inline]
    pub fn emit(&mut self, u: u32, v: u32) -> Result<(), ScaleError> {
        self.buf.push((u, v));
        if self.buf.len() < CHUNK {
            return Ok(());
        }
        self.flush()
    }

    #[inline(never)]
    fn flush(&mut self) -> Result<(), ScaleError> {
        let result = if self.buf.is_empty() {
            Ok(())
        } else {
            (self.consume)(&self.buf)
        };
        self.buf.clear();
        result
    }
}

/// Replay `stream` once, handing `consume` its edges a chunk at a time.
pub fn for_each_chunk<S, F>(stream: &mut S, mut consume: F) -> Result<(), ScaleError>
where
    S: EdgeStream + ?Sized,
    F: FnMut(&[(u32, u32)]) -> Result<(), ScaleError>,
{
    let mut sink = EdgeSink {
        buf: Vec::with_capacity(CHUNK),
        consume: &mut consume,
    };
    stream.replay(&mut sink)?;
    sink.flush()
}

/// An in-memory stream over a pre-built edge list. Test scaffolding and
/// the adapter of last resort — real producers stream from disk or
/// generate on the fly.
#[derive(Clone, Debug)]
pub struct VecStream {
    edges: Vec<(u32, u32)>,
    nodes: Option<u64>,
}

impl VecStream {
    /// Stream over `edges`, optionally declaring a total node count.
    pub fn new(edges: Vec<(u32, u32)>, nodes: Option<u64>) -> Self {
        Self { edges, nodes }
    }
}

impl EdgeStream for VecStream {
    fn node_hint(&self) -> Option<u64> {
        self.nodes
    }

    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        self.edges.iter().try_for_each(|&(u, v)| sink.emit(u, v))
    }
}

/// A reader over a plain-text edge-list file with *numeric* node ids:
/// one `source target` pair per line, `#` comments and blank lines
/// ignored — the dialect `fp dataset` emits and SNAP-style dumps ship
/// in. Ids are taken literally (node `17` is index 17), which is what
/// makes the format streamable: no interning table, no first-appearance
/// renumbering, O(chunk) memory regardless of file size. Self-loops are
/// rejected (c-graphs are loop-free).
///
/// A line that does not end within 64 KiB is refused as
/// [`ScaleError::Parse`] before the rest of it is read.
///
/// The first replay reads the handle [`FileEdgeStream::open`] opened;
/// each later one reopens the path. A pipe therefore reads empty the
/// second time, which a multi-pass consumer reports as
/// [`ScaleError::NotReplayable`].
#[derive(Debug)]
pub struct FileEdgeStream {
    path: PathBuf,
    opened: Option<File>,
}

impl FileEdgeStream {
    /// Open `path` for streaming.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ScaleError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| io_error(&path, e))?;
        Ok(Self {
            path,
            opened: Some(file),
        })
    }
}

/// The most bytes of one edge-list line [`FileEdgeStream`] buffers,
/// newline included: the 64 KiB `fp serve` allows a request line.
const MAX_LINE_BYTES: usize = 64 * 1024;

fn io_error(path: &Path, e: std::io::Error) -> ScaleError {
    ScaleError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Parse line number `line` of an edge list: `None` for a blank or
/// comment line.
fn parse_line(text: &str, line: u64) -> Result<Option<(u32, u32)>, ScaleError> {
    let text = text.trim();
    if text.is_empty() || text.starts_with('#') {
        return Ok(None);
    }
    let err = |reason: String| ScaleError::Parse { line, reason };
    let mut parts = text.split_whitespace();
    let (u, v) = match (parts.next(), parts.next()) {
        (Some(u), Some(v)) => (u, v),
        _ => {
            return Err(err(format!(
                "expected `source target`, got {}",
                quote_input(text)
            )))
        }
    };
    if parts.next().is_some() {
        return Err(err(format!(
            "trailing tokens after edge in {}",
            quote_input(text)
        )));
    }
    let parse_id = |tok: &str| {
        tok.parse::<u32>()
            .map_err(|_| err(format!("node id {} is not a u32", quote_input(tok))))
    };
    let (u, v) = (parse_id(u)?, parse_id(v)?);
    if u == v {
        return Err(err(format!("self-loop on {u}")));
    }
    Ok(Some((u, v)))
}

impl EdgeStream for FileEdgeStream {
    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        let file = match self.opened.take() {
            Some(file) => file,
            None => File::open(&self.path).map_err(|e| io_error(&self.path, e))?,
        };
        let mut reader = BufReader::new(file);
        let mut bytes = Vec::new();
        for line in 1.. {
            bytes.clear();
            let read = (&mut reader)
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut bytes)
                .map_err(|e| io_error(&self.path, e))?;
            if read == 0 {
                break;
            }
            if read == MAX_LINE_BYTES && !bytes.ends_with(b"\n") {
                let reason = format!("line is longer than {MAX_LINE_BYTES} bytes");
                return Err(ScaleError::Parse { line, reason });
            }
            let text = std::str::from_utf8(&bytes).map_err(|_| {
                let e = std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                );
                io_error(&self.path, e)
            })?;
            if let Some((u, v)) = parse_line(text, line)? {
                sink.emit(u, v)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(stream: &mut dyn EdgeStream) -> Result<Vec<(u32, u32)>, ScaleError> {
        let mut edges = Vec::new();
        for_each_chunk(stream, |chunk| {
            edges.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(edges)
    }

    #[test]
    fn sink_hands_on_bounded_chunks_and_replays() {
        let edges: Vec<(u32, u32)> = (0..2 * CHUNK as u32 + 5).map(|i| (i, i + 1)).collect();
        let mut s = VecStream::new(edges.clone(), Some(7));
        assert_eq!(s.node_hint(), Some(7));
        let mut sizes = Vec::new();
        let mut seen = Vec::new();
        for_each_chunk(&mut s, |chunk| {
            sizes.push(chunk.len());
            seen.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes, vec![CHUNK, CHUNK, 5]);
        assert_eq!(seen, edges);
        assert_eq!(collect(&mut s).unwrap(), edges, "a second replay");
    }

    #[test]
    fn a_consumer_error_stops_the_replay() {
        let edges: Vec<(u32, u32)> = (0..3 * CHUNK as u32).map(|i| (i, i + 1)).collect();
        let mut chunks = 0;
        let err = for_each_chunk(&mut VecStream::new(edges, None), |_| {
            chunks += 1;
            Err(ScaleError::Cycle { passes: 1 })
        })
        .unwrap_err();
        assert_eq!(err, ScaleError::Cycle { passes: 1 });
        assert_eq!(chunks, 1);
    }

    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fp-scale-stream-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn over_long_lines_are_refused_before_they_are_buffered() {
        let long = "7".repeat(1 << 20);
        let reason = format!("line is longer than {MAX_LINE_BYTES} bytes");
        for (name, contents, line) in [
            ("long", long.clone(), 1),
            ("long-second", format!("0 1\n{long}"), 2),
        ] {
            let path = temp_file(name, &contents);
            let err = collect(&mut FileEdgeStream::open(&path).unwrap()).unwrap_err();
            let reason = reason.clone();
            assert_eq!(err, ScaleError::Parse { line, reason });
            assert!(err.to_string().len() <= 256);
        }
        // A line of exactly the cap, newline included, still parses.
        let pad = " ".repeat(MAX_LINE_BYTES - "0 1\n".len());
        let path = temp_file("at-cap", &format!("0 1{pad}\n"));
        assert_eq!(
            collect(&mut FileEdgeStream::open(&path).unwrap()).unwrap(),
            vec![(0, 1)]
        );
        let path = temp_file("past-cap", &format!("0 1 {pad}\n"));
        assert!(matches!(
            collect(&mut FileEdgeStream::open(&path).unwrap()),
            Err(ScaleError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_errors_quote_a_bounded_excerpt() {
        let long = "7".repeat(1 << 20);
        for text in [long.clone(), format!("0 {long}"), format!("0 1 {long}")] {
            let err = parse_line(&text, 3).unwrap_err().to_string();
            assert!(err.len() <= 256, "{} bytes: {err}", err.len());
            assert!(err.contains("line 3") && err.contains("… ("), "{err}");
        }
    }

    #[test]
    fn file_stream_parses_comments_and_blank_lines() {
        let path = temp_file("ok", "# header\n0 1\n\n1 2\n# tail\n2 3\n");
        let mut s = FileEdgeStream::open(&path).unwrap();
        assert_eq!(collect(&mut s).unwrap(), vec![(0, 1), (1, 2), (2, 3)]);
        // Later replays reopen the file from its start.
        assert_eq!(collect(&mut s).unwrap(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn file_stream_rejects_malformed_lines() {
        for (name, text, needle) in [
            ("one-token", "0 1\njust_one\n", "source target"),
            ("three-tokens", "0 1 2\n", "trailing"),
            ("non-numeric", "a b\n", "not a u32"),
            ("self-loop", "3 3\n", "self-loop"),
        ] {
            let path = temp_file(name, text);
            let mut s = FileEdgeStream::open(&path).unwrap();
            match collect(&mut s).unwrap_err() {
                ScaleError::Parse { reason, .. } => {
                    assert!(reason.contains(needle), "{name}: {reason}")
                }
                other => panic!("{name}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = FileEdgeStream::open("/nonexistent/fp-scale-test").unwrap_err();
        assert!(matches!(err, ScaleError::Io { .. }));
    }
}
