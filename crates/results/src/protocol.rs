//! The `fp worker` wire protocol: length-prefixed JSON frames.
//!
//! The sweep fabric ([`crate::net`]) talks to each `fp worker
//! --connect` process over one TCP connection. Every message is a
//! **frame**: a 4-byte big-endian length prefix followed by that many
//! bytes of canonical compact JSON (the lossless [`crate::json`] writer
//! — the same model the run store hashes, so `f64` FR samples cross
//! the wire bit-exactly).
//!
//! Conversation, dispatcher (D) side vs worker (W) side:
//!
//! ```text
//! W → D   hello     { version, pid, token }   # first bytes on the socket
//! D → W   init      { nodes, edges, source, ks }
//! D → W   request   { id, cell }              # up to a window in flight
//! W → D   response  { id, output }            #   answers in order
//! W → D   heartbeat {}                        # periodic "still alive"
//! D → W   shutdown  {}                        # then the dispatcher half-closes
//! ```
//!
//! The hello doubles as the **auth handshake** (DESIGN.md §13): it must
//! carry the dispatcher's shared `token` (compared in constant time —
//! see [`crate::net`]) and the exact [`PROTOCOL_VERSION`], or the
//! dispatcher closes the connection without replying.
//! [`Frame::Heartbeat`] frames flow worker → dispatcher so a peer that
//! *hangs* (as opposed to crashing) is detected by silence rather than
//! stalling the sweep.
//!
//! The dataset crosses as explicit structure (`nodes` + index pairs +
//! `source` index), not as an edge-list *text*: re-parsing text assigns
//! node ids by first appearance, which can permute indices and silently
//! change every seeded solver — the worker must solve the *identical*
//! problem, so the init frame preserves indices exactly.
//!
//! Framing errors (truncated prefix or body, a length above
//! [`MAX_FRAME_LEN`], malformed JSON, an unknown `type`) are all loud
//! `Err`s; only a clean EOF *between* frames reads as `Ok(None)`. The
//! dispatcher treats any of them as a worker crash: the in-flight cells
//! are re-queued for the surviving workers or the worker's own
//! reconnect (see DESIGN.md §7). A body is read as its bytes arrive
//! ([`read_body`]), so a length prefix alone reserves no memory.
//!
//! # The serve extension
//!
//! The same framing carries the **`fp serve` service protocol**
//! (DESIGN.md §10): a client sends [`Frame::Call`] frames — a tagged
//! [`ServeCall`] naming one operation against the daemon's graph
//! registry / session table — and the server answers each with a
//! [`Frame::Reply`] echoing the tag plus an HTTP-style status code and
//! a JSON body. The body is an opaque [`Json`] value at this layer
//! (the daemon's HTTP front end serves the *same* bytes), so numbers
//! ride the lossless writer and a served FR curve is bit-identical to
//! the batch path's:
//!
//! ```text
//! C → S   call      { id, op, ... }           # one operation
//! S → C   reply     { id, status, body }      #   answered in order
//! C → S   shutdown  {}                        # then the client hangs up
//! ```
//!
//! ```
//! use fp_results::protocol::{read_frame, write_frame, Frame, ServeCall, ServeRequest};
//!
//! // A health probe, framed and read back losslessly.
//! let call = Frame::Call(ServeRequest { id: 1, call: ServeCall::Health });
//! let mut wire = Vec::new();
//! write_frame(&mut wire, &call).unwrap();
//! let back = read_frame(&mut wire.as_slice()).unwrap();
//! assert_eq!(back, Some(call));
//! ```

use crate::json::{FromJson, Json, ToJson};
use crate::sweep::{Cell, CellOut};
use fp_algorithms::SolverKind;
use std::io::{ErrorKind, Read, Write};

/// Protocol revision; the dispatcher refuses a worker whose hello
/// carries a different one. Version 2 added the hello `token` and the
/// `heartbeat` frame.
pub const PROTOCOL_VERSION: u64 = 2;

/// Upper bound on a frame body, so a corrupt length prefix fails fast
/// instead of reading a multi-gigabyte body.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// The worker's opening message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerHello {
    /// [`PROTOCOL_VERSION`] the worker speaks.
    pub version: u64,
    /// The worker's process id (for diagnostics).
    pub pid: u64,
    /// The shared secret the dispatcher demands.
    pub token: String,
}

impl WorkerHello {
    /// A hello for the current process at the current version,
    /// carrying the dispatcher's shared secret.
    pub fn with_token(token: &str) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            pid: std::process::id() as u64,
            token: token.to_string(),
        }
    }
}

/// The sweep context a worker needs before it can evaluate cells: the
/// exact graph (indices preserved), the source index, and the budget
/// axis curve cells span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepInit {
    /// Node count of the graph.
    pub nodes: usize,
    /// Every edge as an `(source index, target index)` pair, in storage
    /// order.
    pub edges: Vec<(usize, usize)>,
    /// Index of the propagation source.
    pub source: usize,
    /// The sweep's budgets (what curve cells evaluate over).
    pub ks: Vec<usize>,
}

/// One cell of work, tagged so responses can be matched up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRequest {
    /// Dispatcher-chosen tag echoed back in the response.
    pub id: u64,
    /// The cell to evaluate.
    pub cell: Cell,
}

/// A worker's answer to one [`CellRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct CellResponse {
    /// The request's tag.
    pub id: u64,
    /// The cell's output.
    pub output: CellOut,
}

/// One operation against a running `fp serve` daemon.
///
/// Budgets (`ks`) and the optional per-request deadline are carried
/// explicitly; everything else is addressed by string key — graphs by
/// registry name or dataset fingerprint, sessions by their
/// content-derived id (see DESIGN.md §10).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeCall {
    /// Liveness probe; also reports registry/session counts.
    Health,
    /// Enumerate the graphs the registry holds.
    GraphList,
    /// Upload an edge list under `name`, rooted at the node labeled
    /// `source`. Registering identical content twice is idempotent;
    /// reusing a name for *different* content is a conflict.
    GraphPut {
        /// Registry name for the uploaded graph.
        name: String,
        /// Label of the propagation source within the edge list.
        source: String,
        /// The whitespace-separated `source target` edge-list text.
        edges_text: String,
    },
    /// Create a warm solver session on a registered graph. The session
    /// id is derived from `(graph, solver, seed)`; creating the same
    /// session twice is a conflict (409), so clients either share by
    /// agreement or vary the seed.
    SessionOpen {
        /// Graph key: registry name or dataset fingerprint hash.
        graph: String,
        /// The solver the session runs.
        solver: SolverKind,
        /// Trial seed (read only by randomized solvers).
        seed: u64,
    },
    /// Enumerate live sessions.
    SessionList,
    /// Ask a session for its placement + FR at each budget in `ks`.
    /// `deadline_ms` bounds the time the session may spend *computing*
    /// (enforced between ladder rungs); rungs already warm are always
    /// served.
    Query {
        /// The session id.
        session: String,
        /// Budgets to report, in the caller's order.
        ks: Vec<usize>,
        /// Optional compute budget in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Apply one structural mutation to a session's private copy of
    /// its graph. The kind is `"insert_edge"` or `"remove_edge"`;
    /// endpoints are node labels. The session re-derives every warm
    /// rung on the mutated graph, so later queries stay bit-identical
    /// to a cold session opened on that graph. Mutations that would
    /// create a cycle or remove an unknown edge are conflicts (409);
    /// the registry's shared entry is never touched.
    Mutate {
        /// The session id.
        session: String,
        /// `"insert_edge"` or `"remove_edge"`.
        mutation: String,
        /// Label of the edge's source node.
        from: String,
        /// Label of the edge's target node.
        to: String,
    },
    /// Close a session explicitly (its worker thread exits).
    SessionClose {
        /// The session id.
        session: String,
    },
    /// Snapshot the process-wide metrics registry (counters, gauges,
    /// histograms) as canonical JSON. The HTTP front end additionally
    /// renders the same snapshot as Prometheus text.
    Metrics,
    /// Stop the daemon: close every session, then leave the accept
    /// loop.
    Stop,
}

/// One tagged [`ServeCall`], so replies can be matched up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRequest {
    /// Client-chosen tag echoed back in the reply.
    pub id: u64,
    /// The operation.
    pub call: ServeCall,
}

/// The daemon's answer to one [`ServeRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReply {
    /// The request's tag.
    pub id: u64,
    /// HTTP-style status code (200/201 ok, 400 bad request, 404
    /// unknown key, 408 deadline expired, 409 conflict, …). The HTTP
    /// front end forwards it verbatim.
    pub status: u16,
    /// JSON body; the HTTP front end serves these same bytes.
    pub body: Json,
}

/// Every message that can cross the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker → dispatcher handshake.
    Hello(WorkerHello),
    /// Dispatcher → worker sweep context.
    Init(SweepInit),
    /// Dispatcher → worker unit of work.
    Request(CellRequest),
    /// Worker → dispatcher result.
    Response(CellResponse),
    /// Client → serve daemon operation.
    Call(ServeRequest),
    /// Serve daemon → client answer.
    Reply(ServeReply),
    /// Worker → dispatcher: "still alive", sent every
    /// [`crate::net::HEARTBEAT_INTERVAL`] even while a cell computes,
    /// so the dispatcher can tell a long solve from a hung process.
    Heartbeat,
    /// Dispatcher → worker (or serve client → daemon): drain and hang
    /// up cleanly.
    Shutdown,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        match *self {
            Cell::Curve { solver } => Json::object([
                ("kind", Json::Str("curve".into())),
                ("solver", solver.to_json()),
            ]),
            Cell::Trial { solver, k, seed } => Json::object([
                ("kind", Json::Str("trial".into())),
                ("solver", solver.to_json()),
                ("k", k.to_json()),
                ("seed", seed.to_json()),
            ]),
        }
    }
}

impl FromJson for Cell {
    fn from_json(v: &Json) -> Result<Self, String> {
        let solver = SolverKind::from_json(v.expect("solver")?)?;
        match v.expect("kind")?.as_str() {
            Some("curve") => Ok(Cell::Curve { solver }),
            Some("trial") => Ok(Cell::Trial {
                solver,
                k: v.expect("k")?.as_usize().ok_or("bad cell k")?,
                seed: v.expect("seed")?.as_u64().ok_or("bad cell seed")?,
            }),
            other => Err(format!("unknown cell kind {other:?}")),
        }
    }
}

/// `(k, fr)` points as a JSON array of two-element arrays (the same
/// shape [`crate::model::SolverSeries`] uses).
fn points_to_json(points: &[(usize, f64)]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|&(k, fr)| Json::Array(vec![k.to_json(), fr.to_json()]))
            .collect(),
    )
}

fn points_from_json(v: &Json) -> Result<Vec<(usize, f64)>, String> {
    v.as_array()
        .ok_or("points must be an array")?
        .iter()
        .map(|p| {
            let pair = p.as_array().filter(|a| a.len() == 2);
            let pair = pair.ok_or_else(|| format!("point must be [k, fr]: {p:?}"))?;
            let k = pair[0].as_usize().ok_or("bad point k")?;
            let fr = pair[1].as_f64().ok_or("bad point fr")?;
            Ok((k, fr))
        })
        .collect()
}

impl ToJson for CellOut {
    fn to_json(&self) -> Json {
        match self {
            CellOut::Curve(points) => Json::object([
                ("kind", Json::Str("curve".into())),
                ("points", points_to_json(points)),
            ]),
            CellOut::Fr(fr) => {
                Json::object([("kind", Json::Str("fr".into())), ("fr", fr.to_json())])
            }
        }
    }
}

impl FromJson for CellOut {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.expect("kind")?.as_str() {
            Some("curve") => Ok(CellOut::Curve(points_from_json(v.expect("points")?)?)),
            Some("fr") => Ok(CellOut::Fr(v.expect("fr")?.as_f64().ok_or("bad fr")?)),
            other => Err(format!("unknown output kind {other:?}")),
        }
    }
}

impl ToJson for ServeCall {
    fn to_json(&self) -> Json {
        let op = |name: &str| Json::Str(name.to_string());
        match self {
            ServeCall::Health => Json::object([("op", op("health"))]),
            ServeCall::GraphList => Json::object([("op", op("graphs.list"))]),
            ServeCall::GraphPut {
                name,
                source,
                edges_text,
            } => Json::object([
                ("op", op("graphs.put")),
                ("name", name.to_json()),
                ("source", source.to_json()),
                ("edges_text", edges_text.to_json()),
            ]),
            ServeCall::SessionOpen {
                graph,
                solver,
                seed,
            } => Json::object([
                ("op", op("sessions.open")),
                ("graph", graph.to_json()),
                ("solver", solver.to_json()),
                ("seed", seed.to_json()),
            ]),
            ServeCall::SessionList => Json::object([("op", op("sessions.list"))]),
            ServeCall::Query {
                session,
                ks,
                deadline_ms,
            } => {
                let mut members = vec![
                    ("op", op("query")),
                    ("session", session.to_json()),
                    ("ks", ks.to_json()),
                ];
                if let Some(ms) = deadline_ms {
                    members.push(("deadline_ms", ms.to_json()));
                }
                Json::object(members)
            }
            ServeCall::Mutate {
                session,
                mutation,
                from,
                to,
            } => Json::object([
                ("op", op("sessions.mutate")),
                ("session", session.to_json()),
                ("mutation", mutation.to_json()),
                ("from", from.to_json()),
                ("to", to.to_json()),
            ]),
            ServeCall::SessionClose { session } => {
                Json::object([("op", op("sessions.close")), ("session", session.to_json())])
            }
            ServeCall::Metrics => Json::object([("op", op("metrics"))]),
            ServeCall::Stop => Json::object([("op", op("stop"))]),
        }
    }
}

impl FromJson for ServeCall {
    fn from_json(v: &Json) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            Ok(v.expect(key)?
                .as_str()
                .ok_or_else(|| format!("bad {key}"))?
                .to_string())
        };
        match v.expect("op")?.as_str() {
            Some("health") => Ok(ServeCall::Health),
            Some("graphs.list") => Ok(ServeCall::GraphList),
            Some("graphs.put") => Ok(ServeCall::GraphPut {
                name: text("name")?,
                source: text("source")?,
                edges_text: text("edges_text")?,
            }),
            Some("sessions.open") => Ok(ServeCall::SessionOpen {
                graph: text("graph")?,
                solver: SolverKind::from_json(v.expect("solver")?)?,
                seed: v.expect("seed")?.as_u64().ok_or("bad seed")?,
            }),
            Some("sessions.list") => Ok(ServeCall::SessionList),
            Some("query") => Ok(ServeCall::Query {
                session: text("session")?,
                ks: v
                    .expect("ks")?
                    .as_array()
                    .ok_or("ks must be an array")?
                    .iter()
                    .map(|k| k.as_usize().ok_or_else(|| format!("bad k: {k:?}")))
                    .collect::<Result<Vec<_>, _>>()?,
                deadline_ms: v
                    .get("deadline_ms")
                    .map(|ms| ms.as_u64().ok_or("bad deadline_ms"))
                    .transpose()?,
            }),
            Some("sessions.mutate") => {
                let mutation = text("mutation")?;
                if mutation != "insert_edge" && mutation != "remove_edge" {
                    return Err(format!("unknown mutation kind {mutation:?}"));
                }
                Ok(ServeCall::Mutate {
                    session: text("session")?,
                    mutation,
                    from: text("from")?,
                    to: text("to")?,
                })
            }
            Some("sessions.close") => Ok(ServeCall::SessionClose {
                session: text("session")?,
            }),
            Some("metrics") => Ok(ServeCall::Metrics),
            Some("stop") => Ok(ServeCall::Stop),
            other => Err(format!("unknown serve op {other:?}")),
        }
    }
}

impl ToJson for Frame {
    fn to_json(&self) -> Json {
        match self {
            Frame::Hello(h) => Json::object([
                ("type", Json::Str("hello".into())),
                ("version", h.version.to_json()),
                ("pid", h.pid.to_json()),
                ("token", h.token.to_json()),
            ]),
            Frame::Init(init) => Json::object([
                ("type", Json::Str("init".into())),
                ("nodes", init.nodes.to_json()),
                (
                    "edges",
                    Json::Array(
                        init.edges
                            .iter()
                            .map(|&(u, v)| Json::Array(vec![u.to_json(), v.to_json()]))
                            .collect(),
                    ),
                ),
                ("source", init.source.to_json()),
                ("ks", init.ks.to_json()),
            ]),
            Frame::Request(req) => Json::object([
                ("type", Json::Str("request".into())),
                ("id", req.id.to_json()),
                ("cell", req.cell.to_json()),
            ]),
            Frame::Response(resp) => Json::object([
                ("type", Json::Str("response".into())),
                ("id", resp.id.to_json()),
                ("output", resp.output.to_json()),
            ]),
            Frame::Call(call) => {
                // Flatten the call's own members after `type` and `id`, so
                // the wire shape matches every other frame kind: one flat
                // object with a `type` discriminator up front.
                let Json::Object(fields) = call.call.to_json() else {
                    unreachable!("ServeCall always serializes to an object")
                };
                let mut members = vec![
                    ("type".to_string(), Json::Str("call".into())),
                    ("id".to_string(), call.id.to_json()),
                ];
                members.extend(fields);
                Json::Object(members)
            }
            Frame::Reply(reply) => Json::object([
                ("type", Json::Str("reply".into())),
                ("id", reply.id.to_json()),
                ("status", u64::from(reply.status).to_json()),
                ("body", reply.body.clone()),
            ]),
            Frame::Heartbeat => Json::object([("type", Json::Str("heartbeat".into()))]),
            Frame::Shutdown => Json::object([("type", Json::Str("shutdown".into()))]),
        }
    }
}

impl FromJson for Frame {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.expect("type")?.as_str() {
            Some("hello") => Ok(Frame::Hello(WorkerHello {
                version: v.expect("version")?.as_u64().ok_or("bad version")?,
                pid: v.expect("pid")?.as_u64().ok_or("bad pid")?,
                token: v.expect("token")?.as_str().ok_or("bad token")?.to_string(),
            })),
            Some("init") => Ok(Frame::Init(SweepInit {
                nodes: v.expect("nodes")?.as_usize().ok_or("bad nodes")?,
                edges: v
                    .expect("edges")?
                    .as_array()
                    .ok_or("edges must be an array")?
                    .iter()
                    .map(|e| {
                        let pair = e.as_array().filter(|a| a.len() == 2);
                        let pair = pair.ok_or_else(|| format!("edge must be [u, v]: {e:?}"))?;
                        let u = pair[0].as_usize().ok_or("bad edge source")?;
                        let t = pair[1].as_usize().ok_or("bad edge target")?;
                        Ok((u, t))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                source: v.expect("source")?.as_usize().ok_or("bad source")?,
                ks: v
                    .expect("ks")?
                    .as_array()
                    .ok_or("ks must be an array")?
                    .iter()
                    .map(|k| k.as_usize().ok_or_else(|| format!("bad k: {k:?}")))
                    .collect::<Result<Vec<_>, _>>()?,
            })),
            Some("request") => Ok(Frame::Request(CellRequest {
                id: v.expect("id")?.as_u64().ok_or("bad request id")?,
                cell: Cell::from_json(v.expect("cell")?)?,
            })),
            Some("response") => Ok(Frame::Response(CellResponse {
                id: v.expect("id")?.as_u64().ok_or("bad response id")?,
                output: CellOut::from_json(v.expect("output")?)?,
            })),
            Some("call") => Ok(Frame::Call(ServeRequest {
                id: v.expect("id")?.as_u64().ok_or("bad call id")?,
                call: ServeCall::from_json(v)?,
            })),
            Some("reply") => Ok(Frame::Reply(ServeReply {
                id: v.expect("id")?.as_u64().ok_or("bad reply id")?,
                status: u16::try_from(v.expect("status")?.as_u64().ok_or("bad status")?)
                    .map_err(|_| "status out of range".to_string())?,
                body: v.expect("body")?.clone(),
            })),
            Some("heartbeat") => Ok(Frame::Heartbeat),
            Some("shutdown") => Ok(Frame::Shutdown),
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

/// Write one frame (length prefix + compact JSON) and flush, so the
/// peer never waits on bytes stuck in a buffer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), String> {
    let body = frame.to_json().to_compact();
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| format!("frame too large: {} bytes", body.len()))?;
    w.write_all(&len.to_be_bytes())
        .and_then(|()| w.write_all(body.as_bytes()))
        .and_then(|()| w.flush())
        .map_err(|e| format!("cannot write frame: {e}"))
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary;
/// everything else that is not a well-formed frame — a truncated
/// prefix or body, an oversized length, malformed JSON, an unknown
/// `type` — is an `Err`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, String> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err("truncated frame: EOF inside the length prefix".into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("cannot read frame prefix: {e}")),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap (corrupt stream?)"
        ));
    }
    let body = read_body(r, len as usize)
        .map_err(|e| format!("truncated frame: EOF inside a {len}-byte body: {e}"))?;
    let text = String::from_utf8(body).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("frame is not JSON: {e}"))?;
    Frame::from_json(&json)
        .map(Some)
        .map_err(|e| format!("bad frame: {e}"))
}

/// Read exactly `len` bytes of a body whose length the peer declared.
/// The buffer starts empty and grows only as bytes arrive, so a peer
/// that declares a large body and sends none of it holds no memory for
/// it. Callers cap `len` first. A short body is the error `read_exact`
/// gives.
pub fn read_body(r: &mut impl Read, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        let mut r = buf.as_slice();
        let back = read_frame(&mut r).unwrap().expect("one frame");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
        back
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        let frames = [
            Frame::Hello(WorkerHello::with_token("sesame")),
            Frame::Init(SweepInit {
                nodes: 5,
                edges: vec![(0, 1), (1, 2), (1, 4)],
                source: 0,
                ks: vec![0, 1, 2, 3],
            }),
            Frame::Request(CellRequest {
                id: 7,
                cell: Cell::Curve {
                    solver: SolverKind::GreedyAll,
                },
            }),
            Frame::Request(CellRequest {
                id: u64::MAX,
                cell: Cell::Trial {
                    solver: SolverKind::RandK,
                    k: 3,
                    seed: u64::MAX - 1,
                },
            }),
            Frame::Response(CellResponse {
                id: 7,
                output: CellOut::Curve(vec![(0, 0.0), (2, 2.0 / 3.0)]),
            }),
            Frame::Response(CellResponse {
                id: 8,
                output: CellOut::Fr(0.1 + 0.2), // not exactly 0.3
            }),
            Frame::Hello(WorkerHello::with_token("sesame")),
            Frame::Heartbeat,
            Frame::Shutdown,
        ];
        for frame in &frames {
            assert_eq!(&roundtrip(frame), frame);
        }
    }

    #[test]
    fn floats_cross_the_pipe_bit_exactly() {
        let fr = 2.0f64 / 3.0;
        let back = roundtrip(&Frame::Response(CellResponse {
            id: 1,
            output: CellOut::Fr(fr),
        }));
        match back {
            Frame::Response(CellResponse {
                output: CellOut::Fr(got),
                ..
            }) => assert_eq!(got.to_bits(), fr.to_bits()),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn multiple_frames_stream_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Hello(WorkerHello::with_token("sesame"))).unwrap();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r).unwrap(), Some(Frame::Hello(_))));
        assert!(matches!(read_frame(&mut r).unwrap(), Some(Frame::Shutdown)));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        buf.truncate(2); // half a length prefix
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("length prefix"), "{err}");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Hello(WorkerHello::with_token("sesame"))).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("truncated frame"), "{err}");
    }

    #[test]
    fn oversized_length_prefix_fails_fast() {
        let buf = u32::MAX.to_be_bytes();
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn malformed_json_body_is_an_error() {
        let body = b"{not json";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("not JSON"), "{err}");
    }

    #[test]
    fn unknown_frame_type_is_an_error() {
        let body = br#"{"type":"frobnicate"}"#;
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("unknown frame type"), "{err}");
    }

    #[test]
    fn non_utf8_body_is_an_error() {
        let body = [0xFFu8, 0xFE, 0xFD];
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn bad_fields_name_the_problem() {
        for (body, needle) in [
            (r#"{"type":"hello","version":"x","pid":1}"#, "version"),
            (
                r#"{"type":"request","id":1,"cell":{"kind":"wat","solver":"G_ALL"}}"#,
                "cell kind",
            ),
            (r#"{"type":"response","id":1,"output":{"kind":"fr"}}"#, "fr"),
            (r#"{"type":"hello","version":2,"pid":1,"token":7}"#, "token"),
            (
                r#"{"type":"init","nodes":2,"edges":[[0]],"source":0,"ks":[]}"#,
                "edge",
            ),
        ] {
            let mut buf = (body.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(body.as_bytes());
            let err = read_frame(&mut buf.as_slice()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn a_hello_carries_its_token_and_a_tokenless_one_is_refused() {
        let hello = Frame::Hello(WorkerHello {
            version: PROTOCOL_VERSION,
            pid: 1,
            token: "t".into(),
        });
        assert_eq!(
            hello.to_json().to_compact(),
            r#"{"type":"hello","version":2,"pid":1,"token":"t"}"#
        );
        let body = br#"{"type":"hello","version":2,"pid":1}"#;
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("token"), "{err}");
    }

    #[test]
    fn a_declared_length_reserves_nothing_until_its_bytes_arrive() {
        // A 64 MiB prefix followed by ten bytes and EOF: the reader must
        // fail as truncated without ever asking for a large buffer.
        struct Watched<'a> {
            bytes: &'a [u8],
            largest_read: usize,
        }
        impl Read for Watched<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest_read = self.largest_read.max(buf.len());
                self.bytes.read(buf)
            }
        }
        let mut wire = MAX_FRAME_LEN.to_be_bytes().to_vec();
        wire.extend_from_slice(b"0123456789");
        let mut r = Watched {
            bytes: &wire,
            largest_read: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.contains("truncated frame"), "{err}");
        assert!(r.largest_read < 4096, "asked for {} bytes", r.largest_read);

        let err = read_body(&mut &b"abc"[..], 4).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert_eq!(read_body(&mut &b"abcd"[..], 4).unwrap(), b"abcd");
    }

    #[test]
    fn every_serve_call_roundtrips() {
        let calls = [
            ServeCall::Health,
            ServeCall::GraphList,
            ServeCall::GraphPut {
                name: "mine".into(),
                source: "s".into(),
                edges_text: "s a\ns b\na c\n".into(),
            },
            ServeCall::SessionOpen {
                graph: "fig1".into(),
                solver: SolverKind::GreedyAll,
                seed: 2012,
            },
            ServeCall::SessionList,
            ServeCall::Query {
                session: "abc123".into(),
                ks: vec![0, 1, 5],
                deadline_ms: None,
            },
            ServeCall::Query {
                session: "abc123".into(),
                ks: vec![2],
                deadline_ms: Some(250),
            },
            ServeCall::Mutate {
                session: "abc123".into(),
                mutation: "insert_edge".into(),
                from: "a".into(),
                to: "c".into(),
            },
            ServeCall::Mutate {
                session: "abc123".into(),
                mutation: "remove_edge".into(),
                from: "s".into(),
                to: "a".into(),
            },
            ServeCall::SessionClose {
                session: "abc123".into(),
            },
            ServeCall::Metrics,
            ServeCall::Stop,
        ];
        for (i, call) in calls.into_iter().enumerate() {
            let frame = Frame::Call(ServeRequest { id: i as u64, call });
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn serve_replies_roundtrip_with_exact_float_bodies() {
        let frame = Frame::Reply(ServeReply {
            id: 9,
            status: 200,
            body: Json::object([("fr", (2.0f64 / 3.0).to_json())]),
        });
        let back = roundtrip(&frame);
        assert_eq!(back, frame);
        match back {
            Frame::Reply(reply) => {
                let fr = reply.body.expect("fr").unwrap().as_f64().unwrap();
                assert_eq!(fr.to_bits(), (2.0f64 / 3.0).to_bits());
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn bad_serve_fields_name_the_problem() {
        for (body, needle) in [
            (r#"{"type":"call","id":1,"op":"frob"}"#, "unknown serve op"),
            (r#"{"type":"call","op":"health"}"#, "id"),
            (r#"{"type":"call","id":1,"op":"query","session":"s"}"#, "ks"),
            (
                r#"{"type":"call","id":1,"op":"query","session":"s","ks":[1],"deadline_ms":"soon"}"#,
                "deadline_ms",
            ),
            (
                r#"{"type":"call","id":1,"op":"sessions.open","graph":"g","solver":"NOPE","seed":1}"#,
                "solver",
            ),
            (
                r#"{"type":"call","id":1,"op":"sessions.mutate","session":"s","mutation":"paint_node","from":"a","to":"b"}"#,
                "unknown mutation kind",
            ),
            (
                r#"{"type":"call","id":1,"op":"sessions.mutate","session":"s","mutation":"insert_edge","from":"a"}"#,
                "to",
            ),
            (
                r#"{"type":"reply","id":1,"status":99999,"body":null}"#,
                "status",
            ),
            (r#"{"type":"reply","id":1,"status":200}"#, "body"),
        ] {
            let mut buf = (body.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(body.as_bytes());
            let err = read_frame(&mut buf.as_slice()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }
}
