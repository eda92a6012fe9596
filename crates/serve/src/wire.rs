//! Wire formats of the decision service.
//!
//! Two protocols share one port, distinguished by the first byte of
//! each message:
//!
//! * **JSON over HTTP/1.1** — a fixed-schema dialect, parsed and
//!   emitted by hand (the workspace is dependency-free). Requests are
//!   small and their schema is closed, so the parser is a single
//!   left-to-right scan that extracts the two fields it knows
//!   (`"app"`: string, `"ts"`: non-negative integer milliseconds) and
//!   tolerates any other well-formed members. It is not a general JSON
//!   parser and does not try to be one.
//! * **SITW-BIN v1** — a length-prefixed batched binary protocol (the
//!   second half of this module). A frame carries up to
//!   [`MAX_BATCH`] invocations and is answered by one reply frame of
//!   fixed 9-byte verdict records, amortizing parse, syscall, and
//!   shard-mailbox costs across the whole batch.

use sitw_core::DecisionKind;

use crate::shard::{Decision, InvokeError};

/// A parsed `POST /invoke` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeRequest {
    /// Application identifier (the unit of keep-alive, §2).
    pub app: String,
    /// Invocation timestamp in trace milliseconds. Must be monotone
    /// non-decreasing per application.
    pub ts: u64,
    /// Tenant name (`None` = the default tenant). JSON carries the name;
    /// the binary protocol carries the registry-assigned `u16` id.
    pub tenant: Option<String>,
}

/// Parses an `/invoke` body: `{"app":"app-000123","ts":86400000}`, with
/// an optional `"tenant":"acme"` member naming the fleet tenant.
pub fn parse_invoke(body: &[u8]) -> Result<InvokeRequest, String> {
    let mut app: Option<String> = None;
    let mut ts: Option<u64> = None;
    let mut tenant: Option<String> = None;
    let mut i = 0usize;

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] == b' ' || b[i] == b'\t' || b[i] == b'\r' || b[i] == b'\n') {
            i += 1;
        }
        i
    }

    /// Reads the four hex digits of a `\uXXXX` escape starting at `i`.
    fn parse_hex4(b: &[u8], i: usize) -> Result<(u32, usize), String> {
        if i + 4 > b.len() {
            return Err("truncated \\u escape".into());
        }
        let mut v = 0u32;
        for &c in &b[i..i + 4] {
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit '{}' in \\u escape", c as char))?;
            v = v * 16 + d;
        }
        Ok((v, i + 4))
    }

    fn parse_string(b: &[u8], mut i: usize) -> Result<(String, usize), String> {
        if i >= b.len() || b[i] != b'"' {
            return Err("expected string".into());
        }
        i += 1;
        // Accumulate raw bytes and validate UTF-8 once at the end, so
        // multi-byte characters survive intact.
        let mut out: Vec<u8> = Vec::new();
        while i < b.len() {
            match b[i] {
                b'"' => {
                    let s = String::from_utf8(out).map_err(|_| "invalid utf-8 in string")?;
                    return Ok((s, i + 1));
                }
                b'\\' => {
                    i += 1;
                    if i >= b.len() {
                        break;
                    }
                    match b[i] {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let (unit, next) = parse_hex4(b, i + 1)?;
                            i = next;
                            let cp = match unit {
                                // High surrogate: a \uDC00..\uDFFF low
                                // surrogate must follow (RFC 8259 §7).
                                0xD800..=0xDBFF => {
                                    if b.get(i) != Some(&b'\\') || b.get(i + 1) != Some(&b'u') {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    let (lo, next) = parse_hex4(b, i + 2)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!("invalid low surrogate \\u{lo:04x}"));
                                    }
                                    i = next;
                                    0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!("unpaired low surrogate \\u{unit:04x}"))
                                }
                                bmp => bmp,
                            };
                            let ch = char::from_u32(cp)
                                .ok_or_else(|| format!("invalid codepoint U+{cp:04X}"))?;
                            let mut utf8 = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut utf8).as_bytes());
                            continue; // `i` already points past the escape.
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                    i += 1;
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    /// Skips any well-formed JSON value (scalar, object, or array)
    /// starting at `i`, returning the index just past it.
    fn skip_value(b: &[u8], mut i: usize) -> Result<usize, String> {
        match b.get(i) {
            Some(b'"') => {
                let (_, next) = parse_string(b, i)?;
                Ok(next)
            }
            Some(b'{') | Some(b'[') => {
                // Track nesting depth; strings inside may contain
                // brackets, so skip them wholesale.
                let mut depth = 0usize;
                while i < b.len() {
                    match b[i] {
                        b'"' => {
                            let (_, next) = parse_string(b, i)?;
                            i = next;
                        }
                        b'{' | b'[' => {
                            depth += 1;
                            i += 1;
                        }
                        b'}' | b']' => {
                            depth -= 1;
                            i += 1;
                            if depth == 0 {
                                return Ok(i);
                            }
                        }
                        _ => i += 1,
                    }
                }
                Err("unterminated container".into())
            }
            Some(_) => {
                // Number / true / false / null: runs to a delimiter.
                while i < b.len() && !matches!(b[i], b',' | b'}' | b']') {
                    i += 1;
                }
                Ok(i)
            }
            None => Err("expected value".into()),
        }
    }

    fn parse_u64(b: &[u8], mut i: usize) -> Result<(u64, usize), String> {
        let start = i;
        let mut v: u64 = 0;
        while i < b.len() && b[i].is_ascii_digit() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((b[i] - b'0') as u64))
                .ok_or("integer overflow")?;
            i += 1;
        }
        if i == start {
            return Err("expected integer".into());
        }
        Ok((v, i))
    }

    i = skip_ws(body, i);
    if i >= body.len() || body[i] != b'{' {
        return Err("expected object".into());
    }
    i = skip_ws(body, i + 1);
    if i < body.len() && body[i] == b'}' {
        // Empty object: fall through to the missing-field errors.
    } else {
        loop {
            i = skip_ws(body, i);
            let (key, next) = parse_string(body, i)?;
            i = skip_ws(body, next);
            if i >= body.len() || body[i] != b':' {
                return Err("expected ':'".into());
            }
            i = skip_ws(body, i + 1);
            match key.as_str() {
                "app" => {
                    let (v, next) = parse_string(body, i)?;
                    app = Some(v);
                    i = next;
                }
                "ts" => {
                    let (v, next) = parse_u64(body, i)?;
                    ts = Some(v);
                    i = next;
                }
                "tenant" => {
                    let (v, next) = parse_string(body, i)?;
                    tenant = Some(v);
                    i = next;
                }
                _ => {
                    i = skip_value(body, i)?;
                }
            }
            i = skip_ws(body, i);
            match body.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => break,
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }

    let app = app.ok_or("missing \"app\"")?;
    if app.is_empty() {
        return Err("empty \"app\"".into());
    }
    if tenant.as_deref() == Some("") {
        return Err("empty \"tenant\"".into());
    }
    let ts = ts.ok_or("missing \"ts\"")?;
    Ok(InvokeRequest { app, ts, tenant })
}

/// Short stable name of a decision branch, used in responses and
/// snapshots.
pub fn kind_str(kind: DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Histogram => "histogram",
        DecisionKind::StandardKeepAlive => "standard",
        DecisionKind::Arima => "arima",
        DecisionKind::Static => "static",
    }
}

/// Inverse of [`kind_str`].
pub fn kind_from_str(s: &str) -> Result<DecisionKind, String> {
    match s {
        "histogram" => Ok(DecisionKind::Histogram),
        "standard" => Ok(DecisionKind::StandardKeepAlive),
        "arima" => Ok(DecisionKind::Arima),
        "static" => Ok(DecisionKind::Static),
        other => Err(format!("unknown decision kind '{other}'")),
    }
}

/// Renders the `/invoke` response body for a decision.
// sitw-lint: hot-path
pub fn render_decision(out: &mut Vec<u8>, d: &Decision) {
    out.extend_from_slice(b"{\"verdict\":\"");
    out.extend_from_slice(if d.cold { b"cold" } else { b"warm" });
    out.extend_from_slice(b"\",\"kind\":\"");
    out.extend_from_slice(kind_str(d.kind).as_bytes());
    out.extend_from_slice(b"\",\"pre_warm_ms\":");
    push_u64(out, d.windows.pre_warm_ms);
    out.extend_from_slice(b",\"keep_alive_ms\":");
    push_u64(out, d.windows.keep_alive_ms);
    out.extend_from_slice(b",\"prewarm_load\":");
    out.extend_from_slice(if d.prewarm_load { b"true" } else { b"false" });
    out.extend_from_slice(b",\"evicted\":");
    out.extend_from_slice(if d.evicted { b"true" } else { b"false" });
    out.push(b'}');
}

/// Escapes a string for embedding inside a JSON string literal:
/// backslashes, double quotes, and control characters (the server's
/// error bodies echo client-controlled text, which must never produce
/// malformed JSON).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends the decimal representation of `v` without allocating.
// sitw-lint: hot-path
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

// ---------------------------------------------------------------------
// SITW-BIN: the length-prefixed batched binary protocol.
//
// Frame layout (all integers little-endian):
//
// ```text
// offset  size  field
//      0     1  magic        0x5B (one past ASCII 'Z': never a method)
//      1     1  version      1 or 2
//      2     1  kind         1 = request, 2 = reply, 3 = error
//      3     4  payload_len  u32, bytes after the 11-byte header
//      7     4  count        u32, records in the payload
//     11     …  payload
// ```
//
// Request payload, v1: `count` records of
// `{u16 app_len, app bytes, u64 ts}` — always the default tenant.
// Request payload, v2 (the fleet extension, version-gated): `count`
// records of `{u16 tenant_id, u16 app_len, app bytes, u64 ts}`.
// Control payload (kinds 4/5, the cluster extension): one op byte then
// name-keyed records — see [`ControlRequest`] / [`ControlReply`].
// Reply payload (both versions): `count` fixed 9-byte records — one
// verdict byte, then either two u32 windows (pre-warm, keep-alive;
// saturated at u32::MAX meaning "never") or, when the out-of-order bit
// is set, the u64 `last_ts` of the rejection. Verdict-byte bit 4 —
// reserved (always 0) in v1 — is the v2 *evicted* flag: the warm
// classification was downgraded to cold because the tenant's memory
// budget evicted the image during the gap. Replies echo the request
// frame's version.
// Error payload: `{u8 code, u16 detail_len, detail bytes}` (count = 0).
//
// The `payload_len` prefix is what keeps a connection usable after a
// malformed frame: as long as the envelope is intact, the server can
// skip exactly the bad frame and answer a typed error frame in its
// place. Only errors that destroy the framing itself (wrong version, a
// payload length beyond the cap) close the connection, mirroring the
// HTTP 413 path.

/// First byte of every SITW-BIN frame. `0x5B` is one past ASCII `Z`, so
/// it can never start an HTTP method token — that single byte is the
/// whole protocol sniff.
pub const BIN_MAGIC: u8 = 0x5B;
/// Protocol version 1: records without tenant ids (default tenant).
pub const BIN_VERSION: u8 = 1;
/// Protocol version 2: records carry a `u16` tenant id; replies may set
/// the evicted verdict bit.
pub const BIN_VERSION_2: u8 = 2;
/// Bytes in a frame header (magic, version, kind, payload_len, count).
pub const BIN_HEADER_LEN: usize = 11;
/// Frame kind: a batched invoke request (client → server).
pub const FRAME_REQUEST: u8 = 1;
/// Frame kind: a batched verdict reply (server → client).
pub const FRAME_REPLY: u8 = 2;
/// Frame kind: a typed protocol error (server → client).
pub const FRAME_ERROR: u8 = 3;
/// Frame kind: a cluster control request (router → node): a ledger
/// report poll or a budget-share push. See [`ControlRequest`].
pub const FRAME_CONTROL: u8 = 4;
/// Frame kind: the node's answer to a control request. See
/// [`ControlReply`].
pub const FRAME_CONTROL_REPLY: u8 = 5;
/// Frame kind: one chunk of a full snapshot sync (primary → follower).
/// Payload: `{u64 epoch, u32 seq, u8 last, chunk bytes}` — the chunks,
/// concatenated in `seq` order, are one complete snapshot document.
pub const FRAME_REPL_SYNC: u8 = 6;
/// Frame kind: one chunk of an incremental delta (primary → follower).
/// Same payload layout as [`FRAME_REPL_SYNC`]; the concatenated chunks
/// are one delta document streaming only dirty apps.
pub const FRAME_REPL_DELTA: u8 = 7;
/// Frame kind: closes one replication round (primary → follower).
/// Payload: `{u64 epoch}` — the epoch the follower now holds. A lone
/// commit (no preceding chunks) means nothing was dirty this round.
pub const FRAME_REPL_COMMIT: u8 = 8;
/// Frame kind: a replication pull (follower → primary). Payload:
/// `{u64 epoch}` — the epoch the follower holds; 0 (or any stale value)
/// makes the primary answer with a full sync instead of a delta.
pub const FRAME_REPL_ACK: u8 = 9;
/// Kind-byte flag: the payload of this [`FRAME_REQUEST`] starts with an
/// 8-byte little-endian trace id before the records. Version-gated to
/// v2 — a v1 frame with the flag set is malformed — so v1 peers, which
/// would misparse the prefix as a record, never see it. A traceless v2
/// frame is byte-identical to one encoded before this flag existed.
pub const FRAME_FLAG_TRACE: u8 = 0x80;
/// Bytes of the optional trace-id payload prefix (see
/// [`FRAME_FLAG_TRACE`]).
pub const TRACE_FIELD_LEN: usize = 8;

/// Control op: report per-tenant ledger integrals (empty body).
pub const CTRL_REPORT: u8 = 1;
/// Control op: set per-tenant budget shares (name-keyed records).
pub const CTRL_BUDGET_SET: u8 = 2;
/// Maximum frame payload, mirroring [`crate::http::MAX_BODY_BYTES`].
pub const MAX_FRAME_PAYLOAD: usize = crate::http::MAX_BODY_BYTES;
/// Maximum records per frame.
pub const MAX_BATCH: usize = 8192;
/// Bytes per reply record (verdict byte + 8 bytes of payload).
pub const REPLY_RECORD_LEN: usize = 9;
/// Smallest possible v1 request record: non-empty app of 1 byte + u64 ts.
const MIN_REQUEST_RECORD_LEN: usize = 2 + 1 + 8;
/// Smallest possible v2 request record: tenant id + v1 minimum.
const MIN_REQUEST_RECORD_LEN_V2: usize = 2 + MIN_REQUEST_RECORD_LEN;

// Verdict-byte bits.
const VB_COLD: u8 = 1 << 0;
const VB_PREWARM_LOAD: u8 = 1 << 1;
const VB_KIND_SHIFT: u8 = 2; // Bits 2–3: DecisionKind.
const VB_EVICTED: u8 = 1 << 4; // v2 only; reserved (0) in v1.
const VB_THROTTLED: u8 = 1 << 5; // v2 only; QoS admission rejection.
const VB_OUT_OF_ORDER: u8 = 1 << 7;

/// Typed SITW-BIN protocol errors, carried in [`FRAME_ERROR`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinErrorCode {
    /// The frame declared a version this server does not speak.
    BadVersion = 1,
    /// The frame exceeded [`MAX_BATCH`] records or
    /// [`MAX_FRAME_PAYLOAD`] bytes.
    Oversized = 2,
    /// The frame envelope or a record inside it was malformed.
    Malformed = 3,
    /// The node that owns the addressed tenant is down (emitted by
    /// `sitw-router` when an upstream connection fails; a single node
    /// never emits it for itself).
    Unavailable = 4,
}

impl BinErrorCode {
    /// The on-wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BinErrorCode::as_u8`].
    pub fn from_u8(v: u8) -> Option<BinErrorCode> {
        match v {
            1 => Some(BinErrorCode::BadVersion),
            2 => Some(BinErrorCode::Oversized),
            3 => Some(BinErrorCode::Malformed),
            4 => Some(BinErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// One batched binary invocation: the record of a SITW-BIN request
/// frame. v1 records always name the default tenant (id 0); v2 records
/// carry the registry-assigned tenant id on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinInvoke {
    /// Tenant id (0 = default tenant).
    pub tenant: u16,
    /// Application id.
    pub app: String,
    /// Invocation timestamp (trace milliseconds).
    pub ts: u64,
}

/// A cluster control request, carried in a [`FRAME_CONTROL`] frame
/// (router → node). The record payloads are keyed by tenant *name*, not
/// id: ids are per-node registration order and diverge across nodes as
/// soon as a tenant migrates, while names are the stable cluster-wide
/// key (the same reason tenant→shard routing hashes names).
///
/// Wire layout: the frame payload opens with one op byte
/// ([`CTRL_REPORT`] or [`CTRL_BUDGET_SET`]), then `count` records.
/// `Report` carries no records; `BudgetSet` records are
/// `{u16 name_len, name bytes, u64 budget_mb}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlRequest {
    /// Poll the node's per-tenant ledger integrals.
    Report,
    /// Install per-tenant budget shares (`(tenant name, budget MB)`;
    /// 0 = unlimited). Unknown tenants are skipped and uncounted.
    BudgetSet(Vec<(String, u64)>),
    /// A follower's replication pull ([`FRAME_REPL_ACK`]): stream the
    /// state mutated since `epoch`, or a full sync when the epoch is
    /// stale. Rides the control plumbing so replication needs no new
    /// connection machinery.
    ReplPull {
        /// The epoch the follower holds (0 = nothing yet).
        epoch: u64,
    },
}

/// One tenant's ledger integrals, as reported over the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// Tenant name (the cluster-wide key).
    pub name: String,
    /// The budget currently enforced on this node, MB (0 = unlimited).
    pub budget_mb: u64,
    /// Warm memory currently charged, MB.
    pub warm_mb: u64,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms.
    pub idle_mb_ms: u64,
    /// Invocations served.
    pub invocations: u64,
}

/// The node's answer to a [`ControlRequest`], carried in a
/// [`FRAME_CONTROL_REPLY`] frame. Report records are
/// `{u16 name_len, name, u64 budget_mb, u64 warm_mb, u64 evictions,
/// u64 idle_mb_ms, u64 invocations}`; a budget ack has no records and
/// echoes the number of shares applied in the header count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlReply {
    /// Per-tenant usage, in tenant-id order (default tenant first).
    Report(Vec<TenantUsage>),
    /// Budget shares applied.
    BudgetAck {
        /// How many of the pushed shares named a known tenant.
        applied: u32,
    },
}

/// Outcome of decoding one request frame from a byte buffer that starts
/// at a frame boundary.
#[derive(Debug)]
pub enum FrameDecode {
    /// A complete, well-formed request frame; `consumed` bytes cover the
    /// header and payload.
    Request {
        /// The batched invocations, in wire order.
        records: Vec<BinInvoke>,
        /// The frame's protocol version (replies must echo it).
        version: u8,
        /// The propagated trace id, when the frame carried one.
        trace: Option<u64>,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete cluster control frame.
    Control {
        /// The decoded control request.
        req: ControlRequest,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// The buffer holds only part of a frame; read more and retry.
    Incomplete,
    /// A protocol error. `skip` is the full frame length when the
    /// envelope was intact enough to resynchronize past it; `None` means
    /// the connection cannot be resynchronized and must close after the
    /// error frame is sent.
    Error {
        /// The typed error.
        code: BinErrorCode,
        /// Human-readable detail for the error frame.
        detail: String,
        /// Bytes to discard (header + payload) to reach the next frame.
        skip: Option<usize>,
    },
}

fn u32_at(buf: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]])
}

fn u64_at(buf: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[i..i + 8]);
    u64::from_le_bytes(b)
}

// sitw-lint: hot-path
fn frame_header(out: &mut Vec<u8>, version: u8, kind: u8, payload_len: usize, count: usize) {
    out.push(BIN_MAGIC);
    out.push(version);
    out.push(kind);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
}

/// Encodes one v1 request frame of `(app, ts)` records (default tenant).
///
/// # Panics
///
/// Panics if an app name exceeds `u16::MAX` bytes or the batch exceeds
/// [`MAX_BATCH`] — callers own the batching and must stay in bounds.
pub fn encode_request_frame(out: &mut Vec<u8>, records: &[(&str, u64)]) {
    assert!(records.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    let payload_len: usize = records.iter().map(|(app, _)| 2 + app.len() + 8).sum();
    out.reserve(BIN_HEADER_LEN + payload_len);
    frame_header(out, BIN_VERSION, FRAME_REQUEST, payload_len, records.len());
    for (app, ts) in records {
        assert!(app.len() <= u16::MAX as usize, "app name too long");
        out.extend_from_slice(&(app.len() as u16).to_le_bytes());
        out.extend_from_slice(app.as_bytes());
        out.extend_from_slice(&ts.to_le_bytes());
    }
}

/// Encodes one v2 request frame of `(tenant, app, ts)` records — the
/// fleet extension carrying a `u16` tenant id per record.
///
/// # Panics
///
/// Panics if an app name exceeds `u16::MAX` bytes or the batch exceeds
/// [`MAX_BATCH`].
pub fn encode_request_frame_v2(out: &mut Vec<u8>, records: &[(u16, &str, u64)]) {
    encode_v2_frame(out, records, None);
}

/// Encodes one v2 request frame carrying a propagated trace id: the
/// kind byte gains [`FRAME_FLAG_TRACE`] and the payload starts with the
/// 8-byte little-endian id before the records (see the flag docs for
/// the version gating).
///
/// # Panics
///
/// Panics if an app name exceeds `u16::MAX` bytes or the batch exceeds
/// [`MAX_BATCH`].
pub fn encode_request_frame_v2_traced(out: &mut Vec<u8>, records: &[(u16, &str, u64)], trace: u64) {
    encode_v2_frame(out, records, Some(trace));
}

fn encode_v2_frame(out: &mut Vec<u8>, records: &[(u16, &str, u64)], trace: Option<u64>) {
    assert!(records.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    let prefix = if trace.is_some() { TRACE_FIELD_LEN } else { 0 };
    let payload_len: usize = prefix
        + records
            .iter()
            .map(|(_, app, _)| 2 + 2 + app.len() + 8)
            .sum::<usize>();
    out.reserve(BIN_HEADER_LEN + payload_len);
    let kind = if trace.is_some() {
        FRAME_REQUEST | FRAME_FLAG_TRACE
    } else {
        FRAME_REQUEST
    };
    frame_header(out, BIN_VERSION_2, kind, payload_len, records.len());
    if let Some(id) = trace {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for (tenant, app, ts) in records {
        assert!(app.len() <= u16::MAX as usize, "app name too long");
        out.extend_from_slice(&tenant.to_le_bytes());
        out.extend_from_slice(&(app.len() as u16).to_le_bytes());
        out.extend_from_slice(app.as_bytes());
        out.extend_from_slice(&ts.to_le_bytes());
    }
}

/// Outcome of [`decode_request_frame_into`]: [`FrameDecode`] with the
/// records written into a caller-owned, reusable buffer instead of a
/// fresh allocation per frame (the reactor's per-connection hot path).
#[derive(Debug)]
pub enum FrameDecodeInto {
    /// A complete, well-formed request frame; the records were appended
    /// to the caller's buffer in wire order.
    Request {
        /// The frame's protocol version (replies must echo it).
        version: u8,
        /// The propagated trace id, when the frame carried one.
        trace: Option<u64>,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete cluster control frame (never writes `records`).
    Control {
        /// The decoded control request.
        req: ControlRequest,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// The buffer holds only part of a frame; read more and retry.
    Incomplete,
    /// A protocol error (see [`FrameDecode::Error`]).
    Error {
        /// The typed error.
        code: BinErrorCode,
        /// Human-readable detail for the error frame.
        detail: String,
        /// Bytes to discard (header + payload) to reach the next frame.
        skip: Option<usize>,
    },
}

/// Decodes one request frame. `buf` must start at a frame boundary (its
/// first byte was sniffed as [`BIN_MAGIC`]).
pub fn decode_request_frame(buf: &[u8]) -> FrameDecode {
    let mut records = Vec::new();
    match decode_request_frame_into(buf, &mut records) {
        FrameDecodeInto::Request {
            version,
            trace,
            consumed,
        } => FrameDecode::Request {
            records,
            version,
            trace,
            consumed,
        },
        FrameDecodeInto::Control { req, consumed } => FrameDecode::Control { req, consumed },
        FrameDecodeInto::Incomplete => FrameDecode::Incomplete,
        FrameDecodeInto::Error { code, detail, skip } => FrameDecode::Error { code, detail, skip },
    }
}

/// Decodes one request frame into `records` (cleared first, reused
/// across frames). See [`decode_request_frame`] for the boundary
/// contract.
pub fn decode_request_frame_into(buf: &[u8], records: &mut Vec<BinInvoke>) -> FrameDecodeInto {
    records.clear();
    if buf.len() < BIN_HEADER_LEN {
        return FrameDecodeInto::Incomplete;
    }
    if buf[0] != BIN_MAGIC {
        // Unreachable behind the sniff, but the codec stands alone.
        return FrameDecodeInto::Error {
            code: BinErrorCode::Malformed,
            detail: "bad magic".into(),
            skip: None,
        };
    }
    let version = buf[1];
    if version != BIN_VERSION && version != BIN_VERSION_2 {
        return FrameDecodeInto::Error {
            code: BinErrorCode::BadVersion,
            detail: format!("unsupported version {version}"),
            skip: None,
        };
    }
    let kind = buf[2];
    let payload_len = u32_at(buf, 3) as usize;
    let count = u32_at(buf, 7) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return FrameDecodeInto::Error {
            code: BinErrorCode::Oversized,
            detail: format!("payload {payload_len} exceeds {MAX_FRAME_PAYLOAD}"),
            skip: None,
        };
    }
    let total = BIN_HEADER_LEN + payload_len;
    // From here on the envelope is trusted: every error is skippable.
    let malformed = |detail: String| FrameDecodeInto::Error {
        code: BinErrorCode::Malformed,
        detail,
        skip: Some(total),
    };
    if kind == FRAME_CONTROL {
        if buf.len() < total {
            return FrameDecodeInto::Incomplete;
        }
        return match decode_control_payload(&buf[BIN_HEADER_LEN..total], count) {
            Ok(req) => FrameDecodeInto::Control {
                req,
                consumed: total,
            },
            Err(detail) => malformed(detail),
        };
    }
    if kind == FRAME_REPL_ACK {
        if buf.len() < total {
            return FrameDecodeInto::Incomplete;
        }
        if payload_len != 8 || count != 0 {
            return malformed("repl ack carries exactly one u64 epoch".into());
        }
        return FrameDecodeInto::Control {
            req: ControlRequest::ReplPull {
                epoch: u64_at(buf, BIN_HEADER_LEN),
            },
            consumed: total,
        };
    }
    let traced = kind == FRAME_REQUEST | FRAME_FLAG_TRACE;
    if !traced && kind != FRAME_REQUEST {
        return malformed(format!("unexpected frame kind {kind}"));
    }
    if traced && version != BIN_VERSION_2 {
        // The trace field is a v2 extension; a v1 peer would misparse
        // the 8-byte prefix as a record.
        return malformed("trace flag requires protocol v2".into());
    }
    if count > MAX_BATCH {
        return FrameDecodeInto::Error {
            code: BinErrorCode::Oversized,
            detail: format!("batch of {count} exceeds {MAX_BATCH}"),
            skip: Some(total),
        };
    }
    let min_record_len = if version == BIN_VERSION_2 {
        MIN_REQUEST_RECORD_LEN_V2
    } else {
        MIN_REQUEST_RECORD_LEN
    };
    let trace_len = if traced { TRACE_FIELD_LEN } else { 0 };
    if count * min_record_len + trace_len > payload_len {
        // Decidable from the header alone — fail before buffering the
        // (possibly large) payload.
        return malformed(format!("count {count} cannot fit payload {payload_len}"));
    }
    if buf.len() < total {
        return FrameDecodeInto::Incomplete;
    }
    let payload = &buf[BIN_HEADER_LEN..total];
    let (trace, payload) = if traced {
        (Some(u64_at(payload, 0)), &payload[TRACE_FIELD_LEN..])
    } else {
        (None, payload)
    };
    records.reserve(count);
    let mut i = 0usize;
    for r in 0..count {
        // The aggregate count*MIN check above cannot guarantee this:
        // one oversized record can consume other records' minimum
        // budget, leaving fewer than the fixed prefix here.
        let prefix = if version == BIN_VERSION_2 { 4 } else { 2 };
        if i + prefix > payload.len() {
            records.clear();
            return malformed(format!("record {r} truncated"));
        }
        let tenant = if version == BIN_VERSION_2 {
            let t = u16::from_le_bytes([payload[i], payload[i + 1]]);
            i += 2;
            t
        } else {
            0
        };
        let app_len = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
        i += 2;
        if app_len == 0 {
            records.clear();
            return malformed(format!("record {r}: empty app"));
        }
        if i + app_len + 8 > payload.len() {
            records.clear();
            return malformed(format!("record {r} overruns payload"));
        }
        let Ok(app) = std::str::from_utf8(&payload[i..i + app_len]) else {
            records.clear();
            return malformed(format!("record {r}: app is not utf-8"));
        };
        let app = app.to_owned();
        i += app_len;
        let ts = u64_at(payload, i);
        i += 8;
        records.push(BinInvoke { tenant, app, ts });
    }
    if i != payload.len() {
        records.clear();
        return malformed(format!(
            "{} trailing bytes after records",
            payload.len() - i
        ));
    }
    FrameDecodeInto::Request {
        version,
        trace,
        consumed: total,
    }
}

pub(crate) fn kind_to_bits(kind: DecisionKind) -> u8 {
    match kind {
        DecisionKind::Histogram => 0,
        DecisionKind::StandardKeepAlive => 1,
        DecisionKind::Arima => 2,
        DecisionKind::Static => 3,
    }
}

pub(crate) fn kind_from_bits(bits: u8) -> DecisionKind {
    match bits & 0b11 {
        0 => DecisionKind::Histogram,
        1 => DecisionKind::StandardKeepAlive,
        2 => DecisionKind::Arima,
        _ => DecisionKind::Static,
    }
}

/// Saturating millisecond window for the wire: `u32::MAX` means "at
/// least 49 days", which every policy treats as never.
fn sat_u32(ms: u64) -> u32 {
    ms.min(u32::MAX as u64) as u32
}

/// Encodes one reply frame, one 9-byte record per decision, in request
/// order. `version` echoes the request frame's version; the evicted
/// verdict bit is emitted only on v2 (it is reserved in v1, where the
/// default tenant is unbudgeted and can never evict).
// sitw-lint: hot-path
pub fn encode_reply_frame(
    out: &mut Vec<u8>,
    version: u8,
    results: &[Result<Decision, InvokeError>],
) {
    let payload_len = results.len() * REPLY_RECORD_LEN;
    out.reserve(BIN_HEADER_LEN + payload_len);
    frame_header(out, version, FRAME_REPLY, payload_len, results.len());
    for result in results {
        match result {
            Ok(d) => {
                let mut vb = kind_to_bits(d.kind) << VB_KIND_SHIFT;
                if d.cold {
                    vb |= VB_COLD;
                }
                if d.prewarm_load {
                    vb |= VB_PREWARM_LOAD;
                }
                if d.evicted && version >= BIN_VERSION_2 {
                    vb |= VB_EVICTED;
                }
                out.push(vb);
                out.extend_from_slice(&sat_u32(d.windows.pre_warm_ms).to_le_bytes());
                out.extend_from_slice(&sat_u32(d.windows.keep_alive_ms).to_le_bytes());
            }
            Err(InvokeError::OutOfOrder { last_ts }) => {
                out.push(VB_OUT_OF_ORDER);
                out.extend_from_slice(&last_ts.to_le_bytes());
            }
            Err(InvokeError::UnknownTenant) => {
                // Unreachable in the daemon: tenant ids are validated
                // against the registry before a frame is dispatched, and
                // an unknown id rejects the whole frame with a typed
                // error. Encoded defensively as an out-of-order record
                // with a sentinel timestamp.
                out.push(VB_OUT_OF_ORDER);
                out.extend_from_slice(&u64::MAX.to_le_bytes());
            }
        }
    }
}

/// Re-encodes decoded reply records into one reply frame — the router's
/// reassembly path: a client frame split across nodes comes back as
/// per-node reply frames whose records are interleaved (in request
/// order, with locally generated [`BinReply::Throttled`] records for
/// admission rejections) into the single frame the client expects.
/// Byte-for-byte inverse of the reply decoder on the same version.
pub fn encode_reply_records(out: &mut Vec<u8>, version: u8, records: &[BinReply]) {
    let payload_len = records.len() * REPLY_RECORD_LEN;
    out.reserve(BIN_HEADER_LEN + payload_len);
    frame_header(out, version, FRAME_REPLY, payload_len, records.len());
    for rec in records {
        match rec {
            BinReply::Verdict {
                cold,
                prewarm_load,
                evicted,
                kind,
                pre_warm_ms,
                keep_alive_ms,
            } => {
                let mut vb = kind_to_bits(*kind) << VB_KIND_SHIFT;
                if *cold {
                    vb |= VB_COLD;
                }
                if *prewarm_load {
                    vb |= VB_PREWARM_LOAD;
                }
                if *evicted && version >= BIN_VERSION_2 {
                    vb |= VB_EVICTED;
                }
                out.push(vb);
                out.extend_from_slice(&pre_warm_ms.to_le_bytes());
                out.extend_from_slice(&keep_alive_ms.to_le_bytes());
            }
            BinReply::OutOfOrder { last_ts } => {
                out.push(VB_OUT_OF_ORDER);
                out.extend_from_slice(&last_ts.to_le_bytes());
            }
            BinReply::Throttled => {
                out.push(VB_THROTTLED);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
    }
}

/// Encodes one typed error frame (detail truncated to 256 bytes).
pub fn encode_error_frame(out: &mut Vec<u8>, code: BinErrorCode, detail: &str) {
    let mut end = detail.len().min(256);
    while !detail.is_char_boundary(end) {
        end -= 1;
    }
    let detail = &detail.as_bytes()[..end];
    frame_header(out, BIN_VERSION, FRAME_ERROR, 1 + 2 + detail.len(), 0);
    out.push(code.as_u8());
    out.extend_from_slice(&(detail.len() as u16).to_le_bytes());
    out.extend_from_slice(detail);
}

/// Encodes one cluster control request frame (router → node).
pub fn encode_control_frame(out: &mut Vec<u8>, req: &ControlRequest) {
    match req {
        ControlRequest::Report => {
            frame_header(out, BIN_VERSION_2, FRAME_CONTROL, 1, 0);
            out.push(CTRL_REPORT);
        }
        ControlRequest::BudgetSet(shares) => {
            assert!(shares.len() <= MAX_BATCH, "budget set exceeds MAX_BATCH");
            let payload_len: usize = 1 + shares.iter().map(|(n, _)| 2 + n.len() + 8).sum::<usize>();
            frame_header(out, BIN_VERSION_2, FRAME_CONTROL, payload_len, shares.len());
            out.push(CTRL_BUDGET_SET);
            for (name, budget_mb) in shares {
                assert!(name.len() <= u16::MAX as usize, "tenant name too long");
                out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(&budget_mb.to_le_bytes());
            }
        }
        // Replication pulls have their own frame kind, not a control
        // opcode — they ride this encoder for symmetry only.
        ControlRequest::ReplPull { epoch } => encode_repl_ack(out, *epoch),
    }
}

/// Decodes a [`FRAME_CONTROL`] payload (the op byte plus records).
fn decode_control_payload(payload: &[u8], count: usize) -> Result<ControlRequest, String> {
    let Some(&op) = payload.first() else {
        return Err("empty control payload".into());
    };
    match op {
        CTRL_REPORT => {
            if payload.len() != 1 || count != 0 {
                return Err("report request carries no records".into());
            }
            Ok(ControlRequest::Report)
        }
        CTRL_BUDGET_SET => {
            if count > MAX_BATCH {
                return Err(format!("budget set of {count} exceeds {MAX_BATCH}"));
            }
            let mut shares = Vec::with_capacity(count);
            let mut i = 1usize;
            for r in 0..count {
                if i + 2 > payload.len() {
                    return Err(format!("budget record {r} truncated"));
                }
                let name_len = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
                i += 2;
                if name_len == 0 || i + name_len + 8 > payload.len() {
                    return Err(format!("budget record {r} overruns payload"));
                }
                let Ok(name) = std::str::from_utf8(&payload[i..i + name_len]) else {
                    return Err(format!("budget record {r}: name is not utf-8"));
                };
                let name = name.to_owned();
                i += name_len;
                let budget_mb = u64_at(payload, i);
                i += 8;
                shares.push((name, budget_mb));
            }
            if i != payload.len() {
                return Err(format!("{} trailing control bytes", payload.len() - i));
            }
            Ok(ControlRequest::BudgetSet(shares))
        }
        other => Err(format!("unknown control op {other}")),
    }
}

/// Encodes one control reply frame (node → router).
pub fn encode_control_reply(out: &mut Vec<u8>, reply: &ControlReply) {
    match reply {
        ControlReply::Report(tenants) => {
            assert!(tenants.len() <= MAX_BATCH, "report exceeds MAX_BATCH");
            let payload_len: usize = 1 + tenants
                .iter()
                .map(|t| 2 + t.name.len() + 8 * 5)
                .sum::<usize>();
            frame_header(
                out,
                BIN_VERSION_2,
                FRAME_CONTROL_REPLY,
                payload_len,
                tenants.len(),
            );
            out.push(CTRL_REPORT);
            for t in tenants {
                assert!(t.name.len() <= u16::MAX as usize, "tenant name too long");
                out.extend_from_slice(&(t.name.len() as u16).to_le_bytes());
                out.extend_from_slice(t.name.as_bytes());
                for v in [
                    t.budget_mb,
                    t.warm_mb,
                    t.evictions,
                    t.idle_mb_ms,
                    t.invocations,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        ControlReply::BudgetAck { applied } => {
            frame_header(
                out,
                BIN_VERSION_2,
                FRAME_CONTROL_REPLY,
                1,
                *applied as usize,
            );
            out.push(CTRL_BUDGET_SET);
        }
    }
}

/// Maximum chunk body per replication frame — comfortably under
/// [`MAX_FRAME_PAYLOAD`] with the 13-byte chunk header on top, and
/// small enough that streaming a large document never monopolizes the
/// connection's write buffer.
pub const REPL_CHUNK_BYTES: usize = 64 * 1024;

/// Bytes of a replication chunk payload header (`u64 epoch`, `u32 seq`,
/// `u8 last`) preceding the chunk body.
pub const REPL_CHUNK_HEADER: usize = 13;

/// Encodes one replication pull frame (follower → primary): the epoch
/// the follower holds.
pub fn encode_repl_ack(out: &mut Vec<u8>, epoch: u64) {
    frame_header(out, BIN_VERSION_2, FRAME_REPL_ACK, 8, 0);
    out.extend_from_slice(&epoch.to_le_bytes());
}

/// Encodes one replication chunk frame (primary → follower). `kind` is
/// [`FRAME_REPL_SYNC`] or [`FRAME_REPL_DELTA`].
///
/// # Panics
///
/// Panics when `chunk` exceeds [`REPL_CHUNK_BYTES`] or `kind` is not a
/// replication chunk kind — the round encoder owns the chunking.
pub fn encode_repl_chunk(
    out: &mut Vec<u8>,
    kind: u8,
    epoch: u64,
    seq: u32,
    last: bool,
    chunk: &[u8],
) {
    assert!(
        kind == FRAME_REPL_SYNC || kind == FRAME_REPL_DELTA,
        "not a replication chunk kind"
    );
    assert!(chunk.len() <= REPL_CHUNK_BYTES, "repl chunk too large");
    frame_header(out, BIN_VERSION_2, kind, REPL_CHUNK_HEADER + chunk.len(), 0);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(u8::from(last));
    out.extend_from_slice(chunk);
}

/// Encodes one epoch-commit frame closing a replication round.
pub fn encode_repl_commit(out: &mut Vec<u8>, epoch: u64) {
    frame_header(out, BIN_VERSION_2, FRAME_REPL_COMMIT, 8, 0);
    out.extend_from_slice(&epoch.to_le_bytes());
}

/// Encodes one complete replication round: `doc` split into
/// [`REPL_CHUNK_BYTES`]-sized chunk frames of `kind`, closed by an
/// epoch-commit. An empty `doc` emits the lone commit (nothing dirty).
pub fn encode_repl_round(out: &mut Vec<u8>, kind: u8, epoch: u64, doc: &[u8]) {
    if !doc.is_empty() {
        let chunks: Vec<&[u8]> = doc.chunks(REPL_CHUNK_BYTES).collect();
        for (seq, chunk) in chunks.iter().enumerate() {
            let last = seq + 1 == chunks.len();
            encode_repl_chunk(out, kind, epoch, seq as u32, last, chunk);
        }
    }
    encode_repl_commit(out, epoch);
}

/// Decodes a [`FRAME_CONTROL_REPLY`] payload.
fn decode_control_reply_payload(payload: &[u8], count: usize) -> Result<ControlReply, String> {
    let Some(&op) = payload.first() else {
        return Err("empty control reply".into());
    };
    match op {
        CTRL_REPORT => {
            if count > MAX_BATCH {
                return Err(format!("report of {count} exceeds {MAX_BATCH}"));
            }
            let mut tenants = Vec::with_capacity(count);
            let mut i = 1usize;
            for r in 0..count {
                if i + 2 > payload.len() {
                    return Err(format!("usage record {r} truncated"));
                }
                let name_len = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
                i += 2;
                if name_len == 0 || i + name_len + 40 > payload.len() {
                    return Err(format!("usage record {r} overruns payload"));
                }
                let Ok(name) = std::str::from_utf8(&payload[i..i + name_len]) else {
                    return Err(format!("usage record {r}: name is not utf-8"));
                };
                let name = name.to_owned();
                i += name_len;
                let mut vals = [0u64; 5];
                for v in &mut vals {
                    *v = u64_at(payload, i);
                    i += 8;
                }
                tenants.push(TenantUsage {
                    name,
                    budget_mb: vals[0],
                    warm_mb: vals[1],
                    evictions: vals[2],
                    idle_mb_ms: vals[3],
                    invocations: vals[4],
                });
            }
            if i != payload.len() {
                return Err(format!("{} trailing reply bytes", payload.len() - i));
            }
            Ok(ControlReply::Report(tenants))
        }
        CTRL_BUDGET_SET => {
            if payload.len() != 1 {
                return Err("budget ack carries no records".into());
            }
            Ok(ControlReply::BudgetAck {
                applied: count as u32,
            })
        }
        other => Err(format!("unknown control reply op {other}")),
    }
}

/// One decoded reply record, as seen by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinReply {
    /// A served decision.
    Verdict {
        /// The invocation found no loaded image.
        cold: bool,
        /// A pre-warm load occurred in the gap ending at this invocation.
        prewarm_load: bool,
        /// The image was evicted for memory pressure during the gap
        /// (v2 frames only; always false on v1).
        evicted: bool,
        /// The policy branch that produced the windows.
        kind: DecisionKind,
        /// Pre-warm window in ms (saturated at `u32::MAX`).
        pre_warm_ms: u32,
        /// Keep-alive window in ms (saturated at `u32::MAX`).
        keep_alive_ms: u32,
    },
    /// The invocation was rejected as out of order.
    OutOfOrder {
        /// The app's last accepted timestamp.
        last_ts: u64,
    },
    /// The invocation was refused by QoS admission control: the tenant's
    /// rate limit was exhausted at this trace time (v2 frames only;
    /// emitted by `sitw-router`, mirrored by HTTP 429 on the JSON path).
    /// No policy state advanced — the invocation never reached a shard.
    Throttled,
}

/// Outcome of decoding one server→client frame.
#[derive(Debug)]
pub enum ServerFrameDecode {
    /// A complete reply frame.
    Reply {
        /// Verdicts in request order.
        records: Vec<BinReply>,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete typed error frame.
    Error {
        /// The typed error.
        code: BinErrorCode,
        /// Server-provided detail.
        detail: String,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete control reply frame (node → router).
    Control {
        /// The decoded control reply.
        reply: ControlReply,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete replication chunk frame (primary → follower).
    ReplChunk {
        /// `true` for a full-sync chunk, `false` for a delta chunk.
        full_sync: bool,
        /// The epoch this round commits to.
        epoch: u64,
        /// Chunk index within the round, from 0.
        seq: u32,
        /// Whether this is the round's final chunk.
        last: bool,
        /// The chunk body (a slice of the round's document).
        data: Vec<u8>,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete epoch-commit frame closing a replication round.
    ReplCommit {
        /// The epoch the receiver now holds.
        epoch: u64,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// The buffer holds only part of a frame; read more and retry.
    Incomplete,
    /// The server sent something this codec cannot parse; the client
    /// must close.
    Malformed(String),
}

/// Decodes one server→client frame (reply or error). `buf` must start
/// at a frame boundary.
pub fn decode_server_frame(buf: &[u8]) -> ServerFrameDecode {
    if buf.len() < BIN_HEADER_LEN {
        return ServerFrameDecode::Incomplete;
    }
    if buf[0] != BIN_MAGIC || (buf[1] != BIN_VERSION && buf[1] != BIN_VERSION_2) {
        return ServerFrameDecode::Malformed(format!(
            "bad frame start {:02x} {:02x}",
            buf[0], buf[1]
        ));
    }
    let kind = buf[2];
    let payload_len = u32_at(buf, 3) as usize;
    let count = u32_at(buf, 7) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return ServerFrameDecode::Malformed(format!("oversized reply payload {payload_len}"));
    }
    let total = BIN_HEADER_LEN + payload_len;
    if buf.len() < total {
        return ServerFrameDecode::Incomplete;
    }
    let payload = &buf[BIN_HEADER_LEN..total];
    match kind {
        FRAME_REPLY => {
            if payload_len != count * REPLY_RECORD_LEN {
                return ServerFrameDecode::Malformed(format!(
                    "reply payload {payload_len} does not match count {count}"
                ));
            }
            let mut records = Vec::with_capacity(count);
            for r in 0..count {
                let i = r * REPLY_RECORD_LEN;
                let vb = payload[i];
                if vb & VB_OUT_OF_ORDER != 0 {
                    records.push(BinReply::OutOfOrder {
                        last_ts: u64_at(payload, i + 1),
                    });
                } else if vb & VB_THROTTLED != 0 {
                    records.push(BinReply::Throttled);
                } else {
                    records.push(BinReply::Verdict {
                        cold: vb & VB_COLD != 0,
                        prewarm_load: vb & VB_PREWARM_LOAD != 0,
                        evicted: vb & VB_EVICTED != 0,
                        kind: kind_from_bits(vb >> VB_KIND_SHIFT),
                        pre_warm_ms: u32_at(payload, i + 1),
                        keep_alive_ms: u32_at(payload, i + 5),
                    });
                }
            }
            ServerFrameDecode::Reply {
                records,
                consumed: total,
            }
        }
        FRAME_ERROR => {
            if payload.len() < 3 {
                return ServerFrameDecode::Malformed("truncated error frame".into());
            }
            let Some(code) = BinErrorCode::from_u8(payload[0]) else {
                return ServerFrameDecode::Malformed(format!("unknown error code {}", payload[0]));
            };
            let detail_len = u16::from_le_bytes([payload[1], payload[2]]) as usize;
            if 3 + detail_len != payload.len() {
                return ServerFrameDecode::Malformed("error detail length mismatch".into());
            }
            let detail = String::from_utf8_lossy(&payload[3..]).into_owned();
            ServerFrameDecode::Error {
                code,
                detail,
                consumed: total,
            }
        }
        FRAME_CONTROL_REPLY => match decode_control_reply_payload(payload, count) {
            Ok(reply) => ServerFrameDecode::Control {
                reply,
                consumed: total,
            },
            Err(detail) => ServerFrameDecode::Malformed(detail),
        },
        FRAME_REPL_SYNC | FRAME_REPL_DELTA => {
            if payload.len() < REPL_CHUNK_HEADER {
                return ServerFrameDecode::Malformed("truncated repl chunk".into());
            }
            ServerFrameDecode::ReplChunk {
                full_sync: kind == FRAME_REPL_SYNC,
                epoch: u64_at(payload, 0),
                seq: u32_at(payload, 8),
                last: payload[12] != 0,
                data: payload[REPL_CHUNK_HEADER..].to_vec(),
                consumed: total,
            }
        }
        FRAME_REPL_COMMIT => {
            if payload.len() != 8 {
                return ServerFrameDecode::Malformed("repl commit carries one u64 epoch".into());
            }
            ServerFrameDecode::ReplCommit {
                epoch: u64_at(payload, 0),
                consumed: total,
            }
        }
        other => ServerFrameDecode::Malformed(format!("unexpected server frame kind {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::Windows;

    #[test]
    fn parse_roundtrip_and_field_order() {
        let r = parse_invoke(br#"{"app":"app-000017","ts":86400000}"#).unwrap();
        assert_eq!(r.app, "app-000017");
        assert_eq!(r.ts, 86_400_000);
        // Reversed field order and extra members are fine.
        let r = parse_invoke(br#"{ "ts": 5 , "app" : "x" , "extra": "y" }"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("x", 5));
    }

    #[test]
    fn parse_preserves_utf8_app_ids() {
        let r = parse_invoke("{\"app\":\"café-功能\",\"ts\":1}".as_bytes()).unwrap();
        assert_eq!(r.app, "café-功能");
    }

    #[test]
    fn parse_decodes_unicode_escapes() {
        // Regression: any valid JSON containing \uXXXX used to be
        // rejected with "unsupported escape \u".
        let r = parse_invoke(br#"{"app":"caf\u00e9-\u529f\u80fd","ts":1}"#).unwrap();
        assert_eq!(r.app, "caf\u{e9}-\u{529f}\u{80fd}");
        // Surrogate pair: \ud83d\ude80 decodes to U+1F680.
        let r = parse_invoke(br#"{"app":"\ud83d\ude80","ts":2}"#).unwrap();
        assert_eq!(r.app, "\u{1F680}");
        // Escapes in skipped members must parse too.
        let r = parse_invoke(br#"{"meta":"A\u0042\b\f","app":"a","ts":3}"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("a", 3));
        // Case-insensitive hex digits; literal text continues after.
        let r = parse_invoke(br#"{"app":"a\u004Bx","ts":4}"#).unwrap();
        assert_eq!(r.app, "aKx");
    }

    #[test]
    fn parse_rejects_invalid_unicode_escapes() {
        for body in [
            br#"{"app":"\u12","ts":1}"#.as_slice(),    // Truncated.
            br#"{"app":"\uzzzz","ts":1}"#.as_slice(),  // Not hex.
            br#"{"app":"\ud83d","ts":1}"#.as_slice(),  // Lone high surrogate.
            br#"{"app":"\ud83dx","ts":1}"#.as_slice(), // High + no escape.
            br#"{"app":"\ud83dA","ts":1}"#.as_slice(), // High + non-low.
            br#"{"app":"\ude80","ts":1}"#.as_slice(),  // Lone low surrogate.
        ] {
            assert!(
                parse_invoke(body).is_err(),
                "{}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn parse_skips_nested_unknown_members() {
        let r = parse_invoke(br#"{"meta":{"x":{"y":[1,2]},"s":"a}b"},"app":"a","ts":1}"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("a", 1));
        let r = parse_invoke(br#"{"app":"a","tags":[1,[2,3],"],"],"ts":7,"flag":true}"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("a", 7));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_invoke(b"").is_err());
        assert!(parse_invoke(b"[]").is_err());
        assert!(parse_invoke(br#"{"app":"x"}"#).is_err());
        assert!(parse_invoke(br#"{"ts":1}"#).is_err());
        assert!(parse_invoke(br#"{"app":"","ts":1}"#).is_err());
        assert!(parse_invoke(br#"{"app":"x","ts":-3}"#).is_err());
        assert!(parse_invoke(br#"{"app":"x","ts":99999999999999999999999}"#).is_err());
    }

    #[test]
    fn decision_renders_compact_json() {
        let mut out = Vec::new();
        render_decision(
            &mut out,
            &Decision {
                cold: true,
                prewarm_load: false,
                evicted: false,
                kind: sitw_core::DecisionKind::StandardKeepAlive,
                windows: Windows::keep_loaded(14_400_000),
            },
        );
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"verdict\":\"cold\",\"kind\":\"standard\",\"pre_warm_ms\":0,\
             \"keep_alive_ms\":14400000,\"prewarm_load\":false,\"evicted\":false}"
        );
    }

    #[test]
    fn parse_reads_optional_tenant() {
        let r = parse_invoke(br#"{"app":"a","ts":1}"#).unwrap();
        assert_eq!(r.tenant, None);
        let r = parse_invoke(br#"{"tenant":"acme","app":"a","ts":2}"#).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("acme"));
        assert!(parse_invoke(br#"{"tenant":"","app":"a","ts":1}"#).is_err());
    }

    #[test]
    fn kind_str_roundtrip() {
        use sitw_core::DecisionKind::*;
        for k in [Histogram, StandardKeepAlive, Arima, Static] {
            assert_eq!(kind_from_str(kind_str(k)).unwrap(), k);
        }
        assert!(kind_from_str("nope").is_err());
    }

    #[test]
    fn json_escape_neutralizes_hostile_strings() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\\x"), "a\\\\x");
        assert_eq!(json_escape("q\"q"), "q\\\"q");
        assert_eq!(json_escape("n\nl"), "n\\nl");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("café"), "café");
    }

    #[test]
    fn push_u64_formats() {
        let mut out = Vec::new();
        push_u64(&mut out, 0);
        out.push(b' ');
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, b"0 18446744073709551615");
    }

    // ---- SITW-BIN v1 ----

    #[test]
    fn bin_magic_never_starts_an_http_method() {
        // The whole sniff: 0x5B is one past 'Z', outside A–Z.
        assert!(!BIN_MAGIC.is_ascii_uppercase());
        assert_eq!(BIN_MAGIC, b'Z' + 1);
    }

    #[test]
    fn request_frame_roundtrip() {
        let records = [("app-000001", 0u64), ("café-功能", u64::MAX), ("x", 42)];
        let mut out = Vec::new();
        encode_request_frame(&mut out, &records);
        assert_eq!(out[0], BIN_MAGIC);
        match decode_request_frame(&out) {
            FrameDecode::Request {
                records: r,
                version,
                trace,
                consumed,
            } => {
                assert_eq!(consumed, out.len());
                assert_eq!(version, BIN_VERSION);
                assert_eq!(trace, None);
                assert_eq!(r.len(), 3);
                assert_eq!(
                    r[0],
                    BinInvoke {
                        tenant: 0,
                        app: "app-000001".into(),
                        ts: 0
                    }
                );
                assert_eq!(r[1].app, "café-功能");
                assert_eq!(r[1].ts, u64::MAX);
                assert_eq!((r[2].app.as_str(), r[2].ts), ("x", 42));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn v2_request_frame_roundtrips_tenant_ids() {
        let records = [
            (0u16, "app-000001", 7u64),
            (513, "café", 9),
            (u16::MAX, "x", 0),
        ];
        let mut out = Vec::new();
        encode_request_frame_v2(&mut out, &records);
        assert_eq!(out[1], BIN_VERSION_2);
        match decode_request_frame(&out) {
            FrameDecode::Request {
                records: r,
                version,
                trace,
                consumed,
            } => {
                assert_eq!(version, BIN_VERSION_2);
                assert_eq!(trace, None, "traceless v2 must stay traceless");
                assert_eq!(consumed, out.len());
                for ((tenant, app, ts), got) in records.iter().zip(&r) {
                    assert_eq!(got.tenant, *tenant);
                    assert_eq!(got.app, *app);
                    assert_eq!(got.ts, *ts);
                }
            }
            other => panic!("{other:?}"),
        }
        // Every proper prefix is Incomplete, exactly like v1.
        for i in 0..out.len() {
            assert!(matches!(
                decode_request_frame(&out[..i]),
                FrameDecode::Incomplete
            ));
        }
        // A v2 count that cannot fit the 13-byte minimum records is
        // caught from the header alone.
        let mut f = Vec::new();
        frame_header(&mut f, BIN_VERSION_2, FRAME_REQUEST, 20, 2);
        match decode_request_frame(&f) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(BIN_HEADER_LEN + 20));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traced_v2_frame_roundtrips_and_gates_on_version() {
        let records = [(1u16, "app-000001", 7u64), (2, "x", 9)];
        let trace_id = sitw_telemetry::TRACE_MARK | 0xBEEF;
        let mut out = Vec::new();
        encode_request_frame_v2_traced(&mut out, &records, trace_id);
        assert_eq!(out[2], FRAME_REQUEST | FRAME_FLAG_TRACE);
        match decode_request_frame(&out) {
            FrameDecode::Request {
                records: r,
                version,
                trace,
                consumed,
            } => {
                assert_eq!(version, BIN_VERSION_2);
                assert_eq!(trace, Some(trace_id));
                assert_eq!(consumed, out.len());
                assert_eq!(r.len(), 2);
                assert_eq!(
                    (r[0].tenant, r[0].app.as_str(), r[0].ts),
                    (1, "app-000001", 7)
                );
            }
            other => panic!("{other:?}"),
        }
        // A traceless encode of the same records is byte-identical to
        // the pre-flag wire format: strip the flag and the trace prefix
        // and the frames match except for the payload length.
        let mut plain = Vec::new();
        encode_request_frame_v2(&mut plain, &records);
        assert_eq!(
            &out[BIN_HEADER_LEN + TRACE_FIELD_LEN..],
            &plain[BIN_HEADER_LEN..]
        );
        // Every proper prefix is Incomplete.
        for i in 0..out.len() {
            assert!(matches!(
                decode_request_frame(&out[..i]),
                FrameDecode::Incomplete
            ));
        }
        // The flag is v2-only: the same frame relabelled v1 is a
        // recoverable malformed frame, not a misparse.
        let mut v1 = out.clone();
        v1[1] = BIN_VERSION;
        match decode_request_frame(&v1) {
            FrameDecode::Error { code, detail, skip } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert!(
                    detail.contains("trace flag requires protocol v2"),
                    "{detail}"
                );
                assert_eq!(skip, Some(v1.len()));
            }
            other => panic!("{other:?}"),
        }
        // A traced header whose payload cannot even hold the trace id
        // is caught from the header alone.
        let mut f = Vec::new();
        frame_header(
            &mut f,
            BIN_VERSION_2,
            FRAME_REQUEST | FRAME_FLAG_TRACE,
            4,
            0,
        );
        match decode_request_frame(&f) {
            FrameDecode::Error { code, .. } => assert_eq!(code, BinErrorCode::Malformed),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_request_frame_roundtrips() {
        let mut out = Vec::new();
        encode_request_frame(&mut out, &[]);
        assert_eq!(out.len(), BIN_HEADER_LEN);
        match decode_request_frame(&out) {
            FrameDecode::Request {
                records, consumed, ..
            } => {
                assert!(records.is_empty());
                assert_eq!(consumed, BIN_HEADER_LEN);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_proper_prefix_is_incomplete() {
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &[("app-000001", 123), ("β-app", 456)]);
        for i in 0..frame.len() {
            assert!(
                matches!(decode_request_frame(&frame[..i]), FrameDecode::Incomplete),
                "prefix of {i} bytes must be Incomplete"
            );
        }
        // Trailing extra bytes are a second frame, not part of this one.
        let mut extended = frame.clone();
        extended.extend_from_slice(&[BIN_MAGIC, 0xFF, 0xFF]);
        match decode_request_frame(&extended) {
            FrameDecode::Request { consumed, .. } => assert_eq!(consumed, frame.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_decode_rejects_bad_frames() {
        // Bad version: unrecoverable.
        let mut f = Vec::new();
        encode_request_frame(&mut f, &[("a", 1)]);
        f[1] = 9;
        match decode_request_frame(&f) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::BadVersion);
                assert!(skip.is_none());
            }
            other => panic!("{other:?}"),
        }

        // Oversized payload: unrecoverable.
        let mut f = Vec::new();
        frame_header(&mut f, BIN_VERSION, FRAME_REQUEST, MAX_FRAME_PAYLOAD + 1, 1);
        match decode_request_frame(&f) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert!(skip.is_none());
            }
            other => panic!("{other:?}"),
        }

        // Oversized batch with an intact envelope: skippable.
        let mut f = Vec::new();
        frame_header(&mut f, BIN_VERSION, FRAME_REQUEST, 4, MAX_BATCH + 1);
        f.extend_from_slice(&[0u8; 4]);
        match decode_request_frame(&f) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert_eq!(skip, Some(BIN_HEADER_LEN + 4));
            }
            other => panic!("{other:?}"),
        }

        // Count that cannot fit the payload: caught from the header.
        let mut f = Vec::new();
        frame_header(&mut f, BIN_VERSION, FRAME_REQUEST, 12, 1000);
        match decode_request_frame(&f) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(BIN_HEADER_LEN + 12));
            }
            other => panic!("{other:?}"),
        }

        // Regression: count=2 passes the aggregate minimum-size check
        // (payload_len = 22 = 2 × 11), but record 0 declares app_len=12
        // and consumes all 22 bytes — record 1's app_len read used to
        // index past the payload and panic the connection thread.
        let mut payload = vec![12u8, 0];
        payload.extend_from_slice(b"aaaaaaaaaaaa");
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(payload.len(), 22);
        let mut f = Vec::new();
        frame_header(&mut f, BIN_VERSION, FRAME_REQUEST, payload.len(), 2);
        f.extend_from_slice(&payload);
        match decode_request_frame(&f) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(f.len()));
            }
            other => panic!("{other:?}"),
        }

        // Record-level malformations: empty app, overrun, bad UTF-8,
        // trailing bytes — all skippable.
        let cases: Vec<Vec<u8>> = vec![
            {
                // app_len = 0.
                let mut p = vec![0u8, 0];
                p.extend_from_slice(&7u64.to_le_bytes());
                p
            },
            {
                // app_len overruns the payload.
                let mut p = vec![200u8, 0, b'a'];
                p.extend_from_slice(&7u64.to_le_bytes());
                p
            },
            {
                // Invalid UTF-8 app bytes.
                let mut p = vec![2u8, 0, 0xFF, 0xFE];
                p.extend_from_slice(&7u64.to_le_bytes());
                p
            },
            {
                // Trailing garbage after the declared record.
                let mut p = vec![1u8, 0, b'a'];
                p.extend_from_slice(&7u64.to_le_bytes());
                p.extend_from_slice(b"junk");
                p
            },
        ];
        for payload in cases {
            let mut f = Vec::new();
            frame_header(&mut f, BIN_VERSION, FRAME_REQUEST, payload.len(), 1);
            f.extend_from_slice(&payload);
            match decode_request_frame(&f) {
                FrameDecode::Error { code, skip, .. } => {
                    assert_eq!(code, BinErrorCode::Malformed, "{payload:?}");
                    assert_eq!(skip, Some(f.len()), "{payload:?}");
                }
                other => panic!("{payload:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn reply_frame_roundtrip_including_errors_and_saturation() {
        let results: Vec<Result<Decision, InvokeError>> = vec![
            Ok(Decision {
                cold: true,
                prewarm_load: false,
                evicted: false,
                kind: DecisionKind::Histogram,
                windows: Windows::pre_warmed(120_000, 600_000),
            }),
            Err(InvokeError::OutOfOrder {
                last_ts: u64::MAX - 5,
            }),
            Ok(Decision {
                cold: false,
                prewarm_load: true,
                evicted: true, // Dropped on the v1 wire (reserved bit).
                kind: DecisionKind::Static,
                // Saturates: the wire says u32::MAX, i.e. "never".
                windows: Windows::keep_loaded(u64::MAX),
            }),
        ];
        let mut out = Vec::new();
        encode_reply_frame(&mut out, BIN_VERSION, &results);
        assert_eq!(out.len(), BIN_HEADER_LEN + 3 * REPLY_RECORD_LEN);
        match decode_server_frame(&out) {
            ServerFrameDecode::Reply { records, consumed } => {
                assert_eq!(consumed, out.len());
                assert_eq!(
                    records[0],
                    BinReply::Verdict {
                        cold: true,
                        prewarm_load: false,
                        evicted: false,
                        kind: DecisionKind::Histogram,
                        pre_warm_ms: 120_000,
                        keep_alive_ms: 600_000,
                    }
                );
                assert_eq!(
                    records[1],
                    BinReply::OutOfOrder {
                        last_ts: u64::MAX - 5
                    }
                );
                assert_eq!(
                    records[2],
                    BinReply::Verdict {
                        cold: false,
                        prewarm_load: true,
                        evicted: false, // v1 cannot carry the bit.
                        kind: DecisionKind::Static,
                        pre_warm_ms: 0,
                        keep_alive_ms: u32::MAX,
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        // Every proper prefix of the reply is Incomplete, too.
        for i in 0..out.len() {
            assert!(matches!(
                decode_server_frame(&out[..i]),
                ServerFrameDecode::Incomplete
            ));
        }
    }

    #[test]
    fn error_frame_roundtrip_and_truncation() {
        let mut out = Vec::new();
        encode_error_frame(&mut out, BinErrorCode::Oversized, "too big");
        match decode_server_frame(&out) {
            ServerFrameDecode::Error {
                code,
                detail,
                consumed,
            } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert_eq!(detail, "too big");
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        // Long details truncate on a char boundary.
        let long = "é".repeat(300);
        let mut out = Vec::new();
        encode_error_frame(&mut out, BinErrorCode::Malformed, &long);
        match decode_server_frame(&out) {
            ServerFrameDecode::Error { detail, .. } => {
                assert!(detail.len() <= 256);
                assert!(detail.chars().all(|c| c == 'é'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_decision_kinds_roundtrip_through_verdict_bits() {
        use sitw_core::DecisionKind::*;
        for k in [Histogram, StandardKeepAlive, Arima, Static] {
            assert_eq!(kind_from_bits(kind_to_bits(k)), k);
        }
    }

    // ---- Cluster control frames ----

    #[test]
    fn control_report_request_roundtrips() {
        let mut out = Vec::new();
        encode_control_frame(&mut out, &ControlRequest::Report);
        match decode_request_frame(&out) {
            FrameDecode::Control { req, consumed } => {
                assert_eq!(req, ControlRequest::Report);
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        for i in 0..out.len() {
            assert!(matches!(
                decode_request_frame(&out[..i]),
                FrameDecode::Incomplete
            ));
        }
    }

    #[test]
    fn control_budget_set_roundtrips() {
        let shares = vec![
            ("acme".to_owned(), 4096u64),
            ("café".to_owned(), 0),
            ("t7".to_owned(), u64::MAX),
        ];
        let mut out = Vec::new();
        encode_control_frame(&mut out, &ControlRequest::BudgetSet(shares.clone()));
        match decode_request_frame(&out) {
            FrameDecode::Control { req, consumed } => {
                assert_eq!(req, ControlRequest::BudgetSet(shares));
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_decode_rejects_malformed_payloads() {
        // Unknown op, truncated records, trailing bytes: all skippable
        // (the envelope is intact), so the connection survives.
        let cases: Vec<Vec<u8>> = vec![
            vec![99],                       // Unknown op.
            vec![CTRL_REPORT, 1],           // Report with body.
            vec![CTRL_BUDGET_SET, 5],       // Truncated record.
            vec![CTRL_BUDGET_SET, 0, 0, 0], // Zero-length name.
        ];
        for (k, payload) in cases.into_iter().enumerate() {
            let count = if payload[0] == CTRL_BUDGET_SET { 1 } else { 0 };
            let mut f = Vec::new();
            frame_header(&mut f, BIN_VERSION_2, FRAME_CONTROL, payload.len(), count);
            f.extend_from_slice(&payload);
            match decode_request_frame(&f) {
                FrameDecode::Error { code, skip, .. } => {
                    assert_eq!(code, BinErrorCode::Malformed, "case {k}");
                    assert_eq!(skip, Some(f.len()), "case {k}");
                }
                other => panic!("case {k} → {other:?}"),
            }
        }
    }

    #[test]
    fn control_report_reply_roundtrips() {
        let tenants = vec![
            TenantUsage {
                name: "default".into(),
                budget_mb: 0,
                warm_mb: 123,
                evictions: 0,
                idle_mb_ms: u64::MAX,
                invocations: 10_000,
            },
            TenantUsage {
                name: "acme".into(),
                budget_mb: 4096,
                warm_mb: 4095,
                evictions: 17,
                idle_mb_ms: 5,
                invocations: 1,
            },
        ];
        let mut out = Vec::new();
        encode_control_reply(&mut out, &ControlReply::Report(tenants.clone()));
        match decode_server_frame(&out) {
            ServerFrameDecode::Control { reply, consumed } => {
                assert_eq!(reply, ControlReply::Report(tenants));
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        for i in 0..out.len() {
            assert!(matches!(
                decode_server_frame(&out[..i]),
                ServerFrameDecode::Incomplete
            ));
        }
    }

    #[test]
    fn control_budget_ack_roundtrips() {
        let mut out = Vec::new();
        encode_control_reply(&mut out, &ControlReply::BudgetAck { applied: 42 });
        match decode_server_frame(&out) {
            ServerFrameDecode::Control { reply, .. } => {
                assert_eq!(reply, ControlReply::BudgetAck { applied: 42 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn throttled_records_roundtrip_through_reencoder() {
        // The router's reassembly path: re-encode a mix of decoded
        // verdicts, an out-of-order rejection, and a locally generated
        // throttle, then decode it as a client would.
        let records = vec![
            BinReply::Verdict {
                cold: true,
                prewarm_load: false,
                evicted: true,
                kind: DecisionKind::Histogram,
                pre_warm_ms: 7,
                keep_alive_ms: 9,
            },
            BinReply::Throttled,
            BinReply::OutOfOrder { last_ts: 55 },
        ];
        let mut out = Vec::new();
        encode_reply_records(&mut out, BIN_VERSION_2, &records);
        match decode_server_frame(&out) {
            ServerFrameDecode::Reply {
                records: got,
                consumed,
            } => {
                assert_eq!(got, records);
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        // Byte-for-byte inverse of the daemon's own encoder: a frame
        // decoded and re-encoded is the identical frame.
        let mut results_frame = Vec::new();
        encode_reply_frame(
            &mut results_frame,
            BIN_VERSION_2,
            &[
                Ok(Decision {
                    cold: false,
                    prewarm_load: true,
                    evicted: false,
                    kind: DecisionKind::Arima,
                    windows: sitw_core::Windows::pre_warmed(1, 2),
                }),
                Err(InvokeError::OutOfOrder { last_ts: 3 }),
            ],
        );
        let ServerFrameDecode::Reply { records, .. } = decode_server_frame(&results_frame) else {
            panic!("reply expected");
        };
        let mut reencoded = Vec::new();
        encode_reply_records(&mut reencoded, BIN_VERSION_2, &records);
        assert_eq!(reencoded, results_frame);
    }

    #[test]
    fn unavailable_error_code_roundtrips() {
        let mut out = Vec::new();
        encode_error_frame(&mut out, BinErrorCode::Unavailable, "node n1 down");
        match decode_server_frame(&out) {
            ServerFrameDecode::Error { code, detail, .. } => {
                assert_eq!(code, BinErrorCode::Unavailable);
                assert_eq!(detail, "node n1 down");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(BinErrorCode::from_u8(4), Some(BinErrorCode::Unavailable));
    }

    #[test]
    fn repl_ack_decodes_as_control_pull() {
        let mut out = Vec::new();
        encode_repl_ack(&mut out, 42);
        match decode_request_frame(&out) {
            FrameDecode::Control { req, consumed } => {
                assert_eq!(req, ControlRequest::ReplPull { epoch: 42 });
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        // Every proper prefix is Incomplete, never an error.
        for cut in 0..out.len() {
            assert!(
                matches!(decode_request_frame(&out[..cut]), FrameDecode::Incomplete),
                "prefix {cut} must be incomplete"
            );
        }
        // A malformed ack (wrong payload length) is skippable: the
        // envelope is intact, so the connection survives.
        let mut bad = Vec::new();
        frame_header(&mut bad, BIN_VERSION_2, FRAME_REPL_ACK, 4, 0);
        bad.extend_from_slice(&7u32.to_le_bytes());
        match decode_request_frame(&bad) {
            FrameDecode::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(bad.len()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repl_round_chunks_and_commits() {
        // A document larger than one chunk splits into ordered chunks
        // plus a commit; concatenated chunk bodies equal the document.
        let doc: Vec<u8> = (0..(REPL_CHUNK_BYTES + 777))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut out = Vec::new();
        encode_repl_round(&mut out, FRAME_REPL_DELTA, 9, &doc);
        let mut buf = &out[..];
        let mut assembled = Vec::new();
        let mut next_seq = 0u32;
        let committed = loop {
            match decode_server_frame(buf) {
                ServerFrameDecode::ReplChunk {
                    full_sync,
                    epoch,
                    seq,
                    last,
                    data,
                    consumed,
                } => {
                    assert!(!full_sync);
                    assert_eq!(epoch, 9);
                    assert_eq!(seq, next_seq);
                    next_seq += 1;
                    assert_eq!(last, seq == 1, "two chunks expected");
                    assembled.extend_from_slice(&data);
                    buf = &buf[consumed..];
                }
                ServerFrameDecode::ReplCommit { epoch, consumed } => {
                    buf = &buf[consumed..];
                    break epoch;
                }
                other => panic!("{other:?}"),
            }
        };
        assert!(buf.is_empty());
        assert_eq!(assembled, doc);
        assert_eq!(committed, 9);
        // Every proper prefix of the stream is Incomplete.
        for cut in 0..BIN_HEADER_LEN + REPL_CHUNK_HEADER {
            assert!(matches!(
                decode_server_frame(&out[..cut]),
                ServerFrameDecode::Incomplete
            ));
        }
    }

    #[test]
    fn repl_empty_round_is_lone_commit() {
        let mut out = Vec::new();
        encode_repl_round(&mut out, FRAME_REPL_SYNC, 3, &[]);
        match decode_server_frame(&out) {
            ServerFrameDecode::ReplCommit { epoch, consumed } => {
                assert_eq!(epoch, 3);
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        // Sync chunks decode with the full_sync marker set.
        let mut sync = Vec::new();
        encode_repl_chunk(&mut sync, FRAME_REPL_SYNC, 1, 0, true, b"abc");
        match decode_server_frame(&sync) {
            ServerFrameDecode::ReplChunk {
                full_sync,
                last,
                data,
                ..
            } => {
                assert!(full_sync && last);
                assert_eq!(data, b"abc");
            }
            other => panic!("{other:?}"),
        }
    }
}
