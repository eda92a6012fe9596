//! Client side of the two wire protocols: request encoding and reply
//! parsing, with every reply turned into a [`Decision`] for the check.

use sitw_core::Windows;
use sitw_serve::shard::Decision;
use sitw_serve::wire::{self, BinReply, ServerFrameDecode};

use crate::workload::{Trace, Wire};

/// The reply to one record: its verdict, or why it has none.
pub type Reply = Result<Decision, String>;

/// Appends one unit (a JSON request or a SITW-BIN frame) carrying the
/// trace records `recs` to `out`. `tenant_ids[k]` is the wire id of
/// tenant `tk` at the endpoint (SITW-BIN only: the JSON workload is
/// untenanted); `trace_id` is a client trace id, 0 for none.
pub fn encode_unit(
    out: &mut Vec<u8>,
    wire: Wire,
    trace: &Trace,
    recs: &[u32],
    tenant_ids: &[u16],
    trace_id: u64,
) {
    match wire {
        Wire::Json => {
            for &i in recs {
                let r = trace.recs[i as usize];
                let app = &trace.names[r.app as usize];
                out.extend_from_slice(b"POST /invoke HTTP/1.1\r\n");
                if trace_id != 0 {
                    out.extend_from_slice(format!("x-sitw-trace: {trace_id:#018x}\r\n").as_bytes());
                }
                let mut body = Vec::with_capacity(48);
                body.extend_from_slice(b"{\"app\":\"");
                body.extend_from_slice(app.as_bytes());
                body.extend_from_slice(b"\",\"ts\":");
                wire::push_u64(&mut body, r.ts);
                body.push(b'}');
                out.extend_from_slice(b"content-length: ");
                wire::push_u64(out, body.len() as u64);
                out.extend_from_slice(b"\r\n\r\n");
                out.extend_from_slice(&body);
            }
        }
        Wire::Bin { .. } => {
            let records: Vec<(u16, &str, u64)> = recs
                .iter()
                .map(|&i| {
                    let r = trace.recs[i as usize];
                    let id = match r.tenant {
                        0 => 0,
                        k => tenant_ids[k as usize - 1],
                    };
                    (id, trace.names[r.app as usize].as_str(), r.ts)
                })
                .collect();
            if trace_id != 0 {
                wire::encode_request_frame_v2_traced(out, &records, trace_id);
            } else {
                wire::encode_request_frame_v2(out, &records);
            }
        }
    }
}

/// Result of parsing the front of a receive buffer.
pub enum Parsed {
    /// One complete reply unit: per-record replies and bytes consumed.
    Unit(Vec<Reply>, usize),
    /// More bytes are needed.
    Incomplete,
    /// The stream is not parseable; the connection is unusable.
    Broken(String),
}

/// Parses one reply unit expected to carry `n` records from `buf`.
pub fn parse_unit(buf: &[u8], wire: Wire, n: usize) -> Parsed {
    match wire {
        Wire::Json => parse_http(buf),
        Wire::Bin { .. } => match wire::decode_server_frame(buf) {
            ServerFrameDecode::Reply { records, consumed } => {
                if records.len() != n {
                    return Parsed::Broken(format!(
                        "reply frame carries {} records, request had {n}",
                        records.len()
                    ));
                }
                Parsed::Unit(records.into_iter().map(bin_reply).collect(), consumed)
            }
            ServerFrameDecode::Error {
                code,
                detail,
                consumed,
            } => Parsed::Unit(
                vec![Err(format!("error frame {code:?}: {detail}")); n],
                consumed,
            ),
            ServerFrameDecode::Incomplete => Parsed::Incomplete,
            ServerFrameDecode::Malformed(e) => Parsed::Broken(e),
            _ => Parsed::Broken("unexpected frame kind on a client connection".into()),
        },
    }
}

fn bin_reply(r: BinReply) -> Reply {
    match r {
        BinReply::Verdict {
            cold,
            prewarm_load,
            evicted,
            kind,
            pre_warm_ms,
            keep_alive_ms,
        } => Ok(Decision {
            cold,
            prewarm_load,
            evicted,
            kind,
            windows: Windows {
                pre_warm_ms: u64::from(pre_warm_ms),
                keep_alive_ms: u64::from(keep_alive_ms),
            },
        }),
        BinReply::OutOfOrder { last_ts } => Err(format!("out of order (last ts {last_ts})")),
        BinReply::Throttled => Err("throttled".into()),
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Parses one HTTP/1.1 response with a `content-length` body.
fn parse_http(buf: &[u8]) -> Parsed {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Parsed::Incomplete;
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Parsed::Broken("non-UTF-8 response head".into());
    };
    let mut lines = head.split("\r\n");
    let status: Option<u16> = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok());
    let Some(status) = status else {
        return Parsed::Broken(format!("bad status line in {head:?}"));
    };
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok());
    let Some(len) = len else {
        return Parsed::Broken("response without content-length".into());
    };
    let end = head_end + 4 + len;
    if buf.len() < end {
        return Parsed::Incomplete;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..end]);
    let reply = if status == 200 {
        parse_decision(&body).ok_or_else(|| format!("unparseable decision {body}"))
    } else {
        Err(format!("http {status}: {body}"))
    };
    Parsed::Unit(vec![reply], end)
}

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Parses a `render_decision` body.
fn parse_decision(body: &str) -> Option<Decision> {
    Some(Decision {
        cold: field(body, "\"verdict\":\"")? == "cold",
        prewarm_load: field(body, "\"prewarm_load\":")? == "true",
        evicted: field(body, "\"evicted\":")? == "true",
        kind: wire::kind_from_str(field(body, "\"kind\":\"")?).ok()?,
        windows: Windows {
            pre_warm_ms: field(body, "\"pre_warm_ms\":")?.parse().ok()?,
            keep_alive_ms: field(body, "\"keep_alive_ms\":")?.parse().ok()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::DecisionKind;

    #[test]
    fn rendered_decisions_parse_back() {
        let d = Decision {
            cold: true,
            prewarm_load: false,
            evicted: false,
            kind: DecisionKind::Histogram,
            windows: Windows::pre_warmed(540_000, 186_000),
        };
        let mut body = Vec::new();
        wire::render_decision(&mut body, &d);
        let mut msg = Vec::new();
        sitw_serve::http::write_response(&mut msg, 200, "application/json", &body);
        match parse_http(&msg) {
            Parsed::Unit(r, used) => {
                assert_eq!(used, msg.len());
                let v = r[0].clone().unwrap();
                assert!(v.cold && v.kind == DecisionKind::Histogram);
                assert_eq!(v.windows, d.windows);
            }
            _ => panic!("complete response did not parse"),
        }
    }
}
