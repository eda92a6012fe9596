//! The traced run's span plumbing: pulling node and router spans for
//! sampled client trace ids, and attributing client latency to them.
//!
//! A node keeps its spans in per-thread flight recorders of
//! `sitw_serve::telem::TRACE_RING` (512) entries and records every
//! request, so a sampled request's spans survive only for a few hundred
//! later requests. The tracer therefore pulls `/debug/trace` as soon as
//! the sampled reply is read, and the generator samples one unit per
//! tens of milliseconds so pulls never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;

use sitw_telemetry::{ROUTER_STAGES, STAGES};

use crate::drive::ClientSpan;
use crate::layers::LayerSpan;
use crate::report::{json_num, json_str, OUT_DIR};
use crate::sut::{http_ok, num_at};

/// One node or router span of a sampled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace id.
    pub trace: u64,
    /// Stage name.
    pub stage: String,
    /// Start, ns, on the recording process's clock (the router's clock
    /// for spans pulled through the router).
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Recording thread, prefixed with the node for routed spans.
    pub source: String,
}

fn text<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let start = obj.find(key)? + key.len();
    let len = obj[start..].find('"')?;
    Some(&obj[start..start + len])
}

fn num(obj: &str, key: &str) -> Option<u64> {
    num_at(&obj[obj.find(key)? + key.len()..])
}

/// Parses a `/debug/trace?format=json` body from a node (decimal
/// `"span"` ids) or a router (hex `"trace"` ids).
pub fn parse_spans(body: &str) -> Vec<Span> {
    body.split('{')
        .filter_map(|obj| {
            let trace = match num(obj, "\"span\":") {
                Some(id) => id,
                None => u64::from_str_radix(text(obj, "\"trace\":\"0x")?, 16).ok()?,
            };
            Some(Span {
                trace,
                stage: text(obj, "\"stage\":\"")?.to_owned(),
                start_ns: num(obj, "\"start_ns\":")?,
                end_ns: num(obj, "\"end_ns\":")?,
                source: text(obj, "\"source\":\"")?.to_owned(),
            })
        })
        .collect()
}

/// Every stage a sampled request passes: the router hops when routed,
/// then the node stages, in pipeline order.
fn stage_names(routed: bool) -> Vec<&'static str> {
    let hops: &[sitw_telemetry::Stage] = if routed { &ROUTER_STAGES } else { &[] };
    hops.iter().chain(&STAGES).map(|s| s.name()).collect()
}

/// Pulls of one id while a stage is still missing: a process records a
/// request's last span only after it wrote the reply the tracer reacts
/// to, so the first pull can come too early.
const PULL_TRIES: usize = 5;

/// Starts the tracer: every id sent on the returned channel is looked up
/// in `/debug/trace` of each target (the router, or every node) and its
/// spans kept. Dropping the sender ends the thread, which returns them.
pub fn tracer(
    targets: Vec<SocketAddr>,
    routed: bool,
) -> (mpsc::Sender<u64>, JoinHandle<Vec<Span>>) {
    let (tx, rx) = mpsc::channel::<u64>();
    let path = if routed {
        "/debug/trace?format=json"
    } else {
        "/debug/trace?format=json&n=512"
    };
    let expected = stage_names(routed);
    let handle = std::thread::Builder::new()
        .name("bench-tracer".into())
        .spawn(move || {
            let mut kept = Vec::new();
            for id in rx {
                let mut spans: Vec<Span> = Vec::new();
                for _ in 0..PULL_TRIES {
                    spans.clear();
                    for &t in &targets {
                        if let Ok(body) = http_ok(t, "GET", path) {
                            spans.extend(parse_spans(&body).into_iter().filter(|s| s.trace == id));
                        }
                    }
                    if expected.iter().all(|n| spans.iter().any(|s| s.stage == *n)) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                kept.extend(spans);
            }
            kept
        })
        .expect("spawning the tracer thread");
    (tx, handle)
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Client latency of sampled units split into generator lateness, the
/// self time of every node stage and router hop, and the residual.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Sampled units with a complete span set.
    pub samples: usize,
    /// Samples taken.
    pub sampled: usize,
    /// Mean client latency (reply − due), ns.
    pub client_ns: f64,
    /// Mean generator lateness (sent − due), ns.
    pub late_ns: f64,
    /// Mean self time by stage, in pipeline order (router hops first
    /// when routed), ns.
    pub stages: Vec<(&'static str, f64)>,
    /// Client latency not covered by lateness or any stage, ns.
    pub residual_ns: f64,
}

/// Nests each sampled unit's node stages (and router hops) under its
/// client span and averages their self times.
///
/// A stage's self time is the union of its intervals (a frame split
/// across shards or nodes runs one stage in parallel); the router's
/// `await` hop excludes the node stages it covers.
pub fn attribute(client: &[ClientSpan], spans: &[Span], routed: bool) -> Attribution {
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let names = stage_names(routed);
    let mut sums = vec![0f64; names.len()];
    let mut a = Attribution {
        sampled: client.len(),
        ..Attribution::default()
    };
    for c in client {
        let Some(group) = by_trace.get(&c.id) else {
            continue;
        };
        let intervals = |stage: &str| -> Vec<(u64, u64)> {
            group
                .iter()
                .filter(|s| s.stage == stage)
                .map(|s| (s.start_ns, s.end_ns.max(s.start_ns)))
                .collect()
        };
        if names.iter().any(|n| intervals(n).is_empty()) {
            continue;
        }
        let node_all: Vec<(u64, u64)> = STAGES.iter().flat_map(|s| intervals(s.name())).collect();
        for (k, name) in names.iter().enumerate() {
            let own = intervals(name);
            let mut self_ns = union_ns(own.clone()) as f64;
            if *name == "await" {
                let mut both = own.clone();
                both.extend(node_all.iter().copied());
                let covered = union_ns(own) + union_ns(node_all.clone()) - union_ns(both);
                self_ns -= covered as f64;
            }
            sums[k] += self_ns;
        }
        a.samples += 1;
        a.client_ns += c.reply_ns.saturating_sub(c.due_ns) as f64;
        a.late_ns += c.sent_ns.saturating_sub(c.due_ns) as f64;
    }
    let n = a.samples.max(1) as f64;
    a.client_ns /= n;
    a.late_ns /= n;
    a.stages = names
        .into_iter()
        .zip(sums.into_iter().map(|s| s / n))
        .collect();
    a.residual_ns = a.client_ns - a.late_ns - a.stages.iter().map(|(_, v)| v).sum::<f64>();
    a
}

/// Prints the attribution report and the tracing overhead.
pub fn print_attribution(a: &Attribution, untraced_p50_us: f64, traced_p50_us: f64) {
    let mut line = format!(
        "attribution at lo ({} of {} sampled units complete): client mean {:.1} us = gen late {:.1}",
        a.samples,
        a.sampled,
        a.client_ns / 1e3,
        a.late_ns / 1e3
    );
    for (stage, ns) in &a.stages {
        let _ = write!(line, " + {stage} {:.1}", ns / 1e3);
    }
    let _ = write!(line, " + residual {:.1} us", a.residual_ns / 1e3);
    println!("{line}");
    println!(
        "tracing overhead: p50_us.lo traced {traced_p50_us:.1} - untraced {untraced_p50_us:.1} = {:+.1} us (base {untraced_p50_us:.1} us, {:+.1}%)",
        traced_p50_us - untraced_p50_us,
        100.0 * (traced_p50_us - untraced_p50_us) / untraced_p50_us.max(1e-9)
    );
}

/// Writes every client span with its nested node / router spans, and the
/// layer replay spans, to `.bench_out/`.
pub fn write_spans(
    workload: &str,
    seed: u64,
    client: &[ClientSpan],
    node: &[Span],
    layer: &[LayerSpan],
) -> Result<(), String> {
    let mut out = String::from("{\"client\":[");
    for (i, c) in client.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":\"{:#018x}\",\"due_ns\":{},\"sent_ns\":{},\"reply_ns\":{},\"children\":[",
            c.id, c.due_ns, c.sent_ns, c.reply_ns
        );
        for (j, n) in node.iter().filter(|n| n.trace == c.id).enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"start_ns\":{},\"end_ns\":{},\"source\":{}}}",
                json_str(&n.stage),
                n.start_ns,
                n.end_ns,
                json_str(&n.source)
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"layers\":[");
    for (i, l) in layer.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"ns_per_call\":{}}}",
            json_str(l.name),
            l.start_ns,
            l.end_ns,
            l.calls,
            json_num((l.end_ns - l.start_ns) as f64 / l.calls.max(1) as f64)
        );
    }
    out.push_str("]}\n");
    let path = PathBuf::from(OUT_DIR).join(format!("{workload}-seed{seed}-spans.json"));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_node_and_router_bodies() {
        let node = r#"[{"span":9223372036854775809,"stage":"read","start_ns":5,"end_ns":9,"source":"reactor-0"}]"#;
        let s = parse_spans(node);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].trace, (1 << 63) | 1);
        let router = r#"[{"trace":"0x8000000000000001","stage":"await","start_ns":1,"end_ns":20,"source":"router"}]"#;
        let r = parse_spans(router);
        assert_eq!(r[0].trace, (1 << 63) | 1);
        assert_eq!(r[0].stage, "await");
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
    }
}
