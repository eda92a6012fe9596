//! The load generator.
//!
//! At most [`CONNECTIONS`] persistent connections; every app is pinned to
//! one of them (round-robin by first appearance) so per-app order holds.
//! Each connection has one sender thread and one receiver thread: the
//! sender paces units (a JSON request, or a SITW-BIN frame) and never
//! reads, the receiver blocks in `read` and stamps each reply when it
//! arrives, so neither a slow server nor a burst of replies can delay
//! the other side's clock readings.
//!
//! * **Open loop** (`lo`, `hi`): record `k` of a phase is due at
//!   `k / rate`; a frame is due when its last record is. Each unit is
//!   timed from its *due* time, so a stall shows up as latency of every
//!   record scheduled behind it, not as a slower send rate. When the
//!   sender is late it coalesces every due unit into one write.
//! * **Closed loop** (saturation, set-up warm replay): a fixed window of
//!   units in flight per connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use sitw_telemetry::TRACE_MARK;

use crate::clock::{now_ns, steal_ns, thread_cpu_ns, wait_until};
use crate::proto::{encode_unit, parse_unit, Parsed, Reply};
use crate::workload::{Trace, Wire};

/// Connections the generator drives: the reference machine's core count.
pub const CONNECTIONS: usize = 2;

/// How often a phase samples the machine's steal time.
pub const STEAL_SAMPLE: Duration = Duration::from_millis(10);

/// Longest a sender spins before a unit is due.
const MAX_SPIN_NS: u64 = 300_000;

/// How long a receiver waits for the next reply before it declares the
/// connection dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The persistent connections of one run.
pub struct Conns {
    streams: Vec<TcpStream>,
    /// Connection of each app.
    of_app: Vec<u8>,
}

/// Opens the connections and pins every app of `trace` to one.
pub fn connect(entry: SocketAddr, trace: &Trace) -> io::Result<Conns> {
    let mut of_app = vec![u8::MAX; trace.names.len()];
    let mut next = 0u8;
    for r in &trace.recs {
        let slot = &mut of_app[r.app as usize];
        if *slot == u8::MAX {
            *slot = next;
            next = (next + 1) % CONNECTIONS as u8;
        }
    }
    let streams = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(entry)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    Ok(Conns { streams, of_app })
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fixed offered rate, records/s.
    Open(f64),
    /// Units in flight per connection.
    Closed(usize),
}

/// One phase: a slice of the trace replayed under a mode.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Label.
    pub name: &'static str,
    /// Records of the trace replayed.
    pub range: Range<usize>,
    /// Load mode.
    pub mode: Mode,
    /// Tag one unit per this much schedule time per connection with a
    /// client trace id; 0 = none.
    pub sample_every_ns: u64,
    /// Distinguishes this phase's trace ids from other phases'.
    pub tag: u64,
}

/// A client span: one sampled unit, due → sent → reply.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    /// The trace id it carried.
    pub id: u64,
    /// Due, sent and reply instants (benchmark clock, ns).
    pub due_ns: u64,
    /// When its bytes were written.
    pub sent_ns: u64,
    /// When its reply was read.
    pub reply_ns: u64,
}

/// Everything measured in one phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Records sent.
    pub records: usize,
    /// Units sent.
    pub units: usize,
    /// Per answered unit: (start ns, latency ns, records), where the
    /// start is the due time in an open loop (latency = reply − due) and
    /// the send time in a closed loop.
    pub lat: Vec<(u64, u64, u32)>,
    /// Open loop only: per unit, how late the sender wrote it, ns.
    pub late_ns: Vec<u64>,
    /// First due (open) or send (closed) instant, ns.
    pub start_ns: u64,
    /// Last reply instant, ns.
    pub end_ns: u64,
    /// Highest CPU share of any generator thread over the phase.
    pub gen_cpu_frac: f64,
    /// Per record: (trace index, reply).
    pub replies: Vec<(u32, Reply)>,
    /// Records sent but never answered.
    pub lost: usize,
    /// The first transport error, if any.
    pub error: Option<String>,
    /// Sampled client spans.
    pub spans: Vec<ClientSpan>,
    /// `(instant, machine steal so far)` every [`STEAL_SAMPLE`], ns.
    pub steal: Vec<(u64, u64)>,
}

impl PhaseResult {
    /// Host steal between `from` and `to` (benchmark clock), ns, from the
    /// samples that bracket the interval.
    pub fn steal_between(&self, from: u64, to: u64) -> u64 {
        let before = self
            .steal
            .iter()
            .rev()
            .find(|s| s.0 <= from)
            .or(self.steal.first());
        let after = self.steal.iter().find(|s| s.0 >= to).or(self.steal.last());
        match (before, after) {
            (Some(b), Some(a)) => a.1.saturating_sub(b.1),
            _ => 0,
        }
    }
}

impl PhaseResult {
    /// Wall time of the phase, ns.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns).max(1)
    }
}

#[derive(Debug, Clone, Copy)]
struct Unit {
    start: usize,
    len: usize,
    due_ns: u64,
    trace_id: u64,
}

/// Splits a phase into per-connection record lists and units.
fn plan(
    conns: &Conns,
    trace: &Trace,
    wire: Wire,
    phase: &Phase,
) -> (Vec<Vec<u32>>, Vec<Vec<Unit>>) {
    let batch = match wire {
        Wire::Json => 1,
        Wire::Bin { batch } => batch,
    };
    let ns_per_rec = match phase.mode {
        Mode::Open(rate) => 1e9 / rate,
        Mode::Closed(_) => 0.0,
    };
    let mut recs: Vec<Vec<u32>> = vec![Vec::new(); CONNECTIONS];
    let mut units: Vec<Vec<Unit>> = vec![Vec::new(); CONNECTIONS];
    let mut open: Vec<Option<Unit>> = vec![None; CONNECTIONS];
    let mut next_sample = [0u64; CONNECTIONS];
    for (k, i) in phase.range.clone().enumerate() {
        let c = conns.of_app[trace.recs[i].app as usize] as usize;
        let due_ns = (k as f64 * ns_per_rec) as u64;
        recs[c].push(i as u32);
        let u = open[c].get_or_insert(Unit {
            start: recs[c].len() - 1,
            len: 0,
            due_ns,
            trace_id: 0,
        });
        u.len += 1;
        u.due_ns = due_ns;
        if u.len == batch {
            units[c].push(open[c].take().expect("unit is open"));
        }
    }
    for (c, u) in open.into_iter().enumerate() {
        units[c].extend(u);
    }
    if phase.sample_every_ns > 0 {
        for (c, list) in units.iter_mut().enumerate() {
            for (j, u) in list.iter_mut().enumerate() {
                if u.due_ns >= next_sample[c] {
                    u.trace_id = TRACE_MARK | phase.tag << 40 | (c as u64) << 32 | j as u64;
                    next_sample[c] = u.due_ns + phase.sample_every_ns;
                }
            }
        }
    }
    (recs, units)
}

struct SendOut {
    sent_ns: Vec<u64>,
    cpu_ns: u64,
    error: Option<String>,
}

struct RecvOut {
    reply_ns: Vec<u64>,
    replies: Vec<Reply>,
    cpu_ns: u64,
    error: Option<String>,
}

/// Everything a sender needs besides its socket.
struct SendCtx<'a> {
    trace: &'a Trace,
    wire: Wire,
    tenant_ids: &'a [u16],
    recs: &'a [u32],
    units: &'a [Unit],
    mode: Mode,
    t0: u64,
}

fn send(mut stream: TcpStream, ctx: SendCtx<'_>, done: Option<mpsc::Receiver<usize>>) -> SendOut {
    let cpu0 = thread_cpu_ns();
    let n = ctx.units.len();
    let mut out = SendOut {
        sent_ns: vec![0; n],
        cpu_ns: 0,
        error: None,
    };
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut completed = 0usize;
    let mut i = 0;
    while i < n {
        let end = match (ctx.mode, &done) {
            (Mode::Open(_), _) => {
                // Spin for a quarter of the gap to this unit, at most
                // MAX_SPIN_NS: light load buys punctual sends cheaply,
                // heavy load leaves the CPU to the server.
                let gap = ctx.units[i].due_ns - if i > 0 { ctx.units[i - 1].due_ns } else { 0 };
                wait_until(ctx.t0 + ctx.units[i].due_ns, (gap / 4).min(MAX_SPIN_NS));
                let now = now_ns();
                let mut end = i;
                while end < n && ctx.t0 + ctx.units[end].due_ns <= now {
                    end += 1;
                }
                end
            }
            (Mode::Closed(window), Some(done)) => {
                while i - completed >= window {
                    match done.recv() {
                        Ok(c) => completed += c,
                        Err(_) => return finish(out, cpu0, "receiver stopped"),
                    }
                }
                while let Ok(c) = done.try_recv() {
                    completed += c;
                }
                n.min(completed + window)
            }
            (Mode::Closed(_), None) => unreachable!("closed loop always has a completion channel"),
        };
        buf.clear();
        for u in &ctx.units[i..end] {
            let recs = &ctx.recs[u.start..u.start + u.len];
            encode_unit(
                &mut buf,
                ctx.wire,
                ctx.trace,
                recs,
                ctx.tenant_ids,
                u.trace_id,
            );
        }
        let now = now_ns();
        if let Err(e) = stream.write_all(&buf) {
            return finish(out, cpu0, &format!("write: {e}"));
        }
        out.sent_ns[i..end].fill(now);
        i = end;
    }
    out.cpu_ns = thread_cpu_ns() - cpu0;
    return out;

    fn finish(mut out: SendOut, cpu0: u64, e: &str) -> SendOut {
        out.cpu_ns = thread_cpu_ns() - cpu0;
        out.error = Some(e.to_owned());
        out
    }
}

fn receive(
    mut stream: TcpStream,
    wire: Wire,
    units: &[Unit],
    done: Option<mpsc::Sender<usize>>,
    traced: Option<mpsc::Sender<u64>>,
) -> RecvOut {
    let cpu0 = thread_cpu_ns();
    let mut out = RecvOut {
        reply_ns: vec![0; units.len()],
        replies: Vec::new(),
        cpu_ns: 0,
        error: None,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(128 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut u = 0;
    let mut stamp = 0;
    while u < units.len() {
        let mut pos = 0;
        let mut completed = 0;
        while u < units.len() {
            match parse_unit(&buf[pos..], wire, units[u].len) {
                Parsed::Unit(replies, used) => {
                    out.replies.extend(replies);
                    out.reply_ns[u] = stamp;
                    if units[u].trace_id != 0 {
                        if let Some(tx) = &traced {
                            let _ = tx.send(units[u].trace_id);
                        }
                    }
                    pos += used;
                    u += 1;
                    completed += 1;
                }
                Parsed::Incomplete => break,
                Parsed::Broken(e) => {
                    out.error = Some(e);
                    out.cpu_ns = thread_cpu_ns() - cpu0;
                    return out;
                }
            }
        }
        buf.drain(..pos);
        if completed > 0 {
            if let Some(tx) = &done {
                let _ = tx.send(completed);
            }
        }
        if u == units.len() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                out.error = Some("connection closed by the server".into());
                break;
            }
            Ok(n) => {
                stamp = now_ns();
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                out.error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    out.cpu_ns = thread_cpu_ns() - cpu0;
    out
}

/// Replays one phase over `conns`. `traced` receives the id of every
/// sampled unit as soon as its reply is read.
pub fn run_phase(
    conns: &Conns,
    trace: &Trace,
    wire: Wire,
    tenant_ids: &[u16],
    phase: &Phase,
    traced: Option<mpsc::Sender<u64>>,
) -> io::Result<PhaseResult> {
    let (recs, units) = plan(conns, trace, wire, phase);
    // Open-loop schedules start together, a moment after every thread
    // is up.
    let t0 = now_ns() + 2_000_000;
    let mut outs = Vec::with_capacity(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let mut steal = Vec::new();
    std::thread::scope(|scope| -> io::Result<()> {
        let sampler = std::thread::Builder::new()
            .name("bench-steal".into())
            .spawn_scoped(scope, || {
                let mut samples = vec![(now_ns(), steal_ns())];
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(STEAL_SAMPLE);
                    samples.push((now_ns(), steal_ns()));
                }
                samples
            })?;
        let mut handles = Vec::new();
        for c in 0..CONNECTIONS {
            let (done_tx, done_rx) = match phase.mode {
                Mode::Closed(_) => {
                    let (tx, rx) = mpsc::channel();
                    (Some(tx), Some(rx))
                }
                Mode::Open(_) => (None, None),
            };
            let ctx = SendCtx {
                trace,
                wire,
                tenant_ids,
                recs: &recs[c],
                units: &units[c],
                mode: phase.mode,
                t0,
            };
            let tx_stream = conns.streams[c].try_clone()?;
            let rx_stream = conns.streams[c].try_clone()?;
            let units_c = &units[c];
            let traced = traced.clone();
            let sender = std::thread::Builder::new()
                .name(format!("bench-send-{c}"))
                .spawn_scoped(scope, move || send(tx_stream, ctx, done_rx))?;
            let receiver = std::thread::Builder::new()
                .name(format!("bench-recv-{c}"))
                .spawn_scoped(scope, move || {
                    receive(rx_stream, wire, units_c, done_tx, traced)
                })?;
            handles.push((sender, receiver));
        }
        for (s, r) in handles {
            let s = s.join().expect("sender thread panicked");
            let r = r.join().expect("receiver thread panicked");
            outs.push((s, r));
        }
        stop.store(true, Ordering::Relaxed);
        steal = sampler.join().expect("steal sampler panicked");
        Ok(())
    })?;
    drop(traced);

    let mut res = PhaseResult {
        start_ns: u64::MAX,
        steal,
        ..PhaseResult::default()
    };
    let mut max_cpu = 0u64;
    for (c, (s, r)) in outs.into_iter().enumerate() {
        res.records += recs[c].len();
        res.units += units[c].len();
        max_cpu = max_cpu.max(s.cpu_ns).max(r.cpu_ns);
        if res.error.is_none() {
            res.error = s.error.or(r.error);
        }
        for (j, u) in units[c].iter().enumerate() {
            let due = t0 + u.due_ns;
            let sent = s.sent_ns[j];
            let begin = match phase.mode {
                Mode::Open(_) => due,
                Mode::Closed(_) => sent,
            };
            res.start_ns = res.start_ns.min(begin);
            if matches!(phase.mode, Mode::Open(_)) && sent > 0 {
                res.late_ns.push(sent.saturating_sub(due));
            }
            let reply = r.reply_ns[j];
            if reply == 0 {
                continue;
            }
            res.end_ns = res.end_ns.max(reply);
            res.lat
                .push((begin, reply.saturating_sub(begin), u.len as u32));
            if u.trace_id != 0 {
                res.spans.push(ClientSpan {
                    id: u.trace_id,
                    due_ns: due,
                    sent_ns: sent,
                    reply_ns: reply,
                });
            }
        }
        res.lost += recs[c].len() - r.replies.len();
        res.replies.extend(recs[c].iter().copied().zip(r.replies));
    }
    res.lat.sort_unstable();
    if res.start_ns == u64::MAX {
        res.start_ns = t0;
    }
    res.end_ns = res.end_ns.max(res.start_ns);
    res.gen_cpu_frac = max_cpu as f64 / res.wall_ns() as f64;
    Ok(res)
}
