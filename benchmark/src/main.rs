//! `sitw-benchmark` — the repository benchmark.
//!
//! ```text
//! sitw-benchmark --workload hot-json|longtail-bin|routed-repl
//!                [--seed 42] [--seconds 10] [--trace 0|1]
//! sitw-benchmark sweep --workload W --rates R1,R2,.. [--seed 42] [--seconds 2]
//! sitw-benchmark compare RESULT_A.json RESULT_B.json
//! ```
//!
//! Run from the repository root. One run builds `sitw-serve` and
//! `sitw-router`, then:
//!
//! 1. **Set-up**, seven times (the median is `setup_s`): generate the
//!    workload's trace from the seed, compute the offline reference
//!    verdict of every record, and start the system under test as child
//!    processes. The first six set-ups are stopped again; the last
//!    carries on.
//! 2. **Warm replay** of the trace's leading days, closed loop, so the
//!    timed phases meet realistic policy state.
//! 3. **Timed phases** on consecutive slices of the same trace and the
//!    same processes: open loop at the workload's fixed `lo` and `hi`
//!    rates, then a closed-loop saturation phase over the rest.
//! 4. **Check**: every reply's verdict must equal the reference, the
//!    replies' cold-start share must equal the reference's, and the same
//!    check run against a reference with one flipped verdict must fail.
//!
//! With `--trace 1` the run adds a sampled `lo` phase whose units carry
//! client trace ids, nests the node stages (and router hops) under each
//! client span, replays every layer's public functions on the
//! workload's inputs, and reports the per-layer metrics instead of the
//! end-to-end ones. Spans and results are written under `.bench_out/`.
//!
//! The last line of standard output is the result as one JSON object.
//! See `NOTES.md` for every metric, its unit and direction.
//!
//! `sweep` finds a workload's knee: after one set-up and the warm replay
//! it offers each rate open-loop for `--seconds` on consecutive slices
//! and prints the phase line of each step.

#![forbid(unsafe_code)]

mod clock;
mod drive;
mod layers;
mod proto;
mod report;
mod spans;
mod stats;
mod sut;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use clock::now_ns;
use drive::{Mode, Phase, PhaseResult};
use report::{Fingerprint, OUT_DIR};
use sitw_serve::shard::Decision;
use sitw_trace::DAY_MS;
use stats::{median, open_stats, windowed_rate, OpenStats};
use sut::{http_ok, num_at, Role, Sut};
use workload::{Trace, Wire, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Share of `--seconds` given to each open-loop phase.
const OPEN_SHARE: f64 = 0.3;
/// The seed later performance claims are re-checked on, never used
/// while a change is written.
const HELD_OUT_SEED: u64 = 1009;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `sweep` only: the offered rates, records/s.
    rates: Vec<f64>,
}

enum Cmd {
    Run(Args),
    Sweep(Args),
    Compare(PathBuf, PathBuf),
}

fn usage() -> String {
    "usage: sitw-benchmark --workload hot-json|longtail-bin|routed-repl [--seed N] \
     [--seconds N] [--trace 0|1]\n       sitw-benchmark sweep --workload W --rates R1,R2,.. \
     [--seed N] [--seconds N]\n       sitw-benchmark compare RESULT_A RESULT_B"
        .into()
}

fn parse_args() -> Result<Cmd, String> {
    let mut args = std::env::args().skip(1).peekable();
    let sweep = args.next_if_eq("sweep").is_some();
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: if sweep { 2 } else { 10 },
        trace: false,
        rates: Vec::new(),
    };
    while let Some(flag) = args.next() {
        if flag == "compare" && !sweep {
            let (Some(x), Some(y)) = (args.next(), args.next()) else {
                return Err(usage());
            };
            return Ok(Cmd::Compare(x.into(), y.into()));
        }
        let value = args.next().ok_or_else(usage)?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.max(1),
            "--trace" if !sweep => a.trace = number()? != 0,
            "--rates" if sweep => {
                a.rates = value
                    .split(',')
                    .map(|r| r.parse::<f64>().ok().filter(|r| *r > 0.0))
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("--rates: not a list of rates: {value}"))?
            }
            _ => return Err(usage()),
        }
    }
    if workload::find(&a.workload).is_none() || (sweep && a.rates.is_empty()) {
        return Err(usage());
    }
    Ok(if sweep { Cmd::Sweep(a) } else { Cmd::Run(a) })
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(Cmd::Run(a)) => run(&a),
        Ok(Cmd::Sweep(a)) => sweep(&a),
        Ok(Cmd::Compare(x, y)) => report::compare(&x, &y),
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sitw-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the set-up leaves for the timed phases.
struct Setup {
    trace: Trace,
    reference: Vec<Decision>,
    ref_ns: u64,
    sut: Sut,
    tenant_ids: Vec<u16>,
    conns: drive::Conns,
    warm_end: usize,
}

/// Replies checked so far, and what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Folds a phase's replies into `got` and counts failures.
    fn absorb(&mut self, p: PhaseResult, got: &mut [Option<Decision>]) {
        self.attempted += p.records as u64;
        self.failed += p.lost as u64;
        if let Some(e) = p.error {
            self.first_failure.get_or_insert(e);
        }
        for (i, reply) in p.replies {
            match reply {
                Ok(v) => got[i as usize] = Some(v),
                Err(e) => {
                    self.failed += 1;
                    self.first_failure.get_or_insert(e);
                }
            }
        }
    }
}

fn setup(
    w: &Workload,
    seed: u64,
    bins: &Path,
    traced: bool,
    snap_dir: Option<&Path>,
) -> Result<Setup, String> {
    let trace = workload::generate(w, seed);
    let t = now_ns();
    let reference = workload::reference(w, &trace)?;
    let ref_ns = now_ns() - t;
    let sut =
        Sut::start(w, bins, traced, snap_dir).map_err(|e| format!("starting the SUT: {e}"))?;
    let tenant_ids = sut
        .tenant_ids(w.tenants)
        .map_err(|e| format!("resolving tenant ids: {e}"))?;
    let conns = drive::connect(sut.entry, &trace).map_err(|e| format!("connecting: {e}"))?;
    let warm_end = trace.recs.partition_point(|r| r.ts < w.warm_days * DAY_MS);
    Ok(Setup {
        trace,
        reference,
        ref_ns,
        sut,
        tenant_ids,
        conns,
        warm_end,
    })
}

fn run_phase(
    s: &Setup,
    w: &Workload,
    phase: &Phase,
    tracer: Option<std::sync::mpsc::Sender<u64>>,
) -> Result<PhaseResult, String> {
    drive::run_phase(&s.conns, &s.trace, w.wire, &s.tenant_ids, phase, tracer)
        .map_err(|e| format!("phase {}: {e}", phase.name))
}

impl Setup {
    /// Closes the connections and stops the system under test.
    fn stop(self) -> Result<(), String> {
        drop(self.conns);
        self.sut
            .stop()
            .map_err(|e| format!("stopping the SUT: {e}"))
    }
}

/// Replays the trace's leading `warm_days` closed-loop and returns the
/// replies so far, indexed like the trace.
fn warm(s: &Setup, w: &Workload, tally: &mut Tally) -> Result<Vec<Option<Decision>>, String> {
    let phase = Phase {
        name: "warm",
        range: 0..s.warm_end,
        mode: Mode::Closed(w.window),
        sample_every_ns: 0,
        tag: 0,
    };
    let p = run_phase(s, w, &phase, None)?;
    println!(
        "phase {:<9} closed loop, window {} | {} records in {:.3} s",
        phase.name,
        w.window,
        p.records,
        p.wall_ns() as f64 / 1e9
    );
    let mut got = vec![None; s.trace.recs.len()];
    tally.absorb(p, &mut got);
    Ok(got)
}

fn print_open(name: &str, st: &OpenStats) {
    println!(
        "phase {:<9} offered {:>7.0}/s achieved {:>9.1}/s | {} records in {} units | p50 {:.1} us \
         p99 {:.1} us (median of {} calm of {} windows) | gen late p99 {:.1} us, cpu {:.2} | {}{}{}",
        name,
        st.offered,
        st.achieved,
        st.records,
        st.units,
        st.p50_us,
        st.p99_us,
        st.calm,
        st.windows,
        st.late_p99_us,
        st.gen_cpu_frac,
        if st.meets_slo { "meets" } else { "misses" },
        if st.growing { ", backlog grows" } else { "" },
        if st.gen_bound {
            ", GENERATOR-BOUND (not server capacity)"
        } else {
            ""
        },
    );
}

/// `sweep`: one set-up and the warm replay, then each rate open-loop for
/// `--seconds` on consecutive slices of the trace. Every reply is still
/// checked against the reference.
fn sweep(a: &Args) -> Result<(), String> {
    let w = workload::find(&a.workload).expect("validated by parse_args");
    let fp = Fingerprint::read();
    let bins = sut::build_binaries().map_err(|e| e.to_string())?;
    let s = setup(w, a.seed, &bins, false, None)?;
    let mut tally = Tally::default();
    let mut got = warm(&s, w, &mut tally)?;
    let mut next = s.warm_end;
    for &rate in &a.rates {
        let n = (rate * a.seconds as f64) as usize;
        if next + n > s.trace.recs.len() {
            println!("trace exhausted before {rate:.0}/s");
            break;
        }
        let phase = Phase {
            name: "sweep",
            range: next..next + n,
            mode: Mode::Open(rate),
            sample_every_ns: 0,
            tag: 0,
        };
        next += n;
        let p = run_phase(&s, w, &phase, None)?;
        print_open(phase.name, &open_stats(&p, rate, fp.nproc));
        tally.absorb(p, &mut got);
    }
    check_replies(&s, w, &got, &mut tally);
    s.stop()?;
    println!(
        "check: {} records attempted, {} failed",
        tally.attempted, tally.failed
    );
    match tally.first_failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Sum of a `/debug/threads` counter over every reactor of every node.
fn reactor_counter(sut: &Sut, key: &str) -> u64 {
    sut.nodes()
        .into_iter()
        .filter_map(|n| http_ok(n, "GET", "/debug/threads").ok())
        .map(|body| {
            body.match_indices(key)
                .filter_map(|(i, _)| num_at(&body[i + key.len()..]))
                .sum::<u64>()
        })
        .sum()
}

/// Sum of a Prometheus counter over the serving nodes.
fn node_metric(sut: &Sut, series: &str) -> u64 {
    sut.nodes()
        .into_iter()
        .filter_map(|n| http_ok(n, "GET", "/metrics").ok())
        .filter_map(|body| {
            body.lines()
                .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map(|v| v as u64)
        .sum()
}

/// One benchmark run. A failed check is a result (`"correct":false`),
/// not an error: the run still prints its result line.
fn run(a: &Args) -> Result<(), String> {
    let w = workload::find(&a.workload).expect("validated by parse_args");
    let fp = Fingerprint::read();
    let bins = sut::build_binaries().map_err(|e| e.to_string())?;
    let snap_dir = (a.trace && w.routed)
        .then(|| PathBuf::from(OUT_DIR).join(format!("snap-{}", std::process::id())));
    if let Some(d) = &snap_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    println!(
        "sitw-benchmark {} seed {} ({}s, trace {}): {} connection(s); SUT {} x {} shards x {} reactor{}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        drive::CONNECTIONS,
        if w.routed { "router + 2 nodes" } else { "1 node" },
        sut::SHARDS,
        sut::REACTORS,
        if w.routed { " + 2 warm standbys" } else { "" },
    );
    println!(
        "fingerprint: nproc {} | cpu {} | {} | commit {} | held-out seed {HELD_OUT_SEED}",
        fp.nproc, fp.cpu, fp.rustc, fp.commit
    );

    // 1. Set-up, repeated; the last one carries on.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = now_ns();
        let s = setup(w, a.seed, &bins, a.trace, snap_dir.as_deref())?;
        setup_times.push((now_ns() - t0) as f64 / 1e9);
        if rep + 1 < SETUP_REPEATS {
            s.stop()?;
        } else {
            kept = Some(s);
        }
    }
    let s = kept.expect("at least one set-up");
    let setup_s = median(&mut setup_times.clone());
    let events = s.trace.recs.len();
    println!(
        "setup_s {setup_s:.4} s (median of {SETUP_REPEATS}: {}) | trace {events} records, {} apps",
        setup_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        s.trace.names.len(),
    );

    // 2. Warm replay.
    let mut tally = Tally::default();
    let mut got = warm(&s, w, &mut tally)?;

    // 3. Timed phases on consecutive slices.
    let secs = a.seconds as f64;
    let n_lo = (w.lo_rate * secs * OPEN_SHARE) as usize;
    let n_hi = (w.hi_rate * secs * OPEN_SHARE) as usize;
    let mut next = s.warm_end;
    let mut take = |n: usize| {
        let r = next..(next + n).min(events);
        next = r.end;
        r
    };
    let mut plan = vec![Phase {
        name: "lo",
        range: take(n_lo),
        mode: Mode::Open(w.lo_rate),
        sample_every_ns: 0,
        tag: 1,
    }];
    if a.trace {
        plan.push(Phase {
            name: "lo-traced",
            range: take(n_lo),
            mode: Mode::Open(w.lo_rate),
            sample_every_ns: if w.routed { 100_000_000 } else { 50_000_000 },
            tag: 2,
        });
    }
    plan.push(Phase {
        name: "hi",
        range: take(n_hi),
        mode: Mode::Open(w.hi_rate),
        sample_every_ns: 0,
        tag: 3,
    });
    let sat_range = take(events);
    if sat_range.len() < events / 20 {
        return Err(format!(
            "the trace is too short for {}s: {} records left for saturation",
            a.seconds,
            sat_range.len()
        ));
    }
    plan.push(Phase {
        name: "sat",
        range: sat_range,
        mode: Mode::Closed(w.window),
        sample_every_ns: 0,
        tag: 4,
    });

    let cpu_run0 = s.sut.cpu();
    let rounds0 = node_metric(&s.sut, "sitw_serve_repl_rounds_total");
    let bytes0 = node_metric(&s.sut, "sitw_serve_repl_bytes_total");
    let mut open: BTreeMap<&str, OpenStats> = BTreeMap::new();
    let mut client_spans = Vec::new();
    let mut node_spans = Vec::new();
    let mut sat = None;
    for phase in &plan {
        let tracer = (phase.sample_every_ns > 0).then(|| {
            let targets = if w.routed {
                vec![s.sut.entry]
            } else {
                s.sut.nodes()
            };
            spans::tracer(targets, w.routed)
        });
        let before = (s.sut.cpu(), reactor_counter(&s.sut, "\"wakeups\":"));
        let mut p = run_phase(&s, w, phase, tracer.as_ref().map(|(tx, _)| tx.clone()))?;
        if let Some((tx, handle)) = tracer {
            drop(tx);
            node_spans = handle.join().map_err(|_| "tracer thread panicked")?;
            client_spans = std::mem::take(&mut p.spans);
        }
        match phase.mode {
            Mode::Open(rate) => {
                let st = open_stats(&p, rate, fp.nproc);
                print_open(phase.name, &st);
                open.insert(phase.name, st);
                tally.absorb(p, &mut got);
            }
            Mode::Closed(_) => {
                let after = (s.sut.cpu(), reactor_counter(&s.sut, "\"wakeups\":"));
                let decisions = p.replies.iter().filter(|(_, r)| r.is_ok()).count() as f64;
                let (rate, calm, windows) = windowed_rate(&p, fp.nproc);
                println!(
                    "phase {:<9} closed loop, window {} | {} records in {} units over {:.3} s | \
                     {:.0} dec/s overall, {rate:.0} dec/s median of {calm} calm of {windows} windows",
                    phase.name,
                    w.window,
                    p.records,
                    p.units,
                    p.wall_ns() as f64 / 1e9,
                    decisions / (p.wall_ns() as f64 / 1e9)
                );
                sat = Some((
                    before.0.until(&after.0),
                    after.1.saturating_sub(before.1),
                    decisions,
                    rate,
                ));
                tally.absorb(p, &mut got);
            }
        }
    }
    let (sat_cpu, sat_wakeups, sat_dec, sat_rate) = sat.expect("the plan ends with saturation");
    let cpu_run = cpu_run0.until(&s.sut.cpu());
    let rounds = node_metric(&s.sut, "sitw_serve_repl_rounds_total").saturating_sub(rounds0);
    let repl_bytes = node_metric(&s.sut, "sitw_serve_repl_bytes_total").saturating_sub(bytes0);
    let lag_ms = s
        .sut
        .of(Role::Follower)
        .into_iter()
        .filter_map(|f| http_ok(f, "GET", "/healthz").ok())
        .filter_map(|b| b.find("\"lag_ms\":").and_then(|i| num_at(&b[i + 9..])))
        .max()
        .unwrap_or(0);
    let rss_mb = s.sut.peak_rss_mb();
    if snap_dir.is_some() {
        for n in s.sut.nodes() {
            http_ok(n, "POST", "/admin/snapshot").map_err(|e| format!("snapshot: {e}"))?;
        }
    }

    // 4. The output check.
    check_replies(&s, w, &got, &mut tally);
    let correct_check = corrupted_reference_is_caught(&s, w, &got, a.seed);
    let q_got = workload::quality(&s.trace, &got);
    let all_ref: Vec<Option<Decision>> = s.reference.iter().copied().map(Some).collect();
    let q_ref = workload::quality(&s.trace, &all_ref);
    let quality_ok = q_got == q_ref;
    drop(s.conns);
    s.sut.stop().map_err(|e| format!("stopping the SUT: {e}"))?;
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let correct = tally.failed == 0 && correct_check && quality_ok;
    println!(
        "check: {} records attempted, {} failed ({} verdict mismatches) | fail_frac {fail_frac} ratio | \
         cold_pct reply {:.4} vs reference {:.4} | corrupted reference {} | {}",
        tally.attempted,
        tally.failed,
        tally.mismatched,
        q_got.cold_pct(),
        q_ref.cold_pct(),
        if correct_check { "caught" } else { "NOT caught" },
        if correct { "PASS" } else { "FAIL" },
    );
    if let Some(e) = &tally.first_failure {
        println!("first failure: {e}");
    }
    println!(
        "decision mix (replies): histogram {} / standard {} / arima {}",
        q_got.kinds[0], q_got.kinds[1], q_got.kinds[2]
    );

    let lo = &open["lo"];
    let hi = &open["hi"];
    let slo_rate = [hi, lo]
        .into_iter()
        .find(|st| st.meets_slo)
        .map_or(0.0, |st| st.achieved);
    let e2e: Vec<(String, f64, &str)> = vec![
        ("setup_s".into(), setup_s, "s"),
        ("dec_per_s".into(), sat_rate, "dec/s"),
        (
            "cpu_us_per_dec".into(),
            sat_cpu.total_ns as f64 / 1e3 / sat_dec.max(1.0),
            "us",
        ),
        ("p50_us.lo".into(), lo.p50_us, "us"),
        ("p99_us.lo".into(), lo.p99_us, "us"),
        ("p50_us.hi".into(), hi.p50_us, "us"),
        ("p99_us.hi".into(), hi.p99_us, "us"),
        ("slo_rate".into(), slo_rate, "dec/s"),
        ("fail_frac".into(), fail_frac, "ratio"),
        ("cold_pct".into(), q_got.cold_pct(), "%"),
        ("wasted_mem_pct".into(), q_got.wasted_mem_pct(), "%"),
        ("rss_mb".into(), rss_mb, "MB"),
    ];
    println!(
        "end to end ({}; gated in BENCHMARK.json: {}):",
        if a.trace {
            "traced run, not for comparison"
        } else {
            "untraced run"
        },
        GATED.join(", ")
    );
    for (name, v, unit) in &e2e {
        let tag = if GATED.contains(&name.as_str()) {
            ""
        } else {
            "  (reported, not gated)"
        };
        println!("  {name:<26} {v:>16.4} {unit}{tag}");
    }
    let metrics: Vec<(String, f64, &str)> = if !a.trace {
        e2e.iter()
            .filter(|(name, _, _)| GATED.contains(&name.as_str()))
            .cloned()
            .collect()
    } else {
        let attribution = spans::attribute(&client_spans, &node_spans, w.routed);
        spans::print_attribution(&attribution, lo.p50_us, open["lo-traced"].p50_us);
        let mut layers = layers::replay(w, &s.trace, &s.reference)?;
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        m.insert("gen.late_p99_us", hi.late_p99_us.max(lo.late_p99_us));
        m.insert("gen.cpu_frac", hi.gen_cpu_frac.max(lo.gen_cpu_frac));
        let per_dec = |ns: u64| ns as f64 / sat_dec.max(1.0);
        let thread = |g: &str| sat_cpu.by_thread.get(g).copied().unwrap_or(0);
        m.insert("reactor.cpu_ns_per_dec", per_dec(thread("reactor")));
        m.insert(
            "reactor.wakeups_per_dec",
            sat_wakeups as f64 / sat_dec.max(1.0),
        );
        m.insert("shard.cpu_ns_per_dec", per_dec(thread("shard")));
        m.insert(
            "router.cpu_ns_per_dec",
            per_dec(sat_cpu.by_role.get("router").copied().unwrap_or(0)),
        );
        for (stage, ns) in &attribution.stages {
            let key: &'static str = match *stage {
                "read" => "stage.read_ns",
                "decode" => "stage.decode_ns",
                "queue" => "stage.queue_ns",
                "decide" => "stage.decide_ns",
                "render" => "stage.render_ns",
                "write" => "stage.write_ns",
                "ingress" => "router.ingress_ns",
                "route" => "router.route_ns",
                "forward" => "router.forward_ns",
                "await" => "router.await_ns",
                "reassemble" => "router.reassemble_ns",
                "egress" => "router.egress_ns",
                _ => continue,
            };
            m.insert(key, *ns);
        }
        m.insert("stage.residual_ns", attribution.residual_ns);
        m.insert("decide.n_histogram", q_got.kinds[0] as f64);
        m.insert("decide.n_standard", q_got.kinds[1] as f64);
        m.insert("decide.n_arima", q_got.kinds[2] as f64);
        m.insert("repl.rounds", rounds as f64);
        m.insert(
            "repl.bytes_per_round",
            repl_bytes as f64 / rounds.max(1) as f64,
        );
        m.insert("repl.lag_ms", lag_ms as f64);
        m.insert(
            "follow.cpu_ns_per_round",
            cpu_run.by_role.get("follower").copied().unwrap_or(0) as f64 / rounds.max(1) as f64,
        );
        let mut encode_ns = 0.0;
        if let Some(d) = &snap_dir {
            let mut per_node = Vec::new();
            for entry in std::fs::read_dir(d).map_err(|e| e.to_string())?.flatten() {
                let snap = sitw_serve::snapshot::Snapshot::read_from(&entry.path())
                    .map_err(|e| e.to_string())?;
                per_node.push(layers::encode_delta_ns_per_app(&mut layers, &snap));
            }
            encode_ns = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
            let _ = std::fs::remove_dir_all(d);
        }
        m.insert("repl.encode_ns_per_app", encode_ns);
        m.insert(
            "trace.gen_ns_per_event",
            s.trace.gen_ns as f64 / events as f64,
        );
        m.insert("sim.verdict_ns_per_event", s.ref_ns as f64 / events as f64);
        m.extend(layers.metrics.iter().map(|(k, v)| (*k, *v)));
        spans::write_spans(w.name, a.seed, &client_spans, &node_spans, &layers.spans)?;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_owned(), m.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    };

    if a.trace {
        println!("per layer:");
        for (name, v, unit) in &metrics {
            println!("  {name:<26} {v:>16.4} {unit}");
        }
    }
    let line = report::result_line(correct, tally.attempted, tally.failed, &metrics);
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        a.seed,
        u8::from(a.trace)
    ));
    report::write_result(&path, &fp, w.name, a.seed, &line, &e2e)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}

/// The end-to-end metrics `BENCHMARK.json` gates, in its order. The rest
/// are printed and kept in the result file but not gated: on the shared
/// 2-vCPU reference host their run-to-run spread exceeds any usable
/// bound (see NOTES.md).
const GATED: [&str; 4] = ["setup_s", "cold_pct", "wasted_mem_pct", "rss_mb"];

/// Per-layer metrics and units, in report order.
const PER_LAYER: [(&str, &str); 42] = [
    ("gen.late_p99_us", "us"),
    ("gen.cpu_frac", "ratio"),
    ("reactor.cpu_ns_per_dec", "ns"),
    ("reactor.wakeups_per_dec", "count"),
    ("wire.json_parse_ns", "ns"),
    ("wire.json_render_ns", "ns"),
    ("wire.bin_decode_ns_per_rec", "ns"),
    ("wire.bin_encode_ns_per_rec", "ns"),
    ("stage.read_ns", "ns"),
    ("stage.decode_ns", "ns"),
    ("stage.queue_ns", "ns"),
    ("stage.decide_ns", "ns"),
    ("stage.render_ns", "ns"),
    ("stage.write_ns", "ns"),
    ("stage.residual_ns", "ns"),
    ("shard.cpu_ns_per_dec", "ns"),
    ("shard.invoke_batch_ns_per_rec", "ns"),
    ("decide.histogram_ns", "ns"),
    ("decide.standard_ns", "ns"),
    ("decide.arima_ns", "ns"),
    ("decide.n_histogram", "count"),
    ("decide.n_standard", "count"),
    ("decide.n_arima", "count"),
    ("arima.fits", "count"),
    ("arima.fit_ns", "ns"),
    ("arima.used_frac", "ratio"),
    ("ledger.charge_ns", "ns"),
    ("ledger.warm_apps", "count"),
    ("router.cpu_ns_per_dec", "ns"),
    ("router.ingress_ns", "ns"),
    ("router.route_ns", "ns"),
    ("router.forward_ns", "ns"),
    ("router.await_ns", "ns"),
    ("router.reassemble_ns", "ns"),
    ("router.egress_ns", "ns"),
    ("repl.rounds", "count"),
    ("repl.bytes_per_round", "B"),
    ("repl.encode_ns_per_app", "ns"),
    ("repl.lag_ms", "ms"),
    ("follow.cpu_ns_per_round", "ns"),
    ("trace.gen_ns_per_event", "ns"),
    ("sim.verdict_ns_per_event", "ns"),
];

/// Compares every reply with the reference; mismatches count as failed.
fn check_replies(s: &Setup, w: &Workload, got: &[Option<Decision>], tally: &mut Tally) {
    let bin = matches!(w.wire, Wire::Bin { .. });
    let bad = workload::mismatches(&s.reference, got, bin);
    if let Some(&i) = bad.first() {
        let r = s.trace.recs[i];
        tally.first_failure.get_or_insert(format!(
            "record {i} ({} ts {}): reply {:?} != reference {:?}",
            s.trace.names[r.app as usize], r.ts, got[i], s.reference[i]
        ));
    }
    tally.mismatched += bad.len() as u64;
    tally.failed += bad.len() as u64;
}

/// The check must fail on a reference with one flipped verdict.
fn corrupted_reference_is_caught(
    s: &Setup,
    w: &Workload,
    got: &[Option<Decision>],
    seed: u64,
) -> bool {
    let bin = matches!(w.wire, Wire::Bin { .. });
    let answered: Vec<usize> = (0..got.len()).filter(|&i| got[i].is_some()).collect();
    if answered.is_empty() {
        return false;
    }
    let flip = answered[(seed as usize).wrapping_mul(2_654_435_761) % answered.len()];
    let mut corrupted = s.reference.clone();
    corrupted[flip].cold = !corrupted[flip].cold;
    let before = workload::mismatches(&s.reference, got, bin);
    let after = workload::mismatches(&corrupted, got, bin);
    after.len() == before.len() + 1 && after.contains(&flip)
}
