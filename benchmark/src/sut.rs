//! The system under test: the real `sitw-serve`, `sitw-router` and
//! follower binaries as child processes, observed only from outside
//! (their HTTP surface and `/proc`).

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::run_ns;
use crate::workload::Workload;

/// Shards per node: one per core of the 2-vCPU reference machine.
pub const SHARDS: usize = 2;
/// Reactor threads per node.
pub const REACTORS: usize = 1;
/// Replication pull interval of each warm standby, ms.
pub const REPL_INTERVAL_MS: u64 = 100;

/// What a process is, for grouping its CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A serving node.
    Node,
    /// The router.
    Router,
    /// A warm standby.
    Follower,
}

/// One running child process.
pub struct Proc {
    /// What it is.
    pub role: Role,
    /// The address it answers HTTP on (control address for a follower).
    pub addr: SocketAddr,
    child: Child,
    stdout: Option<JoinHandle<()>>,
}

impl Proc {
    fn spawn(role: Role, bin: &Path, args: &[String]) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", bin.display())))?;
        let out = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Drain stdout for the process's whole life so it never blocks
        // on a full pipe; the first line names the bound address.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut proc = Proc {
            role,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child,
            stdout: Some(reader),
        };
        let first = rx
            .recv_timeout(Duration::from_secs(20))
            .map_err(|_| io::Error::other(format!("{} did not start", bin.display())))?;
        let marker = if role == Role::Follower {
            "control on "
        } else {
            "listening on "
        };
        proc.addr = first
            .split_once(marker)
            .and_then(|(_, rest)| rest.split([' ', '|', '(']).next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected start line: {first}")))?;
        Ok(proc)
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the process to stop and waits for it (killing it after 10 s).
    fn stop(mut self) -> io::Result<()> {
        let asked = http(self.addr, "POST", "/admin/shutdown", "");
        let mut waited = 0;
        loop {
            if self.child.try_wait()?.is_some() {
                break;
            }
            if waited >= 10_000 || asked.is_err() {
                self.child.kill()?;
                self.child.wait()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            waited += 5;
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        asked.map(|_| ())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// The running system under test.
pub struct Sut {
    /// Where clients connect (the router, or the single node).
    pub entry: SocketAddr,
    /// Every process, in stopping order: router, followers, nodes.
    pub procs: Vec<Proc>,
}

impl Sut {
    /// Starts the workload's topology from the binaries in `bin_dir`.
    /// `hop_spans` switches the router's hop-span recording on; with
    /// `snap_dir`, routed nodes write `POST /admin/snapshot` there.
    pub fn start(
        w: &Workload,
        bin_dir: &Path,
        hop_spans: bool,
        snap_dir: Option<&Path>,
    ) -> io::Result<Sut> {
        let serve = bin_dir.join("sitw-serve");
        let node_args = |extra: &[String]| -> Vec<String> {
            let mut a: Vec<String> = [
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &SHARDS.to_string(),
                "--reactor-threads",
                &REACTORS.to_string(),
                "--policy",
                "hybrid",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            if w.tenants > 0 {
                a.extend(["--tenants".to_owned(), w.tenants.to_string()]);
            }
            a.extend_from_slice(extra);
            a
        };
        if !w.routed {
            let node = Proc::spawn(Role::Node, &serve, &node_args(&[]))?;
            return Ok(Sut {
                entry: node.addr,
                procs: vec![node],
            });
        }
        let mut nodes = Vec::new();
        for i in 0..2 {
            let snap: Vec<String> = snap_dir
                .map(|d| {
                    let path = d.join(format!("node-{i}.snap"));
                    vec!["--snapshot".into(), path.to_string_lossy().into_owned()]
                })
                .unwrap_or_default();
            nodes.push(Proc::spawn(Role::Node, &serve, &node_args(&snap))?);
        }
        let mut followers = Vec::new();
        for n in &nodes {
            followers.push(Proc::spawn(
                Role::Follower,
                &serve,
                &node_args(&[
                    "--follow".into(),
                    n.addr.to_string(),
                    "--repl-interval-ms".into(),
                    REPL_INTERVAL_MS.to_string(),
                ]),
            )?);
        }
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        for n in &nodes {
            args.extend(["--node".into(), n.addr.to_string()]);
        }
        for (i, f) in followers.iter().enumerate() {
            args.extend(["--standby".into(), format!("{i}={}", f.addr)]);
        }
        args.extend(["--tenants".into(), w.tenants.to_string()]);
        // Hop spans are recorded only while sampling is on; a sampling
        // period no run reaches keeps every traced request client-chosen.
        if hop_spans {
            args.extend(["--trace-sample".into(), u32::MAX.to_string()]);
        }
        let router = Proc::spawn(Role::Router, &bin_dir.join("sitw-router"), &args)?;
        let entry = router.addr;
        let mut procs = vec![router];
        procs.extend(followers);
        procs.extend(nodes);
        Ok(Sut { entry, procs })
    }

    /// Addresses of the serving nodes.
    pub fn nodes(&self) -> Vec<SocketAddr> {
        self.of(Role::Node)
    }

    /// Addresses of processes with `role`.
    pub fn of(&self, role: Role) -> Vec<SocketAddr> {
        self.procs
            .iter()
            .filter(|p| p.role == role)
            .map(|p| p.addr)
            .collect()
    }

    /// Wire ids of tenants `t0..t{n-1}` at the entry point.
    pub fn tenant_ids(&self, n: usize) -> io::Result<Vec<u16>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let body = http_ok(self.entry, "GET", "/admin/tenants")?;
        (0..n)
            .map(|k| {
                let pos = body
                    .find(&format!("\"name\":\"t{k}\""))
                    .ok_or_else(|| io::Error::other(format!("tenant t{k} is not registered")))?;
                let id_pos = body[..pos]
                    .rfind("\"id\":")
                    .ok_or_else(|| io::Error::other("malformed tenant listing"))?;
                num_at(&body[id_pos + 5..])
                    .map(|v| v as u16)
                    .ok_or_else(|| io::Error::other("malformed tenant id"))
            })
            .collect()
    }

    /// CPU time of every live thread of every process, right now, ns.
    /// A thread that has ended no longer counts, so a reading spans only
    /// long-lived threads; the SUT's workers all live for the whole run.
    pub fn cpu(&self) -> CpuSample {
        let mut s = CpuSample::default();
        for p in &self.procs {
            let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", p.pid())) else {
                continue;
            };
            for t in tasks.flatten() {
                let dir = t.path();
                let ns = run_ns(&dir.join("schedstat").to_string_lossy()).unwrap_or(0);
                *s.by_role.entry(role_name(p.role)).or_default() += ns;
                s.total_ns += ns;
                let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
                if let Some(group) = thread_group(comm.trim()) {
                    *s.by_thread.entry(group).or_default() += ns;
                }
            }
        }
        s
    }

    /// Summed peak resident memory of the processes, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .map(|p| {
                std::fs::read_to_string(format!("/proc/{}/status", p.pid()))
                    .ok()
                    .and_then(|s| {
                        let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                        num_at(line.trim_start_matches("VmHWM:").trim())
                    })
                    .unwrap_or(0) as f64
                    / 1024.0
            })
            .sum()
    }

    /// Stops every process: the router first, so no client sees a dead
    /// node, and the followers before the primaries they pull from.
    pub fn stop(self) -> io::Result<()> {
        let mut first_err = Ok(());
        for p in self.procs {
            if let Err(e) = p.stop() {
                if first_err.is_ok() {
                    first_err = Err(e);
                }
            }
        }
        first_err
    }
}

fn role_name(role: Role) -> &'static str {
    match role {
        Role::Node => "node",
        Role::Router => "router",
        Role::Follower => "follower",
    }
}

/// Thread groups measured per layer, by thread-name prefix.
fn thread_group(comm: &str) -> Option<&'static str> {
    [
        ("sitw-shard", "shard"),
        ("sitw-reactor", "reactor"),
        ("router-", "router"),
        ("sitw-follow", "follow"),
    ]
    .iter()
    .find(|(prefix, _)| comm.starts_with(prefix))
    .map(|&(_, group)| group)
}

/// A CPU-time reading of the system under test, ns.
#[derive(Debug, Clone, Default)]
pub struct CpuSample {
    /// All processes.
    pub total_ns: u64,
    /// By process role.
    pub by_role: BTreeMap<&'static str, u64>,
    /// By thread group (shard, reactor, router, follow).
    pub by_thread: BTreeMap<&'static str, u64>,
}

impl CpuSample {
    /// CPU spent between `self` (earlier) and `later`.
    pub fn until(&self, later: &CpuSample) -> CpuSample {
        let diff = |a: &BTreeMap<&'static str, u64>, b: &BTreeMap<&'static str, u64>| {
            b.iter()
                .map(|(k, v)| (*k, v.saturating_sub(a.get(k).copied().unwrap_or(0))))
                .collect()
        };
        CpuSample {
            total_ns: later.total_ns.saturating_sub(self.total_ns),
            by_role: diff(&self.by_role, &later.by_role),
            by_thread: diff(&self.by_thread, &later.by_thread),
        }
    }
}

/// Leading decimal digits of `s` as a number.
pub fn num_at(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// One HTTP request on a fresh `connection: close` connection; returns
/// `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp)?;
    let resp = String::from_utf8_lossy(&resp);
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("malformed response from {addr}{path}")))?;
    let body = resp
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    Ok((status, body))
}

/// A `GET`/`POST` that must answer 200; returns the body.
pub fn http_ok(addr: SocketAddr, method: &str, path: &str) -> io::Result<String> {
    match http(addr, method, path, "")? {
        (200, body) => Ok(body),
        (status, body) => Err(io::Error::other(format!(
            "{method} {path} on {addr}: {status} {body}"
        ))),
    }
}

/// Builds the SUT binaries from the workspace in the current directory
/// and returns the directory holding them.
pub fn build_binaries() -> io::Result<PathBuf> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err(io::Error::other(
            "run from the repository root: the workspace sources are missing",
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "sitw-serve",
            "-p",
            "sitw-cluster",
            "--bins",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other("building sitw-serve / sitw-router failed"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(target.join("release"))
}
