//! Statistics, the machine fingerprint, and result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Directory, relative to the repository root, that result and span
/// files are written to.
pub const OUT_DIR: &str = ".bench_out";

/// What a result was measured on. Results whose fingerprints differ are
/// not compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or a digest of the sources when the tree is
    /// not a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine and source tree.
    pub fn read() -> Fingerprint {
        let cmd = |prog: &str, args: &[&str]| -> Option<String> {
            let out = Command::new(prog).args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: cmd("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| format!("src-{:016x}", source_digest())),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

/// FNV-1a over the workspace sources and manifests, in path order.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("."), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", sitw_serve::wire::json_escape(s))
}

/// A JSON number that keeps all measured digits (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

/// `{"name":{"value":v,"unit":"u"},...}`.
fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    s.push('}');
    s
}

/// Writes `{"fingerprint":..,"workload":..,"seed":..,"reported":{..},
/// "result":<line>}` to `path` (creating [`OUT_DIR`]); `reported` holds
/// every end-to-end metric, gated or not.
pub fn write_result(
    path: &Path,
    fp: &Fingerprint,
    workload: &str,
    seed: u64,
    line: &str,
    reported: &[(String, f64, &str)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        path,
        format!(
            "{{\"fingerprint\":{},\"workload\":{},\"seed\":{seed},\"reported\":{},\"result\":{line}}}\n",
            fp.to_json(),
            json_str(workload),
            metrics_json(reported)
        ),
    )
}

fn between<'a>(s: &'a str, start: &str, end: &str) -> Option<&'a str> {
    let from = s.find(start)? + start.len();
    let len = s[from..].find(end)?;
    Some(&s[from..from + len])
}

/// A parsed result file: (fingerprint JSON, workload, metric → value).
type ResultFile = (String, String, BTreeMap<String, f64>);

fn read_result(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_result(text: &str) -> Result<ResultFile, String> {
    let fp = between(text, "\"fingerprint\":", "},\"workload\"")
        .ok_or("no fingerprint")?
        .to_owned();
    let workload = between(text, "\"workload\":\"", "\"")
        .unwrap_or("")
        .to_owned();
    // Every `"name":{"value":v,...}` pair, reported and per-layer alike.
    let mut out = BTreeMap::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\":{\"value\":") {
        let name = rest[..pos].rsplit('"').next().unwrap_or("").to_owned();
        rest = &rest[pos + 11..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        out.insert(name, rest[..end].parse().unwrap_or(f64::NAN));
    }
    if out.is_empty() {
        return Err("no metrics".into());
    }
    Ok((fp, workload, out))
}

/// `compare A B`: prints B ÷ A per metric, refusing results measured on
/// different machines, toolchains or workloads.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (fa, wa, ma) = read_result(a)?;
    let (fb, wb, mb) = read_result(b)?;
    // The commit is allowed to differ: comparing two commits is the point.
    let machine = |fp: &str| fp.split(",\"commit\"").next().unwrap_or("").to_owned();
    if machine(&fa) != machine(&fb) {
        return Err(format!(
            "fingerprints differ, refusing to compare:\n  {fa}\n  {fb}"
        ));
    }
    if wa != wb {
        return Err(format!("workloads differ: {wa} vs {wb}"));
    }
    println!("workload {wa}: {} vs {}", a.display(), b.display());
    for (name, va) in &ma {
        if let Some(vb) = mb.get(name) {
            println!("  {name:<28} {va:>14.3} -> {vb:>14.3}  (x{:.3})", vb / va);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("p50_us.lo".into(), 12.5, "us"),
                ("setup_s".into(), 0.25, "s"),
            ],
        );
        let fp = Fingerprint {
            nproc: 2,
            cpu: "x".into(),
            rustc: "r".into(),
            commit: "c".into(),
        };
        let text = format!(
            "{{\"fingerprint\":{},\"workload\":\"w\",\"seed\":1,\"reported\":{},\"result\":{line}}}\n",
            fp.to_json(),
            metrics_json(&[("dec_per_s".into(), 9.5, "dec/s")])
        );
        let (_, w, m) = parse_result(&text).unwrap();
        assert_eq!(w, "w");
        assert_eq!(m["p50_us.lo"], 12.5);
        assert_eq!(m["setup_s"], 0.25);
        assert_eq!(m["dec_per_s"], 9.5);
    }
}
