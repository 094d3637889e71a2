//! Host metadata recorded with every result, and the in-process copy
//! probe behind `host.stream_gib_s`.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use stencilflow_json::Json;

/// Size of the last-level cache as the kernel reports it for cpu0, in
/// bytes (`None` when sysfs has no cache description).
pub fn llc_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k * 1024),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|m| m << 20),
                None => size.parse().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// CPU model, hardware threads, toolchain versions, LLC size and the git
/// commit of the checkout (unavailable outside a git repository).
pub fn metadata(root: &Path) -> Vec<(String, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unavailable".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = |v: String| Json::String(v);
    vec![
        ("cpu_model".to_string(), s(cpu)),
        ("nproc".to_string(), Json::Number(nproc as f64)),
        (
            "rustc".to_string(),
            s(first_line("rustc", &["--version"], root)),
        ),
        ("cc".to_string(), s(first_line("cc", &["--version"], root))),
        (
            "llc_bytes".to_string(),
            llc_bytes().map_or(Json::Null, |b| Json::Number(b as f64)),
        ),
        (
            "git_commit".to_string(),
            s(first_line("git", &["rev-parse", "HEAD"], root)),
        ),
    ]
}

/// The copy probe's result.
pub struct Stream {
    pub gib_s: f64,
    pub buffer_bytes: u64,
    pub copy_bytes: u64,
}

/// Host copy bandwidth: one buffer of four times the reported LLC (32 MiB
/// assumed when sysfs reports none), its first half copied onto its
/// second half. Each copy reads and writes half the buffer — two LLCs'
/// worth each way, so no level of cache can hold the operands — and
/// moves `2 × half` bytes. Median of five copies after one warm-up.
pub fn stream_probe() -> Stream {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let words = (4 * llc / 8) as usize & !1;
    let mut buffer: Vec<u64> = (0..words as u64).collect();
    let half = words / 2;
    let mut samples = Vec::new();
    for rep in 0..6 {
        let (src, dst) = buffer.split_at_mut(half);
        let t0 = Instant::now();
        dst.copy_from_slice(src);
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(&dst[rep % half]);
        if rep > 0 {
            samples.push(elapsed);
        }
    }
    let copy_bytes = (half * 8) as u64;
    Stream {
        gib_s: 2.0 * copy_bytes as f64 / crate::stats::median(&samples) / (1u64 << 30) as f64,
        buffer_bytes: (words * 8) as u64,
        copy_bytes,
    }
}
