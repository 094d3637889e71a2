//! Client side of the `stencilflow daemon` JSON-lines protocol: spawn a
//! daemon, drive closed-loop rounds over its stdin/stdout, reconcile the
//! client's tallies with the daemon's `stats` op, and shut it down.
//!
//! The client is single-threaded. A round writes all of its `submit`
//! lines and `dispatch` ops first, then reads the acks and outcomes; one
//! round's traffic (under 20 KiB each way) stays below a pipe buffer in
//! both directions, so neither side can block the other.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use stencilflow_json::Json;

use crate::workload::{grid_file, program_file, JobRef, Workload, TENANTS};

/// The wire text of a `dispatch` op.
pub const DISPATCH_LINE: &str = r#"{"op":"dispatch"}"#;

/// One job as submitted: its id, tenant, files, and which script job it is.
#[derive(Debug, Clone)]
pub struct JobLine {
    pub id: String,
    pub tenant: String,
    pub job: JobRef,
    pub steps: usize,
    /// Output grid-set path, relative to the run directory.
    pub out: String,
}

impl JobLine {
    /// The jobs of one round: ids are unique per daemon (`prefix` names the
    /// round), tenants rotate over [`TENANTS`], and each job writes a new
    /// output file named after its id.
    pub fn round(workload: &Workload, prefix: &str, jobs: &[JobRef]) -> Vec<JobLine> {
        jobs.iter()
            .enumerate()
            .map(|(slot, &job)| JobLine {
                id: format!("{prefix}-{slot}"),
                tenant: format!("t{}", slot % TENANTS),
                job,
                steps: workload.programs[job.program].steps,
                out: format!("o/{prefix}-{slot}.sfgs"),
            })
            .collect()
    }

    /// The exact `submit` line the daemon receives.
    pub fn wire(&self) -> String {
        format!(
            r#"{{"op":"submit","id":"{}","tenant":"{}","program":"{}","grids":"{}","steps":{},"out":"{}"}}"#,
            self.id,
            self.tenant,
            program_file(self.job.program),
            grid_file(self.job),
            self.steps,
            self.out
        )
    }
}

/// What became of one submitted job.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    pub admitted: bool,
    /// Outcome status label (`done`, `failed`, `panicked`, `cancelled`).
    pub status: Option<String>,
    pub tier: Option<String>,
    pub cells: f64,
    /// Client-side latency: `submit` written → `outcome` read.
    pub latency_s: f64,
    /// Whether the outcome reports the output file written.
    pub wrote_out: bool,
}

/// One closed-loop round.
#[derive(Debug)]
pub struct Round {
    pub jobs: Vec<JobLine>,
    pub results: Vec<JobResult>,
    /// First `submit` written → last `outcome` read.
    pub elapsed_s: f64,
}

/// Counts the client keeps per daemon, reconciled with its `stats` op.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub submitted: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub completed: usize,
    pub failed: usize,
    pub panicked: usize,
    pub cancelled: usize,
}

impl Tally {
    pub fn add(&mut self, round: &Round) {
        for r in &round.results {
            self.submitted += 1;
            if r.admitted {
                self.admitted += 1;
            } else {
                self.rejected += 1;
            }
            match r.status.as_deref() {
                Some("done") => self.completed += 1,
                Some("failed") => self.failed += 1,
                Some("panicked") => self.panicked += 1,
                Some("cancelled") => self.cancelled += 1,
                _ => {}
            }
        }
    }

    /// Jobs that did not complete: rejects plus bad outcomes.
    pub fn unsuccessful(&self) -> usize {
        self.rejected + self.failed + self.panicked + self.cancelled
    }
}

/// Process ids of live daemons, so the run's watchdog can stop them.
pub static LIVE_CHILDREN: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());

/// A running `stencilflow daemon --workers 2` child.
pub struct DaemonProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub tally: Tally,
}

impl DaemonProc {
    /// Spawn a daemon whose working directory is `run_dir`, with its own
    /// JIT cache directory and tier-cache file. Every other setting is the
    /// default.
    pub fn spawn(
        bin: &Path,
        run_dir: &Path,
        jit_dir: &Path,
        tier_cache: &Path,
    ) -> Result<DaemonProc, String> {
        let mut child = Command::new(bin)
            .arg("daemon")
            .arg("--workers")
            .arg("2")
            .arg("--tier-cache")
            .arg(tier_cache)
            .env("SF_JIT_CACHE_DIR", jit_dir)
            .current_dir(run_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        LIVE_CHILDREN
            .lock()
            .expect("child list poisoned")
            .push(child.id());
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(DaemonProc {
            child,
            stdin,
            stdout,
            tally: Tally::default(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("writing to daemon: {e}"))
    }

    fn read(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading from daemon: {e}"))?;
        if n == 0 {
            return Err("daemon closed its output unexpectedly".to_string());
        }
        stencilflow_json::parse(line.trim())
            .map_err(|e| format!("daemon sent malformed JSON ({e}): {line}"))
    }

    /// Submit `jobs`, send one `dispatch` per micro-batch, and wait for
    /// every ack and every admitted job's outcome.
    pub fn round(&mut self, jobs: Vec<JobLine>) -> Result<Round, String> {
        let index: HashMap<String, usize> = jobs
            .iter()
            .enumerate()
            .map(|(ix, j)| (j.id.clone(), ix))
            .collect();
        let mut results = vec![JobResult::default(); jobs.len()];
        // The whole round goes out in one write: one wakeup for the
        // daemon, and every job's latency starts at the same instant.
        let mut script: Vec<String> = jobs.iter().map(JobLine::wire).collect();
        script.extend(std::iter::repeat_n(
            DISPATCH_LINE.to_string(),
            Workload::dispatches(jobs.len()),
        ));
        let start = Instant::now();
        self.send(&script.join("\n"))?;
        let (mut acks, mut admitted, mut outcomes) = (0, 0, 0);
        while acks < jobs.len() || outcomes < admitted {
            let json = self.read()?;
            let op = json.get("op").and_then(Json::as_str).unwrap_or("");
            let id = json.get("id").and_then(Json::as_str).unwrap_or("");
            let ix = match op {
                "submit" | "outcome" => *index
                    .get(id)
                    .ok_or_else(|| format!("daemon answered for unknown job `{id}`"))?,
                "error" => return Err(format!("daemon error line: {}", json.to_string_compact())),
                other => return Err(format!("unexpected `{other}` line during a round")),
            };
            let result = &mut results[ix];
            if op == "submit" {
                acks += 1;
                if json.get("ok").and_then(Json::as_bool) == Some(true) {
                    result.admitted = true;
                    admitted += 1;
                } else {
                    eprintln!("perfbench: job {id} rejected: {}", json.to_string_compact());
                }
            } else {
                result.latency_s = start.elapsed().as_secs_f64();
                outcomes += 1;
                result.status = json
                    .get("status")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                result.tier = json.get("tier").and_then(Json::as_str).map(str::to_string);
                result.cells = json.get("cells").and_then(Json::as_f64).unwrap_or(0.0);
                result.wrote_out = json.get("out").is_some();
            }
        }
        let round = Round {
            jobs,
            results,
            elapsed_s: start.elapsed().as_secs_f64(),
        };
        self.tally.add(&round);
        Ok(round)
    }

    /// Ask for the daemon's `stats` object.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.send(r#"{"op":"stats"}"#)?;
        let json = self.read()?;
        match json.get("op").and_then(Json::as_str) {
            Some("stats") => Ok(json),
            _ => Err(format!(
                "expected a stats line, got {}",
                json.to_string_compact()
            )),
        }
    }

    /// Compare the client's tallies with the daemon's own counters.
    pub fn reconcile(&mut self) -> Result<Json, String> {
        let stats = self.stats()?;
        let count = |key: &str| {
            stats
                .get(key)
                .and_then(Json::as_usize)
                .unwrap_or(usize::MAX)
        };
        let daemon = Tally {
            submitted: count("submitted"),
            admitted: count("admitted"),
            rejected: count("rejected"),
            completed: count("completed"),
            failed: count("failed"),
            panicked: count("panicked"),
            cancelled: count("cancelled"),
        };
        if daemon != self.tally {
            return Err(format!(
                "client tallies {:?} disagree with daemon stats {:?}",
                self.tally, daemon
            ));
        }
        Ok(stats)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_string())
    }

    /// Close stdin (the daemon drains and persists its tier cache), read
    /// the remaining lines, and wait for a clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut drained = false;
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let json = stencilflow_json::parse(line.trim())
                        .map_err(|e| format!("bad drain line ({e})"))?;
                    match json.get("op").and_then(Json::as_str) {
                        Some("drain") => {
                            drained = json.get("clean").and_then(Json::as_bool) == Some(true)
                        }
                        _ => {
                            return Err(format!(
                                "unexpected line at shutdown: {}",
                                json.to_string_compact()
                            ))
                        }
                    }
                }
                Err(e) => return Err(format!("reading daemon shutdown: {e}")),
            }
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for daemon: {e}"))?;
        let pid = self.child.id();
        LIVE_CHILDREN
            .lock()
            .expect("child list poisoned")
            .retain(|&p| p != pid);
        if !status.success() || !drained {
            return Err(format!(
                "daemon exited with {status} (clean drain: {drained})"
            ));
        }
        Ok(())
    }

    /// Read the startup line a daemon restarted on an existing tier cache
    /// prints, and check that it loaded the cache.
    pub fn read_tier_cache_line(&mut self) -> Result<(), String> {
        let json = self.read()?;
        match json.get("op").and_then(Json::as_str) {
            Some("tier-cache") if json.get("stale").and_then(Json::as_bool) == Some(false) => {
                Ok(())
            }
            _ => Err(format!(
                "restart did not load the tier cache: {}",
                json.to_string_compact()
            )),
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        // Only reached un-finished on an error path: stop the child.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let pid = self.child.id();
            LIVE_CHILDREN
                .lock()
                .expect("child list poisoned")
                .retain(|&p| p != pid);
        }
    }
}

/// Shared objects (`.so`) in a JIT cache directory: each is one `cc`
/// invocation that produced it.
pub fn jit_objects(dir: &Path) -> BTreeMap<PathBuf, std::time::SystemTime> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "so"))
        .filter_map(|e| Some((e.path(), e.metadata().ok()?.modified().ok()?)))
        .collect()
}
