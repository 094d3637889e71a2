//! End-to-end benchmark of the `stencilflow daemon` binary.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload hdiff|stencil3d|small_flood --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. The benchmark builds the release
//! `stencilflow` binary from that checkout, writes the workload's programs
//! and grid sets from `--seed` into a fresh run directory, and drives the
//! daemon over its JSON-lines protocol in closed-loop rounds. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it also
//! replays the job script in process with spans around each layer call
//! and prints the per-layer metrics. Every output is compared bitwise
//! against the tree-walking interpreter. The last stdout line is the
//! result object; see `perfbench/README.md` for every metric.

mod client;
mod host;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stencilflow::ingest;
use stencilflow_json::Json;

use client::{jit_objects, DaemonProc, JobLine, Round, LIVE_CHILDREN};
use stats::{median, percentile_sorted, samples_beyond, tail_percentile};
use workload::{outputs_match, Materialized, Workload};

/// Cold daemons per `--trace 0` run that also run timed rounds; the
/// end-to-end metrics are medians across them.
const DAEMONS: usize = 5;

/// Cold starts per `--trace 0` run, `DAEMONS` included: `setup_s` is
/// their median. One set-up lasts about one job, so a run times more of
/// them than it needs daemons for the timed rounds.
const COLD_STARTS: usize = 25;

/// A run that has not finished this long after its daemon build is
/// stopped: its daemons are killed and it exits non-zero.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Where the watchdog finds the run directory to remove.
static RUN_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build the release `stencilflow` binary of the checkout at `root` and
/// return its path.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "stencilflow",
            "--bin",
            "stencilflow",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemon failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("stencilflow");
    if !bin.is_file() {
        return Err(format!("no daemon binary at {}", bin.display()));
    }
    Ok(bin)
}

/// Stop every live daemon, remove the run directory and exit non-zero
/// once `deadline` passes. The thread is left detached on purpose: a run
/// that finishes in time exits without it.
fn start_watchdog(deadline: Instant) {
    std::thread::spawn(move || {
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        eprintln!("perfbench: run exceeded its time limit; stopping");
        for pid in LIVE_CHILDREN.lock().map(|p| p.clone()).unwrap_or_default() {
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
        if let Some(dir) = RUN_DIR.lock().ok().and_then(|d| d.clone()) {
            let _ = std::fs::remove_dir_all(dir);
        }
        std::process::exit(3);
    });
}

/// Everything one run shares across its legs.
struct Ctx<'a> {
    workload: &'a Workload,
    mat: &'a Materialized,
    bin: &'a Path,
    run_dir: &'a Path,
    /// Submitted jobs and jobs that did not complete correctly, over every
    /// leg of the run.
    attempted: usize,
    failed: usize,
}

impl Ctx<'_> {
    /// Check every completed job's output file bitwise against the
    /// interpreter, then delete it. A mismatch counts as a failure.
    ///
    /// Every job writes a new file that is deleted soon after, before the
    /// page cache writes it back: overwriting one file per slot instead
    /// truncates it, which makes ext4 flush the new data to disk at close,
    /// and the disk's latency then swamps the per-job costs measured here.
    fn verify(&mut self, round: &Round) {
        for (job, result) in round.jobs.iter().zip(&round.results) {
            if result.status.as_deref() != Some("done") {
                continue;
            }
            let path = self.run_dir.join(&job.out);
            let ok = result.wrote_out
                && ingest::load_grid_set(&path).is_ok_and(|got| {
                    outputs_match(&got, &self.mat.reference[&(job.job.program, job.job.seed)])
                });
            if !ok {
                eprintln!(
                    "perfbench: output of {} differs from the interpreter",
                    job.id
                );
                self.failed += 1;
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Reconcile a daemon's counters with the client's, book its jobs, and
    /// shut it down cleanly. Returns its `stats` object.
    fn retire(&mut self, mut daemon: DaemonProc) -> Result<Json, String> {
        let stats = daemon.reconcile();
        self.attempted += daemon.tally.submitted;
        self.failed += daemon.tally.unsuccessful();
        let stats = stats.or_else(|e| {
            eprintln!("perfbench: {e}");
            self.failed += 1;
            daemon.stats()
        })?;
        daemon.finish()?;
        Ok(stats)
    }
}

/// What the daemon leg measured.
#[derive(Default)]
struct DaemonLeg {
    setup_s: Vec<f64>,
    setup_cc: usize,
    rounds: usize,
    timed_s: f64,
    /// The timed rounds of each cold daemon, in daemon order.
    timed: Vec<Vec<TimedRound>>,
    /// `VmHWM` of each cold daemon after its timed rounds.
    peak_rss_mib: Vec<f64>,
    /// Completed timed jobs per (program, tier).
    tiers: BTreeMap<(usize, String), usize>,
    restart_first_round_s: f64,
    restart_tier_measurements: f64,
    restart_cc: usize,
}

/// One timed round: its wall time, and its completed jobs' cells and
/// latencies.
struct TimedRound {
    elapsed_s: f64,
    cells: f64,
    latencies_ms: Vec<f64>,
}

/// `cold` cold daemons, one after another. Each is timed from spawn until
/// every program of the workload completed once (set-up). The last
/// `daemons` of them then run closed-loop rounds for their share of
/// `budget_s` of summed round time. Each daemon draws its own heap layout,
/// thread placement and tier decisions, so the metrics are medians across
/// daemons. Then the restart leg runs on the last daemon's tier cache and
/// JIT directory.
fn daemon_leg(
    ctx: &mut Ctx,
    cold: usize,
    daemons: usize,
    budget_s: f64,
) -> Result<DaemonLeg, String> {
    let mut leg = DaemonLeg::default();
    let workload = ctx.workload;
    let share_s = budget_s / daemons as f64;
    let mut last = None;
    for i in 0..cold {
        let dir = ctx.run_dir.join(format!("d{i}"));
        let jit_dir = dir.join("jit");
        std::fs::create_dir_all(&jit_dir).map_err(|e| e.to_string())?;
        let tier_cache = dir.join("tiers.json");
        let start = Instant::now();
        let mut daemon = DaemonProc::spawn(ctx.bin, ctx.run_dir, &jit_dir, &tier_cache)?;
        let round = daemon.round(JobLine::round(
            workload,
            &format!("s{i}"),
            &workload.first_sight_jobs(),
        ))?;
        leg.setup_s.push(start.elapsed().as_secs_f64());
        ctx.verify(&round);
        leg.setup_cc = jit_objects(&jit_dir).len();
        if i + daemons < cold {
            ctx.retire(daemon)?;
            continue;
        }

        let (mut timed, mut timed_s) = (Vec::new(), 0.0);
        let wall = Instant::now();
        while timed.len() < 2 || (timed_s < share_s && wall.elapsed().as_secs_f64() < 3.0 * share_s)
        {
            let jobs = JobLine::round(
                workload,
                &format!("r{}", leg.rounds),
                workload.round(leg.rounds),
            );
            let round = daemon.round(jobs)?;
            timed_s += round.elapsed_s;
            let mut stat = TimedRound {
                elapsed_s: round.elapsed_s,
                cells: 0.0,
                latencies_ms: Vec::new(),
            };
            for (job, result) in round.jobs.iter().zip(&round.results) {
                if result.status.as_deref() == Some("done") {
                    stat.cells += result.cells;
                    stat.latencies_ms.push(result.latency_s * 1e3);
                    let tier = result.tier.clone().unwrap_or_default();
                    *leg.tiers.entry((job.job.program, tier)).or_insert(0) += 1;
                }
            }
            timed.push(stat);
            ctx.verify(&round);
            leg.rounds += 1;
        }
        leg.timed_s += timed_s;
        leg.timed.push(timed);
        leg.peak_rss_mib.push(daemon.peak_rss_mib()?);
        ctx.retire(daemon)?;
        last = Some((jit_dir, tier_cache));
    }
    let (jit_dir, tier_cache) = last.ok_or("at least one daemon is required")?;

    // Restart on the persisted tier cache and the warm JIT directory.
    let before = jit_objects(&jit_dir);
    let start = Instant::now();
    let mut daemon = DaemonProc::spawn(ctx.bin, ctx.run_dir, &jit_dir, &tier_cache)?;
    daemon.read_tier_cache_line()?;
    let round = daemon.round(JobLine::round(
        workload,
        "restart",
        workload.round(leg.rounds),
    ))?;
    leg.restart_first_round_s = start.elapsed().as_secs_f64();
    ctx.verify(&round);
    let stats = ctx.retire(daemon)?;
    leg.restart_tier_measurements = stats
        .get("serve")
        .and_then(|s| s.get("tier_measurements"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    leg.restart_cc = jit_objects(&jit_dir)
        .iter()
        .filter(|(path, modified)| before.get(*path) != Some(modified))
        .count();
    Ok(leg)
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Summed `amount` over a daemon's timed rounds ÷ their summed wall time.
fn rate(rounds: &[TimedRound], amount: impl Fn(&TimedRound) -> f64) -> f64 {
    rounds.iter().map(amount).sum::<f64>() / rounds.iter().map(|r| r.elapsed_s).sum::<f64>()
}

fn latencies(rounds: &[TimedRound]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect()
}

fn end_to_end(ctx: &Ctx, leg: &DaemonLeg, meta: &mut Vec<(String, Json)>) -> Metrics {
    let mut sorted: Vec<f64> = leg.timed.iter().flat_map(|t| latencies(t)).collect();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_percentile(sorted.len(), ctx.workload.tail_percentile);
    meta.push((
        "job_tail".to_string(),
        Json::Object(vec![
            ("percentile".to_string(), Json::Number(tail)),
            ("samples".to_string(), Json::Number(sorted.len() as f64)),
            (
                "beyond".to_string(),
                Json::Number(samples_beyond(sorted.len(), tail) as f64),
            ),
        ]),
    ));
    let per_daemon = |f: &dyn Fn(&[TimedRound]) -> f64| -> f64 {
        median(&leg.timed.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    vec![
        (
            "jobs_per_s",
            per_daemon(&|t| rate(t, |r| r.latencies_ms.len() as f64)),
            "jobs/s",
        ),
        (
            "mcells_per_s",
            per_daemon(&|t| rate(t, |r| r.cells / 1e6)),
            "Mcells/s",
        ),
        ("job_p50_ms", per_daemon(&|t| median(&latencies(t))), "ms"),
        ("job_tail_ms", percentile_sorted(&sorted, tail), "ms"),
        ("setup_s", median(&leg.setup_s), "s"),
        ("peak_rss_mib", median(&leg.peak_rss_mib), "MiB"),
        (
            "ok_share",
            1.0 - ctx.failed as f64 / ctx.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// The traced run and the executor probes, turned into per-layer metrics.
fn per_layer(
    ctx: &mut Ctx,
    leg: &DaemonLeg,
    seconds: f64,
    span_file: &Path,
    meta: &mut Vec<(String, Json)>,
) -> Result<Metrics, String> {
    let workload = ctx.workload;
    let stream = host::stream_probe();
    meta.push((
        "stream_probe".to_string(),
        Json::Object(vec![
            (
                "buffer_bytes".to_string(),
                Json::Number(stream.buffer_bytes as f64),
            ),
            (
                "copy_bytes".to_string(),
                Json::Number(stream.copy_bytes as f64),
            ),
        ]),
    ));
    let probe = replay::probe(workload, ctx.mat, seconds * 0.05)?;
    ctx.failed += probe.mismatches;

    // Replay about a quarter of the measured time, spans off then on.
    let round_s = leg.timed_s / leg.rounds as f64;
    let rounds = ((seconds * 0.25 / round_s).ceil() as usize).clamp(2, 256);
    let plain = replay::replay(workload, ctx.mat, ctx.run_dir, rounds, false)?;
    let traced = replay::replay(workload, ctx.mat, ctx.run_dir, rounds, true)?;
    for r in [&plain, &traced] {
        ctx.attempted += r.submitted;
        ctx.failed += r.failed;
    }
    trace::write_spans(span_file, &traced.spans).map_err(|e| format!("writing spans: {e}"))?;
    let (self_s, covered) = trace::self_times(&traced.spans);
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let unattributed = (traced.wall_s - covered).max(0.0);

    // The auto tier's sweep time against the best pinned tier's, summed
    // over the workload's programs.
    let (mut auto_ms, mut best_ms, mut computed_bytes) = (0.0, 0.0, 0.0);
    let mut decisions = Vec::new();
    for (p, def) in workload.programs.iter().enumerate() {
        let times = probe.tier_ms[p];
        let best = times.iter().copied().fold(f64::INFINITY, f64::min);
        let auto = traced
            .tiers
            .iter()
            .find(|c| c.program == def.program.name() && c.stepped == (def.steps > 1))
            .map(|c| c.tier.as_str());
        let auto_ix = replay::TIER_NAMES.iter().position(|t| Some(*t) == auto);
        auto_ms += auto_ix.map_or(f64::NAN, |ix| times[ix]);
        best_ms += best;
        computed_bytes += (def.program.total_memory_bytes() * def.steps) as f64;
        decisions.push(Json::Object(vec![
            (
                "program".to_string(),
                Json::String(format!("p{p}:{}", def.program.name())),
            ),
            (
                "auto_tier".to_string(),
                auto.map_or(Json::Null, |t| Json::String(t.to_string())),
            ),
            (
                "tier_ms".to_string(),
                Json::Object(
                    replay::TIER_NAMES
                        .iter()
                        .zip(times)
                        .map(|(t, ms)| (t.to_string(), Json::Number(ms)))
                        .collect(),
                ),
            ),
        ]));
    }
    meta.push(("traced_tier_decisions".to_string(), Json::Array(decisions)));
    let computed_gib_s = computed_bytes / (best_ms / 1e3) / (1u64 << 30) as f64;
    let tier_sum = |ix: usize| probe.tier_ms.iter().map(|t| t[ix]).sum::<f64>();
    let jobs_on = |tier: &str| traced.jobs_by_tier.get(tier).copied().unwrap_or(0) as f64;
    let jit = stencilflow_reference::jit_cache_stats().unwrap_or_default();
    let metrics: Metrics = vec![
        (
            "cli_daemon.parse_request_s",
            layer("cli_daemon.parse_request"),
            "s",
        ),
        ("ingest.load_program_s", layer("ingest.load_program"), "s"),
        ("ingest.load_grid_set_s", layer("ingest.load_grid_set"), "s"),
        (
            "ingest.write_grid_set_s",
            layer("ingest.write_grid_set"),
            "s",
        ),
        ("ingest.bytes_in", traced.bytes_in as f64, "bytes"),
        ("ingest.bytes_out", traced.bytes_out as f64, "bytes"),
        ("serve_daemon.submit_s", layer("serve_daemon.submit"), "s"),
        (
            "serve_daemon.dispatch_self_s",
            layer("serve_daemon.dispatch"),
            "s",
        ),
        (
            "serve_daemon.queue_wait_p50_ms",
            median(&traced.queue_waits_ms),
            "ms",
        ),
        ("serve_daemon.rejected", traced.rejected as f64, "count"),
        ("serve.recycle_s", layer("serve.recycle"), "s"),
        ("serve.compiles", traced.serve.compiles as f64, "count"),
        (
            "serve.tier_measurements",
            traced.serve.tier_measurements as f64,
            "count",
        ),
        (
            "serve.pool_misses",
            traced.serve.pool_misses as f64,
            "count",
        ),
        (
            "serve.mask_misses",
            traced.serve.mask_misses as f64,
            "count",
        ),
        ("serve.steals", traced.serve.steals as f64, "count"),
        ("serve.jobs_simd", jobs_on("simd"), "count"),
        ("serve.jobs_fused", jobs_on("fused"), "count"),
        ("serve.jobs_jit", jobs_on("jit"), "count"),
        ("serve.auto_over_best", auto_ms / best_ms, "ratio"),
        ("executor.prepare_s", probe.prepare_s, "s"),
        ("executor.simd_sweep_ms", tier_sum(0), "ms"),
        ("executor.fused_sweep_ms", tier_sum(1), "ms"),
        ("executor.jit_sweep_ms", tier_sum(2), "ms"),
        (
            "executor.lane_stencil_share",
            probe.lane_stencils as f64 / probe.stencils as f64,
            "ratio",
        ),
        ("executor.computed_gib_s", computed_gib_s, "GiB/s"),
        (
            "executor.roofline_ratio",
            computed_gib_s / stream.gib_s,
            "ratio",
        ),
        ("jit.cold_first_run_s", probe.jit_cold_first_run_s, "s"),
        ("jit.cc_invocations", jit.cc_invocations as f64, "count"),
        ("jit.cache_hits", jit.hits as f64, "count"),
        ("restart.first_round_s", leg.restart_first_round_s, "s"),
        (
            "restart.tier_measurements",
            leg.restart_tier_measurements,
            "count",
        ),
        ("restart.cc_invocations", leg.restart_cc as f64, "count"),
        ("host.stream_gib_s", stream.gib_s, "GiB/s"),
        ("trace.wall_s", traced.wall_s, "s"),
        ("trace.unattributed_s", unattributed, "s"),
        (
            "trace.overhead_ratio",
            traced.wall_s / plain.wall_s,
            "ratio",
        ),
    ];
    let attributed: f64 = self_s.values().sum();
    eprintln!(
        "perfbench: traced {} rounds; layer self times {attributed:.6} s + unattributed {unattributed:.6} s = wall {:.6} s",
        rounds + 1,
        traced.wall_s
    );
    Ok(metrics)
}

fn run() -> Result<bool, String> {
    let args = parse_args().map_err(|e| {
        format!("{e}\nusage: perfbench --workload hdiff|stencil3d|small_flood --seed N --seconds S --trace 0|1")
    })?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/stencilflow/Cargo.toml").is_file() {
        return Err(format!("{} is not a StencilFlow checkout", root.display()));
    }
    let workload = Workload::new(&args.workload, args.seed)?;
    let bin = build_daemon(&root)?;
    start_watchdog(Instant::now() + RUN_LIMIT);

    let work_root = root.join(".perfbench");
    let run_dir = work_root.join(format!("run-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    for sub in ["o", "tmp"] {
        std::fs::create_dir_all(run_dir.join(sub)).map_err(|e| e.to_string())?;
    }
    let _guard = RunDir(run_dir.clone());
    *RUN_DIR.lock().expect("run dir lock poisoned") = Some(run_dir.clone());
    // The in-process traced run compiles with its own, empty JIT cache;
    // set before anything in this process touches the JIT engine.
    std::env::set_var("SF_JIT_CACHE_DIR", run_dir.join("jit-inproc"));
    // `cc` writes its intermediate files under `TMPDIR`; every daemon
    // inherits it, so the JIT's compiles stay inside the run directory.
    std::env::set_var("TMPDIR", run_dir.join("tmp"));

    let mat = workload::materialize(&workload, args.seed, &run_dir)?;
    let mut ctx = Ctx {
        workload: &workload,
        mat: &mat,
        bin: &bin,
        run_dir: &run_dir,
        attempted: 0,
        failed: 0,
    };
    let mut meta: Vec<(String, Json)> = vec![
        ("workload".to_string(), Json::String(args.workload.clone())),
        ("seed".to_string(), Json::Number(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), Json::Object(host::metadata(&root))),
    ];

    let (cold, daemons, budget) = if args.trace {
        (1, 1, args.seconds * 0.2)
    } else {
        (COLD_STARTS, DAEMONS, args.seconds)
    };
    let leg = daemon_leg(&mut ctx, cold, daemons, budget)?;
    let tiers: Vec<Json> = leg
        .tiers
        .iter()
        .map(|((p, tier), n)| {
            Json::Object(vec![
                (
                    "program".to_string(),
                    Json::String(format!("p{p}:{}", workload.programs[*p].program.name())),
                ),
                ("tier".to_string(), Json::String(tier.clone())),
                ("jobs".to_string(), Json::Number(*n as f64)),
            ])
        })
        .collect();
    meta.push(("daemon_tiers".to_string(), Json::Array(tiers)));
    meta.push(("rounds".to_string(), Json::Number(leg.rounds as f64)));
    meta.push((
        "setup_samples_s".to_string(),
        Json::Array(leg.setup_s.iter().map(|&s| Json::Number(s)).collect()),
    ));
    meta.push((
        "setup_cc_invocations".to_string(),
        Json::Number(leg.setup_cc as f64),
    ));

    let metrics = if args.trace {
        let spans_dir = work_root.join("spans");
        std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
        let span_file = spans_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        meta.push((
            "span_file".to_string(),
            Json::String(span_file.display().to_string()),
        ));
        per_layer(&mut ctx, &leg, args.seconds, &span_file, &mut meta)?
    } else {
        end_to_end(&ctx, &leg, &mut meta)
    };

    let correct = ctx.failed == 0;
    println!(
        "{}",
        Json::Object(vec![("perfbench".to_string(), Json::Object(meta))]).to_string_compact()
    );
    let mut body = String::new();
    for (ix, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        let sep = if ix == 0 { "" } else { ", " };
        body.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ctx.attempted, ctx.failed
    );
    Ok(correct)
}
