//! The traced run: the daemon's job script replayed in process through
//! the same public calls the `stencilflow daemon` loop makes, in the same
//! order, with a span around each call; and direct timings of the
//! executor's tier entry points.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use stencilflow::daemon::{parse_request, Request};
use stencilflow::ingest;
use stencilflow_reference::{
    CompiledProgram, Daemon, DaemonConfig, DaemonRequest, ExecutionResult, Grid, JobSpec,
    JobStatus, ReferenceExecutor, ServeConfig, ServeStats, TierChoice,
};

use crate::client::{JobLine, DISPATCH_LINE};
use crate::stats::median;
use crate::trace::{Recorder, Span};
use crate::workload::{outputs_match, Materialized, Workload};

/// What one replay measured.
pub struct Replay {
    /// Summed wall time of the replayed rounds.
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub serve: ServeStats,
    pub tiers: Vec<TierChoice>,
    /// Completed jobs per tier name.
    pub jobs_by_tier: BTreeMap<String, usize>,
    pub queue_waits_ms: Vec<f64>,
    pub submitted: usize,
    pub rejected: usize,
    /// Rejected, failed, panicked or cancelled jobs, and output mismatches.
    pub failed: usize,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

struct Settled {
    id: String,
    tier: Option<String>,
    wait_ms: f64,
    ok: bool,
}

/// Replay the set-up round and then `rounds` script rounds against a
/// fresh in-process [`Daemon`] configured like `stencilflow daemon
/// --workers 2`. Spans are recorded when `traced`.
pub fn replay(
    workload: &Workload,
    mat: &Materialized,
    run_dir: &Path,
    rounds: usize,
    traced: bool,
) -> Result<Replay, String> {
    let rec = Recorder::new(traced);
    let daemon = Daemon::new(DaemonConfig::new().with_serve(ServeConfig::new().with_workers(2)));
    let outs: Mutex<BTreeMap<String, PathBuf>> = Mutex::new(BTreeMap::new());
    let mut out = Replay {
        wall_s: 0.0,
        spans: Vec::new(),
        serve: daemon.serve_stats(),
        tiers: Vec::new(),
        jobs_by_tier: BTreeMap::new(),
        queue_waits_ms: Vec::new(),
        submitted: 0,
        rejected: 0,
        failed: 0,
        bytes_in: 0,
        bytes_out: 0,
    };
    let script: Vec<Vec<JobLine>> = std::iter::once(JobLine::round(
        workload,
        "setup",
        &workload.first_sight_jobs(),
    ))
    .chain((0..rounds).map(|r| JobLine::round(workload, &format!("r{r}"), workload.round(r))))
    .collect();
    for jobs in script {
        let start = Instant::now();
        let settled: Mutex<Vec<Settled>> = Mutex::new(Vec::new());
        for job in &jobs {
            let id = Some(job.id.as_str());
            let line = job.wire();
            let request = rec.span("cli_daemon.parse_request", None, id, || {
                parse_request(&line)
            })?;
            let Request::Submit(submit) = request else {
                return Err("replayed line is not a submit".to_string());
            };
            let program = rec
                .span("ingest.load_program", None, id, || {
                    ingest::load_program(&run_dir.join(&submit.program))
                })
                .map_err(|e| e.to_string())?;
            let grids = rec
                .span("ingest.load_grid_set", None, id, || {
                    ingest::load_grid_set(&run_dir.join(&submit.grids))
                })
                .map_err(|e| e.to_string())?;
            out.bytes_in += mat.input_bytes[&(job.job.program, job.job.seed)]
                + mat.program_bytes[job.job.program];
            out.submitted += 1;
            let admitted = rec.span("serve_daemon.submit", None, id, || {
                let job = JobSpec::new(program, Arc::new(grids))
                    .with_steps(submit.steps)
                    .with_tenant(&submit.tenant);
                daemon.submit(DaemonRequest::new(&submit.id, &submit.tenant, job))
            });
            match admitted {
                Ok(()) => {
                    let path = run_dir.join(submit.out.expect("replayed jobs name an output"));
                    outs.lock()
                        .expect("output registry poisoned")
                        .insert(submit.id, path);
                }
                Err(_) => out.failed += 1,
            }
        }
        for _ in 0..Workload::dispatches(jobs.len()) {
            rec.span("cli_daemon.parse_request", None, None, || {
                parse_request(DISPATCH_LINE)
            })?;
            let opened = rec.open();
            let parent = opened.map(|(id, _)| id);
            daemon.dispatch(|outcome| {
                let path = outs
                    .lock()
                    .expect("output registry poisoned")
                    .remove(&outcome.id);
                let id = Some(outcome.id.as_str());
                let mut settled_job = Settled {
                    id: outcome.id.clone(),
                    tier: None,
                    wait_ms: outcome.wait.as_secs_f64() * 1e3,
                    ok: false,
                };
                if let JobStatus::Done { tier, result } = outcome.status {
                    settled_job.tier = Some(tier.to_string());
                    if let Some(path) = path {
                        let grids: Vec<(String, Grid)> = result
                            .fields()
                            .map(|(n, g)| (n.to_string(), g.clone()))
                            .collect();
                        settled_job.ok = rec
                            .span("ingest.write_grid_set", parent, id, || {
                                ingest::write_grid_set(&path, grids.into_iter())
                            })
                            .is_ok();
                    }
                    rec.span("serve.recycle", parent, id, || {
                        daemon.serve().recycle(result)
                    });
                }
                settled
                    .lock()
                    .expect("settled list poisoned")
                    .push(settled_job);
            });
            rec.close(opened, "serve_daemon.dispatch", None, None);
        }
        out.wall_s += start.elapsed().as_secs_f64();

        // Between rounds, outside the timed interval: check every output.
        let settled = settled.into_inner().expect("settled list poisoned");
        let by_id: BTreeMap<&str, &JobLine> = jobs.iter().map(|j| (j.id.as_str(), j)).collect();
        for job in &settled {
            out.queue_waits_ms.push(job.wait_ms);
            let line = by_id[job.id.as_str()];
            let path = run_dir.join(&line.out);
            let matches = job.ok
                && std::fs::metadata(&path).is_ok_and(|m| {
                    out.bytes_out += m.len();
                    true
                })
                && ingest::load_grid_set(&path).is_ok_and(|got| {
                    outputs_match(&got, &mat.reference[&(line.job.program, line.job.seed)])
                });
            if matches {
                *out.jobs_by_tier
                    .entry(job.tier.clone().unwrap_or_default())
                    .or_insert(0) += 1;
            } else {
                out.failed += 1;
            }
            let _ = std::fs::remove_file(&path);
        }
    }
    out.rejected = daemon.stats().rejected;
    out.serve = daemon.serve_stats();
    out.tiers = daemon.serve().tier_choices();
    out.spans = rec.into_spans();
    Ok(out)
}

/// Executor tier entry points, timed directly on one fresh executor per
/// program.
pub struct Probe {
    /// `prepare` (compile) on a fresh executor, summed over programs.
    pub prepare_s: f64,
    /// First JIT-entry run after `prepare` with an empty JIT cache
    /// directory (includes `cc` for eligible programs), summed.
    pub jit_cold_first_run_s: f64,
    /// Warm median per (program, tier) in ms; tiers simd, fused, jit.
    pub tier_ms: Vec<[f64; 3]>,
    pub lane_stencils: usize,
    pub stencils: usize,
    /// Outputs that differed from the interpreter.
    pub mismatches: usize,
}

pub const TIER_NAMES: [&str; 3] = ["simd", "fused", "jit"];

fn run_tier(
    executor: &ReferenceExecutor,
    compiled: &CompiledProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: usize,
    tier: usize,
) -> Result<ExecutionResult, String> {
    let run = match (tier, steps) {
        (0, 1) => executor.run_compiled(compiled, inputs),
        (0, _) => executor.run_steps_compiled(compiled, inputs, steps),
        (1, 1) => executor.run_fused_compiled(compiled, inputs),
        (1, _) => executor.run_steps_fused_compiled(compiled, inputs, steps),
        (_, 1) => executor.run_jit_compiled(compiled, inputs),
        (_, _) => executor.run_steps_jit_compiled(compiled, inputs, steps),
    };
    run.map_err(|e| e.to_string())
}

fn outputs_of(
    program: &stencilflow_program::StencilProgram,
    result: &ExecutionResult,
) -> BTreeMap<String, Grid> {
    program
        .outputs()
        .iter()
        .filter_map(|name| Some((name.clone(), result.field(name)?.clone())))
        .collect()
}

/// Time `prepare`, the cold first JIT run, and warm medians of the three
/// tier entry points (interleaved, at least five samples each, about
/// `budget_s` per program), checking each tier's outputs once.
pub fn probe(workload: &Workload, mat: &Materialized, budget_s: f64) -> Result<Probe, String> {
    let mut probe = Probe {
        prepare_s: 0.0,
        jit_cold_first_run_s: 0.0,
        tier_ms: Vec::new(),
        lane_stencils: 0,
        stencils: 0,
        mismatches: 0,
    };
    for (p, def) in workload.programs.iter().enumerate() {
        let inputs = &mat.inputs[&(p, 0)];
        let reference = &mat.reference[&(p, 0)];
        let executor = ReferenceExecutor::new()
            .with_max_threads(1)
            .with_tier_measurement(false);
        let t0 = Instant::now();
        let compiled = executor.prepare(&def.program).map_err(|e| e.to_string())?;
        probe.prepare_s += t0.elapsed().as_secs_f64();
        probe.lane_stencils += compiled.lane_stencil_count();
        probe.stencils += compiled.stencil_count();
        let t0 = Instant::now();
        let first = run_tier(&executor, &compiled, inputs, def.steps, 2)?;
        probe.jit_cold_first_run_s += t0.elapsed().as_secs_f64();
        if !outputs_match(&outputs_of(&def.program, &first), reference) {
            probe.mismatches += 1;
        }
        let mut samples: [Vec<f64>; 3] = Default::default();
        let start = Instant::now();
        while samples[0].len() < 5
            || (start.elapsed().as_secs_f64() < budget_s && samples[0].len() < 200)
        {
            for (tier, tier_samples) in samples.iter_mut().enumerate() {
                let t0 = Instant::now();
                let result = run_tier(&executor, &compiled, inputs, def.steps, tier)?;
                tier_samples.push(t0.elapsed().as_secs_f64() * 1e3);
                if tier_samples.len() == 1
                    && !outputs_match(&outputs_of(&def.program, &result), reference)
                {
                    probe.mismatches += 1;
                }
            }
        }
        probe.tier_ms.push([
            median(&samples[0]),
            median(&samples[1]),
            median(&samples[2]),
        ]);
    }
    Ok(probe)
}
