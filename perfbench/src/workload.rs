//! The three workloads, their seeded job scripts, their on-disk inputs,
//! and the tree-walking interpreter's reference outputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use stencilflow::ingest;
use stencilflow_expr::DataType;
use stencilflow_program::StencilProgram;
use stencilflow_reference::{generate_inputs, Grid, ReferenceExecutor};
use stencilflow_workloads::{
    horizontal_diffusion, jacobi3d_typed, upwind3d, HorizontalDiffusionSpec, JobMixSpec,
};

/// Tenants a round's jobs are spread over: the daemon's default
/// per-tenant in-flight cap is 64, so 128-job rounds need at least 2.
pub const TENANTS: usize = 16;

/// Jobs one `dispatch` op runs: the daemon's default micro-batch,
/// 4 × workers with `--workers 2`.
pub const DISPATCH_BATCH: usize = 8;

/// Distinct rounds in a job script; longer runs cycle through them.
const SCRIPT_ROUNDS: usize = 256;

/// One distinct program of a workload and its step count.
pub struct ProgramDef {
    pub program: Arc<StencilProgram>,
    pub steps: usize,
}

/// One job of the script: which program and which of its input seeds.
#[derive(Debug, Clone, Copy)]
pub struct JobRef {
    pub program: usize,
    pub seed: usize,
}

pub struct Workload {
    pub programs: Vec<ProgramDef>,
    /// Percentile `job_tail_ms` reports when enough samples lie beyond it.
    pub tail_percentile: f64,
    /// `SCRIPT_ROUNDS` closed-loop rounds of K jobs each.
    pub script: Vec<Vec<JobRef>>,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let mut rng = SplitMix64(seed ^ 0x243f_6a88_85a3_08d3);
        match name {
            "hdiff" => {
                let programs = vec![ProgramDef {
                    program: Arc::new(horizontal_diffusion(&HorizontalDiffusionSpec::bench())),
                    steps: 1,
                }];
                let k = 8;
                let script = (0..SCRIPT_ROUNDS)
                    .map(|_| {
                        (0..k)
                            .map(|_| JobRef {
                                program: 0,
                                seed: rng.below(4),
                            })
                            .collect()
                    })
                    .collect();
                Ok(Workload {
                    programs,
                    tail_percentile: 90.0,
                    script,
                })
            }
            "stencil3d" => {
                let programs = vec![
                    ProgramDef {
                        program: Arc::new(jacobi3d_typed(1, &[64, 64, 64], 1, DataType::Float64)),
                        steps: 8,
                    },
                    ProgramDef {
                        program: Arc::new(upwind3d(1, &[64, 64, 64], 1)),
                        steps: 1,
                    },
                ];
                let k = 8;
                // Every round holds k/2 jobs of each program, so the work
                // per round is the same for every seed; the seed picks the
                // order and the inputs.
                let script = (0..SCRIPT_ROUNDS)
                    .map(|_| {
                        let mut round: Vec<JobRef> = (0..k)
                            .map(|ix| JobRef {
                                program: ix % 2,
                                seed: rng.below(2),
                            })
                            .collect();
                        rng.shuffle(&mut round);
                        round
                    })
                    .collect();
                Ok(Workload {
                    programs,
                    tail_percentile: 95.0,
                    script,
                })
            }
            "small_flood" => {
                let k = 128;
                let mix = JobMixSpec::new()
                    .with_jobs(k * SCRIPT_ROUNDS)
                    .with_large_jobs(0)
                    .with_seed(seed)
                    .generate();
                let mut programs: Vec<ProgramDef> = Vec::new();
                let mut jobs = Vec::with_capacity(mix.len());
                for template in &mix {
                    // Templates share their program `Arc`s, which tells
                    // the two jacobi2d sizes apart.
                    let ix = match programs
                        .iter()
                        .position(|p| Arc::ptr_eq(&p.program, &template.program))
                    {
                        Some(ix) => ix,
                        None => {
                            programs.push(ProgramDef {
                                program: Arc::clone(&template.program),
                                steps: template.steps,
                            });
                            programs.len() - 1
                        }
                    };
                    jobs.push(JobRef {
                        program: ix,
                        seed: template.input_seed as usize,
                    });
                }
                let script = jobs.chunks(k).map(<[JobRef]>::to_vec).collect();
                Ok(Workload {
                    programs,
                    tail_percentile: 99.0,
                    script,
                })
            }
            other => Err(format!(
                "unknown workload `{other}` (expected hdiff, stencil3d or small_flood)"
            )),
        }
    }

    /// The jobs of round `r` (the script repeats after `SCRIPT_ROUNDS`).
    pub fn round(&self, r: usize) -> &[JobRef] {
        &self.script[r % self.script.len()]
    }

    /// One job per distinct program, on its first input seed: what the
    /// set-up measurement submits.
    pub fn first_sight_jobs(&self) -> Vec<JobRef> {
        (0..self.programs.len())
            .map(|program| JobRef { program, seed: 0 })
            .collect()
    }

    /// Dispatch ops a round of `jobs` jobs needs.
    pub fn dispatches(jobs: usize) -> usize {
        jobs.div_ceil(DISPATCH_BATCH)
    }
}

/// Relative file names the daemon sees (its working directory is the
/// run directory).
pub fn program_file(program: usize) -> String {
    format!("p{program}.json")
}

pub fn grid_file(job: JobRef) -> String {
    format!("g{}_{}.sfgs", job.program, job.seed)
}

/// Inputs and interpreter reference outputs for every (program, seed).
pub struct Materialized {
    pub inputs: BTreeMap<(usize, usize), Arc<BTreeMap<String, Grid>>>,
    pub reference: BTreeMap<(usize, usize), Vec<(String, Grid)>>,
    /// Bytes of each grid-set file written, per (program, seed).
    pub input_bytes: BTreeMap<(usize, usize), u64>,
    /// Bytes of each program's JSON file.
    pub program_bytes: Vec<u64>,
}

/// Write every program (text JSON) and every input grid set (`SFGS`)
/// into `dir`, and compute each reference once with the tree-walking
/// interpreter.
pub fn materialize(workload: &Workload, seed: u64, dir: &Path) -> Result<Materialized, String> {
    let interpreter = ReferenceExecutor::new();
    let mut out = Materialized {
        inputs: BTreeMap::new(),
        reference: BTreeMap::new(),
        input_bytes: BTreeMap::new(),
        program_bytes: Vec::new(),
    };
    for (p, def) in workload.programs.iter().enumerate() {
        let text = stencilflow_program::to_json(&def.program);
        out.program_bytes.push(text.len() as u64);
        std::fs::write(dir.join(program_file(p)), text).map_err(|e| e.to_string())?;
    }
    let mut used: Vec<JobRef> = workload.script.iter().flatten().copied().collect();
    used.extend(workload.first_sight_jobs());
    for job in used {
        let key = (job.program, job.seed);
        if out.inputs.contains_key(&key) {
            continue;
        }
        let def = &workload.programs[job.program];
        let data_seed = SplitMix64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((job.program as u64) << 32)
                ^ job.seed as u64,
        )
        .next();
        let inputs = generate_inputs(&def.program, data_seed);
        let path = dir.join(grid_file(job));
        ingest::write_grid_set(&path, inputs.iter().map(|(n, g)| (n.clone(), g.clone())))
            .map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let reference = interpret(&interpreter, &def.program, &inputs, def.steps)?;
        out.inputs.insert(key, Arc::new(inputs));
        out.reference.insert(key, reference);
        out.input_bytes.insert(key, bytes);
    }
    Ok(out)
}

/// The tree-walking interpreter's outputs after `steps` steps, feeding
/// each step's output back into the program's single state input.
fn interpret(
    interpreter: &ReferenceExecutor,
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: usize,
) -> Result<Vec<(String, Grid)>, String> {
    let mut work = inputs.clone();
    for step in 0..steps {
        let result = interpreter
            .run_interpreted(program, &work)
            .map_err(|e| format!("interpreter: {e}"))?;
        if step + 1 == steps {
            return Ok(program
                .outputs()
                .iter()
                .map(|name| {
                    (
                        name.clone(),
                        result.field(name).expect("outputs are computed").clone(),
                    )
                })
                .collect());
        }
        let (state, _) = program
            .inputs()
            .next()
            .filter(|_| program.inputs().count() == 1 && program.outputs().len() == 1)
            .ok_or("stepped programs must have one input and one output")?;
        let output = result
            .field(&program.outputs()[0])
            .expect("outputs are computed")
            .clone();
        work.insert(state.to_string(), output);
    }
    Err("steps must be at least 1".to_string())
}

/// Bitwise comparison of decoded outputs against the reference.
pub fn outputs_match(got: &BTreeMap<String, Grid>, expected: &[(String, Grid)]) -> bool {
    got.len() == expected.len()
        && expected.iter().all(|(name, want)| {
            got.get(name).is_some_and(|g| {
                g.dims() == want.dims()
                    && g.shape() == want.shape()
                    && g.data_type() == want.data_type()
                    && g.as_slice().len() == want.as_slice().len()
                    && g.as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

/// SplitMix64, the generator the workspace uses for seeded data.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}
