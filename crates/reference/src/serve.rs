//! Multi-tenant throughput service layer: batched jobs, a shared compile
//! cache, pooled buffers, work-stealing, and automatic tier selection.
//!
//! One [`ReferenceExecutor`] runs one program at a time; the "millions of
//! users" shape of the ROADMAP is a [`ServeExecutor`] that accepts a queue
//! of [`JobSpec`]s (program + grids + optional step count) and drains it
//! across a fixed worker pool:
//!
//! * **Shared compilation** — all jobs flow through one
//!   [`CompiledProgram`] cache keyed by the hashed structural fingerprint,
//!   so a thousand submissions of the same program compile once.
//! * **Fairness + work-stealing** — the job queue is FIFO and workers
//!   always prefer a queued job over helping an in-flight one, so
//!   thousands of small jobs are never starved by a large one. Only *idle*
//!   workers (empty queue) steal row bands from large SIMD-tier sweeps
//!   that publish themselves to the batch's active-sweep list; the owner
//!   of a large job always works its own bands too, so stealing can only
//!   help.
//! * **Zero steady-state allocation** — every O(cells) buffer (outputs,
//!   validity masks, band scratch, time-stepping state copies, fused-tier
//!   scratch) is drawn from the executor's `BufferPool`/mask pool and
//!   returned either internally or by the caller via
//!   [`ServeExecutor::recycle`]. Once the pools are warm, sustained mixed
//!   traffic performs no pool-miss allocations — asserted by the
//!   `bench_serve` gate via [`ServeStats::pool_misses`] /
//!   [`ServeStats::mask_misses`]. (Control-plane allocations — a handful
//!   of `Vec`/`BTreeMap` nodes per job, O(stencils), not O(cells) — are
//!   outside this discipline and bounded per job.)
//! * **Automatic tier selection** — once per `(fingerprint, stepped?)`
//!   key under [`TierPolicy::Auto`], the service measures every eligible
//!   tier (SIMD always; fused and native JIT when the program supports
//!   them) on a job and caches the winner, so known regressions like
//!   fused-vs-SIMD on upwind3d can never recur: repeated traffic always
//!   runs each program's fastest tier. All tiers are bit-identical, so
//!   the measurement runs *are* the job — no work is wasted. Without a
//!   JIT candidate the first job measures. With one, `cc` stays off the
//!   request path: first sight runs the job on SIMD (no `cc` probe, no
//!   measurement) and queues the module build for one background
//!   builder thread, which starts at the next
//!   [`run_batch_with`](ServeExecutor::run_batch_with) call; jobs keep
//!   running on SIMD until the module lands, and the first job after that
//!   measures. [`ServeExecutor::settle`] finishes whatever is still
//!   pending (the daemon calls it before persisting decisions).
//!   [`TierPolicy::Fixed`] and the per-job [`JobSpec::tier`] override
//!   knob pin a tier explicitly.
//!
//! Results contain the program outputs only (the fused tier's contract),
//! bit-identical to [`ReferenceExecutor::run_interpreted`] on every tier.
//!

use crate::executor::{
    CompiledProgram, ExecutionResult, ReferenceExecutor, PARALLEL_THRESHOLD_CELL_ACCESSES,
};
use crate::grid::Grid;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stencilflow_json::Json;
use stencilflow_program::{ProgramError, StencilProgram};

pub mod daemon;

pub use crate::executor::Tier;

/// How the service picks the execution tier for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPolicy {
    /// Measure the eligible tiers on first sight of a program fingerprint
    /// and cache the winner (the default).
    Auto,
    /// Pin every job to one tier (ineligible programs fall back down the
    /// executor's usual ladder: jit → fused → materializing).
    Fixed(Tier),
}

/// Configuration for a [`ServeExecutor`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    workers: usize,
    policy: TierPolicy,
    pool_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            policy: TierPolicy::Auto,
            pool_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Default configuration: one worker per hardware thread, automatic
    /// tier selection, a pool deep enough for sustained mixed traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads the batch scheduler runs (default: the
    /// available hardware parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Tier-selection policy (default [`TierPolicy::Auto`]); the explicit
    /// override knob.
    pub fn with_tier_policy(mut self, policy: TierPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Buffers the shared pools retain between jobs (default 1024). Too
    /// small a cap drops released buffers and reintroduces steady-state
    /// allocation under mixed traffic.
    pub fn with_pool_capacity(mut self, capacity: usize) -> Self {
        self.pool_capacity = capacity.max(1);
        self
    }
}

/// A cooperative cancellation handle shared between a job and whoever may
/// need to stop it (the daemon's deadline watchdog, a draining caller).
/// Cancellation is checked at band boundaries, so a cancelled job stops at
/// the next band and its pooled buffers flow back through the normal error
/// path — cancel + pool recycle, never a leak.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Deterministic fault injection for one job, extending the seed-driven
/// fault-plan idiom of [`crate::shard`] to the service layer. Faults fire
/// inside the per-job `catch_unwind` isolation boundary, so tests can
/// prove a poison job is contained without any unsafety.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// Panic inside kernel execution (a poison job). The job must come
    /// back as [`JobError::Panicked`] while the pool, scratch buffers, and
    /// the rest of the batch keep running.
    Poison,
    /// Sleep this long inside the first band of each sweep before doing
    /// the work — long enough for a hard-timeout watchdog to fire, so
    /// mid-run cancellation is testable without wall-clock races.
    Stall(Duration),
}

/// Why a job completed without a result. `Program` is the ordinary
/// failure (validation or runtime error from the program itself); the
/// other variants are the service-boundary outcomes the daemon's
/// resilience contract is about.
#[derive(Debug)]
pub enum JobError {
    /// The program failed to compile, validate, or run.
    Program(ProgramError),
    /// The job panicked inside execution. The panic was contained to this
    /// job: pooled buffers were recycled and the rest of the batch ran.
    Panicked(String),
    /// The job's [`CancelToken`] fired before or during execution.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Program(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ProgramError> for JobError {
    fn from(e: ProgramError) -> Self {
        JobError::Program(e)
    }
}

/// A job's terminal state: its outputs or a structured [`JobError`].
pub type JobResult = std::result::Result<ExecutionResult, JobError>;

/// Render a `catch_unwind` payload as the human-readable panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One queued job: a program, its input grids, and an optional time-step
/// count. Programs and inputs are `Arc`-shared so thousands of jobs over
/// the same tenant data stay cheap to clone and enqueue.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The stencil program to run.
    pub program: Arc<StencilProgram>,
    /// Input grids (validated against the program on execution).
    pub inputs: Arc<BTreeMap<String, Grid>>,
    /// Time steps (1 = a single application; 0 is rejected).
    pub steps: usize,
    /// Per-job tier override; `None` defers to the service policy.
    pub tier: Option<Tier>,
    /// Tenant identity for the daemon's quota accounting. The batch
    /// executor itself ignores it.
    pub tenant: Option<String>,
    /// Cooperative cancellation handle (checked at band boundaries).
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for resilience tests.
    pub fault: Option<JobFault>,
}

impl JobSpec {
    /// A single-application job with policy-selected tier.
    pub fn new(program: Arc<StencilProgram>, inputs: Arc<BTreeMap<String, Grid>>) -> JobSpec {
        JobSpec {
            program,
            inputs,
            steps: 1,
            tier: None,
            tenant: None,
            cancel: None,
            fault: None,
        }
    }

    /// Time-step the program `steps` times (feedback semantics of
    /// [`ReferenceExecutor::run_steps`]).
    pub fn with_steps(mut self, steps: usize) -> JobSpec {
        self.steps = steps;
        self
    }

    /// Pin this job to one tier, overriding the service policy.
    pub fn with_tier(mut self, tier: Tier) -> JobSpec {
        self.tier = Some(tier);
        self
    }

    /// Tag the job with a tenant id (daemon quota accounting).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = Some(tenant.into());
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> JobSpec {
        self.cancel = Some(token);
        self
    }

    /// Inject a deterministic fault (resilience tests only).
    pub fn with_fault(mut self, fault: JobFault) -> JobSpec {
        self.fault = Some(fault);
        self
    }

    /// Whether the job's token (if any) has fired.
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// The completion record of one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The tier the job actually ran on.
    pub tier: Tier,
    /// Batch-start → completion latency (queue wait included).
    pub latency: Duration,
    /// The program outputs (only), or the job's structured failure.
    /// Return successful results to the pool via
    /// [`ServeExecutor::recycle`] when done.
    pub result: JobResult,
}

/// Aggregate service counters (monotonic across batches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs completed (successes and failures).
    pub jobs: usize,
    /// Program compilations (shared-cache misses).
    pub compiles: usize,
    /// Cell-buffer pool acquisitions (hits + misses).
    pub pool_acquires: usize,
    /// Cell-buffer pool misses (actual allocations). Flat in steady state.
    pub pool_misses: usize,
    /// Mask pool acquisitions.
    pub mask_acquires: usize,
    /// Mask pool misses. Flat in steady state.
    pub mask_misses: usize,
    /// First-sight tier measurements performed under [`TierPolicy::Auto`].
    pub tier_measurements: usize,
    /// Row bands executed by a worker other than the job's owner.
    pub steals: usize,
}

/// One cached tier decision (reporting snapshot).
#[derive(Debug, Clone)]
pub struct TierChoice {
    /// Hex program fingerprint (the cache identity).
    pub fingerprint: String,
    /// Program name recorded at decision time.
    pub program: String,
    /// Whether the decision covers stepped (`steps > 1`) jobs.
    pub stepped: bool,
    /// The winning tier.
    pub tier: Tier,
}

/// What importing a persisted tier-decision cache did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierCacheLoad {
    /// Decisions loaded into the live cache.
    pub loaded: usize,
    /// True when the persisted salt did not match this build's
    /// [`ServeExecutor::build_fingerprint`] and every decision was
    /// discarded as stale.
    pub stale: bool,
}

/// Tier decisions kept before the cache is reset (safety valve, mirroring
/// the compiled-program cache policy).
const TIER_CACHE_CAPACITY: usize = 1024;

/// Format tag of the persisted tier-decision cache.
const TIER_CACHE_FORMAT: &str = "stencilflow-tier-cache-v1";

/// Stealable bands per worker on a large sweep: small enough to bound
/// per-band bind overhead, large enough that a late-arriving idle worker
/// still finds work.
const BANDS_PER_WORKER: usize = 2;

/// Jobs at or below this many cell·steps get a warmup run before each
/// timed tier measurement (first-touch pool misses would otherwise bias
/// the pick); larger jobs are measured in one shot.
const MEASURE_WARMUP_MAX_CELLS: usize = 1 << 20;

/// A tier-decision key: program fingerprint and whether the job steps.
type TierKey = (u64, bool);

/// An Auto key whose first sight deferred its measurement until the
/// native module is built.
#[derive(Debug)]
enum Deferred {
    /// Waiting for the module. Holds the first-sight job (tier pin,
    /// cancellation and fault stripped) so [`ServeExecutor::settle`] can
    /// measure the key even if no later job arrives.
    Waiting(JobSpec),
    /// A job is measuring the key's tiers right now.
    Measuring,
}

/// First-sight state shared with the background module builder.
#[derive(Debug, Default)]
struct FirstSight {
    keys: BTreeMap<TierKey, Deferred>,
    /// Programs whose native module is still to be built, in first-sight
    /// order.
    queue: VecDeque<Arc<CompiledProgram>>,
    /// Fingerprints whose build finished (loaded or failed) and that a
    /// deferred key still refers to.
    landed: BTreeSet<u64>,
}

/// The multi-tenant batch executor. See the module docs for the
/// scheduling, pooling, and tier-selection contracts.
#[derive(Debug)]
pub struct ServeExecutor {
    executor: ReferenceExecutor,
    workers: usize,
    policy: TierPolicy,
    /// Winning tier per (fingerprint, stepped?) key, with the program name
    /// for reporting.
    tiers: Mutex<BTreeMap<TierKey, (Tier, String)>>,
    first_sight: Arc<Mutex<FirstSight>>,
    /// The one background thread building queued native modules.
    builder: Mutex<Option<JoinHandle<()>>>,
    jobs: AtomicUsize,
    measurements: AtomicUsize,
    steals: AtomicUsize,
}

/// Per-batch scheduler state shared by the worker pool.
struct BatchShared<'a> {
    /// FIFO job queue (fairness: arrival order, small jobs never wait on
    /// band help given to large ones).
    queue: Mutex<VecDeque<(usize, JobSpec)>>,
    /// Large sweeps currently offering bands to idle workers.
    sweeps: Mutex<Vec<Arc<SweepShared>>>,
    /// Dedicated condvar mutex (std condvars must pair with one mutex).
    idle: Mutex<()>,
    wake: Condvar,
    /// Completion sink, called by the finishing worker as each job lands.
    sink: &'a (dyn Fn(JobOutcome) + Sync),
    remaining: AtomicUsize,
}

/// One stencil sweep split into claimable row bands. The job owner moves
/// its grid maps in, bands run anywhere (each re-binds — binding is the
/// cheap per-run step by design), and the owner recovers the maps through
/// `Arc::try_unwrap` once every band has landed.
struct SweepShared {
    compiled: Arc<CompiledProgram>,
    stencil_ix: usize,
    /// Step-1 jobs resolve fields against the client's shared input map…
    client_inputs: Option<Arc<BTreeMap<String, Grid>>>,
    /// …stepped jobs against the job-owned pooled working copies.
    work: BTreeMap<String, Grid>,
    /// Grids computed by earlier stencils of the current step.
    computed: BTreeMap<String, Grid>,
    row_len: usize,
    bands: Vec<(usize, usize)>,
    next: AtomicUsize,
    done: AtomicUsize,
    results: Mutex<Vec<BandOut>>,
    error: Mutex<Option<JobError>>,
    /// The owning job's cancellation token, visible to thieves too.
    cancel: Option<CancelToken>,
    /// The owning job's injected fault (fires in band 0 of the sweep).
    fault: Option<JobFault>,
}

impl SweepShared {
    /// The (inputs, computed) pair `CompiledStencil::bind` resolves
    /// against, in the same precedence order the executor uses.
    fn maps(&self) -> (&BTreeMap<String, Grid>, &BTreeMap<String, Grid>) {
        match &self.client_inputs {
            Some(arc) => (arc.as_ref(), &self.computed),
            None => (&self.work, &self.computed),
        }
    }
}

/// A completed band: pooled output cells and mask covering
/// `[row_start, row_end)`.
struct BandOut {
    row_start: usize,
    row_end: usize,
    data: Vec<f64>,
    mask: Vec<bool>,
}

/// The grid maps a job threads through its sweeps.
struct SweepIo {
    client_inputs: Option<Arc<BTreeMap<String, Grid>>>,
    work: BTreeMap<String, Grid>,
    computed: BTreeMap<String, Grid>,
}

impl ServeExecutor {
    /// Create a service executor. The internal [`ReferenceExecutor`] is
    /// pinned to one thread per sweep (parallelism comes from the worker
    /// pool and band stealing, never from nested thread scopes) with
    /// pooled results at the configured retention capacity.
    pub fn new(config: ServeConfig) -> ServeExecutor {
        ServeExecutor {
            executor: ReferenceExecutor::new()
                .with_max_threads(1)
                .with_pool_capacity(config.pool_capacity)
                .with_pooled_results(true),
            workers: config.workers.max(1),
            policy: config.policy,
            tiers: Mutex::new(BTreeMap::new()),
            first_sight: Arc::new(Mutex::new(FirstSight::default())),
            builder: Mutex::new(None),
            jobs: AtomicUsize::new(0),
            measurements: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads a batch runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Aggregate service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            compiles: self.executor.compile_count(),
            pool_acquires: self.executor.pool_acquire_count(),
            pool_misses: self.executor.pool_miss_count(),
            mask_acquires: self.executor.mask_pool_acquire_count(),
            mask_misses: self.executor.mask_pool_miss_count(),
            tier_measurements: self.measurements.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the cached tier decisions.
    pub fn tier_choices(&self) -> Vec<TierChoice> {
        self.tiers
            .lock()
            .expect("tier cache poisoned")
            .iter()
            .map(|(&(fp, stepped), &(tier, ref program))| TierChoice {
                fingerprint: format!("{fp:016x}"),
                program: program.clone(),
                stepped,
                tier,
            })
            .collect()
    }

    /// The bench-relevant build fingerprint that salts persisted tier
    /// decisions: anything that can shift the measured tier ranking —
    /// crate version, kernel lane widths, debug vs release codegen, and
    /// the native compiler behind the JIT tier — invalidates the cache.
    pub fn build_fingerprint() -> String {
        let jit = crate::jit::jit_salt().unwrap_or_else(|| "jit-unavailable".to_string());
        format!(
            "v{} lanes{}/{} {} [{jit}]",
            env!("CARGO_PKG_VERSION"),
            stencilflow_expr::KERNEL_LANES,
            stencilflow_expr::KERNEL_LANES_WIDE,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
    }

    /// Serialize the measured tier decisions (plus the build salt) as a
    /// text-JSON document suitable for a cache file. Round-trips through
    /// [`import_tier_decisions`](ServeExecutor::import_tier_decisions).
    pub fn export_tier_decisions(&self) -> String {
        let decisions: Vec<Json> = self
            .tier_choices()
            .into_iter()
            .map(|choice| {
                Json::Object(vec![
                    ("fingerprint".to_string(), Json::String(choice.fingerprint)),
                    ("program".to_string(), Json::String(choice.program)),
                    ("stepped".to_string(), Json::Bool(choice.stepped)),
                    (
                        "tier".to_string(),
                        Json::String(choice.tier.as_str().to_string()),
                    ),
                ])
            })
            .collect();
        Json::Object(vec![
            (
                "format".to_string(),
                Json::String(TIER_CACHE_FORMAT.to_string()),
            ),
            ("salt".to_string(), Json::String(Self::build_fingerprint())),
            ("decisions".to_string(), Json::Array(decisions)),
        ])
        .to_string_pretty()
    }

    /// Load previously exported tier decisions into the live cache.
    ///
    /// A salt that does not match this build discards every decision
    /// (`stale: true`, nothing loaded) — a restart on a different
    /// compiler, lane width, or crate version must re-measure rather than
    /// trust stale rankings. Malformed documents are errors; individual
    /// decisions never override a decision already measured live.
    pub fn import_tier_decisions(&self, text: &str) -> std::result::Result<TierCacheLoad, String> {
        let doc = stencilflow_json::parse(text).map_err(|e| format!("tier cache: {e}"))?;
        let format = doc
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| "tier cache: missing `format`".to_string())?;
        if format != TIER_CACHE_FORMAT {
            return Err(format!("tier cache: unknown format `{format}`"));
        }
        let salt = doc
            .get("salt")
            .and_then(Json::as_str)
            .ok_or_else(|| "tier cache: missing `salt`".to_string())?;
        let decisions = doc
            .get("decisions")
            .and_then(Json::as_array)
            .ok_or_else(|| "tier cache: missing `decisions` array".to_string())?;
        if salt != Self::build_fingerprint() {
            return Ok(TierCacheLoad {
                loaded: 0,
                stale: true,
            });
        }
        let mut loaded = 0usize;
        let mut tiers = self.tiers.lock().expect("tier cache poisoned");
        for (ix, entry) in decisions.iter().enumerate() {
            let fail = |msg: &str| format!("tier cache decision {ix}: {msg}");
            let fingerprint = entry
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("missing `fingerprint`"))?;
            let fingerprint = u64::from_str_radix(fingerprint, 16)
                .map_err(|_| fail("`fingerprint` is not a hex u64"))?;
            let program = entry
                .get("program")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("missing `program`"))?;
            let stepped = entry
                .get("stepped")
                .and_then(Json::as_bool)
                .ok_or_else(|| fail("missing `stepped`"))?;
            let tier: Tier = entry
                .get("tier")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("missing `tier`"))?
                .parse()
                .map_err(|e: String| fail(&e))?;
            if tiers.len() >= TIER_CACHE_CAPACITY {
                break;
            }
            tiers
                .entry((fingerprint, stepped))
                .or_insert_with(|| (tier, program.to_string()));
            loaded += 1;
        }
        Ok(TierCacheLoad {
            loaded,
            stale: false,
        })
    }

    /// Return a finished result's grids and masks to the shared pools.
    /// Sustained traffic must recycle results (or keep them — recycling is
    /// what makes the steady state allocation-free).
    pub fn recycle(&self, result: ExecutionResult) {
        let (fields, masks, _) = result.into_parts();
        for (_, grid) in fields {
            self.executor.pool_release(grid.into_data());
        }
        for (_, mask) in masks {
            self.executor.release_mask(mask);
        }
    }

    /// Run one job to completion (a single-job batch).
    pub fn run_one(&self, job: JobSpec) -> JobOutcome {
        self.run_batch(vec![job])
            .pop()
            .expect("a one-job batch yields one outcome")
    }

    /// Drain a batch of jobs across the worker pool and return one
    /// [`JobOutcome`] per job, in submission order. Jobs are dequeued
    /// FIFO; idle workers steal row bands from large in-flight sweeps.
    ///
    /// Every returned result holds pooled buffers until
    /// [`recycle`](ServeExecutor::recycle)d, so a huge batch collected
    /// this way keeps the whole batch's outputs live at once. Sustained
    /// traffic should use [`run_batch_with`](ServeExecutor::run_batch_with)
    /// and recycle from the sink instead — that is what keeps the steady
    /// state allocation-free under thousands of in-flight jobs.
    pub fn run_batch(&self, jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
        let outcomes = Mutex::new(Vec::with_capacity(jobs.len()));
        self.run_batch_with(jobs, |outcome| {
            outcomes
                .lock()
                .expect("outcome list poisoned")
                .push(outcome);
        });
        let mut outcomes = outcomes.into_inner().expect("outcome list poisoned");
        outcomes.sort_by_key(|o| o.job);
        outcomes
    }

    /// [`run_batch`](ServeExecutor::run_batch) with a streaming completion
    /// sink: the worker that finishes a job calls `sink` with its outcome
    /// immediately, so the caller can respond and recycle while the rest
    /// of the batch is still running. The sink runs on worker threads and
    /// may be called concurrently.
    pub fn run_batch_with<F: Fn(JobOutcome) + Sync>(&self, jobs: Vec<JobSpec>, sink: F) {
        if jobs.is_empty() {
            return;
        }
        self.start_builder();
        let started = Instant::now();
        let count = jobs.len();
        let shared = BatchShared {
            queue: Mutex::new(jobs.into_iter().enumerate().collect()),
            sweeps: Mutex::new(Vec::new()),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            sink: &sink,
            remaining: AtomicUsize::new(count),
        };
        let workers = self.workers.min(count).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.worker_loop(&shared, started)))
                .collect();
            // Job panics are isolated per job inside the workers, so the
            // only panic that can reach a join is one thrown by the
            // caller's own sink — that is the caller's bug, and it
            // propagates after every worker has parked.
            let mut sink_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    sink_panic = Some(payload);
                }
            }
            if let Some(payload) = sink_panic {
                std::panic::resume_unwind(payload);
            }
        });
        self.jobs.fetch_add(count, Ordering::Relaxed);
    }

    fn worker_loop(&self, shared: &BatchShared<'_>, started: Instant) {
        loop {
            // 1. Fairness: a queued job always beats helping a big one.
            let job = shared.queue.lock().expect("job queue poisoned").pop_front();
            if let Some((ix, job)) = job {
                // Outer isolation net: the fine-grained boundaries inside
                // `execute_job` recycle buffers precisely; this catch
                // guarantees that even a panic in the scheduler glue
                // between them downgrades to a per-job outcome instead of
                // aborting the batch.
                let (result, tier) = match catch_unwind(AssertUnwindSafe(|| {
                    self.execute_job(shared, &job)
                })) {
                    Ok(pair) => pair,
                    Err(payload) => (Err(JobError::Panicked(panic_message(payload))), Tier::Simd),
                };
                // Decrement before the sink so a panicking sink cannot
                // leave the other workers waiting on `remaining` forever.
                shared.remaining.fetch_sub(1, Ordering::AcqRel);
                (shared.sink)(JobOutcome {
                    job: ix,
                    tier,
                    latency: started.elapsed(),
                    result,
                });
                shared.wake.notify_all();
                continue;
            }
            // 2. Idle: help an in-flight large sweep.
            if self.try_steal(shared) {
                continue;
            }
            // 3. Drained: exit once every job has completed.
            if shared.remaining.load(Ordering::Acquire) == 0 {
                shared.wake.notify_all();
                return;
            }
            // 4. Nothing to do right now; naps are bounded so a wakeup
            //    race can only cost a millisecond.
            let guard = shared.idle.lock().expect("idle mutex poisoned");
            drop(
                shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("idle mutex poisoned"),
            );
        }
    }

    fn try_steal(&self, shared: &BatchShared) -> bool {
        let sweeps: Vec<Arc<SweepShared>> =
            shared.sweeps.lock().expect("sweep list poisoned").clone();
        for sweep in sweeps {
            if self.run_band(shared, &sweep, true) {
                return true;
            }
        }
        false
    }

    /// Claim and execute one band of `sweep`. Returns false when no bands
    /// are left to claim.
    ///
    /// This is the per-job isolation boundary for the banded SIMD path:
    /// the kernel runs inside `catch_unwind`, and the band's pooled
    /// buffers are owned *outside* the closure, so a panicking (or
    /// injected-poison) band releases them back to the pools exactly like
    /// an ordinary kernel error — the steady-state 0-miss invariant
    /// survives a poison job.
    fn run_band(&self, shared: &BatchShared<'_>, sweep: &SweepShared, stolen: bool) -> bool {
        let ix = sweep.next.fetch_add(1, Ordering::Relaxed);
        if ix >= sweep.bands.len() {
            return false;
        }
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let (row_start, row_end) = sweep.bands[ix];
        let len = (row_end - row_start) * sweep.row_len;
        let mut data = self.executor.alloc_result_cells(len);
        let mut mask = self.executor.alloc_result_mask(len);
        let stencil = &sweep.compiled.stencil_plans()[sweep.stencil_ix];
        let (inputs, computed) = sweep.maps();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if ix == 0 {
                match sweep.fault {
                    Some(JobFault::Poison) => panic!("injected poison-job fault"),
                    Some(JobFault::Stall(delay)) => std::thread::sleep(delay),
                    None => {}
                }
            }
            if sweep.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(JobError::Cancelled);
            }
            stencil
                .bind(inputs, computed, true, true, true)
                .and_then(|bound| bound.run_rows(row_start, row_end, &mut data, &mut mask))
                .map_err(|source| {
                    JobError::Program(ProgramError::Code {
                        stencil: stencil.name().to_string(),
                        source,
                    })
                })
        }));
        let outcome = match attempt {
            Ok(outcome) => outcome,
            Err(payload) => Err(JobError::Panicked(panic_message(payload))),
        };
        match outcome {
            Ok(()) => sweep
                .results
                .lock()
                .expect("band results poisoned")
                .push(BandOut {
                    row_start,
                    row_end,
                    data,
                    mask,
                }),
            Err(error) => {
                self.executor.pool_release(data);
                self.executor.release_mask(mask);
                let mut slot = sweep.error.lock().expect("band error slot poisoned");
                if slot.is_none() {
                    *slot = Some(error);
                }
            }
        }
        sweep.done.fetch_add(1, Ordering::Release);
        shared.wake.notify_all();
        true
    }

    fn execute_job(&self, shared: &BatchShared<'_>, job: &JobSpec) -> (JobResult, Tier) {
        if job.is_cancelled() {
            return (Err(JobError::Cancelled), Tier::Simd);
        }
        let compiled = match self.executor.prepare(&job.program) {
            Ok(compiled) => compiled,
            Err(err) => return (Err(err.into()), Tier::Simd),
        };
        if let Err(err) = ReferenceExecutor::check_inputs(&compiled, &job.inputs) {
            return (Err(err.into()), Tier::Simd);
        }
        if job.steps == 0 {
            return (
                Err(JobError::Program(ProgramError::Invalid {
                    message: "serve jobs require at least one time step".into(),
                })),
                Tier::Simd,
            );
        }
        let pinned = job.tier.or(match self.policy {
            TierPolicy::Fixed(tier) => Some(tier),
            TierPolicy::Auto => None,
        });
        match pinned {
            Some(tier) => (self.run_tier(shared, &compiled, job, tier), tier),
            None => {
                let key = (compiled.fingerprint(), job.steps > 1);
                let cached = self
                    .tiers
                    .lock()
                    .expect("tier cache poisoned")
                    .get(&key)
                    .map(|&(tier, _)| tier);
                if let Some(tier) = cached {
                    return (self.run_tier(shared, &compiled, job, tier), tier);
                }
                if !(fused_eligible(&compiled, job.steps) && compiled.jit_supported()) {
                    return self.measure_and_pick(shared, &compiled, job, key);
                }
                if !self.claim_measurement(&compiled, job, key) {
                    return (
                        self.run_tier(shared, &compiled, job, Tier::Simd),
                        Tier::Simd,
                    );
                }
                let picked = catch_unwind(AssertUnwindSafe(|| {
                    self.measure_and_pick(shared, &compiled, job, key)
                }));
                // Even a panicking measurement releases the key, so a later
                // job can measure it again.
                self.finish_deferred(key);
                picked.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }
        }
    }

    /// Decide whether a job of an undecided Auto key whose eligible set
    /// includes the JIT measures the key (`true`) or runs on SIMD. First
    /// sight queues the native-module build and runs on SIMD; jobs keep
    /// running on SIMD until the module lands, and the first job after
    /// that measures the key (exactly once).
    fn claim_measurement(
        &self,
        compiled: &Arc<CompiledProgram>,
        job: &JobSpec,
        key: TierKey,
    ) -> bool {
        let mut state = self.first_sight.lock().expect("first-sight state poisoned");
        let landed = state.landed.contains(&key.0);
        match state.keys.get_mut(&key) {
            None => {
                let retained = JobSpec {
                    tier: None,
                    tenant: None,
                    cancel: None,
                    fault: None,
                    ..job.clone()
                };
                state.keys.insert(key, Deferred::Waiting(retained));
                let queued = state.queue.iter().any(|c| c.fingerprint() == key.0);
                if !landed && !queued {
                    state.queue.push_back(Arc::clone(compiled));
                }
                false
            }
            Some(deferred @ Deferred::Waiting(_)) if landed => {
                *deferred = Deferred::Measuring;
                true
            }
            Some(_) => false,
        }
    }

    /// Forget a deferred key once its measurement ran (a failed
    /// measurement makes the next job a first sight again).
    fn finish_deferred(&self, key: TierKey) {
        let mut state = self.first_sight.lock().expect("first-sight state poisoned");
        state.keys.remove(&key);
        if !state.keys.keys().any(|k| k.0 == key.0) {
            state.landed.remove(&key.0);
        }
    }

    /// Start the background builder if modules are queued and it is not
    /// running. Called at the start of every batch, so a build queued by
    /// a batch's first sight never competes with that batch.
    fn start_builder(&self) {
        let mut slot = self.builder.lock().expect("builder slot poisoned");
        if slot.as_ref().is_some_and(|handle| !handle.is_finished()) {
            return;
        }
        if self
            .first_sight
            .lock()
            .expect("first-sight state poisoned")
            .queue
            .is_empty()
        {
            return;
        }
        if let Some(done) = slot.take() {
            let _ = done.join();
        }
        let state = Arc::clone(&self.first_sight);
        *slot = Some(std::thread::spawn(move || build_modules(&state)));
    }

    /// Finish the deferred first sights: wait for every queued native
    /// module, then measure each key still waiting on its retained
    /// first-sight job. Afterwards every Auto key seen so far has a
    /// decision (unless its measurement failed), no `cc` is running, and
    /// [`export_tier_decisions`](ServeExecutor::export_tier_decisions) is
    /// complete. Measurement runs are not counted as jobs.
    pub fn settle(&self) {
        loop {
            let builder = self.builder.lock().expect("builder slot poisoned").take();
            if let Some(handle) = builder {
                let _ = handle.join();
            }
            if self
                .first_sight
                .lock()
                .expect("first-sight state poisoned")
                .queue
                .is_empty()
            {
                break;
            }
            self.start_builder();
        }
        let waiting: Vec<(TierKey, JobSpec)> = {
            let mut state = self.first_sight.lock().expect("first-sight state poisoned");
            state
                .keys
                .iter_mut()
                .filter_map(|(&key, deferred)| {
                    match std::mem::replace(deferred, Deferred::Measuring) {
                        Deferred::Waiting(job) => Some((key, job)),
                        Deferred::Measuring => None,
                    }
                })
                .collect()
        };
        let sink = |_: JobOutcome| {};
        let shared = BatchShared {
            queue: Mutex::new(VecDeque::new()),
            sweeps: Mutex::new(Vec::new()),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            sink: &sink,
            remaining: AtomicUsize::new(0),
        };
        for (key, job) in waiting {
            let decided = self
                .tiers
                .lock()
                .expect("tier cache poisoned")
                .contains_key(&key);
            if decided {
                // Imported after first sight: never override a decision.
                self.finish_deferred(key);
                continue;
            }
            if let Ok(compiled) = self.executor.prepare(&job.program) {
                if let (Ok(result), _) = self.measure_and_pick(&shared, &compiled, &job, key) {
                    self.recycle(result);
                }
            }
            self.finish_deferred(key);
        }
    }

    /// Measure an undecided key under [`TierPolicy::Auto`] (on first
    /// sight, or once a deferred key's native module has landed): run
    /// every eligible tier once (with a warmup pass for small jobs so
    /// first-touch pool misses don't bias the timing), cache the fastest,
    /// and return its result — all tiers are bit-identical, so the
    /// measurement doubles as the job itself.
    fn measure_and_pick(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        job: &JobSpec,
        key: TierKey,
    ) -> (JobResult, Tier) {
        let candidates = eligible_tiers(compiled, job.steps);
        if candidates.len() == 1 {
            let tier = candidates[0];
            self.record_tier(key, tier, compiled.name());
            return (self.run_tier(shared, compiled, job, tier), tier);
        }
        let warm =
            compiled.cell_count().saturating_mul(job.steps.max(1)) <= MEASURE_WARMUP_MAX_CELLS;
        let mut best: Option<(Duration, Tier, ExecutionResult)> = None;
        for &tier in &candidates {
            if tier == Tier::Jit && crate::jit::stage_fns(compiled).is_err() {
                // The background builder already loaded the module, so
                // this fetches it outside the timed run and the
                // measurement compares sweeps. A build error excludes the
                // tier, like any failed run.
                continue;
            }
            if warm {
                // Warmup errors surface in the timed run below.
                if let Ok(result) = self.run_tier(shared, compiled, job, tier) {
                    self.recycle(result);
                }
            }
            let t0 = Instant::now();
            match self.run_tier(shared, compiled, job, tier) {
                Ok(result) => {
                    let elapsed = t0.elapsed();
                    match &best {
                        Some((best_elapsed, _, _)) if elapsed >= *best_elapsed => {
                            self.recycle(result);
                        }
                        _ => {
                            if let Some((_, _, previous)) = best.replace((elapsed, tier, result)) {
                                self.recycle(previous);
                            }
                        }
                    }
                }
                // The SIMD tier is the floor: its failure is the job's
                // failure. Fused/JIT measurement errors (e.g. a compiler
                // hiccup) just exclude the tier from this decision.
                Err(err) => {
                    if tier == Tier::Simd {
                        return (Err(err), Tier::Simd);
                    }
                }
            }
        }
        let (_, tier, result) = best.expect("the SIMD tier always measured or errored above");
        self.record_tier(key, tier, compiled.name());
        self.measurements.fetch_add(1, Ordering::Relaxed);
        (Ok(result), tier)
    }

    fn record_tier(&self, key: TierKey, tier: Tier, program: &str) {
        let mut tiers = self.tiers.lock().expect("tier cache poisoned");
        if tiers.len() >= TIER_CACHE_CAPACITY {
            tiers.clear();
        }
        tiers.insert(key, (tier, program.to_string()));
    }

    fn run_tier(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        job: &JobSpec,
        tier: Tier,
    ) -> JobResult {
        if job.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        match tier {
            Tier::Simd => self.run_simd(shared, compiled, job),
            // The fused and JIT tiers run whole-program inside one
            // `catch_unwind` boundary. A panic there can strand the
            // executor's *internal* scratch (unlike the banded path, whose
            // buffers are owned outside the closure), so the isolation
            // guarantee for these tiers is "the batch survives", not
            // "zero pool misses after a panic" — the injected poison
            // fault fires before entry precisely so tests can pin the
            // stronger banded guarantee separately.
            Tier::Fused | Tier::Jit => {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    match job.fault {
                        Some(JobFault::Poison) => panic!("injected poison-job fault"),
                        Some(JobFault::Stall(delay)) => std::thread::sleep(delay),
                        None => {}
                    }
                    if job.is_cancelled() {
                        return Err(JobError::Cancelled);
                    }
                    let steps = (job.steps > 1).then_some(job.steps);
                    self.executor
                        .run_ladder(compiled, &job.inputs, steps, tier)
                        .map_err(JobError::Program)
                }));
                match attempt {
                    Ok(result) => result,
                    Err(payload) => Err(JobError::Panicked(panic_message(payload))),
                }
            }
        }
    }

    /// The service's SIMD-tier path: per-stencil sweeps over pooled
    /// buffers, banded and published for stealing when large. Outputs
    /// only; bit-identical to [`ReferenceExecutor::run`] /
    /// [`ReferenceExecutor::run_steps`] because every band runs the same
    /// [`run_rows`](crate::plan) sweep the executor uses.
    fn run_simd(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        job: &JobSpec,
    ) -> JobResult {
        let steps = job.steps.max(1);
        let num_cells = compiled.cell_count();
        let stencil_count = compiled.stencil_count();

        let mut io = if steps == 1 {
            SweepIo {
                client_inputs: Some(Arc::clone(&job.inputs)),
                work: BTreeMap::new(),
                computed: BTreeMap::new(),
            }
        } else {
            // Time stepping mutates the state fields, so the job works on
            // pooled copies of the client's inputs (steady-state pool
            // hits, never a clone allocation).
            compiled.feedback_pairs()?;
            let mut work = BTreeMap::new();
            for (name, grid) in job.inputs.iter() {
                work.insert(name.clone(), self.pooled_copy(grid));
            }
            SweepIo {
                client_inputs: None,
                work,
                computed: BTreeMap::new(),
            }
        };

        let mut cells_evaluated = 0usize;
        let mut final_masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
        let outcome = (|| -> std::result::Result<(), JobError> {
            for step in 0..steps {
                if job.is_cancelled() {
                    return Err(JobError::Cancelled);
                }
                let mut masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
                for stencil_ix in 0..stencil_count {
                    let name = compiled.stencil_plans()[stencil_ix].name().to_string();
                    let (grid, mask) =
                        self.sweep_stencil(shared, compiled, stencil_ix, job, &mut io)?;
                    io.computed.insert(name.clone(), grid);
                    masks.insert(name, mask);
                }
                cells_evaluated += num_cells * stencil_count;
                if step + 1 == steps {
                    final_masks = masks;
                    break;
                }
                // Feedback: outputs become next step's state; everything
                // else returns to the pools.
                let pairs = compiled.feedback_pairs()?;
                for (output, input) in &pairs {
                    let grid = io
                        .computed
                        .remove(output)
                        .expect("program outputs are always computed");
                    if let Some(old) = io.work.insert(input.clone(), grid) {
                        self.executor.pool_release(old.into_data());
                    }
                }
                for (_, grid) in std::mem::take(&mut io.computed) {
                    self.executor.pool_release(grid.into_data());
                }
                for (_, mask) in masks {
                    self.executor.release_mask(mask);
                }
            }
            Ok(())
        })();
        // Working state goes back to the pools on success and failure
        // alike (a lost buffer would show up as a later pool miss).
        for (_, grid) in std::mem::take(&mut io.work) {
            self.executor.pool_release(grid.into_data());
        }
        if let Err(err) = outcome {
            for (_, grid) in std::mem::take(&mut io.computed) {
                self.executor.pool_release(grid.into_data());
            }
            for (_, mask) in std::mem::take(&mut final_masks) {
                self.executor.release_mask(mask);
            }
            return Err(err);
        }

        // Outputs-only contract: intermediates return to the pools.
        let outputs = compiled.output_names();
        let mut fields = BTreeMap::new();
        let mut out_masks = BTreeMap::new();
        for (name, grid) in std::mem::take(&mut io.computed) {
            if outputs.contains(&name) {
                fields.insert(name, grid);
            } else {
                self.executor.pool_release(grid.into_data());
            }
        }
        for (name, mask) in final_masks {
            if outputs.contains(&name) {
                out_masks.insert(name, mask);
            } else {
                self.executor.release_mask(mask);
            }
        }
        Ok(ExecutionResult::from_parts(
            fields,
            out_masks,
            cells_evaluated,
        ))
    }

    /// Sweep one stencil, banded across the worker pool when large. The
    /// owner claims bands alongside any thieves and stitches the pooled
    /// band buffers into the result grid.
    fn sweep_stencil(
        &self,
        shared: &BatchShared<'_>,
        compiled: &Arc<CompiledProgram>,
        stencil_ix: usize,
        job: &JobSpec,
        io: &mut SweepIo,
    ) -> std::result::Result<(Grid, Vec<bool>), JobError> {
        let stencil = &compiled.stencil_plans()[stencil_ix];
        let rows = stencil.row_count();
        let row_len = stencil.row_len();
        let num_cells = compiled.cell_count();
        let weight = num_cells.saturating_mul(stencil.accesses_per_cell().max(1));
        let band_target =
            if self.workers <= 1 || rows <= 1 || weight < PARALLEL_THRESHOLD_CELL_ACCESSES {
                1
            } else {
                rows.min(self.workers * BANDS_PER_WORKER)
            };
        let per_band = rows.div_ceil(band_target);
        let mut bands = Vec::with_capacity(band_target);
        let mut row = 0usize;
        while row < rows {
            let hi = (row + per_band).min(rows);
            bands.push((row, hi));
            row = hi;
        }

        let sweep = Arc::new(SweepShared {
            compiled: Arc::clone(compiled),
            stencil_ix,
            client_inputs: io.client_inputs.clone(),
            work: std::mem::take(&mut io.work),
            computed: std::mem::take(&mut io.computed),
            row_len,
            bands,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            results: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            cancel: job.cancel.clone(),
            fault: job.fault,
        });
        let stealable = sweep.bands.len() > 1;
        if stealable {
            shared
                .sweeps
                .lock()
                .expect("sweep list poisoned")
                .push(Arc::clone(&sweep));
            shared.wake.notify_all();
        }
        // The owner always works its own sweep.
        while self.run_band(shared, &sweep, false) {}
        // Wait for any stolen bands to land.
        while sweep.done.load(Ordering::Acquire) < sweep.bands.len() {
            let guard = shared.idle.lock().expect("idle mutex poisoned");
            drop(
                shared
                    .wake
                    .wait_timeout(guard, Duration::from_micros(200))
                    .expect("idle mutex poisoned"),
            );
        }
        if stealable {
            shared
                .sweeps
                .lock()
                .expect("sweep list poisoned")
                .retain(|s| !Arc::ptr_eq(s, &sweep));
        }
        // Thieves hold their Arc clone only for the instant between the
        // `done` increment and the drop; spin it out.
        let mut sweep = {
            let mut sweep = sweep;
            loop {
                match Arc::try_unwrap(sweep) {
                    Ok(owned) => break owned,
                    Err(still_shared) => {
                        sweep = still_shared;
                        std::thread::yield_now();
                    }
                }
            }
        };
        io.work = std::mem::take(&mut sweep.work);
        io.computed = std::mem::take(&mut sweep.computed);
        let band_outs = sweep.results.into_inner().expect("band results poisoned");
        if let Some(err) = sweep.error.into_inner().expect("band error slot poisoned") {
            for band in band_outs {
                self.executor.pool_release(band.data);
                self.executor.release_mask(band.mask);
            }
            return Err(err);
        }

        let dim_refs: Vec<&str> = compiled.dim_names().iter().map(String::as_str).collect();
        if sweep.bands.len() == 1 {
            // Single band: its buffers are the result, no stitching.
            let band = band_outs
                .into_iter()
                .next()
                .expect("a completed sweep has its band result");
            let grid = Grid::from_data(
                &dim_refs,
                compiled.space_shape(),
                stencil.out_dtype(),
                band.data,
            );
            return Ok((grid, band.mask));
        }
        // Stitch bands into pooled full-size buffers (every row is
        // covered by exactly one band, so no fill is needed for the data
        // buffer; pooled masks come back all-true and are then fully
        // overwritten too).
        let mut data = self.executor.pool_acquire(num_cells);
        let mut mask = self.executor.alloc_result_mask(num_cells);
        for band in band_outs {
            let lo = band.row_start * row_len;
            let hi = band.row_end * row_len;
            data[lo..hi].copy_from_slice(&band.data);
            mask[lo..hi].copy_from_slice(&band.mask);
            self.executor.pool_release(band.data);
            self.executor.release_mask(band.mask);
        }
        let grid = Grid::from_data(&dim_refs, compiled.space_shape(), stencil.out_dtype(), data);
        Ok((grid, mask))
    }

    /// A pooled copy of a client grid (the stepped path's mutable state).
    fn pooled_copy(&self, grid: &Grid) -> Grid {
        let mut data = self.executor.pool_acquire(grid.len());
        data.copy_from_slice(grid.as_slice());
        let dim_refs: Vec<&str> = grid.dims().iter().map(String::as_str).collect();
        Grid::from_data(&dim_refs, grid.shape(), grid.data_type(), data)
    }
}

impl Drop for ServeExecutor {
    /// Wait for a running module build, so no `cc` outlives the executor.
    fn drop(&mut self) {
        let builder = self.builder.get_mut().ok().and_then(Option::take);
        if let Some(handle) = builder {
            let _ = handle.join();
        }
    }
}

/// The background builder: build (or fetch from the disk cache) every
/// queued native module, marking each landed. A failed build lands too;
/// the key's measurement then excludes the JIT tier.
fn build_modules(state: &Mutex<FirstSight>) {
    loop {
        let next = state
            .lock()
            .expect("first-sight state poisoned")
            .queue
            .pop_front();
        let Some(compiled) = next else {
            return;
        };
        let _ = catch_unwind(AssertUnwindSafe(|| crate::jit::stage_fns(&compiled)));
        state
            .lock()
            .expect("first-sight state poisoned")
            .landed
            .insert(compiled.fingerprint());
    }
}

/// Whether the fused tier can run a job: the plan (and, for stepped jobs,
/// the feedback pairing) supports it.
fn fused_eligible(compiled: &CompiledProgram, steps: usize) -> bool {
    if steps > 1 {
        compiled.fused_steps_supported()
    } else {
        compiled.fused_tier_supported()
    }
}

/// The tiers eligible for a job: SIMD always; fused when
/// [`fused_eligible`]; JIT additionally when the emitted unit exists and
/// a compiler is reachable.
fn eligible_tiers(compiled: &CompiledProgram, steps: usize) -> Vec<Tier> {
    let mut tiers = vec![Tier::Simd];
    if fused_eligible(compiled, steps) {
        tiers.push(Tier::Fused);
        if compiled.jit_supported() && crate::jit::jit_available().is_ok() {
            tiers.push(Tier::Jit);
        }
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_data::generate_inputs;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    fn jacobi_like(shape: &[usize]) -> Arc<StencilProgram> {
        Arc::new(
            StencilProgramBuilder::new("serve_jacobi", shape)
                .input("u", DataType::Float32, &["i", "j"])
                .stencil(
                    "u_next",
                    "0.25 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])",
                )
                .output("u_next")
                .build()
                .unwrap(),
        )
    }

    fn job_for(program: &Arc<StencilProgram>, seed: u64) -> JobSpec {
        let inputs = Arc::new(generate_inputs(program, seed));
        JobSpec::new(Arc::clone(program), inputs)
    }

    #[test]
    fn batch_results_match_reference_runs_bitwise() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(4));
        let reference = ReferenceExecutor::new();
        let jobs: Vec<JobSpec> = (0..12).map(|seed| job_for(&program, seed)).collect();
        let expected: Vec<_> = jobs
            .iter()
            .map(|job| reference.run(&job.program, &job.inputs).unwrap())
            .collect();
        let outcomes = serve.run_batch(jobs);
        assert_eq!(outcomes.len(), 12);
        for (outcome, expected) in outcomes.into_iter().zip(expected) {
            let result = outcome.result.unwrap();
            let got = result.field("u_next").unwrap().as_slice();
            let want = expected.field("u_next").unwrap().as_slice();
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                result.valid_mask("u_next").unwrap(),
                expected.valid_mask("u_next").unwrap()
            );
            // Outputs-only contract: no intermediate fields.
            assert_eq!(result.fields().count(), 1);
            serve.recycle(result);
        }
        // One program fingerprint -> one compilation across the batch.
        assert_eq!(serve.stats().compiles, 1);
    }

    #[test]
    fn stepped_simd_jobs_match_run_steps_bitwise() {
        let program = jacobi_like(&[12, 12]);
        let serve = ServeExecutor::new(
            ServeConfig::new()
                .with_workers(2)
                .with_tier_policy(TierPolicy::Fixed(Tier::Simd)),
        );
        let reference = ReferenceExecutor::new();
        let job = job_for(&program, 7).with_steps(4);
        let expected = reference.run_steps(&program, &job.inputs, 4).unwrap();
        let outcome = serve.run_one(job);
        assert_eq!(outcome.tier, Tier::Simd);
        let result = outcome.result.unwrap();
        for (a, b) in result
            .field("u_next")
            .unwrap()
            .as_slice()
            .iter()
            .zip(expected.field("u_next").unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(result.cells_evaluated(), expected.cells_evaluated());
        serve.recycle(result);
    }

    #[test]
    fn steady_state_batches_hit_the_pools() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
        let jobs = || -> Vec<JobSpec> { (0..8).map(|seed| job_for(&program, seed)).collect() };
        // Warmup: tier measurement + pool population. Several batches, so
        // the pool has seen the peak concurrent demand of every worker
        // interleaving before the steady window opens. The program is
        // JIT-eligible, so its measurement waits for the background module
        // build; settling after the first batch finishes it here rather
        // than inside the steady window.
        for round in 0..3 {
            for outcome in serve.run_batch(jobs()) {
                serve.recycle(outcome.result.unwrap());
            }
            if round == 0 {
                serve.settle();
            }
        }
        let warm = serve.stats();
        for _ in 0..3 {
            for outcome in serve.run_batch(jobs()) {
                serve.recycle(outcome.result.unwrap());
            }
        }
        let steady = serve.stats();
        assert_eq!(
            steady.pool_misses, warm.pool_misses,
            "steady-state batches must not allocate cell buffers"
        );
        assert_eq!(
            steady.mask_misses, warm.mask_misses,
            "steady-state batches must not allocate masks"
        );
        assert_eq!(steady.compiles, warm.compiles);
        assert!(steady.pool_acquires > warm.pool_acquires);
    }

    #[test]
    fn tier_override_knobs_are_honoured() {
        let program = jacobi_like(&[8, 8]);
        let serve = ServeExecutor::new(
            ServeConfig::new()
                .with_workers(1)
                .with_tier_policy(TierPolicy::Fixed(Tier::Fused)),
        );
        let outcome = serve.run_one(job_for(&program, 1));
        assert_eq!(outcome.tier, Tier::Fused);
        serve.recycle(outcome.result.unwrap());
        // Per-job override beats the policy.
        let outcome = serve.run_one(job_for(&program, 2).with_tier(Tier::Simd));
        assert_eq!(outcome.tier, Tier::Simd);
        serve.recycle(outcome.result.unwrap());
    }

    #[test]
    fn auto_policy_measures_once_per_fingerprint() {
        let program = jacobi_like(&[16, 16]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        for seed in 0..6 {
            let outcome = serve.run_one(job_for(&program, seed));
            serve.recycle(outcome.result.unwrap());
        }
        // The program is JIT-eligible, so its measurement waits for the
        // background module build; settling finishes it.
        serve.settle();
        let stats = serve.stats();
        assert_eq!(stats.tier_measurements, 1);
        assert_eq!(stats.compiles, 1);
        let choices = serve.tier_choices();
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].program, "serve_jacobi");
        assert!(!choices[0].stepped);
    }

    #[test]
    fn large_sweeps_offer_bands_and_stay_bitwise_identical() {
        // Heavy enough to band (> 2^18 cell·accesses), run with a wide
        // worker pool so stealing has a chance to engage; correctness must
        // hold either way.
        let program = jacobi_like(&[512, 256]);
        let serve = ServeExecutor::new(
            ServeConfig::new()
                .with_workers(4)
                .with_tier_policy(TierPolicy::Fixed(Tier::Simd)),
        );
        let reference = ReferenceExecutor::new();
        let job = job_for(&program, 3);
        let expected = reference.run(&job.program, &job.inputs).unwrap();
        let outcome = serve.run_one(job);
        let result = outcome.result.unwrap();
        for (a, b) in result
            .field("u_next")
            .unwrap()
            .as_slice()
            .iter()
            .zip(expected.field("u_next").unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        serve.recycle(result);
    }

    #[test]
    fn zero_steps_and_bad_inputs_are_rejected_per_job() {
        let program = jacobi_like(&[8, 8]);
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let bad_steps = job_for(&program, 1).with_steps(0);
        assert!(serve.run_one(bad_steps).result.is_err());
        let empty = JobSpec::new(Arc::clone(&program), Arc::new(BTreeMap::new()));
        assert!(serve.run_one(empty).result.is_err());
        // A failing job does not poison the batch: the next one succeeds.
        let ok = serve.run_one(job_for(&program, 1));
        serve.recycle(ok.result.unwrap());
    }
}
