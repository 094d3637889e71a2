//! Deferred first sight of JIT-eligible programs under the automatic
//! tier policy: the first job runs on the SIMD tier without invoking the
//! C compiler, the native module is built by a background thread that
//! starts with the next batch, and the key is measured exactly once —
//! by the first job after the module lands, or by
//! [`ServeExecutor::settle`].
//!
//! Each test builds a program with a per-process literal, so its native
//! module is never in a disk cache left by an earlier run and the `cc`
//! counters below see exactly this test's builds. The tests serialize
//! because those counters are process-wide.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{
    generate_inputs, jit_cache_stats, JobSpec, ReferenceExecutor, ServeConfig, ServeExecutor, Tier,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fused- and JIT-eligible program whose fingerprint is unique to this
/// process and `tag`.
fn fresh_program(tag: u32) -> Arc<StencilProgram> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let scale = 1.0 + f64::from(std::process::id() % 9973) * 1e-6 + f64::from(nanos % 997) * 1e-9;
    let program = StencilProgramBuilder::new(&format!("first_sight_{tag}"), &[20, 24])
        .input("u", DataType::Float32, &["i", "j"])
        .input("c", DataType::Float32, &["j"])
        .stencil(
            "u_next",
            &format!("{scale:.12} * (u[i-1,j] + u[i+1,j]) * c[j] + 0.5 * u[i,j+1]"),
        )
        .output("u_next")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert!(
        compiled.jit_supported(),
        "{:?}",
        compiled.jit_fallback_reason()
    );
    Arc::new(program)
}

fn cc_invocations() -> u64 {
    jit_cache_stats()
        .expect("system cc must be available for these tests")
        .cc_invocations
}

fn assert_matches_interpreter(
    program: &StencilProgram,
    job: &JobSpec,
    tier: Tier,
    serve: &ServeExecutor,
) {
    let outcome = serve.run_one(job.clone());
    assert_eq!(outcome.tier, tier);
    let result = outcome.result.unwrap();
    let expected = ReferenceExecutor::new()
        .run_interpreted(program, &job.inputs)
        .unwrap();
    for name in program.outputs() {
        let got = result.field(name).unwrap().as_slice();
        let want = expected.field(name).unwrap().as_slice();
        assert!(got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
    serve.recycle(result);
}

#[test]
fn first_sight_runs_on_simd_and_settle_measures_once() {
    let _guard = serial();
    let program = fresh_program(1);
    let job = JobSpec::new(Arc::clone(&program), Arc::new(generate_inputs(&program, 3)));
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let cc_before = cc_invocations();

    assert_matches_interpreter(&program, &job, Tier::Simd, &serve);
    assert_eq!(cc_invocations(), cc_before, "first sight must not run cc");
    assert_eq!(serve.stats().tier_measurements, 0);
    assert!(serve.tier_choices().is_empty());

    serve.settle();
    assert_eq!(
        cc_invocations(),
        cc_before + 1,
        "settle builds the module once"
    );
    assert_eq!(serve.stats().tier_measurements, 1);
    let choices = serve.tier_choices();
    assert_eq!(choices.len(), 1);
    assert!(!choices[0].stepped);
    // Settling measured on the retained job, which is not a served job.
    assert_eq!(serve.stats().jobs, 1);

    // Later jobs run on the recorded decision; nothing re-measures.
    assert_matches_interpreter(&program, &job, choices[0].tier, &serve);
    serve.settle();
    assert_eq!(serve.stats().tier_measurements, 1);
    assert_eq!(cc_invocations(), cc_before + 1);
}

#[test]
fn the_first_job_after_the_module_lands_measures_the_key() {
    let _guard = serial();
    let program = fresh_program(2);
    let inputs = Arc::new(generate_inputs(&program, 5));
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let job = JobSpec::new(Arc::clone(&program), inputs);

    // Until a measurement happens every job runs on SIMD; the builder
    // started by the second batch lands the module in the background.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut batches = 0usize;
    while serve.stats().tier_measurements == 0 {
        assert!(Instant::now() < deadline, "the module never landed");
        let outcome = serve.run_one(job.clone());
        batches += 1;
        let measured = serve.stats().tier_measurements == 1;
        if !measured {
            assert_eq!(
                outcome.tier,
                Tier::Simd,
                "batch {batches} before the measurement"
            );
        }
        serve.recycle(outcome.result.unwrap());
        if !measured {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(batches >= 2, "the first-sight batch must not measure");
    assert_eq!(serve.tier_choices().len(), 1);
    // Nothing is left to settle.
    serve.settle();
    assert_eq!(serve.stats().tier_measurements, 1);
    let tier = serve.tier_choices()[0].tier;
    assert_matches_interpreter(&program, &job, tier, &serve);
}

#[test]
fn stepped_and_single_keys_defer_independently() {
    let _guard = serial();
    let program = Arc::new(
        StencilProgramBuilder::new("first_sight_steps", &[12, 16])
            .input("u", DataType::Float32, &["i", "j"])
            .stencil(
                "u_next",
                "0.25 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])",
            )
            .output("u_next")
            .build()
            .unwrap(),
    );
    let inputs = Arc::new(generate_inputs(&program, 8));
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let single = JobSpec::new(Arc::clone(&program), Arc::clone(&inputs));
    let stepped = single.clone().with_steps(3);
    let outcomes = serve.run_batch(vec![single, stepped]);
    assert!(outcomes.iter().all(|o| o.tier == Tier::Simd));
    for outcome in outcomes {
        serve.recycle(outcome.result.unwrap());
    }
    serve.settle();
    assert_eq!(serve.stats().tier_measurements, 2);
    let choices = serve.tier_choices();
    assert_eq!(choices.len(), 2);
    assert_ne!(choices[0].stepped, choices[1].stepped);
}
