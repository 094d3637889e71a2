//! The daemon loop settles deferred first sights before it persists tier
//! decisions: a JIT-eligible program seen once (its job ran on the SIMD
//! tier while the native module was still unbuilt) still gets a measured
//! decision in the tier cache at end of input, and a restart on that
//! cache measures nothing and runs the C compiler zero times.

use std::io::Cursor;
use std::path::Path;

use stencilflow::daemon::{self, DaemonLoopOptions};
use stencilflow::ingest;
use stencilflow::reference::{generate_inputs, jit_cache_stats, DaemonConfig, ServeConfig};
use stencilflow_json::Json;

fn cc_invocations() -> u64 {
    jit_cache_stats()
        .expect("system cc must be available for this test")
        .cc_invocations
}

fn submit_line(id: &str, program: &Path, grids: &Path) -> String {
    let mut line = Json::Object(
        [
            ("op", "submit".to_string()),
            ("id", id.to_string()),
            ("tenant", "t".to_string()),
            ("program", program.display().to_string()),
            ("grids", grids.display().to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::String(v)))
        .collect(),
    )
    .to_string_compact();
    line.push('\n');
    line
}

fn run(script: String, tier_cache: &Path) -> Vec<Json> {
    let mut output = Vec::new();
    daemon::run_loop(
        Cursor::new(script),
        &mut output,
        DaemonLoopOptions::new()
            .with_config(DaemonConfig::new().with_serve(ServeConfig::new().with_workers(2)))
            .with_tier_cache(tier_cache),
    )
    .expect("the loop runs");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| stencilflow_json::parse(l).expect("responses are valid JSON"))
        .collect()
}

fn find<'j>(responses: &'j [Json], op: &str) -> &'j Json {
    responses
        .iter()
        .find(|r| r.get("op").and_then(Json::as_str) == Some(op))
        .unwrap_or_else(|| panic!("no `{op}` response"))
}

#[test]
fn one_job_then_end_of_input_persists_a_decision_the_restart_reuses() {
    let dir = std::env::temp_dir().join(format!("stencilflow-first-sight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A per-process literal keeps the native module out of any disk
    // cache an earlier run left behind, so the first leg really builds.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let scale = 0.25 + f64::from(std::process::id() % 9973) * 1e-7 + f64::from(nanos % 997) * 1e-10;
    let program = dir.join("p.json");
    std::fs::write(
        &program,
        format!(
            r#"{{
  "inputs": {{ "a": {{"dtype": "float32", "dims": ["i", "j"]}},
              "c": {{"dtype": "float32", "dims": ["j"]}} }},
  "outputs": ["b"],
  "shape": [16, 20],
  "program": {{ "b": "{scale:.14} * (a[i-1,j] + a[i+1,j]) * c[j] + a[i,j+1]" }}
}}"#
        ),
    )
    .unwrap();
    let parsed = ingest::load_program(&program).unwrap();
    let grids = dir.join("g.sfgs");
    ingest::write_grid_set(&grids, generate_inputs(&parsed, 4).into_iter()).unwrap();
    let tier_cache = dir.join("tiers.json");

    // Leg 1: one job, then end of input (no `drain` op).
    let cc_before = cc_invocations();
    let responses = run(submit_line("j1", &program, &grids), &tier_cache);
    let outcome = find(&responses, "outcome");
    assert_eq!(outcome.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        outcome.get("tier").and_then(Json::as_str),
        Some("simd"),
        "first sight runs on SIMD while the module is unbuilt"
    );
    assert_eq!(cc_invocations(), cc_before + 1, "settling built the module");
    let persisted =
        stencilflow_json::parse(&std::fs::read_to_string(&tier_cache).unwrap()).unwrap();
    let decisions = persisted.get("decisions").and_then(Json::as_array).unwrap();
    assert_eq!(
        decisions.len(),
        1,
        "the deferred key was measured before export"
    );
    let tier = decisions[0]
        .get("tier")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Leg 2: restart on the persisted cache.
    let cc_before = cc_invocations();
    let mut script = submit_line("j2", &program, &grids);
    script.push_str("{\"op\":\"stats\"}\n");
    let responses = run(script, &tier_cache);
    assert_eq!(
        find(&responses, "tier-cache")
            .get("loaded")
            .and_then(Json::as_f64),
        Some(1.0)
    );
    let outcome = find(&responses, "outcome");
    assert_eq!(outcome.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        outcome.get("tier").and_then(Json::as_str),
        Some(tier.as_str())
    );
    let measurements = find(&responses, "stats")
        .get("serve")
        .and_then(|s| s.get("tier_measurements"))
        .and_then(Json::as_f64);
    assert_eq!(measurements, Some(0.0), "the restart re-measures nothing");
    assert_eq!(
        cc_invocations(),
        cc_before,
        "the restart runs cc zero times"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
