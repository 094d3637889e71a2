//! Lower-dimensional inputs on the fused and native tiers: a field
//! indexed by an in-order subsequence of the iteration space (`c[j]`,
//! `c[k]`, `c[i,k]`) is broadcast into full-rank scratch tiles, and the
//! fused and JIT results must stay **bit-identical** to the tree-walking
//! interpreter — values and shrink masks — across tile heights, fused
//! time-stepping windows and out-of-domain taps under non-zero boundary
//! constants. A transposed (`[k,j]`) input must fall back with a named
//! reason. Requires a working system `cc`, like `jit_equivalence.rs`.

use std::collections::BTreeMap;
use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{generate_inputs, ExecutionResult, Grid, ReferenceExecutor};
use stencilflow_workloads::{horizontal_diffusion, HorizontalDiffusionSpec};

fn assert_outputs_match(
    program: &StencilProgram,
    label: &str,
    got: &ExecutionResult,
    want: &ExecutionResult,
) {
    for output in program.outputs() {
        let g = got
            .field(output)
            .unwrap_or_else(|| panic!("{label}: missing output `{output}`"));
        let w = want.field(output).unwrap();
        assert_eq!(g.shape(), w.shape());
        for (cell, (x, y)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "program `{}` ({label}), output `{output}`, cell {cell}: {x:?} != {y:?}",
                program.name()
            );
        }
        assert_eq!(
            got.valid_mask(output).unwrap(),
            want.valid_mask(output).unwrap(),
            "mask mismatch for `{output}` in `{}` ({label})",
            program.name()
        );
    }
    assert_eq!(got.fields().count(), program.outputs().len());
}

/// The program must be fused- and JIT-eligible, and both tiers must match
/// `expected` at every tile height.
fn assert_tiers_match(
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    expected: &ExecutionResult,
    tile_heights: &[usize],
) {
    let compiled = ReferenceExecutor::new().prepare(program).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "`{}` should be fusible: {:?}",
        program.name(),
        compiled.fused_fallback_reason()
    );
    assert!(
        compiled.jit_supported(),
        "`{}` should be JIT-eligible: {:?}",
        program.name(),
        compiled.jit_fallback_reason()
    );
    for &tile_rows in tile_heights {
        let executor = ReferenceExecutor::new().with_fusion_tile_rows(tile_rows);
        let fused = executor.run_fused(program, inputs).unwrap();
        assert_outputs_match(
            program,
            &format!("fused tile_rows={tile_rows}"),
            &fused,
            expected,
        );
        let jit = executor.run_jit(program, inputs).unwrap();
        assert_outputs_match(
            program,
            &format!("jit tile_rows={tile_rows}"),
            &jit,
            expected,
        );
    }
}

fn assert_bit_identical(program: &StencilProgram, seed: u64) {
    let inputs = generate_inputs(program, seed);
    let interpreted = ReferenceExecutor::new()
        .run_interpreted(program, &inputs)
        .unwrap();
    assert_tiers_match(program, &inputs, &interpreted, &[0, 1, 2, 5]);
}

#[test]
fn one_dimensional_coefficients_broadcast_in_three_dimensions() {
    // `c[j]`: the innermost dimension is missing, so every scratch row is
    // one broadcast value; `c[j+1]` leaves the domain at the last `j` and
    // must read the non-zero constant.
    let program = StencilProgramBuilder::new("coef_j", &[6, 7, 9])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("c", DataType::Float32, &["j"])
        .stencil(
            "lap",
            "u[i+1,j,k] + u[i-1,j,k] - 2.0 * u[i,j,k] + c[j] * (u[i,j+1,k] - u[i,j,k])",
        )
        .shrink("lap")
        .stencil("flx", "lap[i+1,j,k] * c[j+1] - lap[i,j-1,k] * c[j-1]")
        .boundary("flx", "c", BoundaryCondition::Constant(0.75))
        .output("flx")
        .build()
        .unwrap();
    for seed in [1, 2] {
        assert_bit_identical(&program, seed);
    }
}

#[test]
fn innermost_and_two_dimensional_subsequences_broadcast() {
    // `c[k]`: the innermost dimension is present, so rows copy one
    // contiguous source run and only the outer dimensions broadcast.
    let inner = StencilProgramBuilder::new("coef_k", &[5, 4, 11])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("c", DataType::Float64, &["k"])
        .stencil("s", "u[i,j,k] * c[k] + 0.5 * c[k-1] + u[i-1,j,k]")
        .boundary("s", "c", BoundaryCondition::Constant(-1.25))
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&inner, 3);

    // `c[i,k]`: a 2-D plane broadcast along the middle dimension, read
    // with an outermost offset so the tile dilation covers it.
    let plane = StencilProgramBuilder::new("coef_ik", &[8, 5, 10])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("c", DataType::Float32, &["i", "k"])
        .stencil("t", "u[i,j,k] + c[i+1,k] * u[i,j+1,k]")
        .boundary("t", "c", BoundaryCondition::Constant(2.0))
        .stencil("s", "t[i-1,j,k] - c[i,k-1] * t[i,j,k]")
        .boundary("s", "c", BoundaryCondition::Constant(2.0))
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&plane, 4);
}

#[test]
fn lower_dimensional_inputs_broadcast_in_two_dimensions() {
    // Innermost missing (`r[i]`) and innermost present (`q[j]`) in a 2-D
    // space, with row lengths on both sides of the fused lane widths.
    for width in [3usize, 8, 17, 33] {
        let program = StencilProgramBuilder::new("coef2d", &[9, width])
            .input("a", DataType::Float32, &["i", "j"])
            .input("r", DataType::Float32, &["i"])
            .input("q", DataType::Float64, &["j"])
            .stencil("s", "a[i-1,j] * r[i+1] + a[i,j+1] * q[j-1] + r[i] * q[j]")
            .boundary("s", "r", BoundaryCondition::Constant(0.5))
            .boundary("s", "q", BoundaryCondition::Constant(3.0))
            .output("s")
            .build()
            .unwrap();
        assert_bit_identical(&program, 10 + width as u64);
    }
}

#[test]
fn fused_time_stepping_keeps_lower_dimensional_inputs_constant() {
    // The coefficient is not part of the feedback pairing: every window
    // re-reads the client grid while the state ping-pongs.
    let program = StencilProgramBuilder::new("coef_steps", &[10, 12])
        .input("h", DataType::Float32, &["i", "j"])
        .input("c", DataType::Float32, &["j"])
        .stencil(
            "h_next",
            "0.25 * (h[i-1,j] + h[i+1,j]) + c[j] * h[i,j-1] + c[j+1] * 0.125",
        )
        .boundary("h_next", "c", BoundaryCondition::Constant(1.5))
        .output("h_next")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert!(compiled.fused_steps_supported());
    assert!(
        compiled.jit_supported(),
        "{:?}",
        compiled.jit_fallback_reason()
    );
    let inputs = generate_inputs(&program, 5);
    let steps = 5;
    let baseline = ReferenceExecutor::new()
        .run_steps(&program, &inputs, steps)
        .unwrap();
    for window in [1usize, 2, 3, steps] {
        for tile_rows in [0usize, 1, 3] {
            let executor = ReferenceExecutor::new()
                .with_fusion_window(window)
                .with_fusion_tile_rows(tile_rows);
            let label = format!("window={window} tile_rows={tile_rows}");
            let fused = executor.run_steps_fused(&program, &inputs, steps).unwrap();
            assert_outputs_match(&program, &format!("fused {label}"), &fused, &baseline);
            let jit = executor.run_steps_jit(&program, &inputs, steps).unwrap();
            assert_outputs_match(&program, &format!("jit {label}"), &jit, &baseline);
        }
    }
}

#[test]
fn horizontal_diffusion_bench_domain_runs_fused_and_native() {
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::bench());
    for seed in [1, 2, 3] {
        let inputs = generate_inputs(&program, seed);
        let interpreted = ReferenceExecutor::new()
            .run_interpreted(&program, &inputs)
            .unwrap();
        // The automatic tile height only: the small-domain suites cover
        // the forced heights, and the interpreter dominates this test.
        assert_tiers_match(&program, &inputs, &interpreted, &[0]);
    }
}

#[test]
fn transposed_lower_dimensional_inputs_fall_back_with_a_reason() {
    let program = StencilProgramBuilder::new("coef_kj", &[5, 6, 7])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("c", DataType::Float32, &["k", "j"])
        .stencil("s", "u[i,j,k] * c[k,j] + u[i+1,j,k]")
        .output("s")
        .build()
        .unwrap();
    let executor = ReferenceExecutor::new();
    let compiled = executor.prepare(&program).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert_eq!(
        compiled.fused_fallback_reason(),
        Some("input `c` has dimensions [k, j] out of iteration-space order [i, j, k]")
    );
    assert!(!compiled.jit_supported());
    assert!(compiled
        .jit_fallback_reason()
        .unwrap()
        .contains("out of iteration-space order"));
    // The fallback still computes the interpreter's bits.
    let inputs = generate_inputs(&program, 9);
    let interpreted = executor.run_interpreted(&program, &inputs).unwrap();
    let fused = executor.run_fused(&program, &inputs).unwrap();
    assert_outputs_match(&program, "fused fallback", &fused, &interpreted);
    let jit = executor.run_jit(&program, &inputs).unwrap();
    assert_outputs_match(&program, "jit fallback", &jit, &interpreted);
}
