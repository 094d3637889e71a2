//! Golden equivalence of the tile-fused tier: fused execution must agree
//! **bit for bit** with the tree-walking interpreter (and the
//! materializing compiled path) on every program output — values and
//! shrink masks — across tile heights, window sizes, and workloads,
//! including the programs that fall back to the materializing path.

use std::collections::BTreeMap;
use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{generate_inputs, Grid, ReferenceExecutor};
use stencilflow_workloads::{
    chain_program, diffusion2d, diffusion3d, horizontal_diffusion, jacobi2d, jacobi3d,
    jacobi3d_typed, listing1::listing1_with_shape, upwind3d_typed, ChainSpec,
    HorizontalDiffusionSpec,
};

/// Compare two results on the program outputs, bitwise, masks included.
fn assert_outputs_match(
    program: &StencilProgram,
    label: &str,
    fused: &stencilflow_reference::ExecutionResult,
    baseline: &stencilflow_reference::ExecutionResult,
) {
    for output in program.outputs() {
        let f = fused
            .field(output)
            .unwrap_or_else(|| panic!("fused result misses output `{output}`"));
        let b = baseline.field(output).unwrap();
        assert_eq!(f.shape(), b.shape());
        for (cell, (x, y)) in f.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "program `{}` ({label}), output `{output}`, cell {cell}: \
                 fused {x:?} != baseline {y:?}",
                program.name()
            );
        }
        assert_eq!(
            fused.valid_mask(output).unwrap(),
            baseline.valid_mask(output).unwrap(),
            "mask mismatch for `{output}` in `{}` ({label})",
            program.name()
        );
    }
}

/// Run the fused tier under several tile heights and compare each against
/// the interpreter (and the materializing compiled path).
fn assert_fused_bit_identical(program: &StencilProgram, seed: u64) {
    let inputs = generate_inputs(program, seed);
    let plain = ReferenceExecutor::new();
    let interpreted = plain.run_interpreted(program, &inputs).unwrap();
    let materializing = plain.run(program, &inputs).unwrap();
    assert_outputs_match(program, "materializing", &materializing, &interpreted);
    for tile_rows in [0usize, 1, 2, 5] {
        let executor = ReferenceExecutor::new().with_fusion_tile_rows(tile_rows);
        let fused = executor.run_fused(program, &inputs).unwrap();
        assert_outputs_match(
            program,
            &format!("tile_rows={tile_rows}"),
            &fused,
            &interpreted,
        );
        // The fused result carries exactly the program outputs.
        let fields: Vec<&str> = fused.fields().map(|(name, _)| name).collect();
        assert_eq!(fields.len(), program.outputs().len());
    }
}

/// Fused time stepping across window sizes and tile heights vs the
/// materializing stepper.
fn assert_fused_steps_bit_identical(program: &StencilProgram, seed: u64, steps: usize) {
    let inputs = generate_inputs(program, seed);
    let plain = ReferenceExecutor::new();
    let baseline = plain.run_steps(program, &inputs, steps).unwrap();
    for window in [1usize, 2, 3, steps.max(1)] {
        for tile_rows in [0usize, 1, 3] {
            let executor = ReferenceExecutor::new()
                .with_fusion_window(window)
                .with_fusion_tile_rows(tile_rows);
            let fused = executor.run_steps_fused(program, &inputs, steps).unwrap();
            assert_outputs_match(
                program,
                &format!("steps={steps} window={window} tile_rows={tile_rows}"),
                &fused,
                &baseline,
            );
        }
    }
}

#[test]
fn fused_matches_on_jacobi_and_diffusion() {
    assert_fused_bit_identical(&jacobi2d(2, &[13, 9], 1), 1);
    assert_fused_bit_identical(&jacobi3d(2, &[9, 7, 11], 1), 2);
    assert_fused_bit_identical(&jacobi3d_typed(2, &[9, 7, 11], 1, DataType::Float64), 3);
    assert_fused_bit_identical(&diffusion2d(2, &[12, 10], 1), 4);
    assert_fused_bit_identical(&diffusion3d(2, &[7, 6, 9], 1), 5);
}

#[test]
fn fused_matches_on_chains() {
    for stages in [2usize, 6, 8] {
        let chain = chain_program(&ChainSpec::new(stages, 8).with_shape(&[6, 5, 7]));
        let executor = ReferenceExecutor::new();
        let compiled = executor.prepare(&chain).unwrap();
        assert!(
            compiled.fused_tier_supported(),
            "chains must take the fused fast path: {:?}",
            compiled.fused_fallback_reason()
        );
        assert_fused_bit_identical(&chain, 6 + stages as u64);
    }
    // Longer chains whose cumulative dilation exceeds the tile height.
    let chain = chain_program(&ChainSpec::new(10, 4).with_shape(&[24, 6]));
    assert_fused_bit_identical(&chain, 17);
}

#[test]
fn fused_matches_on_branchy_and_division_kernels() {
    for dtype in [DataType::Float32, DataType::Float64] {
        let program = upwind3d_typed(2, &[7, 9, 11], 1, dtype);
        let executor = ReferenceExecutor::new();
        let compiled = executor.prepare(&program).unwrap();
        assert!(compiled.fused_tier_supported());
        assert_fused_bit_identical(&program, 21);
    }
    // Division inside a ternary arm: only the statically-typed
    // if-conversion makes this kernel branch-free, which the fused tier
    // requires — and IEEE division by zero (inf/NaN) must match bitwise.
    let program = StencilProgramBuilder::new("divsel", &[6, 12])
        .input("a", DataType::Float32, &["i", "j"])
        .input("b", DataType::Float32, &["i", "j"])
        .stencil("s", "b[i,j] > 0.25 ? a[i,j] / b[i,j-1] : a[i-1,j]")
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "typed if-conversion should make division ternaries fusible: {:?}",
        compiled.fused_fallback_reason()
    );
    assert_fused_bit_identical(&program, 22);
}

#[test]
fn fused_matches_on_boundary_and_geometry_variety() {
    // Mixed constant boundaries (per-field constants differ; consumers of
    // each field agree), shrink masks, scalars, f64 outputs, deep halos.
    let program = StencilProgramBuilder::new("constants", &[7, 6, 9])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .scalar("dt", DataType::Float32)
        .stencil(
            "lap",
            "-4.0*u[i,j,k] + u[i-1,j,k] + u[i+1,j,k] + u[i,j-1,k] + u[i,j+1,k]",
        )
        .boundary("lap", "u", BoundaryCondition::Constant(1.5))
        .stencil("flux", "lap[i,j,k] - lap[i,j,k-2] + dt")
        .boundary("flux", "lap", BoundaryCondition::Constant(-2.25))
        .shrink("flux")
        .stencil("out", "flux[i,j,k] * flux[i+2,j,k]")
        .shrink("out")
        .output_type("out", DataType::Float64)
        .output("out")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "{:?}",
        compiled.fused_fallback_reason()
    );
    assert_fused_bit_identical(&program, 31);

    // One-dimensional domain: a single tile spanning the row.
    let program = StencilProgramBuilder::new("fused1d", &[23])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "a[i-3] + a[i+2] * 0.5")
        .boundary("s", "a", BoundaryCondition::Constant(0.75))
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_fused_bit_identical(&program, 32);

    // Remainder-heavy innermost extents around the fused lane widths.
    for width in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 33] {
        assert_fused_bit_identical(&jacobi2d(1, &[5, width], 1), 40 + width as u64);
    }
}

#[test]
fn fused_multi_output_and_dead_stage_elision() {
    // Two outputs sharing intermediates, plus a dead stencil nobody
    // consumes: the fused tier elides it (its value is unobservable).
    let program = StencilProgramBuilder::new("multi", &[8, 10])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("base", "a[i,j] + a[i-1,j]")
        .stencil("left", "base[i,j-1] * 2.0")
        .stencil("right", "base[i,j+1] * 3.0")
        .stencil("dead", "base[i,j] * 100.0")
        .shrink("left")
        .output("left")
        .output("right")
        .build()
        .unwrap();
    assert_fused_bit_identical(&program, 51);
    // The dead stage does not add evaluations: fused counts at most the
    // live stages (times dilation overlap, bounded by an extra stage's
    // worth here).
    let inputs = generate_inputs(&program, 51);
    let executor = ReferenceExecutor::new();
    let fused = executor.run_fused(&program, &inputs).unwrap();
    let cells = program.space().num_cells();
    assert!(
        fused.cells_evaluated() < 4 * cells,
        "dead stage should be elided: {} evaluations for {} cells",
        fused.cells_evaluated(),
        cells
    );
    assert!(fused.field("dead").is_none());
    assert!(fused.field("base").is_none());
}

#[test]
fn fused_steps_match_materializing_steps() {
    assert_fused_steps_bit_identical(&jacobi3d(1, &[9, 8, 10], 1), 61, 5);
    assert_fused_steps_bit_identical(&jacobi2d(1, &[11, 9], 1), 62, 7);
    assert_fused_steps_bit_identical(&jacobi3d_typed(1, &[6, 7, 9], 1, DataType::Float64), 63, 4);
    // Multi-stencil program per step (two internal Jacobi sweeps).
    assert_fused_steps_bit_identical(&jacobi3d(2, &[8, 6, 9], 1), 64, 3);

    // Coupled multi-field state with prefix pairing.
    let coupled = StencilProgramBuilder::new("coupled", &[10, 12])
        .input("h", DataType::Float32, &["i", "j"])
        .input("h2", DataType::Float32, &["i", "j"])
        .stencil("h_next", "0.5 * (h[i-1,j] + h[i+1,j]) + 0.1 * h2[i,j]")
        .stencil("h2_next", "h2[i,j-1] * 0.25 + h[i,j]")
        .output("h_next")
        .output("h2_next")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&coupled).unwrap();
    assert!(compiled.fused_steps_supported());
    assert_fused_steps_bit_identical(&coupled, 65, 5);
}

#[test]
fn lower_dimensional_inputs_are_fused() {
    // Listing 1's `a2[i,k]` and horizontal diffusion's 1-D `[j]`
    // coefficients broadcast into full-rank scratch tiles (Listing 1's
    // copy boundary only guards center accesses, which never leave the
    // domain).
    let executor = ReferenceExecutor::new();
    let listing = listing1_with_shape(&[6, 7, 5]);
    let compiled = executor.prepare(&listing).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "{:?}",
        compiled.fused_fallback_reason()
    );
    assert_fused_bit_identical(&listing, 71);

    let hd = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let compiled = executor.prepare(&hd).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "{:?}",
        compiled.fused_fallback_reason()
    );
    assert_fused_bit_identical(&hd, 72);
}

#[test]
fn ineligible_programs_fall_back_bit_identically() {
    let executor = ReferenceExecutor::new();

    // Copy boundaries cannot be expressed as position-indexed pads.
    let copy = StencilProgramBuilder::new("copyb", &[6, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j]")
        .boundary("s", "a", BoundaryCondition::Copy)
        .output("s")
        .build()
        .unwrap();
    let compiled = executor.prepare(&copy).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert!(compiled
        .fused_fallback_reason()
        .unwrap()
        .contains("copy boundary"));
    assert_fused_bit_identical(&copy, 74);

    // Consumers disagreeing on a field's boundary constant.
    let conflict = StencilProgramBuilder::new("conflict", &[6, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j]")
        .boundary("s", "a", BoundaryCondition::Constant(1.0))
        .stencil("t", "a[i,j-1] + s[i,j]")
        .boundary("t", "a", BoundaryCondition::Constant(2.0))
        .output("t")
        .build()
        .unwrap();
    let compiled = executor.prepare(&conflict).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert_fused_bit_identical(&conflict, 73);

    // Fused stepping on unpairable programs errors exactly like the
    // materializing stepper.
    let unpairable = StencilProgramBuilder::new("unpairable", &[6])
        .input("a", DataType::Float32, &["i"])
        .stencil("x", "a[i] + 1.0")
        .stencil("y", "a[i] * 2.0")
        .output("x")
        .output("y")
        .build()
        .unwrap();
    let inputs = generate_inputs(&unpairable, 1);
    assert!(executor.run_steps_fused(&unpairable, &inputs, 3).is_err());
    // Even a single step validates the pairing, like `run_steps` does.
    assert!(executor.run_steps(&unpairable, &inputs, 1).is_err());
    assert!(executor.run_steps_fused(&unpairable, &inputs, 1).is_err());
    assert!(executor.run_steps_fused(&unpairable, &inputs, 0).is_err());
}

#[test]
fn fused_steps_state_round_trips_through_windows() {
    // Enough steps to force several windows (and pooled state grids), on
    // a domain small enough that every path is exercised quickly.
    let program = jacobi3d(1, &[8, 6, 10], 1);
    let inputs = generate_inputs(&program, 81);
    let plain = ReferenceExecutor::new();
    let baseline = plain.run_steps(&program, &inputs, 11).unwrap();
    let executor = ReferenceExecutor::new()
        .with_fusion_window(2)
        .with_fusion_tile_rows(3);
    let fused = executor.run_steps_fused(&program, &inputs, 11).unwrap();
    assert_outputs_match(&program, "windows", &fused, &baseline);
}

#[test]
fn fused_steady_state_allocates_nothing_from_the_pool() {
    let program = jacobi3d(1, &[12, 10, 16], 1);
    let inputs = generate_inputs(&program, 91);
    let executor = ReferenceExecutor::new().with_fusion_window(2);
    // Warm-up populates the pool.
    executor.run_steps_fused(&program, &inputs, 6).unwrap();
    let warm_misses = executor.pool_miss_count();
    assert!(warm_misses > 0, "the first run must populate the pool");
    for _ in 0..3 {
        executor.run_steps_fused(&program, &inputs, 6).unwrap();
    }
    assert_eq!(
        executor.pool_miss_count(),
        warm_misses,
        "steady-state fused stepping must reuse pooled buffers"
    );
    assert!(executor.pool_acquire_count() > warm_misses);

    // Single fused runs reuse the same pool.
    executor.run_fused(&program, &inputs).unwrap();
    let after_single = executor.pool_miss_count();
    executor.run_fused(&program, &inputs).unwrap();
    assert_eq!(executor.pool_miss_count(), after_single);
}

#[test]
fn fused_parallel_tiling_matches_sequential() {
    // Big enough to cross the parallel threshold; disjoint output slabs
    // must compose to the identical grid.
    let program = jacobi3d(2, &[40, 16, 16], 1);
    let inputs = generate_inputs(&program, 101);
    let sequential = ReferenceExecutor::new()
        .with_max_threads(1)
        .with_fusion_tile_rows(4)
        .run_fused(&program, &inputs)
        .unwrap();
    let parallel = ReferenceExecutor::new()
        .with_fusion_tile_rows(4)
        .run_fused(&program, &inputs)
        .unwrap();
    for output in program.outputs() {
        for (a, b) in sequential
            .field(output)
            .unwrap()
            .as_slice()
            .iter()
            .zip(parallel.field(output).unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn fused_handles_explicit_values() {
    // Hand-checked values through the fused path (not just equivalence).
    let program = StencilProgramBuilder::new("p", &[4])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "a[i-1] + a[i+1]")
        .output("s")
        .build()
        .unwrap();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "a".to_string(),
        Grid::from_values(&["i"], &[4], &[1.0, 2.0, 3.0, 4.0]),
    );
    let result = ReferenceExecutor::new()
        .run_fused(&program, &inputs)
        .unwrap();
    // Zero-constant default boundaries: s = [2, 4, 6, 3].
    assert_eq!(result.field("s").unwrap().as_slice(), &[2.0, 4.0, 6.0, 3.0]);
}
