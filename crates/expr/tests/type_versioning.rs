//! Type versioning of mixed-type selects (`CompiledKernel::specialize`).
//!
//! * Differential property: random kernels with one to three selects whose
//!   arms mix an `f32` expression with an `f64` literal — plain, nested,
//!   and in tail position — evaluate bit-identically on the `Value`
//!   bytecode, the scalar typed loop, and the lane loop at both widths, on
//!   inputs chosen to make the versions disagree: NaN, signed zeros,
//!   infinities, subnormals, and products that round to zero in `f32` but
//!   not in `f64` (so a downstream `> 0.0` differs between versions).
//! * Cap: kernels needing more than `MAX_TYPE_VERSIONS` versions keep the
//!   `Value` path.
//! * Identity: every kernel that specialized before versioning existed
//!   still yields the identical typed stream (hash pins in
//!   `fixtures/specialize_identity.tsv`).

use proptest::prelude::*;
use stencilflow_expr::{
    parse_program, verify_typed, CompiledKernel, DataType, EvalScratch, LaneScratch, TypedScratch,
    Value, KERNEL_LANES, KERNEL_LANES_WIDE, MAX_TYPE_VERSIONS,
};

/// `f64` literals for the literal arm: the limiter bound, signed zeros, a
/// value whose products underflow `f32` but not `f64`, and values past the
/// `f32` range.
const LITERALS: &[&str] = &[
    "4.0", "0.0", "-0.0", "1e-30", "1e30", "0.5", "100000.0", "3e38",
];

/// Slot inputs (rounded through each slot's type before use).
const INPUTS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -2.5,
    4.0,
    5.0,
    1e-30,
    1e-20,
    1e-40, // subnormal in f32
    1.1754942e-38,
    3.0e38,
    100000.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Slot types: `a` and `b` are `f32` fields, `c` is an `f64` field.
fn slot_type(field: &str) -> DataType {
    match field {
        "c" => DataType::Float64,
        _ => DataType::Float32,
    }
}

/// A division-free `f32` expression (a division inside a select arm would
/// keep the untyped diamond jump-based, which versioning does not cover).
fn arb_f32_expr() -> BoxedStrategy<String> {
    let leaf =
        (0usize..5).prop_map(|ix| ["a[i]", "a[i-1]", "a[i+1]", "b[i]", "b[i+1]"][ix].to_string());
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..3)
                .prop_map(|(l, r, op)| format!("({l} {} {r})", ["+", "-", "*"][op])),
            inner.clone().prop_map(|e| format!("abs({e})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("min({l}, {r})")),
        ]
    })
    .boxed()
}

fn arb_literal() -> impl Strategy<Value = String> {
    (0usize..LITERALS.len()).prop_map(|ix| LITERALS[ix].to_string())
}

/// A select condition over `f32` data.
fn arb_cond() -> impl Strategy<Value = String> {
    (arb_f32_expr(), arb_f32_expr(), arb_literal(), 0usize..3).prop_map(|(l, r, lit, form)| {
        match form {
            0 => format!("{l} > {lit}"),
            1 => format!("{l} * {r} > 0.0"),
            _ => format!("{l} != {r}"),
        }
    })
}

/// One mixed-type select and the number of versions it needs when its
/// result feeds arithmetic: a plain select doubles the kernel, a nested one
/// (the inner select in an arm of the outer) triples it.
fn arb_mixed_select() -> impl Strategy<Value = (String, usize)> {
    (
        (arb_cond(), arb_cond(), arb_f32_expr()),
        (arb_literal(), arb_literal(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((c1, c2, e), (lit, lit2, swap, nested))| {
            let arms = |t: String, f: String| if swap { (f, t) } else { (t, f) };
            if nested {
                let (t, f) = arms(e, lit);
                let (t2, f2) = arms(format!("({c2} ? {t} : {f})"), lit2);
                (format!("{c1} ? {t2} : {f2}"), 3)
            } else {
                let (t, f) = arms(e, lit);
                (format!("{c1} ? {t} : {f}"), 2)
            }
        })
}

/// A kernel with one to three mixed-type selects stored to locals, a
/// combination that feeds each through arithmetic and `> 0.0` tests, and
/// an optional mixed-type tail select; paired with the version count the
/// structure requires.
fn arb_versioned_kernel() -> impl Strategy<Value = (String, usize)> {
    (
        proptest::collection::vec(arb_mixed_select(), 1..4),
        arb_f32_expr(),
        arb_literal(),
        0usize..3,
    )
        .prop_map(|(selects, e, lit, tail)| {
            let mut statements = Vec::new();
            let mut versions = 1;
            let mut terms = Vec::new();
            for (n, (select, factor)) in selects.into_iter().enumerate() {
                statements.push(format!("m{n} = {select}"));
                versions *= factor;
                terms.push(match n {
                    0 => format!("m{n} * ({e})"),
                    1 => format!("(m{n} * b[i] > 0.0) * m{n}"),
                    _ => format!("m{n} - c[i]"),
                });
            }
            statements.push(format!("d = {}", terms.join(" + ")));
            statements.push(match tail {
                0 => "d".to_string(),
                1 => format!("d * a[i] > 0.0 ? {lit} : d"),
                _ => format!("d > {lit} ? {lit} : d"),
            });
            (statements.join("; "), versions)
        })
}

/// Three independent mixed-type selects multiplied together: eight
/// versions, past the cap. Literals differ per select so no two merge.
fn arb_capped_kernel() -> impl Strategy<Value = String> {
    proptest::collection::vec((arb_cond(), arb_f32_expr(), any::<bool>()), 3..4).prop_map(
        |selects| {
            let mut statements = Vec::new();
            for (n, (cond, e, swap)) in selects.into_iter().enumerate() {
                let lit = format!("{}.25", n + 1);
                let (t, f) = if swap { (lit, e) } else { (e, lit) };
                statements.push(format!("m{n} = {cond} ? {t} : {f}"));
            }
            statements.push("m0 * m1 * m2".to_string());
            statements.join("; ")
        },
    )
}

fn compile(code: &str) -> CompiledKernel {
    CompiledKernel::compile(&parse_program(code).expect("generated kernels parse"))
        .expect("generated kernels compile")
}

fn slot_types(kernel: &CompiledKernel) -> Vec<DataType> {
    kernel.slots().iter().map(|s| slot_type(&s.field)).collect()
}

/// Evaluate 16 cells through every path and require identical bits.
fn check_all_paths_agree(code: &str, seed: u64) -> Result<(), TestCaseError> {
    const CELLS: usize = KERNEL_LANES_WIDE;
    let kernel = compile(code);
    let types = slot_types(&kernel);
    let typed = kernel
        .specialize(&types)
        .ok_or_else(|| TestCaseError::fail(format!("`{code}` should specialize")))?;
    prop_assert!(verify_typed(&typed).is_ok());
    prop_assert!(typed.supports_lanes(), "`{code}` should be branch-free");

    // Slot-major raw inputs, each rounded through its slot type.
    let mut rng = TestRng::for_case(code, seed as u32);
    let lanes: Vec<[f64; CELLS]> = types
        .iter()
        .map(|&dtype| {
            std::array::from_fn(|_| {
                let raw = INPUTS[rng.below(INPUTS.len() as u64) as usize];
                Value::from_f64(raw, dtype).as_f64()
            })
        })
        .collect();
    let wide = typed.eval_lanes(&lanes, &mut LaneScratch::<CELLS>::default());
    let mut narrow = Vec::with_capacity(CELLS);
    for half in 0..CELLS / KERNEL_LANES {
        let batch: Vec<[f64; KERNEL_LANES]> = lanes
            .iter()
            .map(|row| std::array::from_fn(|l| row[half * KERNEL_LANES + l]))
            .collect();
        narrow.extend(typed.eval_lanes(&batch, &mut LaneScratch::<KERNEL_LANES>::default()));
    }
    let mut value_scratch = EvalScratch::default();
    let mut typed_scratch = TypedScratch::default();
    for cell in 0..CELLS {
        let raw: Vec<f64> = lanes.iter().map(|row| row[cell]).collect();
        let values: Vec<Value> = raw
            .iter()
            .zip(&types)
            .map(|(&v, &t)| Value::from_f64(v, t))
            .collect();
        let reference = kernel
            .eval_slots(&values, &mut value_scratch)
            .map_err(|e| TestCaseError::fail(format!("`{code}`: {e}")))?
            .as_f64()
            .to_bits();
        let scalar = typed.eval_slots(&raw, &mut typed_scratch).to_bits();
        prop_assert!(
            scalar == reference
                && wide[cell].to_bits() == reference
                && narrow[cell].to_bits() == reference,
            "`{code}` on {raw:?}: value {:?}, typed {:?}, lanes16 {:?}, lanes8 {:?}",
            f64::from_bits(reference),
            f64::from_bits(scalar),
            wide[cell],
            narrow[cell]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Versioned kernels within the cap specialize and agree bitwise with
    /// the `Value` path on every typed path.
    #[test]
    fn versioned_kernels_match_the_value_path(case in arb_versioned_kernel(), seed in any::<u64>()) {
        let (code, versions) = case;
        let kernel = compile(&code);
        let typed = kernel.specialize(&slot_types(&kernel));
        if versions > MAX_TYPE_VERSIONS {
            // Past the cap unless CSE merged equal selects; either way a
            // kernel that does specialize must agree.
            if typed.is_none() {
                return Ok(());
            }
        }
        check_all_paths_agree(&code, seed)?;
    }

    /// Kernels needing more versions than the cap keep the `Value` path.
    #[test]
    fn kernels_past_the_cap_do_not_specialize(code in arb_capped_kernel()) {
        let kernel = compile(&code);
        prop_assert!(
            kernel.specialize(&slot_types(&kernel)).is_none(),
            "`{code}` needs 8 versions but specialized"
        );
    }
}

#[test]
fn limiter_stencils_version_and_agree() {
    // The horizontal-diffusion flux and update kernels on f32 fields.
    for code in [
        "delta = a[i+1] - a[i]; lim = delta > 4.0 ? 4.0 : delta; \
         lim * (b[i+1] - b[i]) > 0.0 ? 0.0 : lim",
        "delta = c[i] * (a[i+1] - a[i]); lim = delta > 4.0 ? 4.0 : delta; \
         lim * (b[i+1] - b[i]) > 0.0 ? 0.0 : lim",
        "res = a[i] - b[i] * (a[i+1] - a[i-1]); res > 100000.0 ? 100000.0 : res",
    ] {
        for seed in 0..64 {
            check_all_paths_agree(code, seed).unwrap();
        }
    }
}

/// FNV-1a 64 over a string (the fixture's hash).
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn kernels_that_specialized_before_keep_their_typed_stream() {
    let fixture = include_str!("fixtures/specialize_identity.tsv");
    let mut pinned = 0;
    for line in fixture.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split('\t');
        let (Some(types), Some(code), Some(hash)) = (fields.next(), fields.next(), fields.next())
        else {
            panic!("malformed fixture line `{line}`");
        };
        let types: Vec<DataType> = types
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| match t {
                "f32" => DataType::Float32,
                "f64" => DataType::Float64,
                "bool" => DataType::Bool,
                other => panic!("unexpected slot type `{other}`"),
            })
            .collect();
        let typed = compile(code)
            .specialize(&types)
            .unwrap_or_else(|| panic!("`{code}` no longer specializes"));
        assert_eq!(
            format!("{:016x}", fnv1a(&format!("{typed:?}"))),
            hash,
            "typed stream of `{code}` changed: {typed:?}"
        );
        pinned += 1;
    }
    assert_eq!(pinned, 331);
}
