//! Equivalence and property tests for the multigrid preconditioner.
//!
//! Two claims, checked on randomized stacked-CMP models (the same
//! assembly path production uses, not synthetic matrices):
//!
//! 1. **Solver equivalence** — the multigrid-preconditioned CG and
//!    the Jacobi-preconditioned CG converge to the same temperature
//!    field (a preconditioner changes the iteration path, never the
//!    fixpoint). Both run at a tightened tolerance so the comparison
//!    band is 1e-10 of the field magnitude.
//! 2. **Preconditioner symmetry** — the V-cycle operator `M` is
//!    symmetric (`xᵀMy == yᵀMx`): symmetric Gauss–Seidel smoothing
//!    with equal pre/post sweeps plus Galerkin coarse operators keep
//!    CG's convergence theory valid.

use immersion_thermal::floorplan::{Floorplan, Rect};
use immersion_thermal::mg::MgScratch;
use immersion_thermal::sparse::CgOptions;
use immersion_thermal::stack3d::{CoolingParams, StackBuilder};
use immersion_thermal::{PrecondChoice, ThermalModel};
use proptest::prelude::*;

/// A two-block die floorplan; block split position comes from the
/// test case so the rasterization (and thus the RHS) varies.
fn floorplan(split: f64) -> Floorplan {
    let w = 0.01;
    let cut = w * split;
    let mut fp = Floorplan::new(w, w);
    fp.add_block("CORE", Rect::new(0.0, 0.0, cut, w)).unwrap();
    fp.add_block("CACHE", Rect::new(cut, 0.0, w - cut, w))
        .unwrap();
    fp
}

/// Build the randomized stack under `precond` with a tightened CG
/// tolerance (the equivalence band needs both arms well past their
/// default 1e-9 stopping point).
fn build(chips: usize, grid: usize, split: f64, precond: PrecondChoice) -> ThermalModel {
    StackBuilder::new(floorplan(split))
        .chips(chips)
        .grid(grid, grid)
        .cooling(CoolingParams::water_immersion())
        .cg_options(CgOptions {
            tolerance: 1e-12,
            max_iterations: 20_000,
        })
        .preconditioner(precond)
        .build()
        .expect("model builds")
}

fn solve_cold(model: &ThermalModel, powers: &[(f64, f64)]) -> Vec<f64> {
    let mut p = model.zero_power();
    for (die, &(core_w, cache_w)) in powers.iter().enumerate().take(model.n_power_layers()) {
        p.set(die, "CORE", core_w).unwrap();
        p.set(die, "CACHE", cache_w).unwrap();
    }
    let sol = model.solve_steady_cold(&p).expect("converges");
    sol.into_temps()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn multigrid_and_jacobi_converge_to_the_same_field(
        chips in 1usize..4,
        grid in 4usize..10,
        split in 0.2f64..0.8,
        powers in proptest::collection::vec((0.5f64..8.0, 0.5f64..8.0), 3),
    ) {
        let mg_model = build(chips, grid, split, PrecondChoice::Auto);
        prop_assert!(mg_model.multigrid().is_some(), "hierarchy must build");
        let jac_model = build(chips, grid, split, PrecondChoice::Jacobi);
        prop_assert!(jac_model.multigrid().is_none());

        let t_mg = solve_cold(&mg_model, &powers);
        let t_jac = solve_cold(&jac_model, &powers);
        let scale = t_jac.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in t_mg.iter().zip(&t_jac) {
            prop_assert!(
                (a - b).abs() <= 1e-10 * scale,
                "fields disagree: {a} vs {b} (band {:.3e})",
                1e-10 * scale
            );
        }
    }

    #[test]
    fn vcycle_operator_is_symmetric_on_random_models(
        chips in 1usize..4,
        grid in 4usize..10,
        split in 0.2f64..0.8,
        xs in proptest::collection::vec(-10.0f64..10.0, 64),
        ys in proptest::collection::vec(-10.0f64..10.0, 64),
    ) {
        let model = build(chips, grid, split, PrecondChoice::Auto);
        let mg = model.multigrid().expect("hierarchy");
        let n = model.n_nodes();
        let x: Vec<f64> = xs.iter().cycle().take(n).copied().collect();
        let y: Vec<f64> = ys.iter().cycle().take(n).copied().collect();
        let mut scratch = MgScratch::default();
        let (mut mx, mut my) = (vec![0.0; n], vec![0.0; n]);
        mg.apply(&x, &mut mx, &mut scratch);
        mg.apply(&y, &mut my, &mut scratch);
        let xmy: f64 = x.iter().zip(&my).map(|(a, b)| a * b).sum();
        let ymx: f64 = y.iter().zip(&mx).map(|(a, b)| a * b).sum();
        let scale = xmy.abs().max(ymx.abs()).max(1e-30);
        prop_assert!(
            (xmy - ymx).abs() <= 1e-11 * scale,
            "asymmetry: x'My = {xmy} vs y'Mx = {ymx}"
        );
    }
}
