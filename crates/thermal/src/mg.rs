//! Multigrid V-cycle preconditioner for the grid-born conductance
//! system.
//!
//! The stack discretization is strongly anisotropic: layers are tens of
//! microns thick but millimetres wide, so vertical conductances exceed
//! lateral ones by about two orders of magnitude. Purely lateral
//! geometric coarsening with a point smoother would leave the
//! laterally-oscillatory, vertically-constant error modes undamped, so
//! the hierarchy is built algebraically instead: greedy **pairwise
//! aggregation** (two rounds per level) merges each node with its
//! strongest unaggregated neighbour, which collapses the stiff vertical
//! direction first — exactly the semicoarsening the anisotropy calls
//! for — and then coarsens laterally. Interpolation is **smoothed
//! aggregation** (one damped-Jacobi sweep over the piecewise-constant
//! tentative prolongator), restriction is its transpose, and coarse
//! operators are Galerkin products `Aᶜ = Pᵀ·A·P`, so each level stays
//! symmetric. Levels are smoothed by **symmetric Gauss-Seidel**
//! (forward then backward sweep — self-adjoint in the `A` inner
//! product, so a V(ν,ν) cycle with equal pre/post sweeps is a
//! symmetric positive-definite preconditioner, exactly what CG
//! requires, and a far stronger smoother than damped Jacobi on this
//! anisotropic operator); the coarsest system is solved exactly by a
//! dense Cholesky factorization.
//!
//! Every kernel in the cycle is sequential (the Gauss-Seidel sweeps,
//! the coarse direct solve), elementwise, or row-partitioned, so an
//! MG-preconditioned solve is **bitwise deterministic across thread
//! pool widths** (unlike the chunk-reduced dot products of the Jacobi
//! path, which are deterministic only per fixed width); see
//! `dot_stable` in [`crate::sparse`] for the reduction half of that
//! story.

use crate::sparse::CsrMatrix;
use immersion_sanitizer as sanitizer;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Sanitizer cell covering the hierarchy's level buffers: written once
/// at build, read by every `apply`. Concurrent applies are read-read;
/// an apply unordered with the build would be a real publication bug.
const MG_CELL: &str = "thermal::MgHierarchy.levels";

/// Symmetric Gauss-Seidel sweeps before and after the coarse-grid
/// correction. One count for both keeps the pre- and post-smoothers
/// adjoint, which is what makes the V-cycle a symmetric preconditioner.
const SMOOTHING_SWEEPS: usize = 2;
/// Damping ω of the one Jacobi sweep applied to the tentative
/// prolongator (smoothed aggregation's conventional 2/3).
const INTERPOLATION_DAMPING: f64 = 2.0 / 3.0;
/// Stop coarsening at or below this many nodes and solve directly.
const COARSE_DIRECT_LIMIT: usize = 120;
/// Hard cap on hierarchy depth.
const MAX_LEVELS: usize = 12;

/// Preconditioner selection for a thermal model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PrecondChoice {
    /// Multigrid when the hierarchy builds, Jacobi otherwise (non-SPD
    /// coarse operator, degenerate grid, …).
    #[default]
    Auto,
    /// Point-Jacobi: the reference arm benchmarks compare against.
    Jacobi,
}

/// A rectangular CSR matrix for the inter-level transfer operators.
#[derive(Debug, Clone)]
struct RectCsr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl RectCsr {
    /// Build from per-row sorted, merged `(col, value)` lists.
    fn from_rows(cols: usize, rows: Vec<Vec<(u32, f64)>>) -> RectCsr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in &rows {
            for &(c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        RectCsr {
            rows: rows.len(),
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&j, &v)| (j as usize, v))
    }

    /// Transpose by a deterministic counting sort over columns.
    fn transpose(&self) -> RectCsr {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut col_idx = vec![0u32; self.col_idx.len()];
        let mut values = vec![0.0; self.values.len()];
        let mut cursor = row_ptr.clone();
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k] as usize;
                let dst = cursor[c];
                cursor[c] += 1;
                col_idx[dst] = i as u32;
                values[dst] = self.values[k];
            }
        }
        RectCsr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `y = M·x`, row-partitioned (width-invariant).
    fn mul_assign(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yi = acc;
        });
    }

    /// `y += M·x`, row-partitioned (width-invariant).
    fn mul_add(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yi += acc;
        });
    }
}

/// One level of the hierarchy: its operator, Jacobi inverse diagonal,
/// and (except on the coarsest level) the transfers to the next level.
#[derive(Debug)]
struct MgLevel {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    /// Interpolation from the next-coarser level (rows = this level).
    p: Option<RectCsr>,
    /// Restriction `Pᵀ` to the next-coarser level.
    r: Option<RectCsr>,
}

/// Per-context scratch for the V-cycle: one `(x, b, t)` triple per
/// level, reused across applies so a solve allocates nothing per
/// iteration.
#[derive(Debug, Default, Clone)]
pub struct MgScratch {
    x: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
    t: Vec<Vec<f64>>,
}

impl MgScratch {
    /// Size the buffers for `h` unless they already fit its levels.
    fn ensure(&mut self, h: &MgHierarchy) {
        let fits = self.x.len() == h.levels.len()
            && self
                .x
                .iter()
                .zip(&h.levels)
                .all(|(x, l)| x.len() == l.a.dim());
        if fits {
            return;
        }
        let dims: Vec<usize> = h.levels.iter().map(|l| l.a.dim()).collect();
        self.x = dims.iter().map(|&n| vec![0.0; n]).collect();
        self.b = dims.iter().map(|&n| vec![0.0; n]).collect();
        self.t = dims.iter().map(|&n| vec![0.0; n]).collect();
    }
}

/// The assembled multigrid hierarchy for one conductance matrix. The
/// owning [`ThermalModel`](crate::grid::ThermalModel) lends it to each
/// steady solve; it is immutable after the build.
#[derive(Debug)]
pub struct MgHierarchy {
    levels: Vec<MgLevel>,
    /// Dense lower-triangular Cholesky factor of the coarsest operator
    /// (row-major `coarse_n × coarse_n`).
    coarse_chol: Vec<f64>,
    coarse_n: usize,
}

impl Drop for MgHierarchy {
    fn drop(&mut self) {
        sanitizer::retire(MG_CELL, sanitizer::obj_id(self));
    }
}

impl MgHierarchy {
    /// Build the hierarchy for `a`. Returns `None` when no useful
    /// hierarchy exists (coarsening stalls far above the direct-solve
    /// limit, or the coarsest operator is not positive definite) — the
    /// caller then stays on the Jacobi path. Boxed so the address the
    /// sanitizer cell is keyed on stays put when the owner moves.
    pub fn build(a: &CsrMatrix) -> Option<Box<MgHierarchy>> {
        if a.dim() == 0 {
            return None;
        }
        let mut levels: Vec<MgLevel> = Vec::new();
        let mut cur = a.clone();
        while cur.dim() > COARSE_DIRECT_LIMIT && levels.len() + 1 < MAX_LEVELS {
            let inv_diag = inv_diag_of(&cur);
            let (agg, n_c) = aggregate(&cur);
            if n_c >= cur.dim() {
                break;
            }
            let p = interpolation(&cur, &inv_diag, &agg, n_c);
            let r = p.transpose();
            let a_next = galerkin(&cur, &p, &r);
            levels.push(MgLevel {
                a: cur,
                inv_diag,
                p: Some(p),
                r: Some(r),
            });
            cur = a_next;
        }
        if cur.dim() > 4 * COARSE_DIRECT_LIMIT {
            // Coarsening stalled while the operator is still too big
            // for a dense direct solve; no useful hierarchy.
            return None;
        }
        let coarse_n = cur.dim();
        let coarse_chol = dense_cholesky(&cur)?;
        levels.push(MgLevel {
            a: cur,
            inv_diag: Vec::new(),
            p: None,
            r: None,
        });
        let h = Box::new(MgHierarchy {
            levels,
            coarse_chol,
            coarse_n,
        });
        // Publish the hierarchy buffers to the sanitizer: the build is
        // the single write, every apply a read.
        sanitizer::shared_write(MG_CELL, sanitizer::obj_id(&*h));
        Some(h)
    }

    /// Number of levels including the coarsest.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Node count of level `l` (0 = finest).
    pub fn level_dim(&self, l: usize) -> usize {
        assert!(l < self.levels.len());
        self.levels[l].a.dim()
    }

    /// Apply the preconditioner: `z ≈ A⁻¹·rhs` by one V-cycle from a
    /// zero initial guess. Pure function of `(self, rhs)` — `scratch`
    /// only carries buffers — and bitwise deterministic across thread
    /// pool widths.
    pub fn apply(&self, rhs: &[f64], z: &mut [f64], scratch: &mut MgScratch) {
        sanitizer::shared_read(MG_CELL, sanitizer::obj_id(self));
        scratch.ensure(self);
        scratch.b[0].copy_from_slice(rhs);
        self.cycle(0, scratch);
        z.copy_from_slice(&scratch.x[0]);
    }

    /// One V-cycle recursion step on level `l`.
    fn cycle(&self, l: usize, s: &mut MgScratch) {
        debug_assert!(l < self.levels.len());
        let lev = &self.levels[l];
        if l + 1 == self.levels.len() {
            self.coarse_solve(&s.b[l], &mut s.x[l]);
            return;
        }
        let (Some(p), Some(r)) = (&lev.p, &lev.r) else {
            return;
        };
        // Pre-smooth from the zero guess.
        zero(&mut s.x[l]);
        for _ in 0..SMOOTHING_SWEEPS {
            sgs_sweep_csr(&lev.a, &lev.inv_diag, &s.b[l], &mut s.x[l]);
        }
        // Coarse-grid correction: restrict the residual, recurse,
        // interpolate the coarse update back.
        residual_csr(&lev.a, &s.b[l], &s.x[l], &mut s.t[l]);
        r.mul_assign(&s.t[l], &mut s.b[l + 1]);
        self.cycle(l + 1, s);
        let (head, tail) = s.x.split_at_mut(l + 1);
        p.mul_add(&tail[0], &mut head[l]);
        for _ in 0..SMOOTHING_SWEEPS {
            sgs_sweep_csr(&lev.a, &lev.inv_diag, &s.b[l], &mut s.x[l]);
        }
    }

    /// Exact solve of the coarsest system by the cached Cholesky
    /// factor (sequential — the coarsest level is tiny).
    fn coarse_solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.coarse_n;
        let l = &self.coarse_chol;
        // Forward: L·y = b (y stored in x).
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= l[i * n + j] * x[j];
            }
            x[i] = acc / l[i * n + i];
        }
        // Backward: Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= l[j * n + i] * x[j];
            }
            x[i] = acc / l[i * n + i];
        }
    }
}

/// The Jacobi inverse diagonal of `a` (guarded like the CG context's).
fn inv_diag_of(a: &CsrMatrix) -> Vec<f64> {
    a.diagonal()
        .iter()
        .map(|&d| if d.abs() < 1e-300 { 1.0 } else { 1.0 / d })
        .collect()
}

fn zero(v: &mut [f64]) {
    v.iter_mut().for_each(|x| *x = 0.0);
}

/// One in-place symmetric Gauss-Seidel sweep over a generic CSR level
/// (sequential, hence width-invariant).
fn sgs_sweep_csr(a: &CsrMatrix, inv_diag: &[f64], b: &[f64], x: &mut [f64]) {
    let n = a.dim();
    for i in 0..n {
        let mut acc = 0.0;
        for (j, v) in a.row(i) {
            acc += v * x[j];
        }
        x[i] += inv_diag[i] * (b[i] - acc);
    }
    for i in (0..n).rev() {
        let mut acc = 0.0;
        for (j, v) in a.row(i) {
            acc += v * x[j];
        }
        x[i] += inv_diag[i] * (b[i] - acc);
    }
}

/// `out = b − A·x` over a generic CSR level.
fn residual_csr(a: &CsrMatrix, b: &[f64], x: &[f64], out: &mut [f64]) {
    out.par_iter_mut().enumerate().for_each(|(i, oi)| {
        let mut acc = 0.0;
        for (j, v) in a.row(i) {
            acc += v * x[j];
        }
        *oi = b[i] - acc;
    });
}

/// One greedy pairwise-matching round: each unmatched node (in index
/// order) pairs with its strongest-coupled unmatched neighbour, ties
/// resolved to the smallest column. Deterministic by construction.
fn pair_nodes(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.dim();
    let mut group = vec![u32::MAX; n];
    let mut ng = 0u32;
    for i in 0..n {
        if group[i] != u32::MAX {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (j, v) in a.row(i) {
            if j != i && group[j] == u32::MAX {
                let w = v.abs();
                // Strict `>` keeps the first (smallest-column) winner
                // on ties.
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, j));
                }
            }
        }
        group[i] = ng;
        if let Some((_, j)) = best {
            group[j] = ng;
        }
        ng += 1;
    }
    (group, ng as usize)
}

/// Double pairwise aggregation: two matching rounds composed (the
/// second runs on the piecewise-constant Galerkin operator of the
/// first), giving aggregates of up to four nodes. Because the first
/// round pairs along the strongest coupling, the stiff vertical
/// direction of the stack collapses first.
fn aggregate(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let (g1, n1) = pair_nodes(a);
    if n1 >= a.dim() {
        return (g1, n1);
    }
    let mut t = crate::sparse::TripletMatrix::new(n1);
    for i in 0..a.dim() {
        for (j, v) in a.row(i) {
            t.add(g1[i] as usize, g1[j] as usize, v);
        }
    }
    let a1 = t.to_csr();
    let (g2, n2) = pair_nodes(&a1);
    let g: Vec<u32> = g1.iter().map(|&x| g2[x as usize]).collect();
    (g, n2)
}

/// The prolongator for an aggregation: piecewise constant over the
/// aggregates, smoothed by one damped-Jacobi sweep
/// (`P = (I − ω·D⁻¹·A)·P_tent`), which spreads each aggregate's basis
/// function over its neighbours and is what makes aggregation MG
/// converge at grid-independent rates.
fn interpolation(a: &CsrMatrix, inv_diag: &[f64], agg: &[u32], n_coarse: usize) -> RectCsr {
    let n = a.dim();
    let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for i in 0..n {
        acc.clear();
        for (k, v) in a.row(i) {
            *acc.entry(agg[k]).or_insert(0.0) -= INTERPOLATION_DAMPING * inv_diag[i] * v;
        }
        *acc.entry(agg[i]).or_insert(0.0) += 1.0;
        rows.push(acc.iter().map(|(&c, &v)| (c, v)).collect());
    }
    RectCsr::from_rows(n_coarse, rows)
}

/// Galerkin coarse operator `Aᶜ = R·A·P`, built per coarse row with a
/// sorted-map accumulator (fully sequential and deterministic; setup
/// runs once per model).
fn galerkin(a: &CsrMatrix, p: &RectCsr, r: &RectCsr) -> CsrMatrix {
    // ap = A·P as a rectangular CSR, merged per row.
    let mut ap_rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(a.dim());
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for i in 0..a.dim() {
        acc.clear();
        for (k, aik) in a.row(i) {
            for (j, pkj) in p.row(k) {
                *acc.entry(j as u32).or_insert(0.0) += aik * pkj;
            }
        }
        ap_rows.push(acc.iter().map(|(&c, &v)| (c, v)).collect());
    }
    let ap = RectCsr::from_rows(p.cols, ap_rows);
    // Aᶜ[I] = Σ_i R[I,i]·AP[i,:].
    let mut t = crate::sparse::TripletMatrix::new(p.cols);
    for bi in 0..r.rows {
        acc.clear();
        for (i, rv) in r.row(bi) {
            for (j, apv) in ap.row(i) {
                *acc.entry(j as u32).or_insert(0.0) += rv * apv;
            }
        }
        for (&j, &v) in &acc {
            t.add(bi, j as usize, v);
        }
    }
    t.to_csr()
}

/// Dense Cholesky `A = L·Lᵀ` of the coarsest operator; `None` when a
/// pivot is non-positive (operator not SPD — no hierarchy).
fn dense_cholesky(a: &CsrMatrix) -> Option<Vec<f64>> {
    let n = a.dim();
    let mut m = vec![0.0; n * n];
    for i in 0..n {
        for (j, v) in a.row(i) {
            m[i * n + j] = v;
        }
    }
    let mut l = vec![0.0; n * n];
    for j in 0..n {
        let mut d = m[j * n + j];
        for k in 0..j {
            d -= l[j * n + k] * l[j * n + k];
        }
        if !(d.is_finite() && d > 0.0) {
            return None;
        }
        let dj = d.sqrt();
        l[j * n + j] = dj;
        for i in j + 1..n {
            let mut v = m[i * n + j];
            for k in 0..j {
                v -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = v / dj;
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// An anisotropic 3-D 7-point Laplacian with grounded boundary:
    /// vertical couplings `aniso`× stronger than lateral, like the
    /// stack.
    fn grid3d(nx: usize, ny: usize, nz: usize, aniso: f64) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |x: usize, y: usize, z: usize| z * nx * ny + y * nx + x;
        let mut t = TripletMatrix::new(n);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = idx(x, y, z);
                    if x + 1 < nx {
                        t.add_conductance(i, idx(x + 1, y, z), 1.0);
                    }
                    if y + 1 < ny {
                        t.add_conductance(i, idx(x, y + 1, z), 1.0);
                    }
                    if z + 1 < nz {
                        t.add_conductance(i, idx(x, y, z + 1), aniso);
                    }
                    if z == 0 {
                        t.add_grounded(i, 0.5);
                    }
                }
            }
        }
        t.to_csr()
    }

    fn apply_precond(h: &MgHierarchy, v: &[f64]) -> Vec<f64> {
        let mut s = MgScratch::default();
        let mut z = vec![0.0; v.len()];
        h.apply(v, &mut z, &mut s);
        z
    }

    #[test]
    fn hierarchy_coarsens_geometrically() {
        let a = grid3d(12, 12, 8, 100.0);
        let h = MgHierarchy::build(&a).expect("must build");
        assert!(h.n_levels() >= 2, "{} levels", h.n_levels());
        for l in 1..h.n_levels() {
            assert!(
                h.level_dim(l) * 2 < h.level_dim(l - 1),
                "level {l} barely coarsens: {} -> {}",
                h.level_dim(l - 1),
                h.level_dim(l)
            );
        }
        let coarsest = h.level_dim(h.n_levels() - 1);
        assert!(coarsest <= COARSE_DIRECT_LIMIT);
    }

    #[test]
    fn vcycle_is_symmetric() {
        // xᵀ·M⁻¹·y == yᵀ·M⁻¹·x for the V(2,2) cycle with equal
        // pre/post symmetric Gauss-Seidel sweeps.
        let a = grid3d(10, 9, 6, 50.0);
        let h = MgHierarchy::build(&a).expect("must build");
        let n = a.dim();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 40503 + 7) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mx = apply_precond(&h, &x);
        let my = apply_precond(&h, &y);
        let xmy: f64 = x.iter().zip(&my).map(|(a, b)| a * b).sum();
        let ymx: f64 = y.iter().zip(&mx).map(|(a, b)| a * b).sum();
        let scale = xmy.abs().max(ymx.abs()).max(1e-30);
        assert!(
            ((xmy - ymx) / scale).abs() < 1e-12,
            "asymmetry: xᵀMy={xmy} yᵀMx={ymx}"
        );
    }

    #[test]
    fn vcycle_reduces_error_fast() {
        // The preconditioned Richardson iteration x ← x + M(b − Ax)
        // must contract quickly; this is the property that buys CG its
        // iteration count.
        let a = grid3d(12, 12, 8, 100.0);
        let h = MgHierarchy::build(&a).expect("must build");
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let mut x = vec![0.0; n];
        let mut s = MgScratch::default();
        let mut res = b.clone();
        let norm0: f64 = res.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut z = vec![0.0; n];
        for _ in 0..10 {
            h.apply(&res, &mut z, &mut s);
            for i in 0..n {
                x[i] += z[i];
            }
            let mut ax = vec![0.0; n];
            a.mul_vec(&x, &mut ax);
            for i in 0..n {
                res[i] = b[i] - ax[i];
            }
        }
        let norm: f64 = res.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            norm < 1e-6 * norm0,
            "V-cycle iteration barely converges: {norm:e} vs {norm0:e}"
        );
    }

    #[test]
    fn indefinite_matrix_yields_no_hierarchy() {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 1.0);
        t.add(1, 1, -1.0);
        t.add(2, 2, 1.0);
        let a = t.to_csr();
        assert!(MgHierarchy::build(&a).is_none());
    }

    #[test]
    fn tiny_matrix_is_a_single_direct_level() {
        let a = grid3d(3, 3, 2, 10.0);
        let h = MgHierarchy::build(&a).expect("must build");
        assert_eq!(h.n_levels(), 1);
        // One apply then solves exactly.
        let b: Vec<f64> = (0..a.dim()).map(|i| i as f64 + 1.0).collect();
        let z = apply_precond(&h, &b);
        let mut az = vec![0.0; a.dim()];
        a.mul_vec(&z, &mut az);
        for (azi, bi) in az.iter().zip(&b) {
            assert!((azi - bi).abs() < 1e-9 * bi.abs().max(1.0));
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let rows = vec![
            vec![(0u32, 1.0), (2, -2.0)],
            vec![(1u32, 3.0)],
            vec![(0u32, 4.0), (1, 5.0), (2, 6.0)],
            vec![],
        ];
        let m = RectCsr::from_rows(3, rows);
        let mt = m.transpose();
        assert_eq!(mt.rows, 3);
        assert_eq!(mt.cols, 4);
        let back = mt.transpose();
        assert_eq!(back.row_ptr, m.row_ptr);
        assert_eq!(back.col_idx, m.col_idx);
        assert_eq!(back.values, m.values);
    }
}

#[cfg(test)]
mod diag {
    //! Ignored-by-default diagnostics: measure the V-cycle contraction
    //! factor and the true MG-PCG iteration count on a real immersion
    //! stack. Run with
    //! `cargo test -p immersion-thermal mg::diag -- --ignored --nocapture`
    //! (knobs: CHIPS, GRID env vars).
    use super::*;

    #[test]
    #[ignore]
    fn fixture_contraction() {
        use crate::floorplan::{Floorplan, Rect};
        use crate::stack3d::{CoolingParams, StackBuilder};
        let mut fp = Floorplan::new(0.01, 0.01);
        fp.add_block("DIE", Rect::new(0.0, 0.0, 0.01, 0.01))
            .unwrap();
        let chips: usize = std::env::var("CHIPS")
            .map(|v| v.parse().unwrap())
            .unwrap_or(8);
        let grid: usize = std::env::var("GRID")
            .map(|v| v.parse().unwrap())
            .unwrap_or(8);
        let model = StackBuilder::new(fp)
            .chips(chips)
            .grid(grid, grid)
            .cooling(CoolingParams::water_immersion())
            .build()
            .unwrap();
        let a = model.matrix();
        let h = match MgHierarchy::build(a) {
            Some(h) => h,
            None => {
                println!("NO HIERARCHY n={}", a.dim());
                return;
            }
        };
        let dims: Vec<usize> = (0..h.n_levels()).map(|l| h.level_dim(l)).collect();
        let n = a.dim();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut s = MgScratch::default();
        let mut z = vec![0.0; n];
        // Richardson contraction factor (asymptotic).
        let mut x = vec![0.0; n];
        let mut res = b.clone();
        let norm0: f64 = res.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut last = norm0;
        let mut rho = 0.0;
        for _ in 0..20 {
            h.apply(&res, &mut z, &mut s);
            for i in 0..n {
                x[i] += z[i];
            }
            let mut ax = vec![0.0; n];
            a.mul_vec(&x, &mut ax);
            for i in 0..n {
                res[i] = b[i] - ax[i];
            }
            let nr: f64 = res.iter().map(|v| v * v).sum::<f64>().sqrt();
            rho = nr / last;
            last = nr;
        }
        // True PCG iteration count to 1e-9 relative.
        let dot = |u: &[f64], v: &[f64]| -> f64 { u.iter().zip(v).map(|(a, b)| a * b).sum() };
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let bnorm = dot(&b, &b).sqrt();
        h.apply(&r, &mut z, &mut s);
        let mut pvec = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![0.0; n];
        let mut iters = 0;
        for it in 1..=200 {
            a.mul_vec(&pvec, &mut ap);
            let alpha = rz / dot(&pvec, &ap);
            for i in 0..n {
                x[i] += alpha * pvec[i];
                r[i] -= alpha * ap[i];
            }
            iters = it;
            if dot(&r, &r).sqrt() <= 1e-9 * bnorm {
                break;
            }
            h.apply(&r, &mut z, &mut s);
            let rz2 = dot(&r, &z);
            let beta = rz2 / rz;
            rz = rz2;
            for i in 0..n {
                pvec[i] = z[i] + beta * pvec[i];
            }
        }
        println!(
            "chips={chips} grid={grid} sweeps={SMOOTHING_SWEEPS} dims={dims:?} rho={rho:.3} pcg_iters={iters}"
        );
    }
}
