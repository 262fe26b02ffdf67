//! `cold-design`: closed loop, one caller. Every operation builds a
//! fresh design's thermal model and solves it once, cold, at the chip's
//! top VFS step.

use crate::ops::{self, records};
use crate::trace::Tracer;
use crate::{emit, emit_spans, jstr, ms, num, Settings};
use immersion_core::design::CmpDesign;
use immersion_power::mcpat::analyze;
use immersion_power::vfs::VfsStep;
use immersion_thermal::grid::{PowerAssignment, ThermalModel};
use immersion_thermal::PrecondChoice;
use std::time::Instant;

/// Full-activity power of every die at `step`: `explorer::power_at`
/// without leakage feedback, with the `mcpat::analyze` call in its own
/// span.
pub fn power_map(
    tr: &mut Tracer,
    d: &CmpDesign,
    m: &ThermalModel,
    step: VfsStep,
) -> Result<PowerAssignment, String> {
    let report = tr.span("power.analyze", || analyze(&d.chip, step, None));
    let mut p = m.zero_power();
    for die in 0..d.chips {
        for (block, &watts) in &report.per_block {
            p.set(die, block, watts).map_err(|e| e.to_string())?;
        }
    }
    Ok(p)
}

/// One built and cold-solved design.
struct Solved {
    model: ThermalModel,
    power: PowerAssignment,
    peak_c: f64,
    iters: usize,
}

/// Build and cold-solve one design.
fn design_op(tr: &mut Tracer, d: &CmpDesign) -> Result<Solved, String> {
    let model = tr
        .span("thermal.build", || d.thermal_model())
        .map_err(|e| format!("build: {e}"))?;
    let power = power_map(tr, d, &model, d.chip.vfs.max_step())?;
    let sol = tr
        .span("thermal.solve_cold", || model.solve_steady_cold(&power))
        .map_err(|e| format!("solve: {e}"))?;
    let (peak_c, iters) = (sol.die_max(), sol.iterations());
    Ok(Solved {
        model,
        power,
        peak_c,
        iters,
    })
}

/// Cold solve time on a pool of `width` threads, ms.
fn cold_solve_on(width: usize, model: &ThermalModel, p: &PowerAssignment) -> Result<f64, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| {
        let t = Instant::now();
        model.solve_steady_cold(p).map_err(|e| e.to_string())?;
        Ok(ms(t, Instant::now()))
    })
}

pub fn run(s: &Settings, text: &str, pass: usize, traced: bool) -> Result<(), String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch);
    let mut setup = Vec::new();
    for r in records(text, "setup", 5) {
        let d = ops::design(r[0], r[1], r[2], r[3], r[4])?;
        let t = Instant::now();
        design_op(&mut Tracer::off(), &d)?;
        setup.push(ms(t, Instant::now()) / 1e3);
    }
    emit(format!(
        r#"{{"ev":"setup","pass":{pass},"s":[{}]}}"#,
        setup.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    ));

    let start = Instant::now();
    let end = crate::deadline(start, s.seconds);
    let mut block = None;
    for r in records(text, "op", 7) {
        let b: u64 = ops::parse(r[1])?;
        if block != Some(b) && Instant::now() >= end {
            break;
        }
        block = Some(b);
        let id: u64 = ops::parse(r[0])?;
        let d = ops::design(r[2], r[3], r[4], r[5], r[6])?;
        let t0 = Instant::now();
        tr.begin_op(id, "op", t0);
        let out = design_op(&mut tr, &d);
        let t1 = Instant::now();
        tr.close_at(t1);
        let fields = match &out {
            Ok(s) => format!(
                r#""ok":true,"peak_c":{},"nodes":{},"levels":{},"iters":{}"#,
                num(s.peak_c),
                s.model.n_nodes(),
                s.model.multigrid().map_or(0, |h| h.n_levels()),
                s.iters
            ),
            Err(e) => format!(r#""ok":false,"error":{}"#, jstr(e)),
        };
        emit(format!(
            r#"{{"ev":"op","pass":{pass},"id":{id},"block":{b},"start_ms":{},"ms":{},{fields}}}"#,
            num(ms(start, t0)),
            num(ms(t0, t1))
        ));
        if let (true, Ok(s)) = (traced, &out) {
            // Pool-width scaling of the cold solve, outside the op span.
            let w1 = cold_solve_on(1, &s.model, &s.power)?;
            let w2 = cold_solve_on(2, &s.model, &s.power)?;
            emit(format!(
                r#"{{"ev":"par","pass":{pass},"id":{id},"w1_ms":{},"w2_ms":{}}}"#,
                num(w1),
                num(w2)
            ));
        }
    }
    emit_spans(pass, &tr.into_spans());
    Ok(())
}

/// Reference peaks from an independent solver path: the Jacobi
/// preconditioner instead of the default multigrid.
pub fn refs(text: &str) -> Result<(), String> {
    for r in records(text, "ref", 5) {
        let d =
            ops::design(r[0], r[1], r[2], r[3], r[4])?.with_preconditioner(PrecondChoice::Jacobi);
        let s = design_op(&mut Tracer::off(), &d)?;
        emit(format!(
            r#"{{"ev":"ref","key":{},"peak_c":{}}}"#,
            jstr(&r.join(" ")),
            num(s.peak_c)
        ));
    }
    Ok(())
}
