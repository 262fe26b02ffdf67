//! `warm-search`: closed loop, one caller. Set-up builds the models and
//! primes each with one cold solve; each operation is a max-frequency
//! search on one of them, followed by the power report and one warm
//! solve at the step it found.

use crate::cold::power_map;
use crate::ops::{self, records};
use crate::trace::Tracer;
use crate::{emit, emit_spans, jstr, ms, num, Settings};
use immersion_core::design::CmpDesign;
use immersion_core::explorer::max_frequency_searched;
use immersion_faultsim::{FaultKind, FaultPlan, FaultRule, Trigger};
use immersion_thermal::grid::ThermalModel;
use immersion_thermal::PrecondChoice;
use std::time::Instant;

/// A design with the query's leakage flag and threshold override.
fn query(base: &CmpDesign, leak: &str, threshold: &str) -> Result<CmpDesign, String> {
    let mut d = base.clone().with_leakage_feedback(leak == "1");
    if let Some(t) = ops::opt_f64(threshold)? {
        d = d.with_threshold(t);
    }
    Ok(d)
}

struct Answer {
    freq_ghz: Option<f64>,
    probes: usize,
    solves: usize,
    /// Steady solves the search entered, whether they returned Ok or
    /// not; counted only in a traced pass.
    solve_entries: Option<usize>,
    counted_iters: usize,
    warm_iters: usize,
    peak_c: f64,
}

/// Count every steady-solve entry: faultsim's hook at the entry of each
/// `ThermalModel::solve_steady*` records a hit for this rule and injects
/// nothing, since an I/O error is no fault a solver can act on. Only the
/// executor's own thread is inside the model while it is armed.
fn solve_counter() -> FaultPlan {
    FaultPlan::new(0).with_rule(FaultRule::new(
        immersion_faultsim::site::THERMAL_CG,
        FaultKind::IoError,
        Trigger::Always,
    ))
}

fn search_op(tr: &mut Tracer, d: &CmpDesign, m: &ThermalModel) -> Result<Answer, String> {
    let counter = tr
        .on()
        .then(|| immersion_faultsim::install(solve_counter()));
    let (best, stats) = tr.span("explorer.search", || max_frequency_searched(d, m, true));
    let solve_entries = counter.map(|armed| armed.hit_count());
    let mut a = Answer {
        freq_ghz: best.map(|s| s.freq_ghz),
        probes: stats.probes,
        solves: stats.solves,
        solve_entries,
        counted_iters: stats.cg_iterations,
        warm_iters: 0,
        peak_c: f64::NAN,
    };
    if let Some(step) = best {
        let p = power_map(tr, d, m, step)?;
        let sol = tr
            .span("thermal.solve_warm", || m.solve_steady(&p))
            .map_err(|e| format!("warm solve: {e}"))?;
        a.warm_iters = sol.iterations();
        a.peak_c = sol.die_max();
    }
    Ok(a)
}

/// Set-up measurements of one model: build time, node count, multigrid
/// levels, and the cold priming solve at the chip's top step.
struct Built {
    build_ms: f64,
    cold_ms: f64,
    cold_iters: usize,
}

/// Build every model and prime it with one cold solve at the top step,
/// which also leaves the converged field cached for the first search.
fn build_models(text: &str) -> Result<Vec<(CmpDesign, ThermalModel, Built)>, String> {
    records(text, "model", 6)
        .iter()
        .map(|r| {
            let d = ops::design(r[1], r[2], r[3], r[4], r[5])?;
            let t0 = Instant::now();
            let m = d.thermal_model().map_err(|e| format!("build: {e}"))?;
            let t1 = Instant::now();
            let p = power_map(&mut Tracer::off(), &d, &m, d.chip.vfs.max_step())?;
            let sol = m
                .solve_steady_cold(&p)
                .map_err(|e| format!("cold solve: {e}"))?;
            let t2 = Instant::now();
            let built = Built {
                build_ms: ms(t0, t1),
                cold_ms: ms(t1, t2),
                cold_iters: sol.iterations(),
            };
            Ok((d, m, built))
        })
        .collect()
}

pub fn run(s: &Settings, text: &str, pass: usize, traced: bool) -> Result<(), String> {
    let repeats: usize = records(text, "repeat", 1)
        .first()
        .map_or(Ok(1), |r| ops::parse(r[0]))?;
    let mut setup = Vec::new();
    let mut models = Vec::new();
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        models = build_models(text)?;
        setup.push(ms(t, Instant::now()) / 1e3);
    }
    emit(format!(
        r#"{{"ev":"setup","pass":{pass},"s":[{}]}}"#,
        setup.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    ));
    for (i, (_, m, b)) in models.iter().enumerate() {
        emit(format!(
            r#"{{"ev":"model","pass":{pass},"id":{i},"build_ms":{},"nodes":{},"levels":{},"cold_ms":{},"cold_iters":{}}}"#,
            num(b.build_ms),
            m.n_nodes(),
            m.multigrid().map_or(0, |h| h.n_levels()),
            num(b.cold_ms),
            b.cold_iters
        ));
    }

    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch);
    let start = Instant::now();
    let end = crate::deadline(start, s.seconds);
    let mut block = None;
    for r in records(text, "op", 5) {
        let b: u64 = ops::parse(r[1])?;
        if block != Some(b) && Instant::now() >= end {
            break;
        }
        block = Some(b);
        let id: u64 = ops::parse(r[0])?;
        let idx: usize = ops::parse(r[2])?;
        let (base, model, _) = models.get(idx).ok_or("model index out of range")?;
        let d = query(base, r[3], r[4])?;
        let t0 = Instant::now();
        tr.begin_op(id, "op", t0);
        let out = search_op(&mut tr, &d, model);
        let t1 = Instant::now();
        tr.close_at(t1);
        let fields = match out {
            Ok(a) => format!(
                r#""ok":true,"freq_ghz":{},"probes":{},"solves":{}{},"counted_iters":{},"warm_iters":{},"peak_c":{}"#,
                a.freq_ghz.map_or("null".to_string(), num),
                a.probes,
                a.solves,
                a.solve_entries
                    .map_or(String::new(), |n| format!(r#","solve_entries":{n}"#)),
                a.counted_iters,
                a.warm_iters,
                num(a.peak_c)
            ),
            Err(e) => format!(r#""ok":false,"error":{}"#, jstr(&e)),
        };
        emit(format!(
            r#"{{"ev":"op","pass":{pass},"id":{id},"block":{b},"start_ms":{},"ms":{},{fields}}}"#,
            num(ms(start, t0)),
            num(ms(t0, t1))
        ));
    }
    emit_spans(pass, &tr.into_spans());
    Ok(())
}

/// Reference answers from an independent path: a fresh Jacobi-
/// preconditioned model per query and a search with no warm starts.
pub fn refs(text: &str) -> Result<(), String> {
    for r in records(text, "ref", 7) {
        let base =
            ops::design(r[0], r[1], r[2], r[3], r[4])?.with_preconditioner(PrecondChoice::Jacobi);
        let d = query(&base, r[5], r[6])?;
        let m = d.thermal_model().map_err(|e| format!("build: {e}"))?;
        let (best, _) = max_frequency_searched(&d, &m, false);
        emit(format!(
            r#"{{"ev":"ref","key":{},"freq_ghz":{}}}"#,
            jstr(&r.join(" ")),
            best.map_or("null".to_string(), |s| num(s.freq_ghz))
        ));
    }
    Ok(())
}
