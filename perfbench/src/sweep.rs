//! `paper-sweep`: the Figure 7/8 computation. Each operation is one
//! `frequency_vs_chips` series, which fans the stack heights out over
//! the thread pool.

use crate::ops::{self, records};
use crate::trace::Tracer;
use crate::{emit, emit_spans, ms, num, Settings};
use immersion_core::design::CmpDesign;
use immersion_core::explorer::{frequency_vs_chips, max_frequency_searched};
use immersion_thermal::PrecondChoice;
use std::time::Instant;

fn base(r: &[&str]) -> Result<CmpDesign, String> {
    ops::design(r[0], "1", r[1], r[2], "0")
}

fn steps_json(steps: impl Iterator<Item = Option<f64>>) -> String {
    let items: Vec<String> = steps.map(|s| s.map_or("null".to_string(), num)).collect();
    format!("[{}]", items.join(","))
}

pub fn run(s: &Settings, text: &str, pass: usize, traced: bool) -> Result<(), String> {
    emit(format!(r#"{{"ev":"setup","pass":{pass},"s":[]}}"#));
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch);
    let start = Instant::now();
    let end = crate::deadline(start, s.seconds);
    let mut block = None;
    for r in records(text, "op", 6) {
        let b: u64 = ops::parse(r[1])?;
        if block != Some(b) && Instant::now() >= end {
            break;
        }
        block = Some(b);
        let id: u64 = ops::parse(r[0])?;
        let d = base(&r[2..])?;
        let max_chips: usize = ops::parse(r[5])?;
        let t0 = Instant::now();
        tr.begin_op(id, "op", t0);
        let series = tr.span("explorer.series", || frequency_vs_chips(&d, max_chips));
        let t1 = Instant::now();
        tr.close_at(t1);
        emit(format!(
            r#"{{"ev":"op","pass":{pass},"id":{id},"block":{b},"start_ms":{},"ms":{},"ok":true,"steps":{}}}"#,
            num(ms(start, t0)),
            num(ms(t0, t1)),
            steps_json(series.iter().map(|(_, s)| s.map(|x| x.freq_ghz)))
        ));
    }
    emit_spans(pass, &tr.into_spans());
    Ok(())
}

/// Reference series computed one stack height at a time on the calling
/// thread's pool (no nested fork-join), Jacobi-preconditioned, without
/// warm starts.
pub fn refs(text: &str) -> Result<(), String> {
    for r in records(text, "ref", 4) {
        let max_chips: usize = ops::parse(r[3])?;
        let mut steps = Vec::new();
        for n in 1..=max_chips {
            let mut d = base(&r)?.with_preconditioner(PrecondChoice::Jacobi);
            d.chips = n;
            let m = d.thermal_model().map_err(|e| format!("build: {e}"))?;
            steps.push(max_frequency_searched(&d, &m, false).0.map(|s| s.freq_ghz));
        }
        emit(format!(
            r#"{{"ev":"ref","key":{},"steps":{}}}"#,
            crate::jstr(&r.join(" ")),
            steps_json(steps.into_iter())
        ));
    }
    Ok(())
}
