//! `serve-mixed`: open-loop HTTP over loopback against an in-process
//! `immersion_serve::start`, at several fixed offered rates.

use crate::loadgen::{self, Planned};
use crate::ops::{self, records};
use crate::{emit, emit_spans, jstr, ms, num, Settings};
use immersion_core::explorer;
use immersion_serve::api::DesignSpec;
use immersion_serve::{start, Running, ServeConfig};
use immersion_thermal::grid::ThermalModel;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Server worker threads and client connections (the machine's cores).
const THREADS: usize = 2;

fn start_server(dir: &Path) -> Result<Running, String> {
    // A leftover directory from an earlier run would turn misses into hits.
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clean {}: {e}", dir.display()))?;
    }
    start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: THREADS,
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))
}

/// `GET /metrics` as a JSON object of its numeric lines.
fn scrape(addr: &str) -> Result<String, String> {
    let resp = minihttp::Client::new(addr)
        .send("GET", "/metrics", b"")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let fields: Vec<String> = resp
        .text()
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            let v: f64 = value.trim().parse().ok()?;
            Some(format!("{}:{}", jstr(name), num(v)))
        })
        .collect();
    Ok(format!("{{{}}}", fields.join(",")))
}

/// Start a server and send every warm-up body once, in order. Returns
/// the server and the time it took, seconds.
fn set_up(dir: &Path, warm: &[(&str, &str)]) -> Result<(Running, f64), String> {
    let t = Instant::now();
    let running = start_server(dir)?;
    let mut client = minihttp::Client::new(running.addr().to_string());
    for (path, body) in warm {
        let r = client
            .send("POST", path, body.as_bytes())
            .map_err(|e| format!("warm-up {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!(
                "warm-up {path} returned {}: {}",
                r.status,
                r.text()
            ));
        }
    }
    Ok((running, ms(t, Instant::now()) / 1e3))
}

pub fn run(s: &Settings, text: &str, pass: usize, traced: bool) -> Result<(), String> {
    let repeats: usize = records(text, "repeat", 1)
        .first()
        .map_or(Ok(1), |r| ops::parse(r[0]))?;
    let warm: Vec<(&str, &str)> = records(text, "warm", 2)
        .iter()
        .map(|r| (r[0], r[1]))
        .collect();
    let dir = s.state.join(format!("serve-pass{pass}"));
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..repeats.max(1) {
        if let Some(old) = server.take() {
            Running::shutdown(old);
        }
        let (running, secs) = set_up(&dir, &warm)?;
        setup.push(secs);
        server = Some(running);
    }
    let server = server.ok_or("no server")?;
    emit(format!(
        r#"{{"ev":"setup","pass":{pass},"s":[{}]}}"#,
        setup.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    ));
    let addr = server.addr().to_string();

    let reqs = records(text, "req", 5);
    for ph in records(text, "phase", 4) {
        let id: usize = ops::parse(ph[0])?;
        let plan: Vec<Planned> = reqs
            .iter()
            .filter(|r| r[1] == ph[0])
            .map(|r| {
                Ok(Planned {
                    id: ops::parse(r[0])?,
                    due_us: ops::parse(r[2])?,
                    path: r[3].to_string(),
                    body: r[4].to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        let before = scrape(&addr)?;
        let (sent, spans) = loadgen::run(&addr, &plan, THREADS, traced);
        let after = scrape(&addr)?;
        for (p, r) in plan.iter().zip(&sent) {
            emit(format!(
                r#"{{"ev":"op","pass":{pass},"id":{},"phase":{id},"path":{},"body":{},"due_ms":{},"lag_ms":{},"ms":{},"status":{},"response":{}}}"#,
                r.id,
                jstr(&p.path),
                jstr(&p.body),
                num(r.due_ms),
                num(r.lag_ms),
                num(r.latency_ms),
                r.status,
                jstr(&r.body)
            ));
        }
        emit(format!(
            r#"{{"ev":"phase","pass":{pass},"phase":{id},"rate_idx":{},"rate":{},"before":{before},"after":{after}}}"#,
            ph[1], ph[2],
        ));
        emit_spans(pass, &spans);
    }
    server.shutdown();
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("perfbench: could not remove {}: {e}", dir.display());
    }
    Ok(())
}

/// Answer check, after every pass so that it adds nothing to the peak
/// memory measured: every distinct request body through a direct
/// library call on fresh models.
pub fn check(text: &str) -> Result<(), String> {
    let bodies: BTreeSet<(&str, &str)> = records(text, "req", 5)
        .iter()
        .map(|r| (r[3], r[4]))
        .collect();
    let mut models: BTreeMap<String, ThermalModel> = BTreeMap::new();
    for (path, body) in bodies {
        let result = direct(&mut models, path, body)?;
        emit(format!(
            r#"{{"ev":"direct","path":{},"body":{},"result":{result}}}"#,
            jstr(path),
            jstr(body)
        ));
    }
    Ok(())
}

/// The result a direct library call gives for one request body, in the
/// response's own JSON shape.
fn direct(
    models: &mut BTreeMap<String, ThermalModel>,
    path: &str,
    body: &str,
) -> Result<String, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("body {body}: {e}"))?;
    let spec = DesignSpec::from_value(&v).map_err(|e| e.message)?;
    let design = spec.design().map_err(|e| e.message)?;
    let key = spec.pool_key();
    if !models.contains_key(&key) {
        let m = design.thermal_model().map_err(|e| e.to_string())?;
        models.insert(key.clone(), m);
    }
    let model = &models[&key];
    model.reset_solver_state();
    if path == "/v1/evaluate" {
        let step = match v.get("freq_ghz").and_then(Value::as_f64) {
            Some(f) => design
                .chip
                .vfs
                .step_at_or_below(f)
                .ok_or("freq below VFS table")?,
            None => design.chip.vfs.max_step(),
        };
        let sol = explorer::solve_at(&design, model, step, None).map_err(|e| e.to_string())?;
        let peak = sol.die_max();
        let threshold = design.threshold();
        Ok(format!(
            r#"{{"feasible":{},"peak_c":{},"step":{{"freq_ghz":{},"voltage_v":{}}},"threshold_c":{}}}"#,
            peak <= threshold,
            num(peak),
            num(step.freq_ghz),
            num(step.voltage_v),
            num(threshold)
        ))
    } else {
        let (best, stats) = explorer::max_frequency_searched(&design, model, true);
        Ok(format!(
            r#"{{"feasible":{},"max_freq_ghz":{},"probes":{},"voltage_v":{}}}"#,
            best.is_some(),
            best.map_or("null".to_string(), |s| num(s.freq_ghz)),
            stats.probes,
            best.map_or("null".to_string(), |s| num(s.voltage_v))
        ))
    }
}
