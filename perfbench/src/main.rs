//! Benchmark executor. `run.py` generates a workload's inputs from the
//! seed, writes them to an operations file, and runs this program on
//! it in a child process:
//!
//! ```text
//! perfbench <cold-design|warm-search|serve-mixed|paper-sweep> \
//!     --ops FILE --seconds S --trace 0|1 --state DIR
//! perfbench refs <cold-design|warm-search|paper-sweep> --ops FILE
//! ```
//!
//! It reports one JSON object per line on stdout (`"ev"` names the
//! kind); `run.py` checks the answers and computes every metric. With
//! `--trace 1` the workload runs twice on the same inputs, untraced
//! (`"pass": 0`) and then traced (`"pass": 1`), so the tracing overhead
//! is measured on identical operations.

mod cold;
mod loadgen;
mod ops;
mod serve;
mod sweep;
mod trace;
mod warm;

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line settings shared by every workload.
pub struct Settings {
    pub ops: PathBuf,
    pub seconds: f64,
    pub trace: bool,
    pub state: PathBuf,
}

/// A JSON number; non-finite values become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::Str(s.to_string()))
        .expect("a string always serializes")
}

/// Print one event line and flush it, so a crash loses nothing that
/// was already reported.
pub fn emit(line: String) {
    let mut out = std::io::stdout().lock();
    // A closed stdout means run.py is gone; nothing is left to report to.
    if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
        std::process::exit(3);
    }
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Emit the spans of a traced pass.
pub fn emit_spans(pass: usize, spans: &[trace::Span]) {
    for s in spans {
        emit(format!(
            r#"{{"ev":"span","pass":{pass},"op":{},"idx":{},"parent":{},"name":{},"start_us":{},"end_us":{}}}"#,
            s.op,
            s.idx,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            jstr(s.name),
            num(s.start_us),
            num(s.end_us),
        ));
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end of a measured loop that started at `start`.
pub fn deadline(start: Instant, seconds: f64) -> Instant {
    start + Duration::from_secs_f64(seconds)
}

fn parse_settings(args: &[String]) -> Result<Settings, String> {
    let mut ops = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut state = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--ops" => ops = Some(PathBuf::from(value)),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            "--state" => state = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Settings {
        ops: ops.ok_or("--ops is required")?,
        seconds,
        trace,
        state,
    })
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: perfbench <workload> --ops FILE ...")?;
    if cmd == "refs" {
        let (kind, rest) = rest
            .split_first()
            .ok_or("usage: perfbench refs <workload> --ops FILE")?;
        let s = parse_settings(rest)?;
        let text = ops::read(&s.ops)?;
        // References run on one thread: no fork-join region at all, so
        // they stay clear of the thread pool the workloads measure.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| e.to_string())?;
        return pool.install(|| match kind.as_str() {
            "cold-design" => cold::refs(&text),
            "warm-search" => warm::refs(&text),
            "paper-sweep" => sweep::refs(&text),
            other => Err(format!("no references for {other}")),
        });
    }
    let s = parse_settings(rest)?;
    let text = ops::read(&s.ops)?;
    let passes: &[bool] = if s.trace { &[false, true] } else { &[false] };
    for (pass, &traced) in passes.iter().enumerate() {
        match cmd.as_str() {
            "cold-design" => cold::run(&s, &text, pass, traced)?,
            "warm-search" => warm::run(&s, &text, pass, traced)?,
            "serve-mixed" => serve::run(&s, &text, pass, traced)?,
            "paper-sweep" => sweep::run(&s, &text, pass, traced)?,
            other => return Err(format!("unknown workload {other}")),
        }
        // The high-water mark so far: pass 0's is the workload's own.
        emit(format!(
            r#"{{"ev":"rss","pass":{pass},"peak_rss_mb":{}}}"#,
            num(peak_rss_mb())
        ));
    }
    if cmd == "serve-mixed" {
        serve::check(&text)?;
    }
    emit(format!(
        r#"{{"ev":"end","threads":{}}}"#,
        rayon::current_num_threads()
    ));
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
