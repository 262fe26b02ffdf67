//! Open-loop HTTP load: every request has a due time fixed in advance,
//! and its latency is timed from that due time, so a stalled server
//! charges its stall to every request queued behind it. Each client
//! thread owns one keep-alive connection and takes the next due request
//! whenever it is free.

use crate::trace::{Span, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    pub id: u64,
    pub due_us: u64,
    pub path: String,
    pub body: String,
}

/// One request as it ran. Times are milliseconds; `lag_ms` is how late
/// the send ran against the due time, `latency_ms` runs from the due
/// time to the end of the response.
#[derive(Debug, Clone)]
pub struct Sent {
    pub id: u64,
    pub due_ms: f64,
    pub lag_ms: f64,
    pub latency_ms: f64,
    /// HTTP status, or 0 when the request failed at the transport.
    pub status: u16,
    pub body: String,
}

/// Run `plan` against `addr` with `clients` connections. Returns the
/// requests in plan order and, when `traced`, their spans.
pub fn run(addr: &str, plan: &[Planned], clients: usize, traced: bool) -> (Vec<Sent>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    // Let every client thread start before the first request is due.
    let start = Instant::now() + Duration::from_millis(5);
    let per_thread: Vec<(Vec<Sent>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut client =
                        minihttp::Client::new(addr).with_timeout(Duration::from_secs(10));
                    let mut tr = Tracer::new(traced, start);
                    let mut sent = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = start + Duration::from_micros(p.due_us);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let t_send = Instant::now();
                        tr.begin_op(p.id, "op", due);
                        tr.open_at("loadgen.wait", due);
                        tr.close_at(t_send);
                        tr.open_at("serve.request", t_send);
                        let resp = client.send("POST", &p.path, p.body.as_bytes());
                        let t_done = Instant::now();
                        tr.close_at(t_done);
                        tr.close_at(t_done);
                        let (status, body) = match resp {
                            Ok(r) => (r.status, r.text()),
                            Err(e) => (0, e.to_string()),
                        };
                        sent.push(Sent {
                            id: p.id,
                            due_ms: p.due_us as f64 / 1e3,
                            lag_ms: crate::ms(due.min(t_send), t_send),
                            latency_ms: crate::ms(due.min(t_done), t_done),
                            status,
                            body,
                        });
                    }
                    (sent, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    });
    let mut sent = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in per_thread {
        sent.extend(s);
        spans.extend(sp);
    }
    sent.sort_by_key(|s| s.id);
    (sent, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A server that answers one request at a time and takes `stall`
    /// over each: slower than the schedule, so a backlog builds.
    fn stalled_server(stall: Duration, requests: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0;
            while served < requests {
                let n = conn.read(&mut chunk).expect("read");
                if n == 0 {
                    break;
                }
                buf.extend_from_slice(&chunk[..n]);
                // Requests carry a fixed two-byte body after the head.
                while let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    if buf.len() < pos + 4 + 2 {
                        break;
                    }
                    buf.drain(..pos + 4 + 2);
                    std::thread::sleep(stall);
                    conn.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}")
                        .expect("write");
                    served += 1;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_from_due_time_grows_behind_a_stalled_server() {
        let n = 12;
        let (addr, server) = stalled_server(Duration::from_millis(20), n);
        let plan: Vec<Planned> = (0..n as u64)
            .map(|i| Planned {
                id: i,
                due_us: i * 5_000,
                path: "/".to_string(),
                body: "{}".to_string(),
            })
            .collect();
        let (sent, _) = run(&addr, &plan, 1, false);
        server.join().expect("fake server");
        assert!(sent.iter().all(|s| s.status == 200));
        // Each request waits for every stall before it: latency from the
        // due time rises by about (20 - 5) ms per request.
        for w in sent.windows(2) {
            assert!(
                w[1].latency_ms > w[0].latency_ms + 5.0,
                "latency did not grow: {:.1} then {:.1} ms",
                w[0].latency_ms,
                w[1].latency_ms
            );
        }
        assert!(sent[n - 1].latency_ms > 150.0);
        // The sends themselves ran late by the same backlog.
        assert!(sent[n - 1].lag_ms > 100.0);
    }

    #[test]
    fn traced_requests_split_into_wait_and_request_spans() {
        let (addr, server) = stalled_server(Duration::from_millis(1), 3);
        let plan: Vec<Planned> = (0..3)
            .map(|i| Planned {
                id: i,
                due_us: i * 1_000,
                path: "/".to_string(),
                body: "{}".to_string(),
            })
            .collect();
        let (_, spans) = run(&addr, &plan, 1, true);
        server.join().expect("fake server");
        assert_eq!(spans.len(), 9);
        let names: Vec<&str> = spans.iter().take(3).map(|s| s.name).collect();
        assert_eq!(names, ["op", "loadgen.wait", "serve.request"]);
        assert_eq!(spans[1].end_us, spans[2].start_us);
        assert_eq!(spans[0].end_us, spans[2].end_us);
    }
}
