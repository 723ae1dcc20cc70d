//! The closed-loop load generator: each client thread sends its next
//! request only after the previous response has been read and checked.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use obs::CollectingSink;

use crate::gen::{Expect, Workload};
use crate::http::{Client, Head};
use crate::trace::{Span, Tracer};
use crate::{alloc, sys};

/// When a phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Keep cycling through the sequence until this instant.
    Deadline(Instant),
    /// Send the whole sequence exactly once, in order (one connection).
    OnePass,
}

/// What one client thread saw.
#[derive(Default)]
pub struct ConnStats {
    /// Every completed exchange: request index, latency in µs, and when
    /// it completed, in seconds since the phase started.
    pub latencies: Vec<(usize, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub spans: Vec<Span>,
    /// Allocations per exchange, client and server together (counted
    /// runs only).
    pub allocs: Vec<u64>,
}

/// A point in a phase: seconds since it started, exchanges completed
/// by then, process CPU time (µs) by then, and the machine's CPU ticks
/// and stolen ticks by then.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: f64,
    pub completed: u64,
    pub cpu_us: f64,
    pub ticks: (u64, u64),
}

/// One window between two marks.
pub struct Window {
    pub req_per_s: f64,
    pub cpu_us_per_req: f64,
    pub latencies_us: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the window.
    pub steal: f64,
}

impl Window {
    /// The `q`-quantile of the window's latencies, in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut v = self.latencies_us.clone();
        v.sort_by(f64::total_cmp);
        crate::stats::quantile(&v, q)
    }
}

/// A finished phase: per-connection stats, the wall time it took, and
/// (for timed phases) marks at equal windows.
pub struct Phase {
    pub conns: Vec<ConnStats>,
    pub elapsed: Duration,
    pub marks: Vec<Mark>,
}

impl Phase {
    pub fn completed(&self) -> usize {
        self.conns.iter().map(|c| c.latencies.len()).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    pub fn latencies_us(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| c.latencies.iter().map(|&(_, us, _)| us))
            .collect()
    }

    /// The phase cut at its marks.
    pub fn windows(&self) -> Vec<Window> {
        self.marks
            .windows(2)
            .map(|m| {
                let (a, b) = (m[0], m[1]);
                let done = (b.completed - a.completed).max(1) as f64;
                let ticks = (b.ticks.0 - a.ticks.0).max(1) as f64;
                Window {
                    steal: (b.ticks.1 - a.ticks.1) as f64 / ticks,
                    req_per_s: done / (b.at - a.at),
                    cpu_us_per_req: (b.cpu_us - a.cpu_us) / done,
                    latencies_us: self
                        .conns
                        .iter()
                        .flat_map(|c| c.latencies.iter())
                        .filter(|&&(_, _, end)| a.at <= end && end < b.at)
                        .map(|&(_, us, _)| us)
                        .collect(),
                }
            })
            .collect()
    }

    pub fn req_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64()
    }

    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.conns.iter().flat_map(|c| c.failures.iter())
    }
}

const KEEP_FAILURES: usize = 8;

/// Runs `conns` client threads over `w`'s sequence. With a `tracer`,
/// each exchange is recorded as an `http.request` span on its clock.
/// Until a deadline, `sink` is emptied every [`SWEEP`].
pub fn run(
    addr: SocketAddr,
    w: &Workload,
    conns: usize,
    until: Until,
    tracer: Option<&Tracer>,
    sink: Option<&CollectingSink>,
) -> Phase {
    run_inner(addr, w, conns, until, tracer, sink, 1)
}

/// [`run`] until `deadline`, marked at `windows` equal windows.
pub fn run_windows(
    addr: SocketAddr,
    w: &Workload,
    conns: usize,
    deadline: Instant,
    windows: usize,
    sink: &CollectingSink,
) -> Phase {
    run_inner(
        addr,
        w,
        conns,
        Until::Deadline(deadline),
        None,
        Some(sink),
        windows,
    )
}

/// How often a timed phase empties the server's span sink. The sink
/// keeps every span it is given; left to grow, it made `session-patch`
/// slow from 15.8k to 10.4k req/s over 20 seconds, so each figure would
/// depend on how long the run was and which windows it kept. Emptied,
/// the sink still receives (and the server still pays for) every span.
pub const SWEEP: Duration = Duration::from_millis(20);

/// How long the allocation count must stay still to call a request done:
/// after each counted exchange the client waits for that, so work the
/// server does after writing a response is charged to that request.
const SETTLE: Duration = Duration::from_micros(50);

fn settle() {
    let mut last = alloc::global();
    let mut since = Instant::now();
    while since.elapsed() < SETTLE {
        std::hint::spin_loop();
        let now = alloc::global();
        if now != last {
            last = now;
            since = Instant::now();
        }
    }
}

fn run_inner(
    addr: SocketAddr,
    w: &Workload,
    conns: usize,
    until: Until,
    tracer: Option<&Tracer>,
    sink: Option<&CollectingSink>,
    windows: usize,
) -> Phase {
    let barrier = Barrier::new(conns + 1);
    let completed = AtomicU64::new(0);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, completed) = (&barrier, &completed);
                s.spawn(move || {
                    barrier.wait();
                    let mut runner = Runner::new(addr, w, epoch);
                    runner.tracer = tracer;
                    runner.completed = Some(completed);
                    let n = w.requests.len();
                    let mut idx = w.start_for(c, conns);
                    for sent in 0.. {
                        match until {
                            Until::Deadline(t) if Instant::now() >= t => break,
                            Until::OnePass if sent == n => break,
                            _ => {}
                        }
                        runner.send(idx);
                        idx = (idx + 1) % n;
                    }
                    runner.finish()
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mark = || Mark {
            at: started.elapsed().as_secs_f64(),
            completed: completed.load(Ordering::Relaxed),
            cpu_us: sys::cpu_us(),
            ticks: sys::cpu_ticks(),
        };
        let mut marks = vec![mark()];
        if let Until::Deadline(end) = until {
            let span = end.saturating_duration_since(started);
            for k in 1..=windows {
                let at = started + span.mul_f64(k as f64 / windows as f64);
                loop {
                    if let Some(sink) = sink {
                        sink.clear();
                    }
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(SWEEP));
                }
                marks.push(mark());
            }
        }
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let elapsed = started.elapsed();
        // latencies are stamped on the phase clock
        let shift = started.saturating_duration_since(epoch).as_secs_f64();
        let mut phase = Phase {
            conns,
            elapsed,
            marks,
        };
        for c in &mut phase.conns {
            for l in &mut c.latencies {
                l.2 -= shift;
            }
        }
        phase
    })
}

/// One client connection working through a workload's requests, with
/// the session state a `session-patch` script carries.
pub struct Runner<'a> {
    addr: SocketAddr,
    w: &'a Workload,
    epoch: Instant,
    client: Option<Client>,
    session: Option<u64>,
    scratch: Vec<u8>,
    body: Vec<u8>,
    stats: ConnStats,
    /// Record an `http.request` span per exchange.
    pub tracer: Option<&'a Tracer>,
    /// Count each exchange's allocations (allocation counting must be on).
    pub counted: bool,
    /// Bumped per completed exchange, for window marks.
    pub completed: Option<&'a AtomicU64>,
}

impl<'a> Runner<'a> {
    pub fn new(addr: SocketAddr, w: &'a Workload, epoch: Instant) -> Runner<'a> {
        Runner {
            addr,
            w,
            epoch,
            client: None,
            session: None,
            scratch: Vec::new(),
            body: Vec::new(),
            stats: ConnStats::default(),
            tracer: None,
            counted: false,
            completed: None,
        }
    }

    /// Sends request `idx` and checks the response against the oracle;
    /// returns the latency in µs when the exchange completed.
    pub fn send(&mut self, idx: usize) -> Option<f64> {
        let req = &self.w.requests[idx];
        let wire = req.wire.bytes(self.session, &mut self.scratch);
        self.stats.attempted += 1;
        let a0 = alloc::global();
        let t0 = Instant::now();
        let result = exchange(
            self.addr,
            &mut self.client,
            self.w.fresh_connections,
            wire,
            &mut self.body,
        );
        let t1 = Instant::now();
        let us = (t1 - t0).as_secs_f64() * 1e6;
        let done = match result {
            Ok(head) => {
                if let Some(c) = self.completed {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                let stats = &mut self.stats;
                stats
                    .latencies
                    .push((idx, us, (t1 - self.epoch).as_secs_f64()));
                stats.bytes_sent += wire.len() as u64;
                stats.bytes_received += (head.head_bytes + self.body.len()) as u64;
                if let Some(tracer) = self.tracer {
                    stats
                        .spans
                        .push(tracer.span("http.request", idx as u64, t0, t1, None));
                }
                if let Err(why) = check(&req.expect, head, &self.body, &mut self.session) {
                    fail(stats, format!("request {idx} ({}): {why}", describe(wire)));
                }
                if head.close {
                    self.client = None;
                }
                Some(us)
            }
            Err(e) => {
                fail(
                    &mut self.stats,
                    format!("request {idx} ({}): i/o error: {e}", describe(wire)),
                );
                self.client = None;
                None
            }
        };
        if self.counted {
            settle();
            self.stats.allocs.push(alloc::global() - a0);
        }
        done
    }

    /// What the connection saw so far; the counts start again from zero.
    pub fn take_stats(&mut self) -> ConnStats {
        std::mem::take(&mut self.stats)
    }

    /// Closes a session left open (outside the counts) and hands back
    /// what the connection saw.
    pub fn finish(mut self) -> ConnStats {
        if let Some(id) = self.session {
            let wire = crate::http::encode("DELETE", &format!("/v1/session/{id}"), b"", false);
            let _ = exchange(
                self.addr,
                &mut self.client,
                self.w.fresh_connections,
                &wire,
                &mut self.body,
            );
        }
        self.stats
    }
}

fn exchange(
    addr: SocketAddr,
    client: &mut Option<Client>,
    fresh: bool,
    wire: &[u8],
    body: &mut Vec<u8>,
) -> std::io::Result<Head> {
    if fresh || client.is_none() {
        *client = Some(Client::connect(addr)?);
    }
    let c = client.as_mut().expect("connected above");
    let head = c.exchange(wire, body)?;
    if fresh {
        *client = None;
    }
    Ok(head)
}

fn fail(stats: &mut ConnStats, why: String) {
    stats.failed += 1;
    if stats.failures.len() < KEEP_FAILURES {
        stats.failures.push(why);
    }
}

/// The request line, for failure reports.
fn describe(wire: &[u8]) -> String {
    let end = wire
        .iter()
        .position(|&b| b == b'\r')
        .unwrap_or(wire.len())
        .min(120);
    String::from_utf8_lossy(&wire[..end]).into_owned()
}

fn contains(hay: &[u8], needle: &str) -> bool {
    hay.windows(needle.len()).any(|w| w == needle.as_bytes())
}

fn excerpt(body: &[u8]) -> String {
    let cut = body.len().min(200);
    String::from_utf8_lossy(&body[..cut]).into_owned()
}

/// The oracle: does the response match what the generator expected?
/// Tracks the session id across a session script.
pub fn check(
    expect: &Expect,
    head: Head,
    body: &[u8],
    session: &mut Option<u64>,
) -> Result<(), String> {
    let want_status = match expect {
        Expect::Refused { status, .. } => *status,
        Expect::SessionOpen => 201,
        _ => 200,
    };
    if head.status != want_status {
        return Err(format!(
            "status {} (want {want_status}): {}",
            head.status,
            excerpt(body)
        ));
    }
    let ok = match expect {
        Expect::Bytes(want) => body == &want[..],
        Expect::Invalid { kind } => {
            contains(body, "\"valid\":false") && contains(body, &format!("\"kind\":\"{kind}\""))
        }
        Expect::Refused { resource, .. } => contains(body, &format!("\"resource\":\"{resource}\"")),
        Expect::SessionOpen => {
            *session = session_id(body);
            session.is_some()
        }
        Expect::Patch { applied } => contains(body, &format!("\"applied\":{applied}")),
        Expect::Closed => {
            *session = None;
            body == b"{\"closed\":true}"
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("body disagrees with {expect:?}: {}", excerpt(body)))
    }
}

fn session_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split_once("\"session\":\"")?.1;
    rest.split('"').next()?.parse().ok()
}

/// Median round trip of `GET /healthz`: `samples` on one warm
/// connection, or each on a fresh connection.
pub fn healthz(addr: SocketAddr, samples: usize, fresh: bool) -> Vec<f64> {
    let wire = crate::http::encode("GET", "/healthz", b"", fresh);
    let mut client = None;
    let mut body = Vec::new();
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let head = exchange(addr, &mut client, fresh, &wire, &mut body).expect("healthz exchange");
        out.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(
            head.status == 200 && body == b"ok\n",
            "healthz answered {}",
            head.status
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(status: u16) -> Head {
        Head {
            status,
            close: false,
            head_bytes: 0,
        }
    }

    #[test]
    fn oracle_checks_status_and_body() {
        let mut s = None;
        let inv = Expect::Invalid { kind: "SimpleType" };
        let body =
            br#"{"schema":"po","valid":false,"resource":null,"errors":[{"kind":"SimpleType"}]}"#;
        assert!(check(&inv, head(200), body, &mut s).is_ok());
        assert!(check(&inv, head(422), body, &mut s).is_err());
        let other = Expect::Invalid {
            kind: "UnexpectedChild",
        };
        assert!(check(&other, head(200), body, &mut s).is_err());
        assert!(check(
            &Expect::SessionOpen,
            head(201),
            br#"{"session":"42","nodes":9}"#,
            &mut s
        )
        .is_ok());
        assert_eq!(s, Some(42));
        assert!(check(
            &Expect::Patch { applied: false },
            head(200),
            br#"{"applied":true}"#,
            &mut s
        )
        .is_err());
        assert!(check(&Expect::Closed, head(200), br#"{"closed":true}"#, &mut s).is_ok());
        assert_eq!(s, None);
    }
}
