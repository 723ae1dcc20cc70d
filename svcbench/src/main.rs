//! svcbench: the validation service measured end to end over loopback,
//! and layer by layer from direct calls on the same inputs.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload validate-stream --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` boots the server in-process, fills its lazy caches, and
//! drives the named workload closed-loop for `--seconds`, printing the
//! end-to-end metrics. `--trace 1` is the separate traced run: it
//! prints the per-layer metrics. The last line of output is one JSON
//! object; NOTES.md explains every workload and metric.

mod alloc;
mod gen;
mod http;
mod layers;
mod load;
mod rng;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::{Server, ServerConfig};
use webgen::SchemaRegistry;

use gen::{Input, Workload};
use load::{Phase, Until};
use stats::{median, percentiles};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median. Single set-ups of one
/// run spread by a factor of two on a shared host, so the median needs
/// many of them to repeat from run to run.
const SETUPS: usize = 21;
/// Requests sent to fill lazy caches before any timing.
const WARM_REQUESTS: usize = 16;
/// `GET /healthz` samples for the wire floor and the accept wait.
const WARM_PROBES: usize = 2000;
const FRESH_PROBES: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 1.0)
                        .ok_or(format!(
                            "--seconds takes a number of at least 1, not {value:?}"
                        ))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One result metric: value, unit, and what it was measured over.
struct Metric {
    value: f64,
    unit: &'static str,
    base: String,
}

type Metrics = BTreeMap<&'static str, Metric>;

fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str, base: String) {
    m.insert(name, Metric { value, unit, base });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            eprintln!("usage: svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = gen::build(&args.workload, args.seed) else {
        eprintln!(
            "svcbench: unknown workload {:?}; one of {:?}",
            args.workload,
            gen::WORKLOADS
        );
        std::process::exit(2);
    };
    println!(
        "# svcbench workload={} seed={} seconds={} trace={}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host nproc={} profile={} rustc=\"{}\" transport=loopback loop=closed conns={} fresh_connections={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("SVCBENCH_PROFILE"),
        env!("SVCBENCH_RUSTC_VERSION"),
        workload.conns,
        workload.fresh_connections,
    );
    let collector = obs::install_collector();

    let warm = warm_set(&workload);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    // exchanges outside the measured phases still go through the oracle
    let mut untimed: Vec<Phase> = Vec::new();
    // memory is read after the first set-up and one fixed pass over the
    // pool: before any timed load, so it does not grow with the speed of
    // the build, and before the other set-ups start and stop their
    // threads, whose leftover heap made it vary from run to run
    let mut peak_rss = 0.0;
    let mut pass_requests = 0;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let (registry, server, phase) = set_up(&warm);
        setups.push(t0.elapsed().as_secs_f64());
        untimed.push(phase);
        if k == 0 {
            let pass = load::run(server.addr(), &workload, 1, Until::OnePass, None, None);
            peak_rss = sys::peak_rss_mb();
            pass_requests = pass.attempted();
            untimed.push(pass);
        }
        if let Some((_, old)) = live.replace((registry, server)) {
            Server::drain(old);
        }
    }
    let (registry, server) = live.expect("at least one set-up");
    let setup_s = median(&setups);

    let mut result = if args.trace {
        traced(&args, &workload, &warm, &registry, &server, &collector)
    } else {
        timed(&args, &workload, server.addr(), &collector)
    };
    server.drain();
    result.notes.push(format!(
        "process high-water mark at the end of the run: {:.1} MB",
        sys::peak_rss_mb()
    ));
    for phase in &untimed {
        result.attempted += phase.attempted();
        result.failed += phase.failed();
        result.failures.extend(phase.failures().cloned());
    }
    result.correct &= result.failed == 0;
    if !args.trace {
        put(
            &mut result.metrics,
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS} set-ups"),
        );
        let base = format!(
            "process high-water mark after set-up and one pass of {pass_requests} requests"
        );
        put(&mut result.metrics, "peak_rss_mb", peak_rss, "MB", base);
    }
    println!("# setup_s {setup_s:.6} s (median of {SETUPS}: {setups:.4?})");
    for (name, m) in &result.metrics {
        println!("{name:<40} {:>14.4} {:<6} {}", m.value, m.unit, m.base);
    }
    for note in &result.notes {
        println!("# {note}");
    }
    for f in &result.failures {
        println!("# FAILED {f}");
    }
    println!("{}", result_json(&result));
}

/// The requests that fill a fresh server's lazy caches: the first
/// script(s) of the sequence, plus the first request of every kind the
/// workload sends that they missed.
fn warm_set(w: &Workload) -> Workload {
    let end = w
        .script_starts
        .iter()
        .copied()
        .find(|&s| s >= WARM_REQUESTS)
        .unwrap_or(w.requests.len());
    let mut requests = w.requests[..end].to_vec();
    let kind = |i: &Input| std::mem::discriminant(i);
    for r in &w.requests[end..] {
        if !requests.iter().any(|q| kind(&q.input) == kind(&r.input))
            && !matches!(r.input, Input::Patch { .. } | Input::Get | Input::Delete)
        {
            requests.push(r.clone());
        }
    }
    Workload {
        name: w.name,
        conns: 1,
        fresh_connections: w.fresh_connections,
        script_starts: vec![0],
        requests,
    }
}

/// Registry compile and warm, `Server::start`, and the warm-up requests.
fn set_up(warm: &Workload) -> (Arc<SchemaRegistry>, Server, Phase) {
    let registry = Arc::new(SchemaRegistry::with_corpus().expect("corpus schemas compile"));
    registry
        .get("purchase-order")
        .expect("purchase-order registered")
        .warm();
    registry.get("wml").expect("wml registered").warm();
    let server = Server::start(registry.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    let phase = load::run(server.addr(), warm, 1, Until::OnePass, None, None);
    (registry, server, phase)
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
    failures: Vec<String>,
}

/// Windows a timed run is cut into, and how many of them the figures
/// come from: those in which the hypervisor stole the least CPU time from
/// this machine. On a shared host other guests take a share of the CPU
/// that changes from second to second; throughput and tail latency follow
/// it, CPU time per request does not. Each end-to-end figure is the
/// median over the kept windows.
const WINDOWS: usize = 20;
const KEPT_WINDOWS: usize = 10;

fn timed(
    args: &Args,
    w: &Workload,
    addr: SocketAddr,
    collector: &obs::CollectingSink,
) -> RunResult {
    let deadline = Instant::now() + secs(args.seconds);
    let phase = load::run_windows(addr, w, w.conns, deadline, WINDOWS, collector);
    let mut windows = phase.windows();
    // a window no exchange completed in has no latencies to rank
    windows.retain(|win| !win.latencies_us.is_empty());
    let all_windows: Vec<String> = windows
        .iter()
        .map(|win| {
            format!(
                "{:.3}/{:.0}/{:.0}",
                win.steal,
                win.req_per_s,
                win.latency_us(0.9)
            )
        })
        .collect();
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    windows.truncate(KEPT_WINDOWS);
    let per_window =
        |f: &dyn Fn(&load::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let lat = |q: f64| per_window(&|win| win.latency_us(q));
    let done = phase.completed();
    let counts: Vec<usize> = windows.iter().map(|win| win.latencies_us.len()).collect();
    let base = format!(
        "median of the {KEPT_WINDOWS} least-stolen of {WINDOWS} windows, {:?} requests, {} connection(s)",
        counts, w.conns
    );
    let mut m = Metrics::new();
    put(
        &mut m,
        "req_per_s",
        per_window(&|win| win.req_per_s),
        "1/s",
        base.clone(),
    );
    put(&mut m, "latency_p50_us", lat(0.50), "us", base.clone());
    put(&mut m, "latency_p75_us", lat(0.75), "us", base.clone());
    put(
        &mut m,
        "cpu_us_per_req",
        per_window(&|win| win.cpu_us_per_req),
        "us",
        format!("process user+sys CPU per request, {base}"),
    );
    let (attempted, failed) = (phase.attempted(), phase.failed());
    let all = percentiles(&phase.latencies_us());
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        notes: vec![
            format!(
                "latency_p90_us {:.1} us over the kept windows (diagnostic, not gated; {base})",
                lat(0.90)
            ),
            format!(
                "whole run: {done} requests in {:.3} s, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us (diagnostic)",
                phase.elapsed.as_secs_f64(),
                all.p50,
                all.p90,
                all.p99
            ),
            format!("fail_ratio {} ({failed} failed / {attempted} attempted)", failed as f64 / attempted.max(1) as f64),
            format!(
                "windows as stolen share/req_per_s/p90 us: {}; kept those stolen up to {:.3}",
                all_windows.join(" "),
                windows.last().map_or(0.0, |win| win.steal)
            ),
        ],
        failures: phase.failures().cloned().collect(),
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The pool a layer group is measured on: the workload's own when it
/// exercises the group, else the seed's pool of the workload that does.
fn probe(w: &Workload, group: usize, seed: u64) -> Option<Workload> {
    if w.requests.iter().any(|r| r.input.group() == group) {
        None
    } else {
        gen::build(gen::GROUPS[group].1, seed)
    }
}

fn traced(
    args: &Args,
    w: &Workload,
    warm: &Workload,
    registry: &Arc<SchemaRegistry>,
    server: &Server,
    collector: &obs::CollectingSink,
) -> RunResult {
    let addr = server.addr();
    let tracer = Tracer::default();
    let slice = args.seconds * 0.3;
    let mut phases: Vec<Phase> = Vec::new();

    // untraced and traced load at the workload's own connection count
    let untraced = load::run(
        addr,
        w,
        w.conns,
        Until::Deadline(Instant::now() + secs(slice)),
        None,
        Some(collector),
    );
    obs::trace::start(1 << 14);
    let traced = load::run(
        addr,
        w,
        w.conns,
        Until::Deadline(Instant::now() + secs(slice)),
        Some(&tracer),
        Some(collector),
    );
    obs::trace::stop();
    let overhead = untraced.req_per_s() / traced.req_per_s() - 1.0;
    // contention: the same mix at one connection and at two
    let at = |conns: usize| {
        if conns == w.conns {
            None
        } else {
            Some(load::run(
                addr,
                w,
                conns,
                Until::Deadline(Instant::now() + secs(slice / 2.0)),
                None,
                Some(collector),
            ))
        }
    };
    let (one, two) = (at(1), at(2));
    let p50_one = percentiles(&one.as_ref().unwrap_or(&untraced).latencies_us()).p50;
    let p50_two = percentiles(&two.as_ref().unwrap_or(&untraced).latencies_us()).p50;

    let wire_floor = median(&load::healthz(addr, WARM_PROBES, false));
    let fresh_floor = median(&load::healthz(addr, FRESH_PROBES, true));
    let accept_wait = fresh_floor - wire_floor;

    // direct layer calls: a warm pass over every pool first
    let plans = layers::Plans::new(registry);
    let probes: Vec<Option<Workload>> = (0..gen::GROUPS.len())
        .map(|g| probe(w, g, args.seed))
        .collect();
    let pools: Vec<&Workload> = probes.iter().map(|p| p.as_ref().unwrap_or(w)).collect();
    let own = probes
        .iter()
        .position(Option::is_none)
        .expect("every workload exercises one group");
    let scratch = Tracer::default();
    for pool in &pools {
        layers::replay(&mut layers::Recorder::new(&scratch), registry, &plans, pool);
    }

    // the reconciliation pass: one connection to a fresh server on the
    // same registry (so session ids and caches start from the same state
    // every run), each request sent on the wire and then made as direct
    // layer calls, so both see the host in the same state. On fresh
    // connections the direct calls wait until the wire pass is done:
    // time spent between requests would shift the sleep-polling
    // acceptor's phase and so the accept wait itself.
    let fresh = Server::start(registry.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    phases.push(load::run(fresh.addr(), warm, 1, Until::OnePass, None, None));
    let mut recs: Vec<layers::Recorder> = (0..3).map(|_| layers::Recorder::new(&tracer)).collect();
    let mut runner = load::Runner::new(fresh.addr(), w, Instant::now());
    // a first, uncounted pass on the same connection grows its buffers,
    // so the counted pass allocates the same whatever the read sizes
    let n = w.requests.len();
    for i in 0..n {
        runner.send(i);
    }
    let first = runner.take_stats();
    // emptied, the span collector keeps its capacity: no reallocation of
    // its buffer lands in the counted pass at a moment set by timing
    collector.clear();
    runner.counted = true;
    let mut session = None;
    let mut single_lat = BTreeMap::new();
    alloc::set_counting(true);
    for i in 0..n {
        if let Some(us) = runner.send(i) {
            single_lat.insert(i, us);
        }
        if !w.fresh_connections {
            layers::replay_one(&mut recs[own], registry, &plans, w, i, &mut session);
        }
    }
    if w.fresh_connections {
        for i in 0..n {
            layers::replay_one(&mut recs[own], registry, &plans, w, i, &mut session);
        }
    }
    for (k, pool) in pools.iter().enumerate().filter(|&(k, _)| k != own) {
        layers::replay(&mut recs[k], registry, &plans, pool);
    }
    alloc::set_counting(false);
    let conn = runner.finish();
    fresh.drain();

    // reconciliation: the wire round trip of each request against the
    // floor plus the direct layer calls it makes
    let fixed = wire_floor
        + if w.fresh_connections {
            accept_wait
        } else {
            0.0
        };
    let residuals: Vec<f64> = single_lat
        .iter()
        .map(|(i, lat)| lat - fixed - recs[own].per_request_us.get(i).copied().unwrap_or(0.0))
        .collect();
    let residual = median(&residuals);
    let single_p50 = median(&single_lat.values().copied().collect::<Vec<_>>());
    let layers_p50 = median(
        &recs[own]
            .per_request_us
            .values()
            .copied()
            .collect::<Vec<_>>(),
    );
    let mut tolerance = RESIDUAL_FLOOR_US.max(RESIDUAL_SHARE * (single_p50 - fixed));
    if w.fresh_connections {
        // a sleep-polling acceptor wakes on its own clock: the wait a
        // fresh connection sees shrinks by the time the previous
        // exchange took, which healthz probes do not reproduce
        tolerance += wire_floor + layers_p50;
    }

    let mut m = Metrics::new();
    for (name, f) in layers::figures(&recs[0], &recs[1], &recs[2]) {
        put(&mut m, name, f.value, f.unit, f.base);
    }
    let k = conn.latencies.len();
    put(
        &mut m,
        "serve.wire_floor_us",
        wire_floor,
        "us",
        format!("median GET /healthz, {WARM_PROBES} on one warm connection"),
    );
    put(&mut m, "serve.accept_wait_us", accept_wait, "us", format!("median of {FRESH_PROBES} fresh-connection GET /healthz ({fresh_floor:.1} us) - wire floor"));
    put(
        &mut m,
        "serve.contention_us",
        p50_two - p50_one,
        "us",
        format!("p50 at 2 connections {p50_two:.1} us - p50 at 1 connection {p50_one:.1} us"),
    );
    put(
        &mut m,
        "serve.residual_us",
        residual,
        "us",
        format!(
            "median over {} requests; tolerance +-{tolerance:.1} us",
            residuals.len()
        ),
    );
    put(
        &mut m,
        "serve.bytes_in_per_req",
        conn.bytes_sent as f64 / k as f64,
        "count",
        format!("{} bytes / {k} requests", conn.bytes_sent),
    );
    put(
        &mut m,
        "serve.bytes_out_per_req",
        conn.bytes_received as f64 / k as f64,
        "count",
        format!("{} bytes / {k} requests", conn.bytes_received),
    );
    let allocs: Vec<f64> = conn.allocs.iter().map(|&a| a as f64).collect();
    let total: f64 = allocs.iter().sum();
    put(
        &mut m,
        "allocs_per_req",
        median(&allocs),
        "count",
        format!(
            "median over {k} requests, client and server (mean {:.2})",
            total / k as f64
        ),
    );
    put(
        &mut m,
        "trace_overhead_ratio",
        overhead,
        "ratio",
        format!(
            "untraced {:.1} req/s / traced {:.1} req/s - 1",
            untraced.req_per_s(),
            traced.req_per_s()
        ),
    );

    let mut notes = vec![
        format!(
            "layers on the request path: {} group from this workload's own requests; others from the seed's probe pools",
            gen::GROUPS[own].0
        ),
        format!("residual check: |{residual:.1}| us within {tolerance:.1} us: {}", residual.abs() <= tolerance),
    ];
    let spans_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", w.name, args.seed));
    let client_spans: Vec<trace::Span> = traced
        .conns
        .iter()
        .flat_map(|c| c.spans.iter().cloned())
        .collect();
    match trace::write(
        &spans_path,
        &[
            &recs[0].spans,
            &recs[1].spans,
            &recs[2].spans,
            &client_spans,
        ],
    ) {
        Ok(n) => notes.push(format!("{n} spans written to {}", spans_path.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }

    let single_attempted = first.attempted + conn.attempted;
    let single_failed = first.failed + conn.failed;
    let mut failures: Vec<String> = first
        .failures
        .iter()
        .chain(&conn.failures)
        .cloned()
        .collect();
    phases.extend([untraced, traced]);
    phases.extend(one);
    phases.extend(two);
    let attempted = single_attempted + phases.iter().map(Phase::attempted).sum::<u64>();
    let failed = single_failed + phases.iter().map(Phase::failed).sum::<u64>();
    failures.extend(phases.iter().flat_map(|p| p.failures().cloned()));
    RunResult {
        correct: failed == 0 && residual.abs() <= tolerance,
        attempted,
        failed,
        metrics: m,
        notes,
        failures,
    }
}

/// The reconciliation tolerance: the residual may be at most this share
/// of the one-connection median latency net of the wire floor (and the
/// accept wait), or this floor, whichever is larger.
const RESIDUAL_SHARE: f64 = 0.5;
const RESIDUAL_FLOOR_US: f64 = 150.0;

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}
