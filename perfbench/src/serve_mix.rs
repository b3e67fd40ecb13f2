//! `serve-mix`: an in-process `rcarb-serve` daemon on a Unix socket,
//! driven in a closed loop over one connection with one request
//! outstanding. The mix is seeded and work-weighted; every
//! answer is a synthesis-cache hit. Work unit: requests.

use crate::measure::{hit_frac, nproc, HostContext, Phase, Samples};
use crate::trace::Tracer;
use crate::{Layers, RunResult};
use rcarb::analyze::AnalyzeConfig;
use rcarb::arb::generator::{reset_synthesis_cache, synthesis_cache_stats};
use rcarb::arb::rng::{mix3, SplitMix64};
use rcarb::arb::{ArbiterGenerator, ArbiterSpec};
use rcarb::backend::{
    parse_encoding, parse_grade, parse_policy, AnalyzeRequest, InProcessBackend, PlanRequest,
    SimulateOptions, SimulateRequest, SweepRequest, SynthesizeRequest,
};
use rcarb::board::presets;
use rcarb::obs::ObsConfig;
use rcarb::taskgraph::builder::TaskGraphBuilder;
use rcarb::taskgraph::graph::TaskGraph;
use rcarb::taskgraph::program::{Expr, Program};
use rcarb::Design;
use rcarb_serve::frame::{crc32, read_frame, write_frame};
use rcarb_serve::wire::{
    decode_request, dispatch, encode_response, RequestBody, RequestFrame, ResponseBody,
    ResponseFrame,
};
use rcarb_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TENANT: &str = "perfbench";

/// Per-layer metric of each backend call.
const BACKEND_METRICS: [(&str, &str); 5] = [
    ("synthesize", "backend.synthesize_us"),
    ("sweep", "backend.sweep_us"),
    ("plan", "backend.plan_us"),
    ("analyze", "backend.analyze_us"),
    ("simulate", "backend.simulate_us"),
];

/// Synthesize asks cover N in 2..=SYNTH_MAX_N for both tools and both
/// encodings: 44 requests.
const SYNTH_MAX_N: u64 = 12;

// How many requests of each kind the mix holds. The rule: every kind
// but Ping takes about the same share of the closed loop's time.
// Synthesize is fixed at its 44 grid points; every other kind gets
// 44 × (mean Synthesize latency) / (its own mean latency) requests,
// rounded to whole cycles of its request sizes. The means are the
// client latencies a traced run reports as `kind_share_mean_us`, here
// from a 2-vCPU host: Synthesize 446 µs, Sweep 423 µs, Plan 356 µs,
// Analyze 542 µs, Simulate 496 µs. A few Pings ride along. Sweeps and
// designs are small so that the wire, not the backend's compute, holds
// most of each request's time.

/// The `ns` of the Sweep asks; the mix holds SWEEP_ROUNDS of each.
const SWEEPS: [&[u64]; 8] = [&[2], &[3], &[4], &[5], &[2, 3], &[2, 4], &[3, 4], &[6]];
const SWEEP_ROUNDS: usize = 6;

/// Task counts of the contended designs behind the Plan and the
/// Analyze asks, taken in turn.
const DESIGN_TASKS: std::ops::RangeInclusive<usize> = 2..=4;
const PLANS: usize = 54;
const ANALYZES: usize = 36;

/// Simulate asks: a sparse design whose tasks mostly compute, so the
/// kernel skips most cycles.
const SIMULATES: usize = 40;
const SPARSE_TASKS: u64 = 4;
const SPARSE_ROUNDS: u32 = 4;
const SPARSE_COMPUTE: u32 = 400;

const PINGS: usize = 4;

/// One request of the mix, encoded once during set-up.
#[derive(Debug, Clone)]
pub struct Entry {
    pub id: u64,
    pub body: RequestBody,
    /// The request frame's JSON payload, as sent on the wire.
    pub payload: Vec<u8>,
}

impl Entry {
    pub fn kind(&self) -> &'static str {
        self.body.method()
    }
}

fn contended(k: usize, rng: &mut SplitMix64) -> TaskGraph {
    let mut b = TaskGraphBuilder::new(format!("mix_contended_{k}"));
    for i in 0..k {
        let seg = b.segment(format!("S{i}"), 16, 16);
        let addr = rng.next_below(16);
        let delta = 1 + rng.next_below(255);
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(4, |p| {
                    let v = p.mem_read(seg, Expr::lit(addr));
                    p.mem_write(
                        seg,
                        Expr::lit(addr),
                        Expr::add(Expr::var(v), Expr::lit(delta)),
                    );
                });
            }),
        );
    }
    b.finish().expect("the contended design is well-formed")
}

fn sparse(rng: &mut SplitMix64) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("mix_sparse");
    for i in 0..SPARSE_TASKS {
        let seg = b.segment(format!("S{i}"), 16, 16);
        let addr = rng.next_below(16);
        let data = rng.next_below(1 << 16);
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(SPARSE_ROUNDS, |p| {
                    p.compute(SPARSE_COMPUTE);
                    p.mem_write(seg, Expr::lit(addr), Expr::lit(data));
                });
            }),
        );
    }
    b.finish().expect("the sparse design is well-formed")
}

/// The seeded mix. The seed picks addresses, data and the order; the
/// kinds and the work of each kind are the same for every seed.
pub fn requests(seed: u64) -> Vec<Entry> {
    let mut rng = SplitMix64::new(mix3(seed, 0x5E7E, 0));
    let mut bodies: Vec<RequestBody> = Vec::new();
    for n in 2..=SYNTH_MAX_N {
        for tool in ["synplify", "fpga_express"] {
            for encoding in ["one-hot", "compact"] {
                let req = SynthesizeRequest {
                    n,
                    encoding: encoding.to_owned(),
                    tool: tool.to_owned(),
                    ..SynthesizeRequest::round_robin(2)
                };
                bodies.push(RequestBody::Synthesize(req));
            }
        }
    }
    for ns in SWEEPS.iter().cycle().take(SWEEPS.len() * SWEEP_ROUNDS) {
        let req = SweepRequest {
            ns: ns.to_vec(),
            grade: "-3".to_owned(),
        };
        bodies.push(RequestBody::Sweep(req));
    }
    for k in DESIGN_TASKS.cycle().take(PLANS) {
        let graph = contended(k, &mut rng);
        let board = presets::duo_small();
        bodies.push(RequestBody::Plan(PlanRequest { graph, board }));
    }
    for k in DESIGN_TASKS.cycle().take(ANALYZES) {
        let req = AnalyzeRequest {
            graph: contended(k, &mut rng),
            board: presets::duo_small(),
            verified: false,
        };
        bodies.push(RequestBody::Analyze(req));
    }
    for _ in 0..SIMULATES {
        let req = SimulateRequest {
            graph: sparse(&mut rng),
            board: presets::duo_small(),
            max_cycles: 1_000_000,
            options: SimulateOptions::default(),
        };
        bodies.push(RequestBody::Simulate(req));
    }
    bodies.extend((0..PINGS).map(|_| RequestBody::Ping));
    for i in (1..bodies.len()).rev() {
        bodies.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            let id = i as u64 + 1;
            let payload = encode_request(id, &body);
            Entry { id, body, payload }
        })
        .collect()
}

fn encode_request(id: u64, body: &RequestBody) -> Vec<u8> {
    let frame = RequestFrame {
        id,
        tenant: TENANT.to_owned(),
        deadline_ms: None,
        body: body.clone(),
    };
    rcarb::json::to_string(&frame).into_bytes()
}

/// The answer the daemon must send for `entry`, byte for byte.
fn reference(entry: &Entry) -> Result<Vec<u8>, String> {
    let body = dispatch(&InProcessBackend::new(), &entry.body);
    if let ResponseBody::Error(e) = &body {
        return Err(format!(
            "{} request {} failed: {}",
            entry.kind(),
            entry.id,
            e.message
        ));
    }
    Ok(encode_response(&ResponseFrame { id: entry.id, body }))
}

/// A response matches its reference.
pub fn matches(reference: &[u8], got: &io::Result<Vec<u8>>) -> bool {
    got.as_ref().is_ok_and(|bytes| bytes == reference)
}

/// One closed-loop exchange: send a frame, wait for its answer.
fn exchange(mut stream: &UnixStream, payload: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(&mut stream, payload)?;
    read_frame(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))
}

pub struct ServeMix {
    entries: Vec<Entry>,
    references: Vec<Vec<u8>>,
    server: Server,
    conn: UnixStream,
    socket: PathBuf,
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Builds the mix, computes every reference answer in-process (which
/// fills the synthesis cache), boots the daemon and opens and warms the
/// client connection.
pub fn setup(seed: u64) -> Result<ServeMix, String> {
    static BOOTS: AtomicU64 = AtomicU64::new(0);
    reset_synthesis_cache();
    let entries = requests(seed);
    let references = entries
        .iter()
        .map(reference)
        .collect::<Result<Vec<_>, _>>()?;

    let socket = crate::work_dir()?.join(format!(
        "serve-{}-{}.sock",
        std::process::id(),
        BOOTS.fetch_add(1, Ordering::Relaxed)
    ));
    let server = Server::in_process(ServeConfig {
        workers: nproc(),
        obs: ObsConfig::off(),
        ..ServeConfig::default()
    });
    server
        .listen_uds(&socket)
        .map_err(|e| format!("cannot listen on {}: {e}", socket.display()))?;
    let conn = match UnixStream::connect(&socket) {
        Ok(conn) => conn,
        Err(e) => {
            server.shutdown();
            let _ = std::fs::remove_file(&socket);
            return Err(format!("cannot connect to {}: {e}", socket.display()));
        }
    };
    let mix = ServeMix {
        entries,
        references,
        server,
        conn,
        socket,
    };
    let ping = encode_request(0, &RequestBody::Ping);
    let pong = encode_response(&ResponseFrame {
        id: 0,
        body: ResponseBody::Pong,
    });
    if !matches(&pong, &exchange(&mix.conn, &ping)) {
        return Err("the daemon did not answer a ping".to_owned());
    }
    Ok(mix)
}

/// Summed seconds and request count per kind.
#[derive(Debug, Default)]
struct ByKind(BTreeMap<&'static str, (f64, u64)>);

impl ByKind {
    fn add(&mut self, kind: &'static str, secs: f64) {
        let slot = self.0.entry(kind).or_default();
        slot.0 += secs;
        slot.1 += 1;
    }

    fn mean(&self, kind: &str) -> f64 {
        self.0.get(kind).map_or(0.0, |&(secs, n)| secs / n as f64)
    }

    /// `{kind: [share of the summed seconds, mean µs]}` as JSON.
    fn shares_json(&self) -> String {
        let total: f64 = self.0.values().map(|&(secs, _)| secs).sum();
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(kind, &(secs, n))| {
                format!(
                    "\"{kind}\": [{:.4}, {:.1}]",
                    secs / total,
                    secs / n as f64 * 1e6
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

/// What one closed-loop phase saw.
struct Drive {
    samples: Samples,
    by_kind: ByKind,
}

impl ServeMix {
    /// Closed loop over the one connection, one request outstanding,
    /// while `running` says so.
    fn drive(&self, mut running: impl FnMut() -> Result<bool, String>) -> Result<Drive, String> {
        let mut drive = Drive {
            samples: Samples::new(),
            by_kind: ByKind::default(),
        };
        for idx in (0..self.entries.len()).cycle() {
            if !running()? {
                break;
            }
            let t = Instant::now();
            let got = exchange(&self.conn, &self.entries[idx].payload);
            let latency = t.elapsed();
            drive
                .samples
                .record(latency, matches(&self.references[idx], &got));
            drive
                .by_kind
                .add(self.entries[idx].kind(), latency.as_secs_f64());
            if got.is_err() {
                break;
            }
        }
        Ok(drive)
    }

    pub fn measure<S>(self, mut phase: Phase<S>) -> Result<RunResult, String>
    where
        S: FnMut() -> Result<(), String>,
    {
        let host = HostContext::start();
        let d = self.drive(|| phase.running())?;
        let work = d.samples.attempted() as f64;
        Ok(RunResult::timed(d.samples, work, &phase, host))
    }

    /// The daemon's stages in-process, one request at a time:
    /// CRC → decode → dispatch → encode → CRC. Returns whether the
    /// answer matched.
    fn replay_one(&self, idx: usize, t: Option<&Tracer>) -> bool {
        let span = |name: &str| t.map(|t| t.span(name));
        let entry = &self.entries[idx];
        let _request = span("serve.request");
        {
            let _s = span("serve.crc");
            std::hint::black_box(crc32(&entry.payload));
        }
        let frame = {
            let _s = span("serve.decode");
            decode_request(&entry.payload)
        };
        let Ok(frame) = frame else { return false };
        let body = {
            let _s = span("serve.dispatch");
            let _b = (!matches!(frame.body, RequestBody::Ping))
                .then(|| span(&format!("backend.{}", frame.body.method())));
            dispatch(&InProcessBackend::new(), &frame.body)
        };
        let bytes = {
            let _s = span("serve.encode");
            encode_response(&ResponseFrame { id: frame.id, body })
        };
        {
            let _s = span("serve.crc");
            std::hint::black_box(crc32(&bytes));
        }
        bytes == self.references[idx]
    }

    /// Replays the mix in order until `budget` has elapsed or the
    /// tracer is full. Each request runs twice, untraced and traced, so
    /// that both see the same host conditions. Returns the untraced and
    /// the traced seconds, and the untraced in-process seconds per kind.
    fn replay(&self, budget: Duration, t: &Tracer, samples: &mut Samples) -> (f64, f64, ByKind) {
        let mut by_kind = ByKind::default();
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || (start.elapsed() < budget && !t.full()) {
            let idx = i % self.entries.len();
            let op = Instant::now();
            let ok = self.replay_one(idx, None);
            let latency = op.elapsed();
            samples.record(latency, ok);
            plain_s += latency.as_secs_f64();
            by_kind.add(self.entries[idx].kind(), latency.as_secs_f64());

            let op = Instant::now();
            let ok = self.replay_one(idx, Some(t));
            let latency = op.elapsed();
            samples.record(latency, ok);
            traced_s += latency.as_secs_f64();
            i += 1;
        }
        (plain_s, traced_s, by_kind)
    }

    /// Calls the layers under the backend directly, each in its own
    /// span: generation for Synthesize, planning for Plan, analysis for
    /// Analyze and simulation for Simulate.
    fn probe_layers(&self, t: &Tracer) -> Result<(), String> {
        for e in &self.entries {
            match &e.body {
                RequestBody::Synthesize(req) => {
                    let spec = ArbiterSpec::try_round_robin(req.n as usize)
                        .and_then(|s| Ok(s.with_policy(parse_policy(&req.policy)?)))
                        .and_then(|s| Ok(s.with_encoding(parse_encoding(&req.encoding)?)))
                        .map_err(|e| e.to_string())?;
                    let grade = parse_grade(&req.grade).map_err(|e| e.to_string())?;
                    let _s = t.span("core.generate");
                    std::hint::black_box(ArbiterGenerator::new().with_grade(grade).generate(&spec));
                }
                RequestBody::Plan(PlanRequest { graph, board })
                | RequestBody::Analyze(AnalyzeRequest { graph, board, .. })
                | RequestBody::Simulate(SimulateRequest { graph, board, .. }) => {
                    let design = Design::new(graph.clone(), board.clone());
                    let planned = {
                        let _s = t.span("plan");
                        design.plan()
                    }
                    .map_err(|e| e.to_string())?;
                    if let RequestBody::Analyze(_) = &e.body {
                        let report = {
                            let _s = t.span("analyze");
                            planned.analyze(&AnalyzeConfig::default())
                        };
                        t.count("analyze.diagnostics", report.diagnostics().len() as u64);
                    }
                    if let RequestBody::Simulate(req) = &e.body {
                        let spec = req.options.to_spec().map_err(|e| e.to_string())?;
                        let out = {
                            let _s = t.span("sim.run");
                            planned.simulate_spec(&spec, req.max_cycles)
                        }
                        .map_err(|e| e.to_string())?;
                        if !out.report.completed {
                            return Err("a probed simulation did not complete".to_owned());
                        }
                        t.count("sim.cycles", out.report.cycles);
                        t.count("sim.executed", out.kernel.executed_cycles);
                        t.count("sim.skipped", out.kernel.skipped_cycles);
                    }
                }
                RequestBody::Sweep(_) | RequestBody::Ping => {}
            }
        }
        Ok(())
    }

    pub fn traced(self, seconds: f64) -> RunResult {
        let host = HostContext::start();
        let cache_before = synthesis_cache_stats();
        let stats_before = self.server.stats();
        let start = Instant::now();
        let half = Duration::from_secs_f64(seconds / 2.0);
        let a = self
            .drive(|| Ok(start.elapsed() < half))
            .expect("a deadline never fails");
        let cache_after = synthesis_cache_stats();
        let stats_after = self.server.stats();
        let mut samples = a.samples;

        let t = Tracer::new();
        let (plain_s, traced_s, in_process) =
            self.replay(Duration::from_secs_f64(seconds / 2.0), &t, &mut samples);
        let mut problems = Vec::new();
        if let Err(e) = self.probe_layers(&t) {
            problems.push(e);
        }

        let st = t.self_times();
        let requests = st.count("serve.request") as f64;
        let per_request = |name: &str| st.total_us(name) / requests;
        let mut layers = Layers::new();
        layers.set("serve.crc_us", per_request("serve.crc"));
        layers.set("serve.decode_us", per_request("serve.decode"));
        layers.set("serve.encode_us", per_request("serve.encode"));
        let mut dispatch_us = st.total_us("serve.dispatch");
        for (kind, metric) in BACKEND_METRICS {
            let span = format!("backend.{kind}");
            dispatch_us += st.total_us(&span);
            layers.set(metric, st.mean_us(&span));
        }
        layers.set("serve.dispatch_us", dispatch_us / requests);
        let n = self.entries.len() as f64;
        let req_bytes: usize = self.entries.iter().map(|e| e.payload.len()).sum();
        let resp_bytes: usize = self.references.iter().map(Vec::len).sum();
        layers.set("serve.req_bytes", req_bytes as f64 / n);
        layers.set("serve.resp_bytes", resp_bytes as f64 / n);
        // Client latency minus the in-process stages, weighted by the
        // mix: transport, queueing and thread hand-offs.
        let wait_s: f64 = self
            .entries
            .iter()
            .map(|e| a.by_kind.mean(e.kind()) - in_process.mean(e.kind()))
            .sum();
        layers.set("serve.wire_wait_us", wait_s / n * 1e6);
        layers.set("serve.max_queue_depth", stats_after.max_queue_depth as f64);
        layers.set(
            "serve.batches",
            (stats_after.batches - stats_before.batches) as f64,
        );
        layers.set("exec.synth_hit_frac", hit_frac(&cache_before, &cache_after));
        layers.set("core.generate_us", st.mean_us("core.generate"));
        layers.set("plan.ms", st.mean_us("plan") / 1e3);
        layers.set("analyze.ms", st.mean_us("analyze") / 1e3);
        let analyses = st.count("analyze").max(1) as f64;
        layers.set(
            "analyze.diagnostics",
            t.counted("analyze.diagnostics") as f64 / analyses,
        );
        let sims = st.count("sim.run").max(1) as f64;
        let (cycles, executed, skipped) = (
            t.counted("sim.cycles") as f64,
            t.counted("sim.executed") as f64,
            t.counted("sim.skipped") as f64,
        );
        layers.set("sim.run_ms", st.mean_us("sim.run") / 1e3);
        layers.set(
            "sim.ns_per_cycle",
            st.total_us("sim.run") * 1e3 / executed.max(1.0),
        );
        layers.set("sim.cycles", cycles / sims);
        layers.set("sim.executed", executed / sims);
        layers.set("sim.skipped", skipped / sims);
        layers.set("sim.skip_frac", skipped / cycles.max(1.0));
        layers.set("trace.overhead_frac", traced_s / plain_s - 1.0);
        let mut result = RunResult::traced(samples, layers, &t, host)
            .with_json_context("kind_share_mean_us", a.by_kind.shares_json());
        result.problems.extend(problems);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size of the work a request asks for, in its kind's unit.
    fn work(body: &RequestBody) -> u64 {
        match body {
            RequestBody::Ping => 0,
            RequestBody::Synthesize(r) => r.n,
            RequestBody::Sweep(r) => r.ns.iter().sum(),
            RequestBody::Plan(PlanRequest { graph, .. })
            | RequestBody::Analyze(AnalyzeRequest { graph, .. })
            | RequestBody::Simulate(SimulateRequest { graph, .. }) => graph
                .tasks()
                .iter()
                .map(|t| t.program().access_counts().estimated_cycles())
                .sum(),
        }
    }

    fn totals(entries: &[Entry]) -> BTreeMap<&'static str, (usize, u64)> {
        let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for e in entries {
            let slot = out.entry(e.kind()).or_default();
            slot.0 += 1;
            slot.1 += work(&e.body);
        }
        out
    }

    #[test]
    fn the_same_seed_gives_the_same_request_bytes() {
        let a: Vec<_> = requests(7).into_iter().map(|e| e.payload).collect();
        let b: Vec<_> = requests(7).into_iter().map(|e| e.payload).collect();
        assert_eq!(a, b);
        let c: Vec<_> = requests(8).into_iter().map(|e| e.payload).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn another_seed_keeps_the_kind_mix_and_the_work() {
        let a = totals(&requests(1));
        assert_eq!(a, totals(&requests(2)));
        assert_eq!(a.len(), 6, "every kind is in the mix");
        // The mix is work-weighted, not ping-heavy.
        assert!(a["ping"].0 * 10 < requests(1).len());
    }

    #[test]
    fn a_forced_mismatch_is_a_failed_op() {
        let entry = requests(3)
            .into_iter()
            .find(|e| e.kind() == "ping")
            .unwrap();
        let good = reference(&entry).unwrap();
        let mut bad = good.clone();
        bad[0] ^= 1;
        let mut samples = Samples::new();
        samples.record(Duration::from_micros(5), matches(&good, &Ok(good.clone())));
        samples.record(Duration::from_micros(5), matches(&good, &Ok(bad)));
        samples.record(
            Duration::from_micros(5),
            matches(&good, &Err(io::Error::other("hung up"))),
        );
        assert_eq!((samples.attempted(), samples.failed()), (3, 2));
    }
}
