//! `rcarb-perfbench` — runs one named workload against the rcarb
//! workspace through its public API and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with spans around every call into the program and
//! prints the per-layer metrics instead, writing the spans as a Chrome
//! trace. The last stdout line is the result object; the line before it
//! records host context. See `perfbench/README.md`.

mod cold;
mod measure;
mod serve_mix;
mod trace;

use measure::{metric, HostContext, Metric, Phase, Samples, SetupTimes};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// workload that never enters a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 34] = [
    ("logic.encode_ms", "ms"),
    ("logic.network_ms", "ms"),
    ("logic.techmap_ms", "ms"),
    ("logic.pack_ms", "ms"),
    ("logic.timing_ms", "ms"),
    ("logic.lits", "count"),
    ("logic.luts", "count"),
    ("logic.clbs", "count"),
    ("core.generate_us", "us"),
    ("exec.synth_hit_frac", "frac"),
    ("backend.synthesize_us", "us"),
    ("backend.sweep_us", "us"),
    ("backend.plan_us", "us"),
    ("backend.analyze_us", "us"),
    ("backend.simulate_us", "us"),
    ("plan.ms", "ms"),
    ("analyze.ms", "ms"),
    ("analyze.diagnostics", "count"),
    ("serve.crc_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.req_bytes", "bytes"),
    ("serve.resp_bytes", "bytes"),
    ("serve.wire_wait_us", "us"),
    ("serve.max_queue_depth", "count"),
    ("serve.batches", "count"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.executed", "count"),
    ("sim.skipped", "count"),
    ("sim.skip_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer values a traced run measured.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// What a workload measured.
pub struct RunResult {
    samples: Samples,
    metrics: Vec<Metric>,
    /// Failed checks that belong to no single op.
    pub problems: Vec<String>,
    context: Vec<(&'static str, String)>,
    host: HostContext,
}

impl RunResult {
    /// An untraced run: the end-to-end metrics.
    pub fn timed<S>(samples: Samples, work: f64, phase: &Phase<S>, host: HostContext) -> Self
    where
        S: FnMut() -> Result<(), String>,
    {
        let mut problems = Vec::new();
        let (p50, p90) = samples.p50_p90().unwrap_or_else(|e| {
            problems.push(e);
            (f64::NAN, f64::NAN)
        });
        let rss = measure::peak_rss_mb().unwrap_or_else(|e| {
            problems.push(e);
            f64::NAN
        });
        let metrics = vec![
            metric("setup_s", phase.setups().median_s(), "s"),
            metric("p50_ms", p50, "ms"),
            metric("p90_ms", p90, "ms"),
            metric("work_per_s", work / phase.measured_s(), "1/s"),
            metric("peak_rss_mb", rss, "MB"),
        ];
        Self {
            samples,
            metrics,
            problems,
            context: Vec::new(),
            host,
        }
        .with_context("first_setup_s", phase.setups().first_s())
    }

    /// A traced run: the per-layer metrics, and the validated Chrome
    /// trace of its spans.
    pub fn traced(samples: Samples, layers: Layers, tracer: &Tracer, host: HostContext) -> Self {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        let mut result = Self {
            samples,
            metrics,
            problems: Vec::new(),
            context: Vec::new(),
            host,
        };
        match tracer.validated_trace() {
            Ok((text, spans)) => {
                let written = work_dir().and_then(|dir| {
                    let path = dir.join("trace.json");
                    std::fs::write(&path, text)
                        .map(|()| path)
                        .map_err(|e| format!("cannot write the trace: {e}"))
                });
                match written {
                    Ok(path) => {
                        result.context.push(("trace_spans", spans.to_string()));
                        result
                            .context
                            .push(("trace_file", format!("\"{}\"", path.display())));
                    }
                    Err(e) => result.problems.push(e),
                }
            }
            Err(e) => result.problems.push(e),
        }
        result
    }

    pub fn with_context(self, key: &'static str, value: f64) -> Self {
        self.with_json_context(key, format!("{value:?}"))
    }

    /// Adds `key` with a value that is already JSON text.
    pub fn with_json_context(mut self, key: &'static str, json: String) -> Self {
        self.context.push((key, json));
        self
    }
}

/// Where a run keeps its socket and trace: inside the build directory,
/// which lies in the checkout. A path under the current directory is
/// kept relative, which keeps socket paths short.
pub fn work_dir() -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    let mut dir = base.join("perfbench-run");
    if let Ok(cwd) = std::env::current_dir() {
        if let Ok(rel) = dir.strip_prefix(&cwd) {
            dir = rel.to_path_buf();
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

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
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must lie in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

fn run(args: &Args, process_start: Instant) -> Result<RunResult, String> {
    let (seed, secs) = (args.seed, args.seconds);
    Ok(match (args.workload.as_str(), args.trace) {
        ("serve-mix", false) => {
            let (w, setups) = SetupTimes::first(process_start, || serve_mix::setup(seed))?;
            w.measure(Phase::new(secs, setups, || {
                serve_mix::setup(seed).map(drop)
            }))?
        }
        ("serve-mix", true) => serve_mix::setup(seed)?.traced(secs),
        ("characterize-cold", false) => {
            let (w, setups) = SetupTimes::first(process_start, || cold::setup(seed))?;
            w.measure(Phase::new(secs, setups, || cold::setup(seed).map(drop)))?
        }
        ("characterize-cold", true) => cold::setup(seed)?.traced(secs),
        (other, _) => {
            return Err(format!(
                "unknown workload {other} (serve-mix, characterize-cold)"
            ))
        }
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args, process_start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &result.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = result.problems.is_empty() && result.samples.failed() == 0;
    println!("{}", result.host.finish(&result.context));
    println!(
        "{}",
        measure::result_line(
            correct,
            result.samples.attempted(),
            result.samples.failed(),
            &result.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
