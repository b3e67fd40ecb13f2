//! `characterize-cold`: every synthesizable round-robin arbiter for
//! N in 2..=16 under the paper's three (tool, encoding) series, each
//! generated and synthesized on one thread against a cold synthesis
//! cache. Work unit: arbiters synthesized.

use crate::measure::{hit_frac, HostContext, Phase, Samples};
use crate::trace::Tracer;
use crate::{Layers, RunResult};
use rcarb::arb::characterize::synthesizable;
use rcarb::arb::generator::{reset_synthesis_cache, synthesis_cache_stats};
use rcarb::arb::rng::{mix3, SplitMix64};
use rcarb::arb::{ArbiterGenerator, ArbiterSpec, GeneratedArbiter};
use rcarb::board::device::SpeedGrade;
use rcarb::logic::minimize::Effort;
use rcarb::logic::synth::FsmNetwork;
use rcarb::logic::{clb, techmap, timing, Encoding, EncodingStyle, SynthReport, ToolModel};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Arbiter sizes of one pass. N > 16 is left out: a single N = 32
/// compact synthesis takes seconds and would starve the percentiles.
const NS: std::ops::RangeInclusive<usize> = 2..=16;

/// Set-up warms code paths and lazy statics on arbiters up to this size.
const WARM_N: usize = 6;

/// Span name and per-layer metric of each logic stage.
const STAGES: [(&str, &str); 5] = [
    ("logic.encode", "logic.encode_ms"),
    ("logic.network", "logic.network_ms"),
    ("logic.techmap", "logic.techmap_ms"),
    ("logic.pack", "logic.pack_ms"),
    ("logic.timing", "logic.timing_ms"),
];

/// Least share of the production op time that the traced generate and
/// logic stages must account for.
const MIN_STAGE_COVER: f64 = 0.9;

/// The grade `ArbiterGenerator::new()` targets.
const GRADE: SpeedGrade = SpeedGrade::Minus3;

/// One op: generate and synthesize one arbiter.
#[derive(Debug, Clone)]
pub struct Op {
    n: usize,
    tool: ToolModel,
    encoding: EncodingStyle,
}

impl Op {
    fn spec(&self) -> ArbiterSpec {
        ArbiterSpec::round_robin(self.n).with_encoding(self.encoding)
    }

    /// The production path: generate, then synthesize through the
    /// process-wide cache.
    fn run(&self) -> SynthReport {
        ArbiterGenerator::new()
            .generate(&self.spec())
            .synthesize(&self.tool)
    }

    /// The same op with a span around each stage. `ToolModel` keeps its
    /// effort, sharing and packing private, so the stages are called
    /// with the parameters its constructors document; the caller checks
    /// the result against the production path's report.
    fn run_traced(&self, t: &Tracer) -> SynthReport {
        let _op = t.span("op");
        let arbiter: GeneratedArbiter = {
            let _s = t.span("core.generate");
            ArbiterGenerator::new().generate(&self.spec())
        };
        let (effort, sharing, packing) = tool_parameters(&self.tool);
        let style = if self.tool.forces_one_hot() {
            EncodingStyle::OneHot
        } else {
            self.encoding
        };
        let encoding = {
            let _s = t.span("logic.encode");
            Encoding::assign(arbiter.fsm(), style)
        };
        let network = {
            let _s = t.span("logic.network");
            FsmNetwork::synthesize(arbiter.fsm(), encoding, effort)
        };
        let netlist = {
            let _s = t.span("logic.techmap");
            techmap::map_fsm_network(&network, sharing)
        };
        let clb = {
            let _s = t.span("logic.pack");
            clb::pack(&netlist, packing)
        };
        let timing = {
            let _s = t.span("logic.timing");
            timing::analyze(&netlist, GRADE)
        };
        t.count("logic.lits", u64::from(network.total_lits()));
        t.count("logic.luts", u64::from(clb.luts));
        t.count("logic.clbs", u64::from(clb.clbs));
        SynthReport {
            tool: self.tool.name(),
            encoding_used: style,
            clb,
            timing,
            netlist,
        }
    }
}

/// `(effort, sharing, packing efficiency)` as documented on
/// `ToolModel::synplify` and `ToolModel::fpga_express`.
fn tool_parameters(tool: &ToolModel) -> (Effort, bool, f64) {
    match tool.name() {
        "synplify" => (Effort::High, true, 0.95),
        "fpga_express" => (Effort::Medium, true, 0.62),
        other => panic!("no documented parameters for tool {other}"),
    }
}

/// The 45 ops of one pass, in canonical order.
pub fn grid() -> Vec<Op> {
    let series = [
        (ToolModel::synplify(), EncodingStyle::OneHot),
        (ToolModel::fpga_express(), EncodingStyle::Compact),
        (ToolModel::fpga_express(), EncodingStyle::OneHot),
    ];
    NS.flat_map(|n| {
        series
            .iter()
            .filter(move |(tool, enc)| synthesizable(n, tool, *enc))
            .map(move |(tool, enc)| Op {
                n,
                tool: tool.clone(),
                encoding: *enc,
            })
    })
    .collect()
}

/// The seeded op order of one pass.
pub fn order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(mix3(seed, pass, 0xC01D));
    let mut idx: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        idx.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    idx
}

/// An op's output matches the first pass's.
pub fn matches(reference: &SynthReport, got: &SynthReport) -> bool {
    reference == got
}

pub struct Cold {
    ops: Vec<Op>,
    seed: u64,
    /// The first pass's report per op.
    reference: Vec<Option<SynthReport>>,
}

/// Builds the grid and warms the pipeline on the smallest arbiters,
/// leaving the synthesis cache empty.
pub fn setup(seed: u64) -> Result<Cold, String> {
    let ops = grid();
    reset_synthesis_cache();
    for op in ops.iter().filter(|op| op.n <= WARM_N) {
        black_box(op.run());
    }
    reset_synthesis_cache();
    let reference = vec![None; ops.len()];
    Ok(Cold {
        ops,
        seed,
        reference,
    })
}

impl Cold {
    /// Whole passes on a cold cache until the phase's time is used.
    pub fn measure<S>(mut self, mut phase: Phase<S>) -> Result<RunResult, String>
    where
        S: FnMut() -> Result<(), String>,
    {
        let host = HostContext::start();
        let mut samples = Samples::new();
        let mut pass = 0;
        while pass == 0 || phase.running()? {
            reset_synthesis_cache();
            for i in order(self.seed, pass, self.ops.len()) {
                let t = Instant::now();
                let report = black_box(self.ops[i].run());
                let latency = t.elapsed();
                let reference = self.reference[i].get_or_insert_with(|| report.clone());
                samples.record(latency, matches(reference, &report));
            }
            pass += 1;
        }
        let work = samples.attempted() as f64;
        Ok(RunResult::timed(samples, work, &phase, host))
    }

    /// Passes on a cold cache in which every op runs twice, untraced
    /// and traced, so that both see the same host conditions.
    pub fn traced(mut self, seconds: f64) -> RunResult {
        let host = HostContext::start();
        let before = synthesis_cache_stats();
        let t = Tracer::new();
        let mut samples = Samples::new();
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut passes = 0u64;
        while passes == 0 || (start.elapsed() < budget && !t.full()) {
            reset_synthesis_cache();
            for i in order(self.seed, passes, self.ops.len()) {
                let op_start = Instant::now();
                let report = black_box(self.ops[i].run());
                let latency = op_start.elapsed();
                plain_s += latency.as_secs_f64();
                let reference = self.reference[i].get_or_insert_with(|| report.clone());
                samples.record(latency, matches(reference, &report));

                let op_start = Instant::now();
                let report = self.ops[i].run_traced(&t);
                let latency = op_start.elapsed();
                traced_s += latency.as_secs_f64();
                samples.record(latency, matches(reference, &report));
            }
            passes += 1;
        }
        let after = synthesis_cache_stats();

        let st = t.self_times();
        let ops = st.count("op") as f64;
        let mut layers = Layers::new();
        let mut stage_us = st.total_us("core.generate");
        for (span, metric) in STAGES {
            layers.set(metric, st.total_us(span) / ops / 1e3);
            stage_us += st.total_us(span);
        }
        for counter in ["logic.lits", "logic.luts", "logic.clbs"] {
            layers.set(counter, t.counted(counter) as f64 / passes as f64);
        }
        layers.set("core.generate_us", st.mean_us("core.generate"));
        layers.set("exec.synth_hit_frac", hit_frac(&before, &after));
        layers.set("trace.overhead_frac", traced_s / plain_s - 1.0);
        // The generate and logic stages must account for nearly all of
        // the production op's time (cache lookup and insert, report
        // clone), or the mirror is timing a different pipeline.
        let covered = stage_us / (plain_s * 1e6);
        let mut result =
            RunResult::traced(samples, layers, &t, host).with_context("stage_cover_frac", covered);
        if covered < MIN_STAGE_COVER {
            result.problems.push(format!(
                "the logic stages cover {covered:.3} of the op time (need {MIN_STAGE_COVER})"
            ));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_is_the_45_op_grid() {
        let ops = grid();
        assert_eq!(ops.len(), 45);
        assert_eq!(ops.iter().filter(|op| op.n == 16).count(), 3);
    }

    #[test]
    fn the_seed_permutes_but_keeps_every_op() {
        let a = order(1, 0, 45);
        let b = order(2, 0, 45);
        assert_eq!(a, order(1, 0, 45));
        assert_ne!(a, b);
        let mut sorted = b.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..45).collect::<Vec<_>>());
    }

    #[test]
    fn the_stage_mirror_reproduces_the_tool_model() {
        for op in grid().into_iter().filter(|op| op.n <= 4) {
            let t = Tracer::new();
            assert_eq!(op.run_traced(&t), op.run(), "n={} {}", op.n, op.tool.name());
        }
    }

    #[test]
    fn a_forced_mismatch_is_a_failed_op() {
        let op = &grid()[0];
        let reference = op.run();
        let mut wrong = reference.clone();
        wrong.clb.clbs += 1;
        let mut samples = Samples::new();
        samples.record(Duration::from_millis(1), matches(&reference, &reference));
        samples.record(Duration::from_millis(1), matches(&reference, &wrong));
        assert_eq!((samples.attempted(), samples.failed()), (2, 1));
    }
}
