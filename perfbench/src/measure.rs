//! Sample statistics, the result line, and host context.

use rcarb::exec::CacheStats;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How many set-ups every run times; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest samples that must lie above a reported p90.
pub const MIN_ABOVE_P90: usize = 10;

/// Sub-buckets per power of two: latencies keep 10 significant bits.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// Latencies at or above 2^40 ns (18 minutes) share the last bucket.
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = ((40 - SUB_BITS + 1) as usize) * SUB as usize;

/// Histogram bucket of a latency in ns: exact below 1024 ns, then 1024
/// buckets per power of two (width at most 1/1024 of the value).
fn bucket(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    if ns < SUB {
        return ns as usize;
    }
    let shift = (63 - ns.leading_zeros()) - SUB_BITS;
    (shift as usize + 1) * SUB as usize + ((ns >> shift) - SUB) as usize
}

/// The smallest latency (ns) that falls into bucket `b`, and the
/// bucket's width.
fn bucket_range(b: usize) -> (u64, u64) {
    let (octave, step) = ((b as u64) / SUB, (b as u64) % SUB);
    if octave == 0 {
        (step, 1)
    } else {
        ((SUB + step) << (octave - 1), 1 << (octave - 1))
    }
}

/// Per-op latencies of one measured phase plus its op accounting.
///
/// Latencies go into a log-linear histogram of fixed size, so the
/// benchmark's own bookkeeping does not grow the process's peak RSS
/// with throughput; a percentile reads as its bucket's midpoint, within
/// 0.05 % of the measured latency. A failed op counts above every
/// completed op, so it misses every latency limit.
#[derive(Debug)]
pub struct Samples {
    counts: Vec<u64>,
    completed: u64,
    failed: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            completed: 0,
            failed: 0,
        }
    }
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one op: its latency, and whether its output matched.
    pub fn record(&mut self, latency: Duration, ok: bool) {
        if ok {
            let ns = u64::try_from(latency.as_nanos()).unwrap_or(MAX_NS);
            self.counts[bucket(ns)] += 1;
            self.completed += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.completed + self.failed
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `(p50, p90)` in milliseconds.
    ///
    /// # Errors
    ///
    /// Refuses when fewer than [`MIN_ABOVE_P90`] samples lie above the
    /// p90, which then would not be a measured percentile.
    pub fn p50_p90(&self) -> Result<(f64, f64), String> {
        Ok((self.percentile(0.50)?, self.percentile(0.90)?))
    }

    /// Nearest-rank percentile in milliseconds (infinite when it falls
    /// on a failed op).
    ///
    /// # Errors
    ///
    /// Refuses when fewer than [`MIN_ABOVE_P90`] samples rank above it.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        let n = self.attempted();
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let above = n.saturating_sub(rank);
        if above < MIN_ABOVE_P90 as u64 {
            return Err(format!(
                "p{:.0} of {n} samples has only {above} above it (need {MIN_ABOVE_P90})",
                q * 100.0
            ));
        }
        let mut seen = 0;
        for (b, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (low, width) = bucket_range(b);
                return Ok((low as f64 + (width - 1) as f64 / 2.0) / 1e6);
            }
        }
        Ok(f64::INFINITY)
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The set-up times of one run, in seconds.
#[derive(Debug, Clone)]
pub struct SetupTimes {
    times: Vec<f64>,
    first_s: f64,
}

impl SetupTimes {
    /// Runs the set-up that builds the state the run measures, and
    /// times it.
    pub fn first<T, E>(
        process_start: Instant,
        setup: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, Self), E> {
        let start = Instant::now();
        let state = setup()?;
        let times = vec![start.elapsed().as_secs_f64()];
        let first_s = process_start.elapsed().as_secs_f64();
        Ok((state, Self { times, first_s }))
    }

    /// Median of the set-ups timed so far.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }

    /// From `process_start` to the end of the first set-up: this also
    /// holds the one-time costs the median leaves out (thread pools,
    /// lazy statics, first page-in of the code).
    pub fn first_s(&self) -> f64 {
        self.first_s
    }
}

/// The measured phase's clock. At [`SETUP_REPEATS`] − 1 evenly spaced
/// points it stops, runs the workload's set-up again, drops the result
/// and times it. The host drifts between fast and slow regimes lasting
/// seconds, so set-ups spread over the run sample it as the measured
/// ops do, where set-ups back to back at the start would all read
/// whichever regime the run began in.
pub struct Phase<S> {
    budget: f64,
    measured: f64,
    /// When the clock last started; `None` once the phase is over.
    resumed: Option<Instant>,
    setups: SetupTimes,
    setup: S,
}

impl<S: FnMut() -> Result<(), String>> Phase<S> {
    pub fn new(seconds: f64, setups: SetupTimes, setup: S) -> Self {
        Self {
            budget: seconds,
            measured: 0.0,
            resumed: Some(Instant::now()),
            setups,
            setup,
        }
    }

    /// Whether measured time remains. Times a set-up first when one is
    /// due; once the time is used, times the set-ups still missing, so
    /// that a short run times them all too, and stops the clock.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn running(&mut self) -> Result<bool, String> {
        let elapsed = self.measured_s();
        let done = self.setups.times.len();
        if elapsed >= self.budget {
            for _ in done..SETUP_REPEATS {
                self.time_setup()?;
            }
            self.measured = self.measured_s();
            self.resumed = None;
            return Ok(false);
        }
        if done < SETUP_REPEATS && elapsed >= self.budget * done as f64 / SETUP_REPEATS as f64 {
            self.time_setup()?;
        }
        Ok(true)
    }

    /// Times one set-up with the phase's clock stopped.
    fn time_setup(&mut self) -> Result<(), String> {
        self.measured = self.measured_s();
        let start = Instant::now();
        (self.setup)()?;
        self.setups.times.push(start.elapsed().as_secs_f64());
        self.resumed = Some(Instant::now());
        Ok(())
    }

    /// Measured seconds so far, set-ups left out.
    pub fn measured_s(&self) -> f64 {
        self.measured + self.resumed.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    pub fn setups(&self) -> &SetupTimes {
        &self.setups
    }
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The benchmark's final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Every digit Rust's shortest round-trip formatting gives; JSON has no
/// infinity or NaN, so those become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host facts recorded beside a run, for diagnosing a noisy verdict
/// later. They never adjust a metric.
#[derive(Debug)]
pub struct HostContext {
    nproc: usize,
    loadavg: String,
    steal_start: Option<u64>,
    started: Instant,
}

impl HostContext {
    /// Snapshot at the start of the measured phase.
    pub fn start() -> Self {
        Self {
            nproc: nproc(),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_default(),
            steal_start: steal_ticks(),
            started: Instant::now(),
        }
    }

    /// One JSON object describing the measured phase.
    pub fn finish(&self, extra: &[(&str, String)]) -> String {
        let steal = match (self.steal_start, steal_ticks()) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
            _ => "null".to_owned(),
        };
        let mut out = format!(
            "{{\"context\": {{\"nproc\": {}, \"loadavg\": \"{}\", \"steal_ticks\": {steal}, \
             \"measured_s\": {}",
            self.nproc,
            self.loadavg,
            json_number(self.started.elapsed().as_secs_f64())
        );
        for (k, v) in extra {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        out.push_str("}}");
        out
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate steal ticks from the `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Share of synthesis-cache lookups between two snapshots that hit.
pub fn hit_frac(before: &CacheStats, after: &CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ns: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in ns {
            s.record(Duration::from_nanos(v), true);
        }
        s
    }

    #[test]
    fn p90_needs_ten_samples_above_it() {
        assert!(
            samples(1..=99).percentile(0.90).is_err(),
            "99 samples leave 9 above"
        );
        let s = samples(1..=100);
        assert_eq!(s.p50_p90(), Ok((50e-6, 90e-6)));
        assert!(samples(0..50).p50_p90().is_err());
    }

    #[test]
    fn buckets_keep_ten_significant_bits() {
        for ns in [0, 1, 1023, 1024, 1025, 4096, 123_456, 98_765_432, MAX_NS] {
            let (low, width) = bucket_range(bucket(ns));
            assert!(
                low <= ns && ns < low + width,
                "{ns} outside [{low}, +{width})"
            );
            assert!(
                width == 1 || width * 1024 <= low,
                "{ns}: width {width} too coarse"
            );
        }
        assert_eq!(bucket(MAX_NS), BUCKETS - 1);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn a_failed_op_is_counted_and_misses_every_limit() {
        let mut s = samples(1..=199);
        s.record(Duration::from_nanos(5), false);
        assert_eq!((s.attempted(), s.failed()), (200, 1));
        assert_eq!(s.percentile(0.95), Ok(190e-6));
        let mut all_failed = Samples::new();
        for _ in 0..200 {
            all_failed.record(Duration::from_nanos(5), false);
        }
        assert_eq!(all_failed.percentile(0.5), Ok(f64::INFINITY));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[metric("p50_ms", 0.123456789, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 0.123456789, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn set_ups_spread_over_the_phase_and_stay_off_its_clock() {
        let (_, setups) = SetupTimes::first(Instant::now(), || Ok::<_, String>(())).unwrap();
        let mut calls = 0;
        let mut phase = Phase::new(0.05, setups, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        });
        let start = Instant::now();
        while phase.running().unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (measured, wall) = (phase.measured_s(), start.elapsed().as_secs_f64());
        assert_eq!(
            measured,
            phase.measured_s(),
            "the clock stops with the phase"
        );
        assert_eq!(phase.setups().times.len(), SETUP_REPEATS);
        assert!(phase.setups().median_s() >= 0.02);
        assert!(
            wall - measured >= 0.08,
            "{wall} s wall, {measured} s measured"
        );
        drop(phase);
        assert_eq!(calls, SETUP_REPEATS - 1);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
