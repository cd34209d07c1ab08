//! Statistics, timing, process and output helpers shared by every
//! workload.

use std::time::{Duration, Instant};

/// Median of `values` (NaN-free); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Splitmix64 finaliser: a pure, well-mixed function of `x`, used to
/// derive every per-run input from `--seed`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `mix` mapped to a uniform value in `[0, 1)`.
pub fn unit(x: u64) -> f64 {
    (mix(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the highest of a few percentiles that still has at least ten
/// samples beyond it, with the sample count (no tail claim below forty
/// samples).
pub fn print_tail(label: &str, samples_ms: &[f64]) {
    let n = samples_ms.len();
    let tail = [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0);
    match tail {
        Some(q) if n >= 40 => println!(
            "tail {label}: p{} = {:.3} ms over {n} samples (p50 {:.3} ms)",
            q * 100.0,
            quantile(samples_ms, q),
            median(samples_ms)
        ),
        _ => println!(
            "tail {label}: {n} samples, too few for a tail (p50 {:.3} ms)",
            median(samples_ms)
        ),
    }
}

/// Set-up samples spread over a run. The first set-up, whose result the
/// run keeps, is timed before the first round; the others are timed
/// between rounds, one each time the measured time passes another
/// `1/count` of the run, and any still missing after the last round are
/// taken then. Spread this way, `setup_s` meets the same machine as the
/// timed rounds do: a burst of set-ups at the start of the run meets
/// only the CPU steal of its first seconds. Time spent here, dropping
/// the extra set-ups included, is left out of the measured time.
pub struct Setups {
    count: usize,
    times: Vec<f64>,
    spent: f64,
}

impl Setups {
    /// Times the set-up the run keeps; `count` set-ups in all.
    pub fn first<T>(count: usize, setup: impl FnOnce() -> T) -> (Setups, T) {
        let t0 = Instant::now();
        let ready = setup();
        let times = vec![secs(t0)];
        let setups = Setups {
            count: count.max(1),
            times,
            spent: 0.0,
        };
        (setups, ready)
    }

    /// Seconds since `run_start`, less the time spent in later set-ups.
    pub fn measured(&self, run_start: Instant) -> f64 {
        secs(run_start) - self.spent
    }

    /// Between two rounds: times the set-ups now due.
    pub fn between_rounds<T>(
        &mut self,
        run_start: Instant,
        seconds: f64,
        setup: impl FnMut() -> T,
    ) {
        let due =
            |s: &Setups| s.measured(run_start) >= seconds * s.times.len() as f64 / s.count as f64;
        self.sample_while(due, setup);
    }

    /// After the last round: times the set-ups still missing.
    pub fn finish<T>(&mut self, setup: impl FnMut() -> T) {
        self.sample_while(|_| true, setup);
        let shown: Vec<f64> = self.times.iter().map(|t| (t * 1e4).round() / 1e4).collect();
        eprintln!("set-ups: {shown:?} s");
    }

    fn sample_while<T>(&mut self, due: impl Fn(&Setups) -> bool, mut setup: impl FnMut() -> T) {
        while self.times.len() < self.count && due(self) {
            let t0 = Instant::now();
            let ready = setup();
            self.times.push(secs(t0));
            drop(ready);
            self.spent += secs(t0);
        }
    }

    /// Median set-up time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Ordered metric list printed as the result's `metrics` object.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric (names are unique by construction).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Value of an already recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust keeps (`{:?}` round-trips f64);
/// non-finite values, which JSON cannot carry, become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Operation tally: every timed or checked operation is attempted; one
/// whose output fails a check, or that errors, is failed and named on
/// standard error (the first 20).
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = problem {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED: {reason}");
            }
        }
    }

    /// Prints the result line: the last line of standard output. A
    /// metric that is not a finite number counts as one more failed
    /// operation and is written as `null`; `correct` is false as soon
    /// as any operation failed.
    pub fn emit(mut self, metrics: &Metrics) {
        for (name, value, _) in &metrics.entries {
            if !value.is_finite() {
                self.op(Some(format!("metric {name} is {value}")));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.to_json()
        );
    }
}
