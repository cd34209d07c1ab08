//! `batch_forecast`: the paper's offline evaluation path.
//! `dsgl_core::inference::infer_batch` with the default cold policy —
//! what `Forecaster::forecast_batch` runs — over [`BATCH`] distinct
//! traffic test windows (120 nodes, history 6, 840 variables), which the
//! program splits into lockstep groups of 32 across its default threads.

use crate::models::{self, Forecast, Kind};
use crate::truth::{max_abs_diff, ForecastTruth};
use crate::util::{self, median, mix, Metrics, Tally};
use dsgl_core::inference::infer_batch;
use dsgl_core::Threading;
use dsgl_data::Sample;
use dsgl_ising::{AnnealConfig, AnnealReport};
use std::time::Instant;

/// Windows per batch: two lockstep groups of 32.
pub const BATCH: usize = 64;
/// One-window calls per round, spread over the batch.
const LATENCY_CALLS: usize = 8;
/// Windows re-run under `Threading::Sequential` for the thread-count
/// invariance check: the first lockstep group.
const SEQUENTIAL_CHECK: usize = 32;
/// See `serve_hot::TRUTH_TOL`; the traffic model has the same
/// self-reaction and convergence tolerance.
const TRUTH_TOL: f64 = 1e-3;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 7;
/// Master seed of the accuracy batch; fixed, unlike `--seed`.
const ACCURACY_MASTER: u64 = 0xacc0;

/// How far `--seed` rotates the timed batch, so window positions (and
/// with them the per-window anneal seeds) differ between seeds.
pub fn offset(seed: u64) -> usize {
    (mix(seed) % BATCH as u64) as usize
}

/// The first [`BATCH`] test windows as samples, rotated by `offset`:
/// position `i` holds window `(i + offset) % BATCH`.
pub fn samples(fc: &Forecast, offset: usize) -> Vec<Sample> {
    assert!(
        fc.windows.len() >= BATCH,
        "traffic yields too few test windows"
    );
    (0..BATCH)
        .map(|i| {
            let w = (i + offset) % BATCH;
            Sample {
                history: fc.windows[w].clone(),
                target: fc.targets[w].clone(),
            }
        })
        .collect()
}

type Output = Vec<(Vec<f64>, AnnealReport)>;

fn bits(out: &Output) -> Vec<u64> {
    out.iter()
        .flat_map(|(p, _)| p.iter().map(|v| v.to_bits()))
        .collect()
}

pub fn run(seed: u64, seconds: f64) -> (Tally, Metrics) {
    let setup = || models::setup(Kind::Traffic);
    let (mut setups, fc) = util::Setups::first(SETUPS, setup);
    let offset = offset(seed);
    let batch = samples(&fc, offset);
    let cfg = AnnealConfig::default();
    let master = mix(seed ^ 0xba7c);

    // The accuracy batch, which is also the warm-up: every window in
    // order under a fixed master seed, so `rmse` and `sim_latency_ns`
    // cover the same windows and anneal seeds in every run whatever
    // `--seed` is. Untimed; checked with the rest.
    let accuracy_batch = samples(&fc, 0);
    let accuracy =
        infer_batch(&fc.model, &accuracy_batch, &cfg, ACCURACY_MASTER).expect("accuracy batch");
    let peak_rss = util::peak_rss_mb();
    let mut singles: Vec<(usize, Output)> = Vec::new();
    let mut batches: Vec<Output> = Vec::new();
    let mut latencies = Vec::new();
    let mut throughputs = Vec::new();
    let t0 = Instant::now();
    while throughputs.is_empty() || setups.measured(t0) < seconds {
        for j in 0..LATENCY_CALLS {
            let i = j * (BATCH / LATENCY_CALLS);
            let t = Instant::now();
            let out = infer_batch(&fc.model, &batch[i..=i], &cfg, master ^ i as u64)
                .expect("one-window batch");
            latencies.push(util::ms(t.elapsed()));
            singles.push(((i + offset) % BATCH, out));
        }
        let t = Instant::now();
        let out = infer_batch(&fc.model, &batch, &cfg, master).expect("batch");
        throughputs.push(BATCH as f64 / util::secs(t));
        batches.push(out);
        setups.between_rounds(t0, seconds, setup);
    }
    setups.finish(setup);
    eprintln!(
        "batch_forecast: {} rounds, {:?} windows/s",
        throughputs.len(),
        throughputs.iter().map(|t| t.round()).collect::<Vec<_>>()
    );
    util::print_tail("batch_forecast one-window latency", &latencies);

    let mut tally = Tally::default();
    let truth = ForecastTruth::new(&fc.model, models::machine_rail());
    let truths: Vec<Vec<f64>> = fc.windows[..BATCH].iter().map(|h| truth.solve(h)).collect();
    let check = |tally: &mut Tally, w: usize, pred: &[f64]| {
        let err = max_abs_diff(pred, &truths[w]);
        tally.op((!(err <= TRUTH_TOL)).then(|| {
            format!("batch_forecast window {w}: prediction {err:.3e} from the equilibrium solution")
        }));
    };
    for (w, (pred, _)) in accuracy.iter().enumerate() {
        check(&mut tally, w, pred);
    }
    let first_bits = bits(&batches[0]);
    for out in &batches {
        for (i, (pred, _)) in out.iter().enumerate() {
            check(&mut tally, (i + offset) % BATCH, pred);
        }
        if bits(out) != first_bits {
            tally.op(Some("batch_forecast: repeated batch calls differ".into()));
        }
    }
    for (w, out) in &singles {
        check(&mut tally, *w, &out[0].0);
    }
    let sequential = Threading::Sequential
        .install(|| {
            infer_batch(
                &fc.model,
                &accuracy_batch[..SEQUENTIAL_CHECK],
                &cfg,
                ACCURACY_MASTER,
            )
        })
        .expect("sequential batch");
    for (w, ((seq, _), (par, _))) in sequential.iter().zip(&accuracy).enumerate() {
        let same = seq
            .iter()
            .map(|v| v.to_bits())
            .eq(par.iter().map(|v| v.to_bits()));
        tally.op((!same)
            .then(|| format!("batch_forecast window {w}: differs under Threading::Sequential")));
    }

    let rmse = models::pooled_rmse(
        accuracy
            .iter()
            .zip(&accuracy_batch)
            .map(|((p, _), s)| (p.as_slice(), s.target.as_slice())),
    );
    let sim: Vec<f64> = accuracy.iter().map(|(_, r)| r.sim_time_ns).collect();
    let mut m = Metrics::default();
    m.put("setup_s", setups.median(), "s");
    m.put("latency_p50_ms", median(&latencies), "ms");
    m.put("windows_per_s", median(&throughputs), "1/s");
    m.put("rmse", rmse, "value");
    m.put("sim_latency_ns", util::mean(&sim), "sim_ns");
    m.put("peak_rss_mb", peak_rss, "MiB");
    (tally, m)
}
