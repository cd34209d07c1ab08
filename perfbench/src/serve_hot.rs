//! `serve_hot`: the covid forecaster behind `ForecastService` with
//! `ServeConfig::default()`, driven by the hot-head key stream of
//! `serve_profile` in two phases per round:
//!
//! * *light* — one request in flight at a time, so nothing queues and
//!   nothing coalesces; each request is timed from its send to its
//!   reply. (An open-loop generator at several times the service time
//!   leaves the cores idle between requests, and on a 2-vCPU virtual
//!   machine a request that starts after an idle gap runs in 15 ms or
//!   in 30–50 ms, which moved the median by ±20% between runs.)
//! * *saturated* — the generator keeps [`IN_FLIGHT`] tickets queued
//!   (closed loop, far below the default queue capacity of 64) and a
//!   collector thread waits on them; duplicates now coalesce.

use crate::models::{self, Forecast, Kind};
use crate::truth::{max_abs_diff, ForecastTruth};
use crate::util::{self, median, mix, Metrics, Tally};
use dsgl_core::guard::infer_batch_guarded_seeded_instrumented;
use dsgl_core::{GuardedAnneal, SpanCollector, TelemetrySink};
use dsgl_data::Sample;
use dsgl_ising::fault::FaultModel;
use dsgl_ising::AnnealConfig;
use dsgl_serve::{ForecastResponse, ForecastService, ServeConfig, ServeError, Ticket};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

/// Light-phase requests per round.
pub const LIGHT: usize = 60;
/// Saturated-phase requests per round.
pub const SATURATED: usize = 200;
/// Tickets the saturated generator keeps queued.
pub const IN_FLIGHT: usize = 16;
/// Share of requests, per mille, that repeat the current hot key.
const HOT_PER_MILLE: u64 = 800;
/// The hot key rotates every this many requests.
const ROTATION: usize = 50;
/// Set-ups per run, spread over it; `setup_s` is their median. A
/// covid set-up takes about 0.15 s, so many samples are cheap.
const SETUPS: usize = 31;
/// Seed of the accuracy pass's anneal seeds; fixed, unlike `--seed`.
const ACCURACY_SEED: u64 = 0xacc0;
/// Largest accepted distance of a prediction from the benchmark's own
/// equilibrium solution. The anneal stops at |dσ/dt| < 1e-6 rail/ns,
/// i.e. a current residual below 1e-4 against a self-reaction of 2,
/// which bounds the error near 5e-5; 1e-3 leaves a margin of 20.
pub const TRUTH_TOL: f64 = 1e-3;

/// One request's key: test window index and anneal seed.
pub type Key = (usize, u64);

/// The round's key stream: requests `0..LIGHT` are the light phase,
/// the rest the saturated phase. Which requests are hot is fixed, so
/// every seed has the same duplicate structure; the seed picks the
/// windows and the anneal seeds. Cold requests walk the windows in
/// order, so every round answers every test window.
pub fn key_stream(seed: u64, n_windows: usize) -> Vec<Key> {
    let offset = (mix(seed) % n_windows as u64) as usize;
    let mut cold = 0usize;
    (0..LIGHT + SATURATED)
        .map(|i| {
            let h = (i as u64).wrapping_mul(2_654_435_761) % 1000;
            if h < HOT_PER_MILLE {
                let k = i / ROTATION;
                ((k * 7 + offset) % n_windows, mix(seed ^ ((k as u64) << 1)))
            } else {
                cold += 1;
                (
                    (cold + offset) % n_windows,
                    mix(seed ^ ((i as u64) << 1 | 1)),
                )
            }
        })
        .collect()
}

/// The guard the service runs (the default anneal, default policy).
pub fn guard() -> GuardedAnneal {
    GuardedAnneal::new(AnnealConfig::default())
}

/// Spawns the service under its default configuration.
pub fn spawn(fc: &Forecast, sink: TelemetrySink, spans: SpanCollector) -> ForecastService {
    ForecastService::spawn_traced(
        fc.model.clone(),
        guard(),
        sink,
        spans,
        ServeConfig::default(),
    )
    .expect("default serve config is valid")
}

/// Answered request: its key and the service's reply.
pub type Answer = (Key, Result<ForecastResponse, ServeError>);

/// Light phase output.
pub struct Light {
    pub latencies_ms: Vec<f64>,
    pub answers: Vec<Answer>,
}

/// Light phase: one request in flight at a time, each sent as soon as
/// the previous reply arrived and timed from its send to its reply.
pub fn light_phase(svc: &ForecastService, fc: &Forecast, keys: &[Key]) -> Light {
    let mut out = Light {
        latencies_ms: Vec::with_capacity(keys.len()),
        answers: Vec::with_capacity(keys.len()),
    };
    for &(w, seed) in keys {
        let window = fc.windows[w].clone();
        let t = Instant::now();
        let reply = svc.forecast(window, seed);
        out.latencies_ms.push(util::ms(t.elapsed()));
        out.answers.push(((w, seed), reply));
    }
    out
}

/// Closed-loop phase: returns the answers and the wall time from the
/// first submit to the last reply, seconds.
pub fn saturated_phase(svc: &ForecastService, fc: &Forecast, keys: &[Key]) -> (Vec<Answer>, f64) {
    let (tx, rx) = mpsc::sync_channel::<(Key, Result<Ticket, ServeError>)>(IN_FLIGHT);
    let t0 = Instant::now();
    let answers = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|(key, ticket)| (key, ticket.and_then(Ticket::wait)))
                .collect::<Vec<_>>()
        });
        for &(w, seed) in keys {
            let ticket = svc.submit(fc.windows[w].clone(), seed);
            tx.send(((w, seed), ticket)).expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    (answers, util::secs(t0))
}

/// The accuracy pass, which is also the warm-up before the first timed
/// phase: every test window once, in order, one request in flight, each
/// under an anneal seed fixed per window. `rmse` and `sim_latency_ns`
/// come from it alone, so they cover the same windows and seeds in
/// every run whatever `--seed` is. Untimed; checked like every other
/// answer.
pub fn accuracy_pass(svc: &ForecastService, fc: &Forecast) -> Vec<Answer> {
    (0..fc.windows.len())
        .map(|w| {
            let seed = mix(ACCURACY_SEED ^ w as u64);
            ((w, seed), svc.forecast(fc.windows[w].clone(), seed))
        })
        .collect()
}

/// Checks every answer: no error, not degraded, bit-identical to the
/// single-window guarded call for its key (the coalescing contract),
/// and within [`TRUTH_TOL`] of the equilibrium solution.
pub struct Checker<'a> {
    fc: &'a Forecast,
    truth: ForecastTruth,
    truths: HashMap<usize, Vec<f64>>,
    references: HashMap<Key, Vec<f64>>,
}

impl<'a> Checker<'a> {
    pub fn new(fc: &'a Forecast) -> Checker<'a> {
        Checker {
            fc,
            truth: ForecastTruth::new(&fc.model, models::machine_rail()),
            truths: HashMap::new(),
            references: HashMap::new(),
        }
    }

    pub fn check(&mut self, tally: &mut Tally, answers: &[Answer]) {
        for ((w, seed), reply) in answers {
            let problem = match reply {
                Err(e) => Some(format!("serve_hot request (window {w}, seed {seed}): {e}")),
                Ok(r) => self.problem(*w, *seed, r),
            };
            tally.op(problem);
        }
    }

    fn problem(&mut self, w: usize, seed: u64, r: &ForecastResponse) -> Option<String> {
        if r.health.degraded || r.slo_degraded {
            return Some(format!(
                "serve_hot window {w} seed {seed}: degraded response"
            ));
        }
        let fc = self.fc;
        let reference = self.references.entry((w, seed)).or_insert_with(|| {
            let sample = Sample {
                history: fc.windows[w].clone(),
                target: vec![0.0; fc.model.layout().target_len()],
            };
            infer_batch_guarded_seeded_instrumented(
                &fc.model,
                std::slice::from_ref(&sample),
                &guard(),
                &[seed],
                &FaultModel::none(),
                &TelemetrySink::noop(),
            )
            .expect("single-window guarded reference")
            .remove(0)
            .0
        });
        if reference
            .iter()
            .map(|v| v.to_bits())
            .ne(r.prediction.iter().map(|v| v.to_bits()))
        {
            return Some(format!(
                "serve_hot window {w} seed {seed}: response differs from the single-window guarded call"
            ));
        }
        let truth = self
            .truths
            .entry(w)
            .or_insert_with(|| self.truth.solve(&fc.windows[w]));
        let err = max_abs_diff(&r.prediction, truth);
        (!(err <= TRUTH_TOL)).then(|| {
            format!("serve_hot window {w}: prediction {err:.3e} from the equilibrium solution")
        })
    }
}

/// RMSE and mean simulated anneal time over the answers of
/// [`accuracy_pass`] (a failed answer is already counted as failed).
pub fn accuracy(fc: &Forecast, answers: &[Answer]) -> (f64, f64) {
    let answered: Vec<(usize, &ForecastResponse)> = answers
        .iter()
        .filter_map(|((w, _), reply)| reply.as_ref().ok().map(|r| (*w, r)))
        .collect();
    let rmse = models::pooled_rmse(
        answered
            .iter()
            .map(|(w, r)| (r.prediction.as_slice(), fc.targets[*w].as_slice())),
    );
    let sim: Vec<f64> = answered
        .iter()
        .map(|(_, r)| r.health.anneal_sim_time_ns)
        .collect();
    (rmse, util::mean(&sim))
}

/// Untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> (Tally, Metrics) {
    let setup = || {
        let fc = models::setup(Kind::Covid);
        let svc = spawn(&fc, TelemetrySink::noop(), SpanCollector::noop());
        (fc, svc)
    };
    let (mut setups, (fc, mut svc)) = util::Setups::first(SETUPS, setup);
    let keys = key_stream(seed, fc.windows.len());
    let (light_keys, sat_keys) = keys.split_at(LIGHT);

    let mut answers = accuracy_pass(&svc, &fc);
    let (rmse, sim_ns) = accuracy(&fc, &answers);
    let mut latencies = Vec::new();
    let mut throughputs = Vec::new();
    let mut peak_rss = 0.0;
    let t0 = Instant::now();
    while throughputs.is_empty() || setups.measured(t0) < seconds {
        let light = light_phase(&svc, &fc, light_keys);
        let (sat, wall) = saturated_phase(&svc, &fc, sat_keys);
        latencies.extend(light.latencies_ms);
        throughputs.push(sat.len() as f64 / wall);
        if throughputs.len() == 1 {
            peak_rss = util::peak_rss_mb();
        }
        answers.extend(light.answers);
        answers.extend(sat);
        setups.between_rounds(t0, seconds, setup);
    }
    setups.finish(setup);
    svc.shutdown();
    eprintln!(
        "serve_hot: {} rounds, saturated {:?} windows/s",
        throughputs.len(),
        throughputs.iter().map(|t| t.round()).collect::<Vec<_>>()
    );
    util::print_tail("serve_hot light latency", &latencies);

    let mut tally = Tally::default();
    Checker::new(&fc).check(&mut tally, &answers);
    let mut m = Metrics::default();
    m.put("setup_s", setups.median(), "s");
    m.put("latency_p50_ms", median(&latencies), "ms");
    m.put("windows_per_s", median(&throughputs), "1/s");
    m.put("rmse", rmse, "value");
    m.put("sim_latency_ns", sim_ns, "sim_ns");
    m.put("peak_rss_mb", peak_rss, "MiB");
    (tally, m)
}
