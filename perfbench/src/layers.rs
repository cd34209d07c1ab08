//! The traced run (`--trace 1`): every per-layer metric, measured from
//! outside the program. It times calls into public functions, reads
//! the spans of `ForecastService::spawn_traced` and the counters of an
//! enabled `TelemetrySink`, records its own spans around the calls it
//! times into the same collector, and writes them all as one Chrome
//! trace. It also prints the kernel-shape census: the mat-vec and GEMM
//! shapes each workload issues, with operation counts and bytes moved
//! computed from the tensor sizes.
//!
//! Every traced run measures every layer, whatever `--workload` names,
//! so that each traced result carries the whole per-layer set; the
//! named workload only names the trace file. Probe sizes are fixed.

use crate::large_graph::{self, WINDOWS};
use crate::models::{self, Forecast, Kind};
use crate::serve_hot::{self, Answer, Checker, LIGHT};
use crate::truth::{max_abs_diff, ForecastTruth};
use crate::util::{self, median, mix, Metrics, Tally};
use dsgl_core::guard::infer_dense_guarded;
use dsgl_core::inference::{
    infer_batch, infer_batch_instrumented, infer_dense, machine_for_sample,
};
use dsgl_core::{MetricsSnapshot, SpanCollector, SpanRecord, TelemetrySink, Threading};
use dsgl_data::Sample;
use dsgl_graph::{CsrGraph, Louvain};
use dsgl_ising::{
    chrome_trace_json, run_lockstep, AnnealConfig, RealValuedDspu, SparseCoupling, Workspace,
};
use dsgl_nn::kernels::{gemm_into_scratch, matvec_rows_into};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Span ring size: far above the few thousand spans one traced run
/// records, so none is evicted (`trace.dropped_spans` must read 0).
const SPAN_CAPACITY: usize = 1 << 17;
/// Windows timed by each single-window probe.
const PROBE_WINDOWS: usize = 16;
/// Light phases per side for the tracing-overhead comparison.
const OVERHEAD_PAIRS: usize = 3;
/// Louvain settings of `dsgl_ising::multigrid` (private constants
/// there: 8 sweeps, 3 levels), repeated so Louvain can be timed alone.
const MG_LOUVAIN_SWEEPS: usize = 8;
const MG_LOUVAIN_LEVELS: usize = 3;

/// The benchmark's own spans, recorded into the service's collector.
struct BenchSpans {
    collector: SpanCollector,
    trace: u64,
}

impl BenchSpans {
    fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = self.collector.now();
        let out = f();
        self.collector
            .record(self.trace, self.trace, name, start, &[]);
        out
    }
}

/// Median wall time of `f` in µs, over `samples` samples of `reps`
/// calls each.
fn time_us(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let per: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&per)
}

fn sample_of(fc: &Forecast, w: usize) -> Sample {
    Sample {
        history: fc.windows[w].clone(),
        target: fc.targets[w].clone(),
    }
}

fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it), from the parent links.
fn self_times(spans: &[SpanRecord]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 && s.parent_id != s.span_id {
            children
                .entry(s.parent_id)
                .or_default()
                .push((s.start_ns, s.start_ns + s.duration_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.duration_ns);
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.span_id)
                .map(|c| c.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).collect())
                .unwrap_or_default();
            iv.retain(|(a, b)| a < b);
            iv.sort_unstable();
            let (mut covered, mut end) = (0u64, lo);
            for (a, b) in iv {
                let a = a.max(end);
                if b > a {
                    covered += b - a;
                    end = b;
                }
            }
            (s.span_id, (s.duration_ns - covered) as f64)
        })
        .collect()
}

/// One census line: a kernel shape a workload issues.
struct Shape {
    workload: &'static str,
    kernel: String,
    /// Calls per round of the workload (integrator stages).
    calls: f64,
    flops: f64,
    bytes: f64,
    us_per_call: f64,
}

fn dense_shape(workload: &'static str, n: usize, w: usize, calls: f64, us: f64) -> Shape {
    let (nf, wf) = (n as f64, w as f64);
    Shape {
        workload,
        kernel: if w == 1 {
            format!("dense matvec {n}x{n}")
        } else {
            format!("gemm {n}x{n} * {n}x{w}")
        },
        calls,
        flops: 2.0 * nf * nf * wf,
        bytes: 8.0 * (nf * nf + 2.0 * nf * wf),
        us_per_call: us,
    }
}

fn csr_shape(workload: &'static str, j: &SparseCoupling, calls: f64, us: f64) -> Shape {
    let stored = 2.0 * j.nnz() as f64;
    let n = j.n() as f64;
    Shape {
        workload,
        kernel: format!("csr matvec n={} stored={}", j.n(), 2 * j.nnz()),
        calls,
        flops: 2.0 * stored,
        bytes: stored * 12.0 + (n + 1.0) * 8.0 + 2.0 * n * 8.0,
        us_per_call: us,
    }
}

fn gemm_us(j: &[f64], n: usize, w: usize) -> f64 {
    let b: Vec<f64> = (0..n * w).map(|i| util::unit(i as u64) - 0.5).collect();
    let mut out = vec![0.0; n * w];
    let mut panel = Vec::new();
    time_us(9, 20, || {
        out.iter_mut().for_each(|v| *v = 0.0);
        gemm_into_scratch(black_box(j), n, n, black_box(&b), w, &mut out, &mut panel);
        black_box(&out);
    })
}

fn matvec_us(j: &[f64], n: usize) -> f64 {
    let x: Vec<f64> = (0..n).map(|i| util::unit(i as u64) - 0.5).collect();
    let mut out = vec![0.0; n];
    time_us(9, 200, || {
        matvec_rows_into(black_box(j), n, black_box(&x), &mut out);
        black_box(&out);
    })
}

fn csr_us(j: &SparseCoupling, reps: usize) -> f64 {
    let x: Vec<f64> = (0..j.n()).map(|i| util::unit(i as u64) - 0.5).collect();
    let mut out = vec![0.0; j.n()];
    time_us(9, reps, || {
        j.matvec(black_box(&x), &mut out);
        black_box(&out);
    })
}

/// Checks lockstep outputs against the equilibrium solution.
fn check_targets(
    tally: &mut Tally,
    what: &str,
    fc: &Forecast,
    truth: &ForecastTruth,
    windows: &[usize],
    machines: &[RealValuedDspu],
) {
    let range = fc.model.layout().target_range();
    for (&w, m) in windows.iter().zip(machines) {
        let err = max_abs_diff(&m.state()[range.clone()], &truth.solve(&fc.windows[w]));
        tally.op((!(err <= serve_hot::TRUTH_TOL))
            .then(|| format!("{what} window {w}: {err:.3e} from the equilibrium solution")));
    }
}

/// `run_lockstep` on `width` distinct windows, ms per window (median of
/// a few repetitions; machines are built outside the timed region).
fn lockstep_ms(
    fc: &Forecast,
    width: usize,
    reps: usize,
    tally: &mut Tally,
    truth: &ForecastTruth,
) -> f64 {
    let cfg = AnnealConfig::default();
    let windows: Vec<usize> = (0..width).map(|k| k % fc.windows.len()).collect();
    let mut ws = Workspace::new();
    let per: Vec<f64> = (0..reps)
        .map(|r| {
            let mut machines: Vec<RealValuedDspu> = windows
                .iter()
                .map(|&w| {
                    let mut rng = StdRng::seed_from_u64(mix((r * 1000 + w) as u64));
                    machine_for_sample(&fc.model, &sample_of(fc, w), &mut rng).expect("machine")
                })
                .collect();
            let t = Instant::now();
            let reports = run_lockstep(&mut machines, &cfg, &mut ws);
            let ms = util::ms(t.elapsed()) / width as f64;
            match reports {
                Some(_) => check_targets(tally, "lockstep", fc, truth, &windows, &machines),
                None => tally.op(Some(format!("run_lockstep declined a batch of {width}"))),
            }
            ms
        })
        .collect();
    median(&per)
}

/// Single-window probes on the serve model: machine build, strict
/// integration, guard overhead.
fn single_window_probes(fc: &Forecast, m: &mut Metrics, tally: &mut Tally, truth: &ForecastTruth) {
    let cfg = AnnealConfig::default();
    let guard = serve_hot::guard();
    let (mut build, mut integrate, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut guarded, mut plain) = (Vec::new(), Vec::new());
    for k in 0..PROBE_WINDOWS {
        let w = k % fc.windows.len();
        let sample = sample_of(fc, w);
        let mut rng = StdRng::seed_from_u64(mix(k as u64));
        let t = Instant::now();
        let mut machine = machine_for_sample(&fc.model, &sample, &mut rng).expect("machine");
        build.push(util::ms(t.elapsed()));
        let t = Instant::now();
        let report = machine.run(&cfg, &mut rng);
        integrate.push(util::ms(t.elapsed()));
        steps.push(report.steps as f64);
        check_targets(
            tally,
            "strict run",
            fc,
            truth,
            &[w],
            std::slice::from_ref(&machine),
        );

        let t = Instant::now();
        let (pg, _, health) = infer_dense_guarded(
            &fc.model,
            &sample,
            &guard,
            &mut StdRng::seed_from_u64(k as u64),
        )
        .expect("guarded call");
        guarded.push(util::ms(t.elapsed()));
        let t = Instant::now();
        let (pu, _) = infer_dense(
            &fc.model,
            &sample,
            &cfg,
            &mut StdRng::seed_from_u64(k as u64),
        )
        .expect("unguarded call");
        plain.push(util::ms(t.elapsed()));
        let same = pg
            .iter()
            .map(|v| v.to_bits())
            .eq(pu.iter().map(|v| v.to_bits()));
        tally.op((!same || health.degraded).then(|| {
            format!("window {w}: guarded call differs from the unguarded one on healthy hardware")
        }));
        let err = max_abs_diff(&pu, &truth.solve(&fc.windows[w]));
        tally.op((!(err <= serve_hot::TRUTH_TOL)).then(|| {
            format!("unguarded call window {w}: {err:.3e} from the equilibrium solution")
        }));
    }
    let integrate_ms = median(&integrate);
    let steps_med = median(&steps);
    m.put("inference.machine_build_ms", median(&build), "ms");
    m.put("guard.overhead_ms", median(&guarded) - median(&plain), "ms");
    m.put("dspu.integrate_ms", integrate_ms, "ms");
    m.put("dspu.steps", steps_med, "count");
    m.put(
        "dspu.ns_per_step",
        integrate_ms * 1e6 / steps_med.max(1.0),
        "ns",
    );
}

/// Serve phases under tracing, plus untraced light phases for the
/// tracing overhead. Returns census shapes for the serve model.
fn serve_section(
    fc: &Forecast,
    seed: u64,
    bench: &BenchSpans,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Vec<(usize, f64)> {
    let keys = serve_hot::key_stream(seed, fc.windows.len());
    let (light_keys, sat_keys) = keys.split_at(LIGHT);
    let sink = TelemetrySink::enabled();
    let mut traced = serve_hot::spawn(fc, sink.clone(), bench.collector.clone());
    let mut plain = serve_hot::spawn(fc, TelemetrySink::noop(), SpanCollector::noop());
    let mut answers: Vec<Answer> = serve_hot::accuracy_pass(&traced, fc);
    answers.extend(serve_hot::accuracy_pass(&plain, fc));

    let (mut lat_traced, mut lat_plain) = (Vec::new(), Vec::new());
    // Alternate which side goes first, so drift in the machine's speed
    // does not favour one side.
    for k in 0..2 * OVERHEAD_PAIRS {
        if (k + k / 2) % 2 == 0 {
            let light = serve_hot::light_phase(&plain, fc, light_keys);
            lat_plain.extend(light.latencies_ms);
            answers.extend(light.answers);
        } else {
            let light = bench.time("bench.light_phase", || {
                serve_hot::light_phase(&traced, fc, light_keys)
            });
            lat_traced.extend(light.latencies_ms);
            answers.extend(light.answers);
        }
    }
    let before = sink.snapshot();
    let (sat, _) = bench.time("bench.saturated_phase", || {
        serve_hot::saturated_phase(&traced, fc, sat_keys)
    });
    let after = sink.snapshot();
    answers.extend(sat);
    traced.shutdown();
    plain.shutdown();
    bench.time("bench.check.serve", || {
        Checker::new(fc).check(tally, &answers)
    });

    let spans = bench.collector.snapshot();
    let sat_start = spans
        .iter()
        .find(|s| s.name == "bench.saturated_phase")
        .map_or(0, |s| s.start_ns);
    let in_sat = |s: &SpanRecord| s.start_ns >= sat_start;
    let self_ns = self_times(&spans);
    let durations = |name: &str, sat_only: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (!sat_only || in_sat(s)))
            .map(|s| s.duration_ns as f64)
            .collect()
    };
    let batches: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "serve.batch" && in_sat(s))
        .collect();
    let batch_self: Vec<f64> = batches.iter().map(|s| self_ns[&s.span_id]).collect();

    let requests = counter_delta(&after, &before, "serve.requests");
    let runs = counter_delta(&after, &before, "guard.runs");
    m.put(
        "serve.admission_us",
        median(&durations("serve.admission", false)) / 1e3,
        "us",
    );
    m.put(
        "serve.queue_wait_ms",
        median(&durations("serve.queue_wait", true)) / 1e6,
        "ms",
    );
    m.put(
        "serve.batch_ms",
        median(&durations("serve.batch", true)) / 1e6,
        "ms",
    );
    m.put("serve.batch_self_ms", median(&batch_self) / 1e6, "ms");
    m.put(
        "serve.requests_per_batch",
        requests / counter_delta(&after, &before, "serve.batches").max(1.0),
        "count",
    );
    m.put(
        "serve.anneals_per_request",
        runs / requests.max(1.0),
        "ratio",
    );
    m.put(
        "serve.coalesced_share",
        counter_delta(&after, &before, "serve.coalesced_hits") / requests.max(1.0),
        "ratio",
    );
    m.put(
        "serve.rejected",
        after.counter("serve.rejected") as f64,
        "count",
    );
    m.put(
        "inference.lockstep_share",
        counter_delta(&after, &before, "anneal.lockstep_windows") / runs.max(1.0),
        "ratio",
    );
    m.put(
        "guard.attempts_per_run",
        counter_delta(&after, &before, "guard.attempts") / runs.max(1.0),
        "ratio",
    );
    m.put(
        "guard.lockstep_retries",
        counter_delta(&after, &before, "anneal.lockstep_retries"),
        "count",
    );
    m.put(
        "trace.overhead_share",
        median(&lat_traced) / median(&lat_plain) - 1.0,
        "ratio",
    );

    // Per-layer self time of the serve span tree, by span name.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.name.starts_with("bench.")) {
        by_name
            .entry(&s.name)
            .or_default()
            .push(self_ns[&s.span_id] / 1e6);
    }
    println!("serve_hot span self time (traced run; all phases):");
    for (name, v) in &by_name {
        println!(
            "  {name:<20} spans {:>5}  median self {:>9.3} ms  total self {:>9.1} ms",
            v.len(),
            median(v),
            v.iter().sum::<f64>()
        );
    }

    // Lockstep width of each saturated batch: its anneal children.
    let mut width_of: HashMap<u64, (usize, f64)> = HashMap::new();
    let mut strict_steps = 0.0;
    for s in spans.iter().filter(|s| in_sat(s)) {
        let steps = s
            .args
            .iter()
            .find(|a| a.key == "steps")
            .map_or(0.0, |a| a.value);
        match s.name.as_str() {
            "anneal.lockstep" => {
                let e = width_of.entry(s.parent_id).or_insert((0, 0.0));
                e.0 += 1;
                e.1 = e.1.max(steps);
            }
            "anneal.strict" => strict_steps += steps,
            _ => {}
        }
    }
    let mut gemm_calls: BTreeMap<usize, f64> = BTreeMap::new();
    for (width, steps) in width_of.values() {
        *gemm_calls.entry(*width).or_default() += steps;
    }
    println!(
        "serve_hot coalesce widths (saturated phase): {:?}",
        batches
            .iter()
            .filter_map(|s| s
                .args
                .iter()
                .find(|a| a.key == "width")
                .map(|a| a.value as usize))
            .fold(BTreeMap::<usize, usize>::new(), |mut h, w| {
                *h.entry(w).or_default() += 1;
                h
            })
    );
    let mut out: Vec<(usize, f64)> = vec![(1, strict_steps)];
    out.extend(gemm_calls);
    out
}

/// Batch probes on the traffic model. Returns the batch's GEMM stage
/// count (sum over lockstep groups of their longest window) and the
/// mean steps of one window.
fn batch_section(
    fc: &Forecast,
    seed: u64,
    bench: &BenchSpans,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (f64, f64) {
    let batch = crate::batch_forecast::samples(fc, crate::batch_forecast::offset(seed));
    let cfg = AnnealConfig::default();
    let truth = ForecastTruth::new(&fc.model, models::machine_rail());
    let sink = TelemetrySink::enabled();
    let out = bench.time("bench.infer_batch.instrumented", || {
        infer_batch_instrumented(&fc.model, &batch, &cfg, mix(seed), &sink).expect("batch")
    });
    for (s, (p, _)) in batch.iter().zip(&out) {
        let err = max_abs_diff(p, &truth.solve(&s.history));
        tally.op((!(err <= serve_hot::TRUTH_TOL)).then(|| format!("batch prediction {err:.3e} off")));
    }
    let snap = sink.snapshot();
    m.put(
        "inference.lockstep_share.batch",
        snap.counter("anneal.lockstep_windows") as f64 / snap.counter("anneal.runs").max(1) as f64,
        "ratio",
    );
    let group_steps: f64 = out
        .chunks(32)
        .map(|g| g.iter().map(|(_, r)| r.steps as f64).fold(0.0, f64::max))
        .sum();
    let (mut auto, mut seq) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let t = Instant::now();
        bench
            .time("bench.infer_batch.auto", || {
                infer_batch(&fc.model, &batch, &cfg, mix(seed))
            })
            .expect("batch");
        auto.push(util::secs(t));
        let t = Instant::now();
        bench
            .time("bench.infer_batch.sequential", || {
                Threading::Sequential.install(|| infer_batch(&fc.model, &batch, &cfg, mix(seed)))
            })
            .expect("batch");
        seq.push(util::secs(t));
    }
    m.put(
        "inference.parallel_speedup",
        median(&seq) / median(&auto),
        "ratio",
    );
    let steps: Vec<f64> = out.iter().map(|(_, r)| r.steps as f64).collect();
    (group_steps, util::mean(&steps))
}

/// Graph probes: Louvain, hierarchy, CSR mat-vec, warm start, fine run.
fn graph_section(
    seed: u64,
    bench: &BenchSpans,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (SparseCoupling, f64) {
    let mut p = bench.time("bench.graph.build", large_graph::build_problem);
    // Louvain alone, on the free subgraph the first level partitions.
    let pos: Vec<usize> = {
        let mut next = 0;
        p.free
            .iter()
            .map(|&f| {
                let k = next;
                next += usize::from(f);
                k
            })
            .collect()
    };
    let nf = p.free.iter().filter(|&&f| f).count();
    let mut edges = Vec::new();
    for (i, row) in p.system.adj.iter().enumerate() {
        for &(j, w) in row {
            let j = j as usize;
            if i < j && p.free[i] && p.free[j] && w != 0.0 {
                edges.push((pos[i], pos[j], w.abs()));
            }
        }
    }
    let graph = CsrGraph::from_edges(nf, &edges).expect("free subgraph");
    let t = Instant::now();
    let communities = bench.time("bench.louvain", || {
        Louvain::new()
            .max_sweeps(MG_LOUVAIN_SWEEPS)
            .max_levels(MG_LOUVAIN_LEVELS)
            .run(&graph, &mut StdRng::seed_from_u64(seed))
    });
    m.put("graph.louvain_s", util::secs(t), "s");
    black_box(communities);
    let t = Instant::now();
    let hierarchy = bench.time("bench.build_hierarchy", || {
        dsgl_ising::build_hierarchy(&p.machine, &large_graph::mg_options())
    });
    m.put("mg.hierarchy_build_s", util::secs(t), "s");
    let hierarchy = hierarchy.expect("hierarchy builds");
    let csr = p.system.coupling();
    m.put("sparse.matvec_us", csr_us(&csr, 20), "us");
    m.put(
        "sparse.matvec_us.sequential",
        Threading::Sequential.install(|| csr_us(&csr, 20)),
        "us",
    );

    let (mut warm, mut fine, mut steps, mut active, mut coarse, mut levels) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for w in 0..WINDOWS {
        let (s, _) = bench.time("bench.graph.window", || {
            large_graph::solve_window(&mut p, &hierarchy, seed, w)
        });
        large_graph::check(tally, &p, w, &s);
        warm.push(s.warm_s * 1e3);
        fine.push(s.fine_s * 1e3);
        steps.push(s.report.steps as f64);
        active.push(s.report.mean_active_fraction);
        let r = s.warm.as_ref();
        coarse.push(r.map_or(0.0, |r| r.coarse_steps as f64));
        levels.push(r.map_or(0.0, |r| r.levels as f64));
    }
    m.put("engine.fine_run_ms", median(&fine), "ms");
    m.put("engine.fine_steps", median(&steps), "count");
    m.put("engine.active_fraction", median(&active), "ratio");
    m.put("mg.warm_start_ms", median(&warm), "ms");
    m.put("mg.coarse_steps", median(&coarse), "count");
    m.put("mg.levels", median(&levels), "count");
    (csr, median(&steps))
}

pub fn run(workload: &str, seed: u64, _seconds: f64) -> (Tally, Metrics) {
    let collector = SpanCollector::with_capacity(SPAN_CAPACITY);
    let bench = BenchSpans {
        trace: collector.reserve(),
        collector: collector.clone(),
    };
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let (covid, covid_ridge, covid_same) = bench.time("bench.setup.covid", || {
        models::setup_timed_ridge(Kind::Covid)
    });
    let (traffic, traffic_ridge, traffic_same) = bench.time("bench.setup.traffic", || {
        models::setup_timed_ridge(Kind::Traffic)
    });
    for (same, what) in [(covid_same, "covid"), (traffic_same, "traffic")] {
        tally.op((!same).then(|| format!("{what}: stepwise training differs from train_dense")));
    }
    m.put("data.generate_s", covid.data_s + traffic.data_s, "s");
    m.put("ridge.fit_s", covid_ridge + traffic_ridge, "s");

    let serve_calls = serve_section(&covid, seed, &bench, &mut m, &mut tally);
    let covid_truth = ForecastTruth::new(&covid.model, models::machine_rail());
    bench.time("bench.single_window", || {
        single_window_probes(&covid, &mut m, &mut tally, &covid_truth)
    });
    let traffic_truth = ForecastTruth::new(&traffic.model, models::machine_rail());
    let w2 = lockstep_ms(&covid, 2, 5, &mut tally, &covid_truth);
    let w8 = lockstep_ms(&covid, 8, 5, &mut tally, &covid_truth);
    let w32 = lockstep_ms(&traffic, 32, 3, &mut tally, &traffic_truth);
    m.put("lockstep.w2_ms_per_window", w2, "ms");
    m.put("lockstep.w8_ms_per_window", w8, "ms");
    m.put("lockstep.w32_ms_per_window", w32, "ms");

    let j400 = covid.model.coupling().as_slice().to_vec();
    let j840 = traffic.model.coupling().as_slice().to_vec();
    let (n400, n840) = (covid.model.layout().total(), traffic.model.layout().total());
    m.put("kernels.matvec_us.n400", matvec_us(&j400, n400), "us");
    m.put("kernels.matvec_us.n840", matvec_us(&j840, n840), "us");
    m.put("kernels.gemm_us.n400_w8", gemm_us(&j400, n400, 8), "us");
    m.put("kernels.gemm_us.n840_w32", gemm_us(&j840, n840, 32), "us");

    let (batch_gemm_calls, traffic_steps) =
        batch_section(&traffic, seed, &bench, &mut m, &mut tally);
    let (graph_csr, fine_steps) = graph_section(seed, &bench, &mut m, &mut tally);
    m.put(
        "sparse.matvec_us.n400",
        csr_us(&SparseCoupling::from_dense(covid.model.coupling()), 200),
        "us",
    );

    // Kernel-shape census.
    let csr400 = SparseCoupling::from_dense(covid.model.coupling());
    let csr840 = SparseCoupling::from_dense(traffic.model.coupling());
    let mut census = Vec::new();
    for &(width, calls) in &serve_calls {
        census.push(if width == 1 {
            csr_shape(
                "serve_hot",
                &csr400,
                calls,
                m.get("sparse.matvec_us.n400").unwrap_or(0.0),
            )
        } else {
            dense_shape("serve_hot", n400, width, calls, gemm_us(&j400, n400, width))
        });
    }
    census.push(dense_shape(
        "batch_forecast",
        n840,
        32,
        batch_gemm_calls,
        m.get("kernels.gemm_us.n840_w32").unwrap_or(0.0),
    ));
    census.push(csr_shape(
        "batch_forecast",
        &csr840,
        traffic_steps * 8.0,
        csr_us(&csr840, 100),
    ));
    census.push(csr_shape(
        "large_graph",
        &graph_csr,
        fine_steps * WINDOWS as f64,
        m.get("sparse.matvec_us").unwrap_or(0.0),
    ));
    println!("kernel-shape census (calls per round; flops and bytes per call are computed from tensor sizes):");
    for s in &census {
        println!(
            "  {:<15} {:<36} calls {:>8.0}  flops/call {:>12.0}  bytes/call (computed) {:>11.0}  {:>9.2} us/call",
            s.workload, s.kernel, s.calls, s.flops, s.bytes, s.us_per_call
        );
    }
    println!("  (large_graph runs the adaptive engine, whose steps update active nodes incrementally; its calls are fine steps, an upper bound on full mat-vecs)");

    let spans = collector.snapshot();
    m.put("trace.dropped_spans", collector.dropped() as f64, "count");
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace_{workload}.json"));
    match std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, chrome_trace_json(&spans)))
    {
        Ok(()) => println!("chrome trace: {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("chrome trace not written: {e}"),
    }
    (tally, m)
}
