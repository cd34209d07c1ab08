//! `large_graph`: sparse imputation on a planted-partition graph of
//! [`NODES`] nodes, built as `scaling_profile` builds it — 256-node
//! communities, one node in [`CLAMP_EVERY`] clamped, clamp values
//! drifting over [`WINDOWS`] windows — solved with `scaling_profile`'s
//! adaptive config and a multigrid warm start: `build_hierarchy` once in
//! set-up, then per window `warm_start_with` and `RealValuedDspu::run`.

use crate::truth::SparseSystem;
use crate::util::{self, median, mix, unit, Metrics, Tally};
use dsgl_graph::generators::planted_partition;
use dsgl_ising::{
    build_hierarchy, warm_start_with, AnnealConfig, AnnealReport, EngineMode, MultigridHierarchy,
    MultigridOptions, MultigridReport, RealValuedDspu, SparseCoupling,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Graph size: large enough that the CSR mat-vec crosses the
/// program's parallel-work threshold.
pub const NODES: usize = 50_000;
/// Graph and drift seed: the same graph and the same drifting windows
/// in every run (`scaling_profile`'s default seed); `--seed` picks the
/// order the timed rounds visit the windows in and their initial free
/// states.
const GRAPH_SEED: u64 = 7;
/// Seed of the accuracy round's initial states and anneals; fixed, so
/// `rmse` and `sim_latency_ns` cover the same windows and seeds in every
/// run whatever `--seed` is.
const ACCURACY_SEED: u64 = 0xacc0;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 9;
/// One node in `CLAMP_EVERY` is clamped (2%, interleaved).
pub const CLAMP_EVERY: usize = 50;
/// Drifting windows per round.
pub const WINDOWS: usize = 8;
/// `hᵢ = −(margin + Σⱼ|Jᵢⱼ|)`, as in `scaling_profile`.
const DIAGONAL_MARGIN: f64 = 0.05;

/// `scaling_profile`'s adaptive anneal config.
pub fn anneal_config() -> AnnealConfig {
    AnnealConfig {
        mode: EngineMode::adaptive(),
        max_time_ns: 25_000.0,
        tolerance: 1e-5,
        ..AnnealConfig::default()
    }
}

/// `scaling_profile`'s multigrid options.
pub fn mg_options() -> MultigridOptions {
    MultigridOptions {
        levels: 3,
        coarse_tol: 1e-6,
    }
}

/// Largest accepted free-node residual `|hᵢσᵢ + Σⱼ Jᵢⱼσⱼ|`: the engine
/// stops at |dσ/dt| below the tolerance (rail/ns), i.e. a current below
/// tolerance × capacitance; a factor of 10 covers nodes the adaptive
/// engine last checked a few steps before it stopped.
pub fn residual_tol(machine: &RealValuedDspu) -> f64 {
    10.0 * anneal_config().tolerance * machine.capacitance()
}

/// The graph problem: machine, the benchmark's own copy of the system,
/// and the clamp pattern.
pub struct Problem {
    pub machine: RealValuedDspu,
    pub system: SparseSystem,
    /// `(node, community block)` of every clamped node.
    pub clamped: Vec<(usize, usize)>,
    pub free: Vec<bool>,
}

/// Clamp value of a node of `block` in window `w`: a block-correlated
/// level plus a per-window drift.
pub fn clamp_value(block: usize, window: usize) -> f64 {
    let base = unit(block as u64 + 1) - 0.5;
    let drift = (unit(mix(GRAPH_SEED) ^ ((block as u64) << 20) ^ (window as u64 + 1)) - 0.5) * 0.5;
    (0.5 * base + drift).clamp(-0.8, 0.8)
}

/// Builds the graph, the machine (clamped for window 0) and the
/// benchmark's own copy of the linear system.
pub fn build_problem() -> Problem {
    let n = NODES;
    let communities = (n / 256).max(4);
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED ^ n as u64);
    let graph = planted_partition(n, communities, 8, 2, &mut rng);
    let block_len = n.div_ceil(communities);
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut row_sum = vec![0.0f64; n];
    let entries: Vec<(u32, u32, f64)> = graph
        .edges()
        .iter()
        .map(|&(u, v, w)| {
            let w = if u / block_len == v / block_len {
                w
            } else {
                w * 0.2
            };
            adj[u].push((v as u32, w));
            adj[v].push((u as u32, w));
            row_sum[u] += w.abs();
            row_sum[v] += w.abs();
            (u as u32, v as u32, w)
        })
        .collect();
    let h: Vec<f64> = row_sum.iter().map(|s| -(DIAGONAL_MARGIN + s)).collect();
    let coupling = SparseCoupling::from_entries(n, &entries).expect("valid entries");
    let mut machine = RealValuedDspu::from_sparse(coupling, h.clone()).expect("valid machine");
    let clamped: Vec<(usize, usize)> = (0..n)
        .step_by(CLAMP_EVERY)
        .map(|i| (i, i / block_len))
        .collect();
    let mut free = vec![true; n];
    for &(i, b) in &clamped {
        free[i] = false;
        machine.clamp(i, clamp_value(b, 0)).expect("in range");
    }
    Problem {
        machine,
        system: SparseSystem { adj, h },
        clamped,
        free,
    }
}

/// Set-up: the problem plus its multigrid hierarchy.
pub fn setup() -> (Problem, MultigridHierarchy) {
    let p = build_problem();
    let hierarchy = build_hierarchy(&p.machine, &mg_options()).expect("hierarchy builds");
    (p, hierarchy)
}

/// One solved window.
pub struct Solved {
    pub report: AnnealReport,
    pub warm: Option<MultigridReport>,
    /// Seconds spent in the warm start and the fine anneal.
    pub warm_s: f64,
    pub fine_s: f64,
    pub state: Vec<f64>,
}

/// Solves window `w`: clamp update, seeded free state, multigrid warm
/// start, fine anneal. Timing covers only these calls.
pub fn solve_window(
    p: &mut Problem,
    hierarchy: &MultigridHierarchy,
    seed: u64,
    w: usize,
) -> (Solved, f64) {
    let cfg = anneal_config();
    let t0 = Instant::now();
    for &(i, b) in &p.clamped {
        p.machine.clamp(i, clamp_value(b, w)).expect("in range");
    }
    let mut rng = StdRng::seed_from_u64(mix(seed ^ (w as u64) << 32));
    p.machine.randomize_free(&mut rng);
    let t_warm = Instant::now();
    let warm = warm_start_with(&mut p.machine, hierarchy, &mg_options(), &cfg);
    let warm_s = util::secs(t_warm);
    let t_fine = Instant::now();
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xf1fe ^ (w as u64) << 32));
    let report = p.machine.run(&cfg, &mut rng);
    let fine_s = util::secs(t_fine);
    let total = util::secs(t0);
    let solved = Solved {
        report,
        warm,
        warm_s,
        fine_s,
        state: p.machine.state().to_vec(),
    };
    (solved, total)
}

/// Checks one window's output: converged, warm-started, and every free
/// node's equilibrium residual within [`residual_tol`].
pub fn check(tally: &mut Tally, p: &Problem, w: usize, s: &Solved) {
    let tol = residual_tol(&p.machine);
    let residual = p.system.max_residual(&s.state, &p.free);
    tally.op(if !s.report.converged {
        Some(format!("large_graph window {w}: did not converge"))
    } else if s.warm.is_none() {
        Some(format!(
            "large_graph window {w}: multigrid warm start fell back to cold"
        ))
    } else if !(residual <= tol) {
        Some(format!(
            "large_graph window {w}: residual {residual:.3e} above {tol:.1e}"
        ))
    } else {
        None
    });
}

/// RMSE of the free nodes against the benchmark's conjugate-gradient
/// solution, pooled over `solved` (window `w` at position `w`).
pub fn rmse_vs_cg(p: &Problem, solved: &[Solved]) -> f64 {
    let (mut sse, mut count) = (0.0, 0usize);
    for (w, s) in solved.iter().enumerate() {
        let mut clamps = s.state.clone();
        for &(i, b) in &p.clamped {
            clamps[i] = clamp_value(b, w);
        }
        let truth = p.system.cg_solve(&clamps, &p.free);
        for i in (0..truth.len()).filter(|&i| p.free[i]) {
            sse += (s.state[i] - truth[i]).powi(2);
            count += 1;
        }
    }
    (sse / count.max(1) as f64).sqrt()
}

pub fn run(seed: u64, seconds: f64) -> (Tally, Metrics) {
    let (mut setups, (mut p, hierarchy)) = util::Setups::first(SETUPS, setup);
    let mut tally = Tally::default();
    // The accuracy round, which is also the warm-up: every window in
    // order under fixed seeds. Untimed; checked like the timed windows.
    let accuracy: Vec<Solved> = (0..WINDOWS)
        .map(|w| {
            let (solved, _) = solve_window(&mut p, &hierarchy, ACCURACY_SEED, w);
            check(&mut tally, &p, w, &solved);
            solved
        })
        .collect();
    let mut first: Vec<Option<Solved>> = (0..WINDOWS).map(|_| None).collect();
    let offset = (mix(seed) % WINDOWS as u64) as usize;
    let mut latencies = Vec::new();
    let mut throughputs = Vec::new();
    let mut peak_rss = 0.0;
    let t0 = Instant::now();
    while throughputs.is_empty() || setups.measured(t0) < seconds {
        let mut round_s = 0.0;
        for k in 0..WINDOWS {
            let w = (k + offset) % WINDOWS;
            let (solved, total) = solve_window(&mut p, &hierarchy, seed, w);
            round_s += total;
            latencies.push((solved.warm_s + solved.fine_s) * 1e3);
            check(&mut tally, &p, w, &solved);
            match &first[w] {
                None => first[w] = Some(solved),
                Some(f) if f.state != solved.state => {
                    tally.op(Some(format!("large_graph window {w}: repeat differs")));
                }
                Some(_) => {}
            }
        }
        throughputs.push(WINDOWS as f64 / round_s);
        if throughputs.len() == 1 {
            peak_rss = util::peak_rss_mb();
        }
        setups.between_rounds(t0, seconds, setup);
    }
    setups.finish(setup);
    eprintln!(
        "large_graph: {} rounds, {:?} windows/s",
        throughputs.len(),
        throughputs
            .iter()
            .map(|t| (t * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    util::print_tail("large_graph window latency", &latencies);
    let sim: Vec<f64> = accuracy.iter().map(|s| s.report.sim_time_ns).collect();
    let mut m = Metrics::default();
    m.put("setup_s", setups.median(), "s");
    m.put("latency_p50_ms", median(&latencies), "ms");
    m.put("windows_per_s", median(&throughputs), "1/s");
    m.put("rmse", rmse_vs_cg(&p, &accuracy), "value");
    m.put("sim_latency_ns", util::mean(&sim), "sim_ns");
    m.put("peak_rss_mb", peak_rss, "MiB");
    (tally, m)
}
