//! The two trained forecasters the forecast workloads run, made the
//! way `dsgl_bench::pipeline::train_dense` makes them.

use crate::util::secs;
use dsgl_bench::pipeline::{self, Prepared, Scale};
use dsgl_core::DsGlModel;
use std::time::Instant;

/// Dataset seed. The data and the trained model are the same in every
/// run, so `rmse` and `sim_latency_ns` compare one model across runs;
/// `--seed` varies the windows' order, the key stream and the anneal
/// seeds instead.
pub const DATA_SEED: u64 = 7;

/// Which forecaster.
#[derive(Clone, Copy)]
pub enum Kind {
    /// `serve_hot`: covid, 80 nodes, history 4 → 400 variables, 320 clamped.
    Covid,
    /// `batch_forecast`: traffic, all 120 nodes, history 6 → 840 variables.
    Traffic,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Covid => "covid",
            Kind::Traffic => "traffic",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Kind::Covid => Scale::full(),
            Kind::Traffic => Scale {
                nodes: 120,
                history: 6,
                test_cap: 64,
                ..Scale::full()
            },
        }
    }
}

/// A trained forecaster and its held-out windows.
pub struct Forecast {
    pub model: DsGlModel,
    /// Test history windows, in dataset order.
    pub windows: Vec<Vec<f64>>,
    /// The dataset's targets for those windows.
    pub targets: Vec<Vec<f64>>,
    /// Wall time of data generation and windowing, s.
    pub data_s: f64,
}

fn prepare(kind: Kind) -> (Prepared, f64) {
    let t0 = Instant::now();
    let p = pipeline::prepare(kind.name(), &kind.scale(), DATA_SEED);
    (p, secs(t0))
}

fn finish(p: Prepared, model: DsGlModel, data_s: f64) -> Forecast {
    Forecast {
        model,
        windows: p.test.iter().map(|s| s.history.clone()).collect(),
        targets: p.test.iter().map(|s| s.target.clone()).collect(),
        data_s,
    }
}

/// Generates the data and trains with `pipeline::train_dense`.
pub fn setup(kind: Kind) -> Forecast {
    let (p, data_s) = prepare(kind);
    let (model, _) = pipeline::train_dense(&p, &kind.scale(), DATA_SEED);
    finish(p, model, data_s)
}

/// The same training as [`setup`], step by step, so that the two ridge
/// solves (`fit_ridge_validated` then `fit_ridge`) can be timed from
/// outside. Returns the forecast, the ridge time in seconds, and
/// whether the model equals `train_dense`'s bit for bit.
pub fn setup_timed_ridge(kind: Kind) -> (Forecast, f64, bool) {
    let (p, data_s) = prepare(kind);
    let mut model = DsGlModel::new(p.layout);
    model
        .h_mut()
        .iter_mut()
        .for_each(|h| *h = -pipeline::H_MAGNITUDE);
    let rho = pipeline::lag1_autocorrelation(&p.train, p.layout.frame_len()).clamp(0.0, 0.99);
    model.init_diffusion_prior(&p.dataset.graph, 0.78 * rho, 0.20 * rho);
    let (head, val) = pipeline::head_val_split(&p.train);
    let t_ridge = Instant::now();
    let lambda =
        dsgl_core::ridge::fit_ridge_validated(&mut model, head, val, &pipeline::LAMBDA_GRID)
            .expect("validated ridge fit");
    dsgl_core::ridge::fit_ridge(&mut model, &p.train, lambda).expect("final ridge fit");
    let ridge_s = secs(t_ridge);
    let (reference, _) = pipeline::train_dense(&p, &kind.scale(), DATA_SEED);
    let same = bits(reference.coupling().as_slice()) == bits(model.coupling().as_slice())
        && bits(reference.h()) == bits(model.h());
    (finish(p, model, data_s), ridge_s, same)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The machines' voltage rail, read from a freshly built machine.
pub fn machine_rail() -> f64 {
    dsgl_ising::RealValuedDspu::new(dsgl_ising::Coupling::zeros(1), vec![-1.0])
        .expect("one-node machine")
        .rail()
}

/// Pooled RMSE of predictions against targets.
pub fn pooled_rmse<'a>(pairs: impl Iterator<Item = (&'a [f64], &'a [f64])>) -> f64 {
    let (mut sse, mut count) = (0.0, 0usize);
    for (pred, target) in pairs {
        for (p, t) in pred.iter().zip(target) {
            sse += (p - t) * (p - t);
            count += 1;
        }
    }
    (sse / count.max(1) as f64).sqrt()
}
