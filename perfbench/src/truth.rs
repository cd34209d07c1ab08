//! The benchmark's own solutions of the equilibrium the machines anneal
//! to. A free node settles where its current vanishes,
//! `hᵢσᵢ + Σⱼ Jᵢⱼσⱼ = 0`, so the free block solves
//! `(−diag(h_F) − J_FF)·σ_F = J_FC·σ_C` with the clamped inputs held at
//! their (rail-clipped) values. Nothing here calls the program's
//! solvers: forecasts use dense LU elimination, the graph uses
//! conjugate gradients.

use dsgl_core::DsGlModel;

/// LU-factored forecast equilibrium of one trained model. The system
/// matrix depends only on the model, so it is factored once and every
/// window costs one drive product plus two triangular solves.
pub struct ForecastTruth {
    /// Free (target) variable ids.
    free: Vec<usize>,
    /// Clamped (history) variable count; they are variables `0..clamped`.
    clamped: usize,
    /// Row-major `J_FC`, `free × clamped`.
    j_fc: Vec<f64>,
    /// Packed LU factors of `−diag(h_F) − J_FF` and its row pivots.
    lu: Vec<f64>,
    piv: Vec<usize>,
    rail: f64,
}

impl ForecastTruth {
    /// Factors the model's free-block system. `rail` is the machine's
    /// voltage rail, to which clamped inputs are clipped as the
    /// hardware clips them.
    pub fn new(model: &DsGlModel, rail: f64) -> ForecastTruth {
        let layout = model.layout();
        let j = model.coupling();
        let h = model.h();
        let free: Vec<usize> = layout.target_range().collect();
        let clamped = layout.history_len();
        let nf = free.len();
        let mut j_fc = vec![0.0; nf * clamped];
        let mut a = vec![0.0; nf * nf];
        for (r, &i) in free.iter().enumerate() {
            for c in 0..clamped {
                j_fc[r * clamped + c] = j.get(i, c);
            }
            for (c, &k) in free.iter().enumerate() {
                a[r * nf + c] = -j.get(i, k);
            }
            a[r * nf + r] -= h[i];
        }
        let mut piv: Vec<usize> = (0..nf).collect();
        for col in 0..nf {
            let p = (col..nf)
                .max_by(|&x, &y| a[x * nf + col].abs().total_cmp(&a[y * nf + col].abs()))
                .expect("non-empty pivot range");
            if p != col {
                for k in 0..nf {
                    a.swap(col * nf + k, p * nf + k);
                }
                piv.swap(col, p);
            }
            let d = a[col * nf + col];
            assert!(d != 0.0, "singular forecast equilibrium");
            for r in col + 1..nf {
                let f = a[r * nf + col] / d;
                a[r * nf + col] = f;
                for k in col + 1..nf {
                    a[r * nf + k] -= f * a[col * nf + k];
                }
            }
        }
        ForecastTruth {
            free,
            clamped,
            j_fc,
            lu: a,
            piv,
            rail,
        }
    }

    /// The free block's equilibrium for one history window.
    pub fn solve(&self, history: &[f64]) -> Vec<f64> {
        let nf = self.free.len();
        let sc: Vec<f64> = history[..self.clamped]
            .iter()
            .map(|v| v.clamp(-self.rail, self.rail))
            .collect();
        let b: Vec<f64> = (0..nf)
            .map(|r| {
                self.j_fc[r * self.clamped..(r + 1) * self.clamped]
                    .iter()
                    .zip(&sc)
                    .map(|(w, s)| w * s)
                    .sum()
            })
            .collect();
        let mut y: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        for r in 0..nf {
            for k in 0..r {
                y[r] -= self.lu[r * nf + k] * y[k];
            }
        }
        for r in (0..nf).rev() {
            for k in r + 1..nf {
                y[r] -= self.lu[r * nf + k] * y[k];
            }
            y[r] /= self.lu[r * nf + r];
        }
        y
    }
}

/// Largest absolute difference between two equal-length vectors;
/// infinite when the lengths differ or any difference is not a number,
/// so a NaN output can never pass a tolerance check.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    max_finite(a.iter().zip(b).map(|(x, y)| (x - y).abs()))
}

/// Largest of `values` (0 when empty), or infinity if any is NaN —
/// `f64::max` alone would drop a NaN.
fn max_finite(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(
        0.0,
        |m, v| if v.is_nan() { f64::INFINITY } else { m.max(v) },
    )
}

/// A symmetric sparse system over all nodes, kept by the benchmark
/// itself: `adj[i]` lists `(j, Jᵢⱼ)` and `h[i]` is the self-reaction.
pub struct SparseSystem {
    pub adj: Vec<Vec<(u32, f64)>>,
    pub h: Vec<f64>,
}

impl SparseSystem {
    /// The coupling as a `SparseCoupling`, as the machine holds it.
    pub fn coupling(&self) -> dsgl_ising::SparseCoupling {
        let entries: Vec<(u32, u32, f64)> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .filter(move |&&(j, _)| (i as u32) < j)
                    .map(move |&(j, w)| (i as u32, j, w))
            })
            .collect();
        dsgl_ising::SparseCoupling::from_entries(self.h.len(), &entries).expect("valid entries")
    }

    /// Free-node equilibrium for the given full state (clamped entries
    /// are read, free entries ignored), by conjugate gradients on the
    /// symmetric, diagonally dominant `−diag(h_F) − J_FF`. Returns the
    /// full state with the free entries solved.
    pub fn cg_solve(&self, state: &[f64], free: &[bool]) -> Vec<f64> {
        let n = self.h.len();
        let apply = |x: &[f64], out: &mut [f64]| {
            for i in 0..n {
                if !free[i] {
                    out[i] = 0.0;
                    continue;
                }
                let mut acc = -self.h[i] * x[i];
                for &(j, w) in &self.adj[i] {
                    if free[j as usize] {
                        acc -= w * x[j as usize];
                    }
                }
                out[i] = acc;
            }
        };
        // b = J_FC·σ_C on free rows.
        let mut r = vec![0.0; n];
        for i in 0..n {
            if free[i] {
                r[i] = self.adj[i]
                    .iter()
                    .filter(|&&(j, _)| !free[j as usize])
                    .map(|&(j, w)| w * state[j as usize])
                    .sum();
            }
        }
        let b_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        let mut x = vec![0.0; n];
        let mut p = r.clone();
        let mut ap = vec![0.0; n];
        let mut rr: f64 = r.iter().map(|v| v * v).sum();
        let mut iters = 0;
        while iters < 10_000 && rr.sqrt() > 1e-13 * b_norm {
            apply(&p, &mut ap);
            let alpha = rr / p.iter().zip(&ap).map(|(a, b)| a * b).sum::<f64>();
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rr_next: f64 = r.iter().map(|v| v * v).sum();
            let beta = rr_next / rr;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            rr = rr_next;
            iters += 1;
        }
        (0..n)
            .map(|i| if free[i] { x[i] } else { state[i] })
            .collect()
    }

    /// Largest free-node equilibrium residual `|hᵢσᵢ + Σⱼ Jᵢⱼσⱼ|`;
    /// infinite if any residual is not a number.
    pub fn max_residual(&self, state: &[f64], free: &[bool]) -> f64 {
        let residuals = (0..self.h.len()).filter(|&i| free[i]).map(|i| {
            let current: f64 = self.adj[i]
                .iter()
                .map(|&(j, w)| w * state[j as usize])
                .sum();
            (self.h[i] * state[i] + current).abs()
        });
        max_finite(residuals)
    }
}
