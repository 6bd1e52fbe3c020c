//! The paper's "Sequential NN": dense ReLU layers with a sigmoid output,
//! trained with Adam on binary cross-entropy.
//!
//! Architecture (§II-D): "two dense layers with 32 nodes and a ReLU
//! activation function and binary output layer with a sigmoid activation
//! function", run for up to 1000 epochs with early stopping — "if the loss
//! function doesn't improve across 20 consecutive epochs, the training
//! stops".

mod dense;
mod optimizer;

pub use dense::DenseLayer;
pub use optimizer::Adam;

use crate::error::MlError;
use crate::linalg::Matrix;
use crate::linear::{log_loss, sigmoid};
use crate::traits::{validate_fit_inputs, Estimator, Features, ProbabilisticEstimator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Early-stopping monitor: stop after `patience` epochs without the loss
/// improving by at least `min_delta`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EarlyStopping {
    /// Number of non-improving epochs tolerated (paper: 20).
    pub patience: usize,
    /// Minimum decrease that counts as an improvement.
    pub min_delta: f64,
    best: f64,
    stall: usize,
}

impl EarlyStopping {
    /// Creates a monitor.
    #[must_use]
    pub fn new(patience: usize, min_delta: f64) -> Self {
        Self {
            patience,
            min_delta,
            best: f64::INFINITY,
            stall: 0,
        }
    }

    /// Feeds one epoch's loss; returns `true` when training should stop.
    pub fn update(&mut self, loss: f64) -> bool {
        if loss < self.best - self.min_delta {
            self.best = loss;
            self.stall = 0;
            false
        } else {
            self.stall += 1;
            self.stall >= self.patience
        }
    }

    /// Best loss observed so far.
    #[must_use]
    pub fn best(&self) -> f64 {
        self.best
    }
}

/// Hyper-parameters for the sequential network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequentialNnParams {
    /// Hidden layer widths (paper: `[32, 32]`).
    pub hidden: Vec<usize>,
    /// Adam learning rate (Keras default 1e-3).
    pub learning_rate: f64,
    /// Mini-batch size (Keras default 32).
    pub batch_size: usize,
    /// Epoch cap (paper: 1000).
    pub max_epochs: usize,
    /// Early-stopping patience (paper: 20).
    pub patience: usize,
    /// Minimum loss decrease that resets patience.
    pub min_delta: f64,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for SequentialNnParams {
    fn default() -> Self {
        Self {
            hidden: vec![32, 32],
            learning_rate: 1e-3,
            batch_size: 32,
            max_epochs: 1000,
            patience: 20,
            min_delta: 0.0,
            seed: 0,
        }
    }
}

/// A fitted sequential network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequentialNn {
    params: SequentialNnParams,
    layers: Vec<DenseLayer>,
    loss_history: Vec<f64>,
    fitted: bool,
}

impl SequentialNn {
    /// Creates an unfitted network.
    #[must_use]
    pub fn new(params: SequentialNnParams) -> Self {
        Self {
            params,
            layers: Vec::new(),
            loss_history: Vec::new(),
            fitted: false,
        }
    }

    /// Per-epoch mean training loss recorded by the last `fit`.
    #[must_use]
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }

    /// Number of epochs the last `fit` actually ran.
    #[must_use]
    pub fn epochs_run(&self) -> usize {
        self.loss_history.len()
    }

    /// Forward pass producing positive-class probabilities.
    fn forward(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        let mut activations = x.clone();
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            activations = layer.forward(&activations, li != last)?;
        }
        Ok((0..activations.n_rows())
            .map(|i| sigmoid(f64::from(activations.get(i, 0))))
            .collect())
    }

    /// One training epoch over shuffled mini-batches; returns mean loss.
    fn run_epoch(
        &mut self,
        x: &Matrix,
        y: &[usize],
        order: &mut [usize],
        rng: &mut StdRng,
        adam: &mut Adam,
    ) -> Result<f64, MlError> {
        order.shuffle(rng);
        let n = x.n_rows();
        let bs = self.params.batch_size.max(1);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(bs) {
            let xb = x.select_rows(batch);
            let yb: Vec<usize> = batch.iter().map(|&i| y[i]).collect();

            // Forward with caches.
            let last = self.layers.len() - 1;
            let mut inputs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
            let mut act = xb;
            let mut preacts: Vec<Matrix> = Vec::with_capacity(self.layers.len());
            for (li, layer) in self.layers.iter().enumerate() {
                inputs.push(act.clone());
                let z = layer.forward(&act, false)?;
                preacts.push(z.clone());
                act = if li != last { DenseLayer::relu(&z) } else { z };
            }

            // Output gradient: dL/dz = p − y (sigmoid + BCE), averaged over
            // the batch.
            let m = batch.len();
            let mut delta = Matrix::zeros(m, 1);
            for (i, &yi) in yb.iter().enumerate() {
                let p = sigmoid(f64::from(act.get(i, 0)));
                epoch_loss += log_loss(p, yi);
                delta.set(i, 0, ((p - yi as f64) / m as f64) as f32);
            }

            // Backward.
            adam.begin_batch();
            for li in (0..self.layers.len()).rev() {
                let is_hidden = li != last;
                let delta_z = if is_hidden {
                    DenseLayer::relu_backward(&delta, &preacts[li])
                } else {
                    delta.clone()
                };
                let (grad_w, grad_b, delta_prev) =
                    self.layers[li].gradients(&inputs[li], &delta_z)?;
                adam.step(li, &mut self.layers[li], &grad_w, &grad_b);
                delta = delta_prev;
            }
        }
        Ok(epoch_loss / n as f64)
    }
}

impl Estimator for SequentialNn {
    fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<(), MlError> {
        let _span = crate::obs::span("ml/nn_fit");
        let n_classes = validate_fit_inputs(&Features::Dense(x), y)?;
        if n_classes > 2 {
            return Err(MlError::InvalidParameter {
                name: "y",
                reason: "the sequential network supports binary labels only".into(),
            });
        }
        if self.params.hidden.contains(&0) {
            return Err(MlError::InvalidParameter {
                name: "hidden",
                reason: "layer widths must be non-zero".into(),
            });
        }
        if !(self.params.learning_rate.is_finite() && self.params.learning_rate > 0.0) {
            return Err(MlError::InvalidParameter {
                name: "learning_rate",
                reason: "must be positive and finite".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        // Build layer stack: p → hidden… → 1.
        let mut dims = vec![x.n_cols()];
        dims.extend_from_slice(&self.params.hidden);
        dims.push(1);
        self.layers = dims
            .windows(2)
            .map(|w| DenseLayer::glorot(w[0], w[1], &mut rng))
            .collect();
        let mut adam = Adam::new(self.params.learning_rate, &self.layers);

        let mut order: Vec<usize> = (0..x.n_rows()).collect();
        let mut stopper = EarlyStopping::new(self.params.patience.max(1), self.params.min_delta);
        self.loss_history.clear();
        self.fitted = true;
        for _ in 0..self.params.max_epochs {
            let loss = self.run_epoch(x, y, &mut order, &mut rng, &mut adam)?;
            self.loss_history.push(loss);
            if stopper.update(loss) {
                break;
            }
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Ok(self
            .forward(x)?
            .iter()
            .map(|&p| usize::from(p >= 0.5))
            .collect())
    }

    fn name(&self) -> &'static str {
        "Sequential NN"
    }
}

impl ProbabilisticEstimator for SequentialNn {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.forward(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> (Matrix, Vec<usize>) {
        // Nonlinear problem: inside vs outside a circle.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..24 {
            let a = i as f32 * std::f32::consts::TAU / 24.0;
            rows.push(vec![0.4 * a.cos(), 0.4 * a.sin()]);
            y.push(0);
            rows.push(vec![1.6 * a.cos(), 1.6 * a.sin()]);
            y.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn quick_params() -> SequentialNnParams {
        SequentialNnParams {
            hidden: vec![16, 16],
            learning_rate: 0.01,
            max_epochs: 400,
            patience: 50,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn learns_the_ring() {
        let (x, y) = ring();
        let mut nn = SequentialNn::new(quick_params());
        nn.fit(&x, &y).unwrap();
        let acc = nn.accuracy(&x, &y).unwrap();
        assert!(acc >= 0.95, "accuracy {acc}");
    }

    #[test]
    fn loss_decreases_over_training() {
        let (x, y) = ring();
        let mut nn = SequentialNn::new(quick_params());
        nn.fit(&x, &y).unwrap();
        let hist = nn.loss_history();
        assert!(hist.len() > 5);
        let early: f64 = hist[..3].iter().sum::<f64>() / 3.0;
        let late: f64 = hist[hist.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            late < early,
            "late loss {late} should be below early loss {early}"
        );
    }

    #[test]
    fn early_stopping_halts_before_epoch_cap() {
        let (x, y) = ring();
        let mut nn = SequentialNn::new(SequentialNnParams {
            patience: 3,
            min_delta: 10.0, // impossible improvement threshold
            max_epochs: 500,
            ..quick_params()
        });
        nn.fit(&x, &y).unwrap();
        assert!(nn.epochs_run() <= 4, "ran {} epochs", nn.epochs_run());
    }

    #[test]
    fn early_stopping_monitor_logic() {
        let mut es = EarlyStopping::new(2, 0.0);
        assert!(!es.update(1.0));
        assert!(!es.update(0.5)); // improvement
        assert!(!es.update(0.6)); // stall 1
        assert!(es.update(0.7)); // stall 2 → stop
        assert_eq!(es.best(), 0.5);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = ring();
        let mut nn = SequentialNn::new(quick_params());
        nn.fit(&x, &y).unwrap();
        for p in nn.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = ring();
        let mut a = SequentialNn::new(quick_params());
        let mut b = SequentialNn::new(quick_params());
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn invalid_params_and_unfitted_errors() {
        let (x, y) = ring();
        let mut nn = SequentialNn::new(SequentialNnParams {
            hidden: vec![0],
            ..Default::default()
        });
        assert!(nn.fit(&x, &y).is_err());
        let mut nn = SequentialNn::new(SequentialNnParams {
            learning_rate: 0.0,
            ..Default::default()
        });
        assert!(nn.fit(&x, &y).is_err());
        let nn = SequentialNn::new(SequentialNnParams::default());
        assert_eq!(nn.predict(&x), Err(MlError::NotFitted));
    }

    #[test]
    fn multiclass_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut nn = SequentialNn::new(SequentialNnParams::default());
        assert!(nn.fit(&x, &[0, 1, 2]).is_err());
    }
}
