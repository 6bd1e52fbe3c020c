//! # hyperfex-ml
//!
//! A from-scratch machine-learning substrate providing every model the
//! paper compares (§II: Random Forest, Decision Tree, KNN, XGBoost,
//! CatBoost, SGD, SVC, LGBM, Logistic Regression, and a Sequential Deep
//! Neural Network), plus the dense linear algebra and preprocessing they
//! need. No external ML libraries: the paper's scikit-learn / Keras stack
//! is replaced by Rust implementations with matching loss functions, tree
//! growth strategies and (where relevant) default hyper-parameters.
//!
//! All classifiers implement [`Estimator`]; models that produce calibrated
//! positive-class scores also implement [`ProbabilisticEstimator`].
//!
//! ```
//! use hyperfex_ml::prelude::*;
//!
//! // Tiny 2-feature AND-ish problem.
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0],
//! ]).unwrap();
//! let y = vec![0, 0, 0, 1];
//! let mut tree = DecisionTreeClassifier::new(TreeParams::default());
//! tree.fit(&x, &y).unwrap();
//! assert_eq!(tree.predict(&x).unwrap(), y);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bayes;
pub mod boost;
pub mod calibration;
pub mod error;
pub mod forest;
pub mod knn;
pub mod linalg;
pub mod linear;
pub mod nn;
pub mod online;
pub mod preprocessing;
pub mod stream;
pub mod svm;
pub mod traits;
pub mod tree;

pub use error::MlError;
pub use hyperfex_hdc::obs;
pub use linalg::Matrix;
pub use traits::{densify, Estimator, Features, ProbabilisticEstimator};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::bayes::{BernoulliNb, BernoulliNbParams, GaussianNb, GaussianNbParams};
    pub use crate::boost::{
        CatBoostClassifier, CatBoostParams, LightGbmClassifier, LightGbmParams, XgBoostClassifier,
        XgBoostParams,
    };
    pub use crate::calibration::PlattScaling;
    pub use crate::error::MlError;
    pub use crate::forest::{RandomForestClassifier, RandomForestParams};
    pub use crate::knn::{KnnClassifier, KnnParams};
    pub use crate::linalg::Matrix;
    pub use crate::linear::{
        LogisticRegression, LogisticRegressionParams, SgdClassifier, SgdLoss, SgdParams,
    };
    pub use crate::nn::{EarlyStopping, SequentialNn, SequentialNnParams};
    pub use crate::online::{OnlineHdcClassifier, OnlineTrainerKind};
    pub use crate::preprocessing::{MinMaxScaler, StandardScaler};
    pub use crate::stream::EstimatorSink;
    pub use crate::svm::{Kernel, SvcClassifier, SvcParams};
    pub use crate::traits::{densify, Estimator, Features, ProbabilisticEstimator};
    pub use crate::tree::{DecisionTreeClassifier, TreeParams};
}
