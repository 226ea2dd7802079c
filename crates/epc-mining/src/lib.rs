//! # epc-mining
//!
//! Analytics substrate for the INDICE reproduction — the algorithms §2 of
//! the paper delegates to scikit-learn, implemented from scratch:
//!
//! * [`matrix`] — a dense row-major feature matrix with Euclidean metrics;
//! * [`normalize`] — min-max and z-score feature scaling applied before
//!   clustering;
//! * [`kmeans`] — the K-means algorithm (random and k-means++ init, Lloyd
//!   iterations, SSE quality index) of §2.2.2;
//! * [`elbow`] — automatic K selection: "the K value is chosen as the point
//!   where the marginal decrease in the SSE curve is maximized";
//! * [`mod@dbscan`] — DBSCAN for multivariate outlier detection (§2.1.2):
//!   the labelled algorithm, and the grid kernel that finds only its noise
//!   set in linear memory;
//! * [`kdistance`] — the k-distance-graph heuristic that estimates DBSCAN's
//!   `eps` and `minPoints` parameters;
//! * [`cart`] — a single-feature CART regression tree whose splits become
//!   discretization bins (§2.2.2, footnote 4);
//! * [`discretize`] — binning of continuous attributes into labelled
//!   categories for rule mining;
//! * [`apriori`] — frequent-itemset mining (Apriori);
//! * [`rules`] — association-rule generation with the four quality indices
//!   the paper uses: support, confidence, lift, conviction.
//!
//! The future-work section of the paper (§4) plans "other analytics
//! techniques (both supervised and unsupervised)"; this crate ships two:
//!
//! * [`hierarchical`] — agglomerative clustering (single / complete /
//!   average linkage) with dendrogram cutting;
//! * [`naive_bayes`] — a Gaussian naive Bayes classifier (e.g. predicting
//!   the EPC class of an uncertified building);
//! * [`silhouette`] — the silhouette quality index used to compare them.

pub mod apriori;
pub mod cart;
pub mod dbscan;
pub mod discretize;
pub mod elbow;
pub mod hierarchical;
pub mod kdistance;
pub mod kmeans;
pub mod matrix;
pub mod naive_bayes;
pub mod normalize;
pub mod rules;
pub mod silhouette;

pub use apriori::{Apriori, ItemDictionary, Itemset, TransactionSet};
pub use cart::{CartConfig, RegressionTree};
pub use dbscan::{
    dbscan_noise, dbscan_with_runtime, DbscanConfig, DbscanLabel, DbscanNoise, DbscanResult,
};
pub use discretize::Discretizer;
pub use elbow::{elbow_k, sse_curve_with_runtime, sweep_with_runtime, SweepFit};
pub use hierarchical::{agglomerative, hierarchical_clusters, Dendrogram, Linkage};
pub use kmeans::{KMeans, KMeansConfig, KMeansInit, KMeansModel};
pub use matrix::Matrix;
pub use naive_bayes::GaussianNb;
pub use normalize::{MinMaxScaler, ZScoreScaler};
pub use rules::{AssociationRule, RuleConfig};
pub use silhouette::silhouette_score;
