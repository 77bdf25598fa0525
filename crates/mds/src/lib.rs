//! Multidimensional scaling for Stay-Away.
//!
//! This crate implements the dimensionality-reduction pipeline that the
//! Stay-Away controller (Rameshan et al., Middleware 2014, §2.2 and §4) uses
//! to turn high-dimensional resource-usage measurement vectors into a stable
//! 2-D *state space*:
//!
//! * [`normalize`] — per-metric min-max normalisation into `[0, 1]` so that
//!   metrics with large ranges do not bias the embedding (§4);
//! * [`dedup`] — representative-sample deduplication that keeps the SMACOF
//!   observation matrix small (§4's optimisation);
//! * [`distance`] — dissimilarity matrices over measurement vectors;
//! * [`classical`] — classical (Torgerson) MDS used to seed the iterative
//!   solver, built on a from-scratch Jacobi eigensolver ([`linalg`]);
//! * [`smacof`] — the SMACOF stress-majorization solver referenced by the
//!   paper, with warm-start support for incremental embedding;
//! * [`procrustes`] — orthogonal Procrustes alignment that keeps successive
//!   embeddings in the same frame so trajectories stay meaningful;
//! * [`pca`] — a PCA projector used only as an ablation baseline (§2.2
//!   argues MDS is preferable to projection operators such as PCA).
//!
//! # Example
//!
//! Embed a handful of 4-D measurement vectors into the plane:
//!
//! ```
//! use stayaway_mds::{distance::DistanceMatrix, smacof::Smacof};
//!
//! # fn main() -> Result<(), stayaway_mds::MdsError> {
//! let vectors = vec![
//!     vec![0.0, 0.0, 0.1, 0.0],
//!     vec![0.9, 0.8, 0.1, 0.0],
//!     vec![0.1, 0.1, 0.0, 0.1],
//!     vec![0.8, 0.9, 0.2, 0.1],
//! ];
//! let dist = DistanceMatrix::from_vectors(&vectors)?;
//! let embedding = Smacof::new(2).embed(&dist)?;
//! assert_eq!(embedding.len(), 4);
//! // Similar vectors land near each other: 0 and 2 are closer than 0 and 1.
//! let d02 = embedding.distance(0, 2);
//! let d01 = embedding.distance(0, 1);
//! assert!(d02 < d01);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classical;
pub mod dedup;
pub mod distance;
pub mod embedding;
pub mod linalg;
pub mod normalize;
pub mod pca;
pub mod procrustes;
pub mod smacof;

mod error;

pub use embedding::Embedding;
pub use error::MdsError;
