//! Principal component analysis — the ablation baseline of §2.2.
//!
//! The paper argues that a projection operator such as PCA superimposes
//! points along the discarded directions, while MDS rearranges points to
//! preserve *relative distances*. We implement PCA so the
//! `ablation_pca` bench can quantify that difference (violation-cluster
//! separation under PCA vs MDS).

use crate::embedding::Embedding;
use crate::linalg::{symmetric_eigen, Matrix};
use crate::MdsError;

/// A fitted PCA projector.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    components: Matrix, // dim_out × dim_in, rows are principal axes
    explained: Vec<f64>,
}

impl Pca {
    /// Fits a PCA with `dim_out` components to the given vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::Empty`] for empty input,
    /// [`MdsError::DimensionMismatch`] for ragged input,
    /// [`MdsError::InvalidDimension`] when `dim_out` is zero or exceeds the
    /// input dimensionality, and propagates eigensolver failures.
    pub fn fit(vectors: &[Vec<f64>], dim_out: usize) -> Result<Self, MdsError> {
        let first = vectors.first().ok_or(MdsError::Empty)?;
        let dim_in = first.len();
        if dim_out == 0 || dim_out > dim_in {
            return Err(MdsError::InvalidDimension { requested: dim_out });
        }
        for v in vectors {
            if v.len() != dim_in {
                return Err(MdsError::DimensionMismatch {
                    expected: dim_in,
                    found: v.len(),
                });
            }
        }
        let n = vectors.len();
        let mut mean = vec![0.0; dim_in];
        for v in vectors {
            for (m, x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Covariance matrix (biased, 1/n — the scale does not matter for
        // the eigenvectors).
        let mut cov = Matrix::zeros(dim_in, dim_in);
        for v in vectors {
            for i in 0..dim_in {
                let di = v[i] - mean[i];
                for j in i..dim_in {
                    let dj = v[j] - mean[j];
                    cov[(i, j)] += di * dj;
                }
            }
        }
        for i in 0..dim_in {
            for j in i..dim_in {
                cov[(i, j)] /= n as f64;
                cov[(j, i)] = cov[(i, j)];
            }
        }

        let eig = symmetric_eigen(&cov)?;
        let mut components = Matrix::zeros(dim_out, dim_in);
        for k in 0..dim_out {
            for j in 0..dim_in {
                components[(k, j)] = eig.eigenvectors[(j, k)];
            }
        }
        let total: f64 = eig.eigenvalues.iter().map(|v| v.max(0.0)).sum();
        let explained = eig
            .eigenvalues
            .iter()
            .take(dim_out)
            .map(|v| if total > 0.0 { v.max(0.0) / total } else { 0.0 })
            .collect();
        Ok(Pca {
            mean,
            components,
            explained,
        })
    }

    /// Output dimensionality.
    pub(crate) fn dim_out(&self) -> usize {
        self.components.rows()
    }

    /// Input dimensionality.
    pub(crate) fn dim_in(&self) -> usize {
        self.components.cols()
    }

    /// Fraction of variance explained by each retained component.
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained
    }

    /// Projects a single vector.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] for wrong-length input.
    pub(crate) fn project(&self, vector: &[f64]) -> Result<Vec<f64>, MdsError> {
        if vector.len() != self.dim_in() {
            return Err(MdsError::DimensionMismatch {
                expected: self.dim_in(),
                found: vector.len(),
            });
        }
        let mut out = vec![0.0; self.dim_out()];
        for (k, item) in out.iter_mut().enumerate() {
            for (j, (v, m)) in vector.iter().zip(&self.mean).enumerate() {
                *item += self.components[(k, j)] * (v - m);
            }
        }
        Ok(out)
    }

    /// Projects a batch of vectors into an [`Embedding`].
    ///
    /// # Errors
    ///
    /// Propagates `Pca::project` failures.
    pub fn project_all(&self, vectors: &[Vec<f64>]) -> Result<Embedding, MdsError> {
        let mut e = Embedding::zeros(0, self.dim_out());
        for v in vectors {
            e.push(&self.project(v)?);
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_axis() {
        // Points along the diagonal with small orthogonal noise: PC1 must be
        // ±(1,1)/√2.
        let vectors: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = i as f64 * 0.5;
                let noise = ((i * 7919) % 13) as f64 * 0.001;
                vec![t + noise, t - noise]
            })
            .collect();
        let pca = Pca::fit(&vectors, 1).unwrap();
        let p0 = pca.project(&vectors[0]).unwrap();
        let p19 = pca.project(&vectors[19]).unwrap();
        let spread = (p19[0] - p0[0]).abs();
        // Projection along the diagonal must capture ~√2 × range of t.
        assert!((spread - 9.5 * 2.0_f64.sqrt()).abs() < 0.1);
        assert!(pca.explained_variance_ratio()[0] > 0.999);
    }

    #[test]
    fn project_is_mean_centred() {
        let vectors = vec![vec![1.0, 1.0], vec![3.0, 3.0]];
        let pca = Pca::fit(&vectors, 2).unwrap();
        let a = pca.project(&vectors[0]).unwrap();
        let b = pca.project(&vectors[1]).unwrap();
        // Symmetric about the origin after centring.
        assert!((a[0] + b[0]).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_dim() {
        let vectors = vec![vec![1.0, 2.0]];
        assert!(Pca::fit(&vectors, 0).is_err());
        assert!(Pca::fit(&vectors, 3).is_err());
        assert!(Pca::fit(&[], 1).is_err());
    }

    #[test]
    fn project_all_builds_embedding() {
        let vectors = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]];
        let pca = Pca::fit(&vectors, 2).unwrap();
        let e = pca.project_all(&vectors).unwrap();
        assert_eq!(e.len(), 3);
        // Collinear input keeps its spacing along PC1.
        assert!((e.distance(0, 1) - 1.0).abs() < 1e-9);
        assert!((e.distance(0, 2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn superposition_weakness_vs_mds() {
        // Two clusters separated only along a direction PCA will discard
        // when the variance budget is dominated by another axis. This is the
        // §2.2 argument: PCA superimposes in the projection direction.
        let mut vectors = Vec::new();
        for i in 0..10 {
            let t = i as f64;
            vectors.push(vec![t, 0.0, 0.0]); // big variance on x
            vectors.push(vec![t, 0.0, 0.4]); // small offset on z
        }
        let pca = Pca::fit(&vectors, 1).unwrap();
        let a = pca.project(&vectors[0]).unwrap();
        let b = pca.project(&vectors[1]).unwrap();
        // The z-offset pair collapses onto the same 1-D coordinate.
        assert!((a[0] - b[0]).abs() < 1e-9);
    }
}
