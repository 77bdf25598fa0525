//! Orthogonal Procrustes alignment between successive embeddings.
//!
//! SMACOF's solution is unique only up to rotation, reflection and
//! translation. When the Stay-Away controller re-embeds the (grown) sample
//! set each period, the new layout must be expressed in the *previous
//! period's frame* — otherwise violation-ranges and trajectory angles would
//! jump arbitrarily between periods. This module computes the rigid
//! transform (rotation/reflection + translation, **no scaling**, so relative
//! distances are untouched) that best aligns the shared prefix of two
//! embeddings, and applies it to the whole new embedding.

use crate::embedding::Embedding;
use crate::linalg::{determinant, svd_small, Matrix};
use crate::MdsError;

/// A rigid transform `y ≈ R·x + t` in `dim` dimensions, with `R` orthogonal.
#[derive(Debug, Clone, PartialEq)]
pub struct RigidTransform {
    rotation: Matrix,
    translation: Vec<f64>,
}

impl RigidTransform {
    /// Dimensionality this transform operates in.
    pub fn dim(&self) -> usize {
        self.translation.len()
    }

    /// Applies the transform to every point of an embedding in place.
    ///
    /// # Panics
    ///
    /// Panics if the embedding's dimensionality differs from the transform's.
    pub fn apply(&self, embedding: &mut Embedding) {
        assert_eq!(embedding.dim(), self.dim(), "dimension mismatch");
        let mut source = vec![0.0; self.dim()];
        for i in 0..embedding.len() {
            let point = embedding.point_mut(i);
            source.copy_from_slice(point);
            point.copy_from_slice(&self.translation);
            for (r, item) in point.iter_mut().enumerate() {
                for (c, p) in source.iter().enumerate() {
                    *item += self.rotation[(r, c)] * p;
                }
            }
        }
    }
}

/// Computes the rigid transform that best maps the first `shared` points of
/// `source` onto the first `shared` points of `target` (least squares),
/// allowing reflection.
///
/// # Errors
///
/// Returns [`MdsError::DimensionMismatch`] when the embeddings differ in
/// dimensionality or either has fewer than `shared` points, and
/// [`MdsError::Empty`] when `shared == 0`.
pub fn align_prefix(
    source: &Embedding,
    target: &Embedding,
    shared: usize,
) -> Result<RigidTransform, MdsError> {
    if shared == 0 {
        return Err(MdsError::Empty);
    }
    if source.dim() != target.dim() {
        return Err(MdsError::DimensionMismatch {
            expected: target.dim(),
            found: source.dim(),
        });
    }
    if source.len() < shared || target.len() < shared {
        return Err(MdsError::DimensionMismatch {
            expected: shared,
            found: source.len().min(target.len()),
        });
    }
    let dim = source.dim();

    // Centroids of the shared prefixes.
    let mut cs = vec![0.0; dim];
    let mut ct = vec![0.0; dim];
    for i in 0..shared {
        for k in 0..dim {
            cs[k] += source.point(i)[k];
            ct[k] += target.point(i)[k];
        }
    }
    for k in 0..dim {
        cs[k] /= shared as f64;
        ct[k] /= shared as f64;
    }

    if shared == 1 {
        // Pure translation.
        let translation = (0..dim).map(|k| ct[k] - cs[k]).collect();
        return Ok(RigidTransform {
            rotation: Matrix::identity(dim),
            translation,
        });
    }

    // Cross-covariance H = Σ (s_i − cs)(t_i − ct)ᵀ.
    let mut h = Matrix::zeros(dim, dim);
    for i in 0..shared {
        let s = source.point(i);
        let t = target.point(i);
        for r in 0..dim {
            for c in 0..dim {
                h[(r, c)] += (s[r] - cs[r]) * (t[c] - ct[c]);
            }
        }
    }

    // Degenerate prefix (all points coincident): no rotation is defined;
    // fall back to pure translation.
    if h.frobenius_norm() < 1e-12 {
        let translation = (0..dim).map(|k| ct[k] - cs[k]).collect();
        return Ok(RigidTransform {
            rotation: Matrix::identity(dim),
            translation,
        });
    }

    // R = V·Uᵀ from H = U·Σ·Vᵀ maps source onto target. Reflections are
    // allowed: MDS solutions are defined only up to reflection, so we take
    // whichever orthogonal map fits best.
    let svd = svd_small(&h)?;
    let rotation = svd.v.matmul(&svd.u.transpose());
    debug_assert!(
        (determinant(&rotation).abs() - 1.0).abs() < 1e-6,
        "procrustes rotation must be orthogonal"
    );

    // t = ct − R·cs.
    let mut translation = ct.clone();
    for (r, item) in translation.iter_mut().enumerate().take(dim) {
        for c in 0..dim {
            *item -= rotation[(r, c)] * cs[c];
        }
    }
    Ok(RigidTransform {
        rotation,
        translation,
    })
}

/// Aligns `new` to `previous` over their shared prefix (the length of
/// `previous`), transforming it in place, and hands it back.
///
/// This is the operation the controller performs after every incremental
/// re-embedding.
///
/// # Errors
///
/// Propagates [`align_prefix`] failures.
pub fn align_to_previous(mut new: Embedding, previous: &Embedding) -> Result<Embedding, MdsError> {
    let shared = previous.len().min(new.len());
    if shared > 0 {
        align_prefix(&new, previous, shared)?.apply(&mut new);
    }
    Ok(new)
}

/// Root-mean-square deviation between the first `shared` points of two
/// embeddings — used in tests and diagnostics to quantify map drift.
///
/// # Panics
///
/// Panics if either embedding has fewer than `shared` points or the
/// dimensionalities differ.
pub fn prefix_rmsd(a: &Embedding, b: &Embedding, shared: usize) -> f64 {
    assert!(a.len() >= shared && b.len() >= shared);
    assert_eq!(a.dim(), b.dim());
    if shared == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..shared {
        sum += a
            .point(i)
            .iter()
            .zip(b.point(i))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>();
    }
    (sum / shared as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotate(e: &Embedding, theta: f64) -> Embedding {
        let mut out = e.clone();
        for i in 0..out.len() {
            let (x, y) = out.xy(i);
            let p = out.point_mut(i);
            p[0] = theta.cos() * x - theta.sin() * y;
            p[1] = theta.sin() * x + theta.cos() * y;
        }
        out
    }

    fn sample_embedding() -> Embedding {
        Embedding::from_coords(2, vec![0.0, 0.0, 1.0, 0.2, 0.3, 1.5, -0.7, 0.9, 2.0, -1.0]).unwrap()
    }

    #[test]
    fn recovers_pure_rotation() {
        let orig = sample_embedding();
        let rotated = rotate(&orig, 1.1);
        let aligned = align_to_previous(rotated, &orig).unwrap();
        assert!(prefix_rmsd(&aligned, &orig, orig.len()) < 1e-9);
    }

    #[test]
    fn recovers_rotation_plus_translation() {
        let orig = sample_embedding();
        let mut moved = rotate(&orig, -0.6);
        for i in 0..moved.len() {
            let p = moved.point_mut(i);
            p[0] += 3.0;
            p[1] -= 2.0;
        }
        let aligned = align_to_previous(moved, &orig).unwrap();
        assert!(prefix_rmsd(&aligned, &orig, orig.len()) < 1e-9);
    }

    #[test]
    fn recovers_reflection() {
        let orig = sample_embedding();
        let mut flipped = orig.clone();
        for i in 0..flipped.len() {
            flipped.point_mut(i)[0] *= -1.0;
        }
        let aligned = align_to_previous(flipped, &orig).unwrap();
        assert!(prefix_rmsd(&aligned, &orig, orig.len()) < 1e-9);
    }

    #[test]
    fn alignment_is_an_isometry() {
        let orig = sample_embedding();
        let rotated = rotate(&orig, 0.8);
        let aligned = align_to_previous(rotated.clone(), &orig).unwrap();
        for i in 0..orig.len() {
            for j in (i + 1)..orig.len() {
                assert!(
                    (aligned.distance(i, j) - rotated.distance(i, j)).abs() < 1e-9,
                    "alignment distorted pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn aligns_prefix_and_carries_new_points_along() {
        let orig = sample_embedding();
        let mut grown = rotate(&orig, 0.5);
        grown.push(&[5.0, 5.0]);
        let aligned = align_to_previous(grown.clone(), &orig).unwrap();
        assert_eq!(aligned.len(), 6);
        assert!(prefix_rmsd(&aligned, &orig, orig.len()) < 1e-9);
        // The new point keeps its relative distance to point 0.
        assert!((aligned.distance(0, 5) - grown.distance(0, 5)).abs() < 1e-9);
    }

    #[test]
    fn single_shared_point_translates() {
        let mut a = Embedding::from_coords(2, vec![1.0, 1.0, 9.0, 9.0]).unwrap();
        let b = Embedding::from_coords(2, vec![4.0, 4.0]).unwrap();
        align_prefix(&a, &b, 1).unwrap().apply(&mut a);
        let (x, y) = a.xy(0);
        assert!((x - 4.0).abs() < 1e-12 && (y - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_shared_points() {
        let a = sample_embedding();
        assert!(matches!(align_prefix(&a, &a, 0), Err(MdsError::Empty)));
    }
}
