//! Test-only reference SMACOF solver.
//!
//! The formulation [`stayaway_mds::smacof::Smacof`]'s fused triangular
//! kernel replaced, kept so the kernel can be held to it **bit for bit**:
//! every output row of the Guttman transform is summed on its own over
//! `j = 0..n` (so each pair's distance is evaluated twice), the raw stress
//! is a separate half-matrix pass after every sweep, every embedded
//! distance goes through [`Embedding::distance`] and every dissimilarity
//! through [`DistanceMatrix::get`]. Nothing here is shared with the
//! production kernel except the public accessors.

use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::Embedding;

/// The solver's coincidence clamp (`smacof::MIN_EMBED_DIST`).
const MIN_EMBED_DIST: f64 = 1e-12;

/// `δ/d`, zero for (near-)coincident embedded points and for any
/// non-finite quotient.
fn guarded_ratio(delta: f64, d: f64) -> f64 {
    if d > MIN_EMBED_DIST {
        let r = delta / d;
        if r.is_finite() {
            r
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// The coordinates' bit patterns — what "same embedding" means here
/// (`==` on `f64` would let `0.0` pass for `-0.0`).
pub fn bits(e: &Embedding) -> Vec<u64> {
    e.iter().flatten().map(|v| v.to_bits()).collect()
}

/// Raw stress `Σ_{i<j} (d_ij − δ_ij)²`, one accumulator, row-major pair
/// order.
pub fn raw_stress(x: &Embedding, dissim: &DistanceMatrix) -> f64 {
    let mut s = 0.0;
    for i in 0..x.len() {
        for j in (i + 1)..x.len() {
            let diff = x.distance(i, j) - dissim.get(i, j);
            s += diff * diff;
        }
    }
    s
}

/// One Guttman transform `X⁺ = (1/n)·B(X)·X`, row by row: row `i` is
/// `Σ_{j≠i} (δ_ij / d_ij)(x_i − x_j) / n`.
pub fn guttman_transform(x: &Embedding, dissim: &DistanceMatrix) -> Embedding {
    let n = x.len();
    let dim = x.dim();
    let mut out = vec![0.0; n * dim];
    for (i, acc) in out.chunks_mut(dim).enumerate() {
        let xi = x.point(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let xj = x.point(j);
            let ratio = guarded_ratio(dissim.get(i, j), x.distance(i, j));
            for k in 0..dim {
                acc[k] += ratio * (xi[k] - xj[k]);
            }
        }
        for v in acc.iter_mut() {
            *v /= n as f64;
        }
    }
    Embedding::from_coords(dim, out).expect("guttman transform preserves shape")
}

/// What the reference solve did: its sweeps, and the raw stress of every
/// configuration it passed through, the start's first (empty for fewer
/// than two points).
pub struct Solve {
    pub sweeps: u64,
    pub stresses: Vec<f64>,
}

/// The warm-started solve: sweep, re-evaluate the stress, stop on a
/// relative improvement below `tolerance` or after `max_iterations`
/// sweeps. Returns the configuration and what the solve did.
pub fn embed_warm_traced(
    dissim: &DistanceMatrix,
    init: Embedding,
    max_iterations: usize,
    tolerance: f64,
) -> (Embedding, Solve) {
    let mut solve = Solve {
        sweeps: 0,
        stresses: Vec::new(),
    };
    if dissim.len() <= 1 {
        return (init, solve);
    }
    let mut x = init;
    let mut prev_stress = raw_stress(&x, dissim);
    solve.stresses.push(prev_stress);
    for _ in 0..max_iterations {
        x = guttman_transform(&x, dissim);
        solve.sweeps += 1;
        let stress = raw_stress(&x, dissim);
        solve.stresses.push(stress);
        let denom = prev_stress.max(f64::MIN_POSITIVE);
        if (prev_stress - stress) / denom < tolerance {
            break;
        }
        prev_stress = stress;
    }
    (x, solve)
}
