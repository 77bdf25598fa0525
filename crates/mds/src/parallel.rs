//! Deterministic fixed-chunk parallelism for the mapping kernels.
//!
//! Distance-matrix maintenance (build and column append) parallelizes
//! over *chunks of output* whose boundaries are derived **only from the
//! problem size**, never from the worker count.
//! Each chunk is computed by exactly the same sequential code regardless
//! of which thread runs it, and chunks are disjoint output slices carved
//! out of one buffer in index order — so the assembled result is
//! bit-for-bit identical for any worker count, including the inline
//! single-worker path. The fleet determinism suites rely on this.
//!
//! Workers are plain scoped threads (`std::thread::scope`): no unsafe, no
//! persistent pool, no shared mutable state. Chunks are assigned to
//! workers round-robin by chunk index; assignment affects only *who*
//! computes a chunk, never *what* is computed.

/// One unit of parallel work: a tag (first output index covered) plus the
/// disjoint output slice the chunk owns.
type Piece<'a, T> = (usize, &'a mut [T]);

/// Runs `body` over every piece, distributing pieces round-robin across at
/// most `workers` scoped threads (the calling thread counts as one).
///
/// With `workers <= 1` or a single piece, everything runs inline on the
/// calling thread — the results are identical either way because each
/// piece's computation is self-contained.
pub(crate) fn scatter<T, F>(workers: usize, pieces: Vec<Piece<'_, T>>, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = workers.max(1).min(pieces.len());
    if workers <= 1 {
        for (tag, slice) in pieces {
            body(tag, slice);
        }
        return;
    }
    let mut shares: Vec<Vec<Piece<'_, T>>> = (0..workers).map(|_| Vec::new()).collect();
    for (index, piece) in pieces.into_iter().enumerate() {
        shares[index % workers].push(piece);
    }
    std::thread::scope(|scope| {
        let body = &body;
        let mut shares = shares.into_iter();
        let mine = shares.next().expect("workers >= 1");
        for share in shares {
            scope.spawn(move || {
                for (tag, slice) in share {
                    body(tag, slice);
                }
            });
        }
        for (tag, slice) in mine {
            body(tag, slice);
        }
    });
}

/// Splits a buffer into runs of `chunk_len` entries (the last may be
/// shorter), each tagged with the index of its first entry. Boundaries
/// depend only on the buffer length.
pub(crate) fn run_pieces(out: &mut [f64], chunk_len: usize) -> Vec<Piece<'_, f64>> {
    let chunk_len = chunk_len.max(1);
    out.chunks_mut(chunk_len)
        .enumerate()
        .map(|(ci, slice)| (ci * chunk_len, slice))
        .collect()
}

/// Splits the packed strict-upper-triangle buffer of an `n`-point distance
/// matrix (column-grouped: column `j` is the contiguous run of `j`
/// entries) into chunks of whole columns holding roughly `target_entries`
/// entries each. Boundaries depend only on `n` and `target_entries`.
///
/// Each piece is tagged with its first column index `j` (`j >= 1`).
pub(crate) fn tri_column_pieces(
    n: usize,
    upper: &mut [f64],
    target_entries: usize,
) -> Vec<Piece<'_, f64>> {
    debug_assert_eq!(upper.len(), n * n.saturating_sub(1) / 2);
    let target = target_entries.max(1);
    let mut pieces = Vec::new();
    let mut rest = upper;
    let mut col = 1usize;
    while col < n {
        let first_col = col;
        let mut entries = 0usize;
        while col < n && entries < target {
            entries += col; // column j holds j entries
            col += 1;
        }
        let (piece, tail) = rest.split_at_mut(entries);
        pieces.push((first_col, piece));
        rest = tail;
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_identical_for_any_worker_count() {
        let reference: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        for workers in [1, 2, 3, 8] {
            let mut out = vec![0.0; 1000];
            let pieces = run_pieces(&mut out, 64);
            scatter(workers, pieces, |first, slice| {
                for (k, v) in slice.iter_mut().enumerate() {
                    *v = ((first + k) as f64).sin();
                }
            });
            assert_eq!(out, reference, "diverged at {workers} workers");
        }
    }

    #[test]
    fn run_pieces_cover_the_buffer_in_order() {
        let mut out = vec![0.0; 21];
        let pieces = run_pieces(&mut out, 6);
        let tags: Vec<usize> = pieces.iter().map(|p| p.0).collect();
        assert_eq!(tags, vec![0, 6, 12, 18]);
        let total: usize = pieces.iter().map(|p| p.1.len()).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn tri_column_pieces_cover_every_column_once() {
        for n in [2usize, 3, 9, 40] {
            let mut upper = vec![0.0; n * (n - 1) / 2];
            let pieces = tri_column_pieces(n, &mut upper, 25);
            let mut covered = 0usize;
            let mut next_col = 1usize;
            for (first_col, slice) in &pieces {
                assert_eq!(*first_col, next_col, "columns out of order");
                let mut entries = 0;
                while entries < slice.len() {
                    entries += next_col;
                    next_col += 1;
                }
                assert_eq!(entries, slice.len(), "piece splits a column");
                covered += slice.len();
            }
            assert_eq!(covered, n * (n - 1) / 2);
            assert_eq!(next_col, n);
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut out: Vec<f64> = Vec::new();
        scatter(4, run_pieces(&mut out, 16), |_, _| panic!("no work"));
        let pieces = tri_column_pieces(1, &mut out, 10);
        assert!(pieces.is_empty());
    }
}
