//! Tiny scoped-thread helpers shared by the parallel polynomial kernels
//! (FFT butterflies, multilinear folds, power distribution).

/// Number of worker threads worth spawning on this machine: the one
/// answer every parallel kernel in the workspace (FFT, folds, MSM chunks,
/// fixed-base batches, sum-check rounds) sizes itself by. A host that
/// cannot report its parallelism gets one thread, not a guess.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Splits `data` into at most `threads` contiguous chunks of at least
/// `min_len` elements and runs `f(offset, chunk)` on each, in parallel when
/// more than one chunk results. `f` must be pure data-parallel: chunks are
/// disjoint and no ordering is guaranteed.
pub(crate) fn for_chunks_mut<T: Send, F>(data: &mut [T], min_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Send + Sync,
{
    let n = data.len();
    let chunks = threads.min(n / min_len.max(1)).max(1);
    if chunks <= 1 {
        f(0, data);
        return;
    }
    let chunk_len = n.div_ceil(chunks);
    crossbeam::thread::scope(|s| {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            s.spawn(move |_| f(i * chunk_len, chunk));
        }
    })
    .expect("parallel chunk worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_map_covers_every_index() {
        let mut data = vec![0usize; 1000];
        for_chunks_mut(&mut data, 16, 4, |off, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = off + k;
            }
        });
        assert!(data.iter().enumerate().all(|(i, v)| *v == i));
    }

    #[test]
    fn small_input_stays_single_chunk() {
        let mut data = vec![1u64; 8];
        for_chunks_mut(&mut data, 16, 8, |off, chunk| {
            assert_eq!(off, 0);
            assert_eq!(chunk.len(), 8);
        });
    }
}
