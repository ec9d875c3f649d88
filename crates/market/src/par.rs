//! Parallel execution policy for the equilibrium engine and the oracle,
//! and the workspace's only threading code.
//!
//! Every parallel-capable loop in this workspace is written so that the
//! *values* it computes are a pure function of its inputs, independent of
//! how the loop is executed. [`ParallelPolicy`] therefore only chooses an
//! execution strategy — serial, a fixed thread count, or an automatic
//! choice based on problem size — and results are bit-identical across all
//! three (asserted by the `parallel_determinism` integration tests).
//!
//! The loops below split their index space into contiguous bands, one per
//! worker, run each band on its own scoped thread (`std::thread::scope`)
//! and reassemble results in index order. There is no work stealing: the
//! fan-outs here are near-uniform, and a band's worker creates its scratch
//! once for the whole band. Threads are spawned per call, not pooled;
//! every call site amortizes the spawn over milliseconds of per-band work,
//! and a single-worker call never spawns at all.

use std::ops::Range;

/// How a parallel-capable loop executes. Purely an execution knob: the
/// computed values are identical under every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelPolicy {
    /// Parallelize when the fan-out is wide enough to amortize thread
    /// spawn/coordination cost (at least [`AUTO_MIN_FANOUT`] work items),
    /// using all available worker threads; stay serial below that.
    #[default]
    Auto,
    /// Always single-threaded.
    Serial,
    /// Exactly this many worker threads (clamped to the fan-out width).
    Threads(usize),
}

/// Smallest fan-out for which [`ParallelPolicy::Auto`] goes parallel.
///
/// Below this, per-item work (a hill-climbing best response over a handful
/// of resources, ~microseconds) does not amortize thread coordination;
/// small markets — the common case inside nested mechanism loops — must
/// stay serial without callers having to think about it.
pub const AUTO_MIN_FANOUT: usize = 32;

impl ParallelPolicy {
    /// Number of worker threads this policy yields for a loop of
    /// `work_items` independent items. Always at least 1; never more than
    /// `work_items`.
    pub fn resolved_threads(self, work_items: usize) -> usize {
        if self == ParallelPolicy::Auto && work_items < AUTO_MIN_FANOUT {
            1
        } else {
            self.resolved_threads_coarse(work_items)
        }
    }

    /// `true` if this policy would actually spawn threads for a loop of
    /// `work_items` items (used by outer loops to decide whether nested
    /// inner solves should be forced serial).
    pub fn is_parallel_for(self, work_items: usize) -> bool {
        self.resolved_threads(work_items) > 1
    }

    /// Like [`ParallelPolicy::resolved_threads`], but for *coarse* work
    /// items — whole mechanism runs or equilibrium solves, milliseconds
    /// each — where even a fan-out of 2 amortizes thread cost. `Auto`
    /// parallelizes whenever there are at least 2 items.
    pub fn resolved_threads_coarse(self, work_items: usize) -> usize {
        match self {
            ParallelPolicy::Serial => 1,
            ParallelPolicy::Threads(n) => n.clamp(1, work_items.max(1)),
            ParallelPolicy::Auto => max_threads().clamp(1, work_items.max(1)),
        }
    }
}

/// The worker-thread count [`ParallelPolicy::Auto`] resolves to when it
/// parallelizes: the `RAYON_NUM_THREADS` environment variable if it holds
/// a positive integer, else the machine's available parallelism. The
/// variable is read on every call, so a process may change it between
/// phases.
pub fn max_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// Splits `0..len` into `min(threads, len)` contiguous bands (at least
/// one), carves each band's share of the caller's buffers with `split`
/// (called on this thread, in band order), and runs `run(band, share)`
/// for every band. With more than one band each runs on its own scoped
/// thread. Returns the bands' results in band order.
fn in_bands<P: Send, R: Send>(
    threads: usize,
    len: usize,
    mut split: impl FnMut(Range<usize>) -> P,
    run: impl Fn(Range<usize>, P) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, len.max(1));
    let band = |t: usize| t * len / workers..(t + 1) * len / workers;
    if workers == 1 {
        return vec![run(0..len, split(0..len))];
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let share = split(band(t));
                scope.spawn(move || run(band(t), share))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Cuts the first `n` elements (or all, if fewer) off `rest`, leaving the
/// tail in `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let rest_all = std::mem::take(rest);
    let (head, tail) = rest_all.split_at_mut(n.min(rest_all.len()));
    *rest = tail;
    head
}

/// Applies `f` to every `row_len`-sized chunk of `data` (in index order),
/// threading a per-worker scratch state created by `init`.
///
/// The workhorse of the equilibrium engine: `data` is the flat row-major
/// bid buffer being written, one chunk per player. Chunks are distributed
/// over `threads` workers in contiguous index bands; each worker creates
/// its scratch once and reuses it for every row it owns, so the hot loop
/// performs no per-row allocation.
pub(crate) fn for_each_row<S>(
    threads: usize,
    data: &mut [f64],
    row_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [f64]) + Sync,
) {
    let rows = data.len().div_ceil(row_len);
    let mut rest = data;
    in_bands(
        threads,
        rows,
        |band| take_front(&mut rest, band.len() * row_len),
        |band, share| {
            let mut scratch = init();
            for (i, row) in band.zip(share.chunks_mut(row_len)) {
                f(&mut scratch, i, row);
            }
        },
    );
}

/// Applies `f` to every block of an irregularly-partitioned buffer, in
/// parallel over contiguous bands of blocks.
///
/// `block_ptr` (length `blocks + 1`, with `block_ptr[0] == 0` and
/// `block_ptr[blocks] == vals.len()`) partitions `vals` into consecutive
/// blocks; block `b` also owns the `aux_stride`-sized slice
/// `aux[b*aux_stride..(b+1)*aux_stride]`. Each invocation
/// `f(b, vals_b, aux_b)` gets exclusive mutable access to its block's two
/// slices, so the call is race-free by construction and the computed
/// values are independent of `threads`.
///
/// This is the sparse counterpart of [`for_each_row`]: the first-order
/// solvers partition players into fixed-size blocks whose CSR rows have
/// irregular extents, so a band's share of `vals` is cut at block
/// boundaries rather than at a fixed stride.
pub(crate) fn for_each_block(
    threads: usize,
    vals: &mut [f64],
    block_ptr: &[usize],
    aux: &mut [f64],
    aux_stride: usize,
    f: impl Fn(usize, &mut [f64], &mut [f64]) + Sync,
) {
    let blocks = block_ptr.len().saturating_sub(1);
    debug_assert_eq!(block_ptr.first().copied().unwrap_or(0), 0);
    debug_assert_eq!(block_ptr.last().copied().unwrap_or(0), vals.len());
    debug_assert_eq!(aux.len(), blocks * aux_stride);
    let (mut vals_rest, mut aux_rest) = (vals, aux);
    in_bands(
        threads,
        blocks,
        |band| {
            let vals_len = block_ptr[band.end] - block_ptr[band.start];
            (
                take_front(&mut vals_rest, vals_len),
                take_front(&mut aux_rest, band.len() * aux_stride),
            )
        },
        |band, (vals_band, aux_band)| {
            let base = block_ptr[band.start];
            for (k, b) in band.enumerate() {
                f(
                    b,
                    &mut vals_band[block_ptr[b] - base..block_ptr[b + 1] - base],
                    &mut aux_band[k * aux_stride..(k + 1) * aux_stride],
                );
            }
        },
    );
}

/// Evaluates `f(i)` for `i` in `0..len` across `threads` workers,
/// returning results in index order. Serial when `threads <= 1`.
///
/// Public so downstream crates (core's sweep, sim's market builder) can
/// fan out coarse work items under the same policy machinery.
pub fn map_indexed<R: Send>(threads: usize, len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let bands = in_bands(
        threads,
        len,
        |_| (),
        |band, ()| band.map(&f).collect::<Vec<_>>(),
    );
    bands.into_iter().flatten().collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn serial_policy_is_always_one_thread() {
        assert_eq!(ParallelPolicy::Serial.resolved_threads(1000), 1);
        assert!(!ParallelPolicy::Serial.is_parallel_for(1000));
    }

    #[test]
    fn threads_policy_clamps_to_fanout() {
        assert_eq!(ParallelPolicy::Threads(0).resolved_threads(3), 1);
        assert_eq!(ParallelPolicy::Threads(8).resolved_threads(3), 3);
        assert_eq!(ParallelPolicy::Threads(4).resolved_threads(100), 4);
    }

    #[test]
    fn auto_stays_serial_below_threshold() {
        assert_eq!(
            ParallelPolicy::Auto.resolved_threads(AUTO_MIN_FANOUT - 1),
            1
        );
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Auto);
    }

    #[test]
    fn for_each_row_identical_serial_and_parallel() {
        let row_len = 3;
        let rows = 64;
        let run = |threads: usize| -> Vec<f64> {
            let mut data = vec![0.0; rows * row_len];
            for_each_row(
                threads,
                &mut data,
                row_len,
                || vec![0.0; row_len],
                |scratch, i, row| {
                    for (k, slot) in row.iter_mut().enumerate() {
                        scratch[k] = (i as f64 + 1.0).sqrt() * (k as f64 + 0.5);
                        *slot = scratch[k].sin();
                    }
                },
            );
            data
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn for_each_block_identical_serial_and_parallel() {
        // Irregular blocks: sizes 1, 4, 2, 5, 0, 3.
        let block_ptr = [0usize, 1, 5, 7, 12, 12, 15];
        let stride = 2;
        let run = |threads: usize| -> (Vec<f64>, Vec<f64>) {
            let mut vals: Vec<f64> = (0..15).map(|i| i as f64).collect();
            let mut aux = vec![0.0; (block_ptr.len() - 1) * stride];
            for_each_block(
                threads,
                &mut vals,
                &block_ptr,
                &mut aux,
                stride,
                |b, vs, au| {
                    for v in vs.iter_mut() {
                        *v = (*v + b as f64).sqrt();
                        au[0] += *v;
                    }
                    au[1] = vs.len() as f64;
                },
            );
            (vals, aux)
        };
        let (sv, sa) = run(1);
        let (pv, pa) = run(4);
        assert!(sv.iter().zip(&pv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(sa.iter().zip(&pa).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(sa[3 * stride + 1], 5.0); // block 3 has 5 items
    }

    #[test]
    fn map_indexed_preserves_order() {
        let serial = map_indexed(1, 100, |i| i * i);
        let parallel = map_indexed(4, 100, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
        // The bands cover `0..len` exactly, contiguous and in order, for
        // fewer, as many and more workers than items.
        for len in [0, 1, 3, 10, 16] {
            for threads in [1, 3, 4, 10] {
                assert_eq!(
                    map_indexed(threads, len, |i| i),
                    (0..len).collect::<Vec<_>>(),
                    "len {len}, threads {threads}"
                );
                let bands = in_bands(threads, len, |_| (), |band, ()| band);
                assert_eq!(bands.len(), threads.clamp(1, len.max(1)));
                let mut covered = 0;
                for band in &bands {
                    assert_eq!(band.start, covered, "len {len}, threads {threads}");
                    assert!(len == 0 || !band.is_empty());
                    covered = band.end;
                }
                assert_eq!(covered, len);
            }
        }
    }
}
