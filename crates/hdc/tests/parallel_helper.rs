//! The workspace's one way into parallelism, the vendored rayon's ordered
//! fan-out (`map_chunks` and its `_mut` and `map_ranges` shapes), checked
//! against a serial map (the vendored crate's own tests check `join`). Worker counts are set through the
//! `with_num_threads` test seam, so every split from one to eight workers
//! runs on any host.

use std::thread::{self, ThreadId};

const MIN_LENS: [usize; 5] = [0, 1, 3, 16, 301];

/// The chunks a region produced, as `(offset, len, thread)`, in result
/// order.
type Chunks = Vec<(usize, usize, ThreadId)>;

/// Checks the split rules shared by every shape: the chunks tile
/// `0..len` in order, there are at most `workers` of them, each is at
/// least `min_len` long unless there is only one, sizes differ by at
/// most one, and the last one ran on the calling thread.
fn check_split(chunks: &Chunks, len: usize, min_len: usize, workers: usize) {
    let ctx = format!("len {len}, min_len {min_len}, {workers} workers: {chunks:?}");
    if len == 0 {
        assert!(chunks.is_empty(), "{ctx}");
        return;
    }
    assert!(!chunks.is_empty() && chunks.len() <= workers, "{ctx}");
    let mut next = 0;
    for &(offset, n, _) in chunks {
        assert_eq!(offset, next, "{ctx}");
        assert!(n > 0, "{ctx}");
        if chunks.len() > 1 {
            assert!(n >= min_len, "{ctx}");
        }
        next += n;
    }
    assert_eq!(next, len, "{ctx}");
    let sizes = chunks.iter().map(|c| c.1);
    let (lo, hi) = (sizes.clone().min(), sizes.max());
    assert!(hi.zip(lo).is_some_and(|(hi, lo)| hi - lo <= 1), "{ctx}");
    let caller = thread::current().id();
    for (i, &(_, _, id)) in chunks.iter().enumerate() {
        assert_eq!(id == caller, i + 1 == chunks.len(), "{ctx}");
    }
}

#[test]
fn map_chunks_matches_a_serial_map_for_every_split() {
    for workers in 1..=8 {
        for min_len in MIN_LENS {
            for len in 0..=300usize {
                let items: Vec<u64> = (0..len as u64).map(|i| i * 7 + 1).collect();
                let want: Vec<u64> = items.iter().map(|x| x * x).collect();
                let chunks = rayon::with_num_threads(workers, || {
                    rayon::map_chunks(&items, min_len, |offset, chunk| {
                        let squares: Vec<u64> = chunk.iter().map(|x| x * x).collect();
                        (offset, chunk.len(), thread::current().id(), squares)
                    })
                });
                let split: Chunks = chunks.iter().map(|c| (c.0, c.1, c.2)).collect();
                check_split(&split, len, min_len, workers);
                let got: Vec<u64> = chunks.into_iter().flat_map(|c| c.3).collect();
                assert_eq!(got, want, "len {len}, min_len {min_len}, {workers} workers");
            }
        }
    }
}

#[test]
fn map_ranges_and_map_chunks_mut_split_the_same_way() {
    for workers in 1..=8 {
        for min_len in MIN_LENS {
            for len in 0..=300usize {
                let ranges = rayon::with_num_threads(workers, || {
                    rayon::map_ranges(len, min_len, |r| (r.start, r.len(), thread::current().id()))
                });
                check_split(&ranges, len, min_len, workers);

                let mut items: Vec<usize> = (0..len).collect();
                let chunks = rayon::with_num_threads(workers, || {
                    rayon::map_chunks_mut(&mut items, min_len, |offset, chunk| {
                        for x in chunk.iter_mut() {
                            *x = *x * 3 + offset;
                        }
                        (offset, chunk.len(), thread::current().id())
                    })
                });
                check_split(&chunks, len, min_len, workers);
                assert_eq!(
                    chunks.iter().map(|c| (c.0, c.1)).collect::<Vec<_>>(),
                    ranges.iter().map(|c| (c.0, c.1)).collect::<Vec<_>>()
                );
                let want: Vec<usize> = chunks
                    .iter()
                    .flat_map(|&(offset, n, _)| (offset..offset + n).map(move |i| i * 3 + offset))
                    .collect();
                assert_eq!(
                    items, want,
                    "len {len}, min_len {min_len}, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn a_region_that_fits_one_chunk_stays_on_the_calling_thread() {
    let caller = thread::current().id();
    let ids = rayon::with_num_threads(8, || {
        rayon::map_chunks(&[1, 2, 3], 4, |_, _| thread::current().id())
    });
    assert_eq!(ids, vec![caller]);
    let ids = rayon::with_num_threads(1, || {
        rayon::map_ranges(1_000, 1, |_| thread::current().id())
    });
    assert_eq!(ids, vec![caller]);
}

#[test]
fn nested_regions_run_serially_inside_a_chunk() {
    let inner = rayon::with_num_threads(4, || {
        rayon::map_ranges(400, 1, |outer| {
            let me = thread::current().id();
            let ids = rayon::map_ranges(outer.len(), 1, |_| thread::current().id());
            (
                rayon::current_num_threads(),
                ids.len(),
                ids.iter().all(|&id| id == me),
            )
        })
    });
    assert_eq!(inner.len(), 4);
    assert!(inner.iter().all(|&c| c == (1, 1, true)), "{inner:?}");
}

#[test]
fn the_worker_count_is_fixed_and_the_seam_restores_it() {
    let n = rayon::current_num_threads();
    assert!(n >= 1);
    assert_eq!(rayon::current_num_threads(), n);
    let seen = rayon::with_num_threads(3, || {
        let inside = rayon::with_num_threads(0, rayon::current_num_threads);
        (rayon::current_num_threads(), inside)
    });
    assert_eq!(seen, (3, 1));
    assert_eq!(rayon::current_num_threads(), n);
    // The seam is per thread: other threads keep the process-wide count.
    let other = rayon::with_num_threads(5, || {
        thread::spawn(rayon::current_num_threads).join().unwrap()
    });
    assert_eq!(other, n);
}

#[test]
fn a_panicking_chunk_propagates_and_the_seam_unwinds() {
    let n = rayon::current_num_threads();
    let result = std::panic::catch_unwind(|| {
        rayon::with_num_threads(4, || {
            rayon::map_ranges(8, 1, |r| assert!(r.start != 2, "chunk at 2 fails"))
        })
    });
    assert!(result.is_err());
    assert_eq!(rayon::current_num_threads(), n);
}
