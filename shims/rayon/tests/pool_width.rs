//! The pool's size is a fact about the process, so this file holds one
//! test: every parallel call of this process is made below, under an
//! explicit `install`.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

#[test]
fn pool_starts_no_worker_at_one_thread_and_none_beyond_the_widest_request() {
    let sum_once = || -> usize { (0..512).into_par_iter().map(|i| i ^ 1).sum() };
    let want: usize = (0..512).map(|i| i ^ 1).sum();

    let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    one.install(|| {
        for _ in 0..1000 {
            assert_eq!(sum_once(), want);
        }
    });
    assert_eq!(rayon::pool_workers(), 0);
    assert_eq!(rayon::pool_dispatches(), 0);

    let three = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    three.install(|| {
        for _ in 0..10_000 {
            assert_eq!(sum_once(), want);
        }
    });
    assert_eq!(rayon::pool_dispatches(), 10_000);
    assert_eq!(rayon::pool_workers(), 2);

    // A narrower request neither grows nor shrinks it.
    let two = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    two.install(|| assert_eq!(sum_once(), want));
    assert_eq!(rayon::pool_workers(), 2);
}
