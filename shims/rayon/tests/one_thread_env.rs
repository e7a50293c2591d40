//! `RAYON_NUM_THREADS=1` is read once per process, so this file holds one
//! test and sets the variable before the shim is first used.

use rayon::prelude::*;

#[test]
fn one_thread_from_the_environment_never_starts_a_worker() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let me = std::thread::current().id();
    for _ in 0..1000 {
        let ids: Vec<_> = (0..512)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert!(ids.iter().all(|&id| id == me));
        let mut data = vec![0usize; 512];
        data.par_chunks_mut(8)
            .enumerate()
            .for_each(|(i, c)| c.fill(i));
        assert!(data.iter().enumerate().all(|(k, &x)| x == k / 8));
    }
    assert_eq!(rayon::pool_workers(), 0);
    assert_eq!(rayon::pool_dispatches(), 0);
}
