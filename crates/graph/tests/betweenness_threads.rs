//! Betweenness scores must not depend on the thread count: each source
//! block is split into one run per worker, uneven runs and empty runs
//! included, and the partials are still summed in source order, so every
//! score keeps its bits at 1, 2, 3 and 8 threads.

use casbn_graph::centrality::betweenness_centrality;
use casbn_graph::generators::{barabasi_albert, gnm};

#[test]
fn betweenness_bits_do_not_depend_on_thread_count() {
    // a scale-free graph, and a sparse one with many small components and
    // isolated vertices; both sizes leave a ragged last block of 64
    for g in [barabasi_albert(203, 3, 4), gnm(333, 260, 8)] {
        let mut runs = Vec::new();
        for threads in [1, 2, 3, 8] {
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            let bits: Vec<u64> = betweenness_centrality(&g)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            runs.push((threads, bits));
        }
        std::env::remove_var("RAYON_NUM_THREADS");
        for (threads, bits) in &runs[1..] {
            assert_eq!(bits, &runs[0].1, "{threads} threads changed the scores");
        }
    }
}
