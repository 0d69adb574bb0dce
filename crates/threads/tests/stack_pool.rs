//! The context pool keeps what the program keeps alive: a PE with many
//! thread objects blocked at once pays for their stacks once, however
//! many that is, and every later generation starts on a recycled one.

use converse_machine::run;
use converse_threads::{cth_create, cth_resume, cth_suspend, CthBackend, CthRuntime};

#[test]
fn many_blocked_threads_recycle_their_contexts() {
    const LIVE: u64 = 256;
    run(1, |pe| {
        let rt = CthRuntime::get(pe);
        if rt.backend() != CthBackend::Fiber {
            // Hand-off thread objects run on OS thread stacks: no pool.
            return;
        }
        for round in 0..10 {
            let threads: Vec<_> = (0..LIVE).map(|_| cth_create(pe, cth_suspend)).collect();
            for t in &threads {
                cth_resume(pe, t); // starts, blocks
            }
            assert_eq!(rt.live_len(pe), LIVE as usize);
            for t in &threads {
                cth_resume(pe, t); // woken, exits
            }
            assert_eq!(rt.live_len(pe), 0);
            let stats = rt.stack_pool_stats(pe);
            assert_eq!(stats.misses, LIVE, "round {round}: {stats:?}");
            assert_eq!(stats.hits, round * LIVE, "round {round}: {stats:?}");
            assert_eq!(stats.recycled, (round + 1) * LIVE);
            assert_eq!(stats.discarded, 0);
        }
    });
}
