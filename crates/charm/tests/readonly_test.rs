//! Readonly-global tests: publish-once broadcast semantics.

use converse_charm::Charm;
use converse_core::{csd_scheduler, run, Message};
use converse_ldb::LdbPolicy;

#[test]
fn published_readonly_visible_everywhere() {
    run(4, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let done = pe.register_handler(|pe, _| converse_core::csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            charm.publish_readonly(pe, 1, b"configuration blob");
            charm.publish_readonly(pe, 2, &42u64.to_le_bytes());
        }
        // Every PE (publisher included) waits for both keys.
        assert_eq!(charm.readonly_wait(pe, 1), b"configuration blob");
        assert_eq!(charm.readonly_wait(pe, 2), 42u64.to_le_bytes());
        assert_eq!(
            charm.readonly(pe, 1).as_deref(),
            Some(&b"configuration blob"[..])
        );
        assert!(charm.readonly(pe, 99).is_none());
        pe.barrier();
        let _ = done;
    });
}

#[test]
fn readonly_counts_toward_quiescence() {
    run(2, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let done = pe.register_handler(|pe, _| converse_core::csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            charm.publish_readonly(pe, 7, b"x");
            charm.quiescence().start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            // Quiescence fired only after both PEs absorbed the readonly.
            assert!(charm.readonly(pe, 7).is_some());
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
            assert!(charm.readonly(pe, 7).is_some());
        }
        pe.barrier();
    });
}
