//! A tight wall-clock deadline cancels a rewrite promptly.
//!
//! Algorithm 1 over a 13-level branching chain with a 20,000-candidate
//! cap runs for hundreds of milliseconds to minutes ungoverned. Under a
//! 50 ms deadline it must come back `Cancelled`, with no hang and no
//! panic. In release builds it must also come back within 1.5× of the
//! deadline: cancellation is polled inside trigger enumeration and the
//! trigger-apply loop, and a cancelled sweep claims no further groups, so
//! the overshoot is one round's rollback plus pool teardown.
//!
//! This binary holds one test, so no sibling test competes for the cores
//! while the wall clock runs. CI runs it with `--release`.

use std::time::{Duration, Instant};

use tgdkit::core::enumerate::EnumOptions;
use tgdkit::prelude::*;
use tgdkit::serve::smoke::pathological_program;

#[test]
fn fifty_ms_deadline_cancels_a_branching_chain_rewrite() {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, &pathological_program(13)).unwrap();
    let set = TgdSet::new(schema, tgds).unwrap();
    let opts = RewriteOptions {
        parallel: true,
        enumeration: EnumOptions {
            max_candidates: 20_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let deadline = Duration::from_millis(50);
    let token = CancelToken::with_deadline(deadline);
    let start = Instant::now();
    let (outcome, stats, checkpoint) = rewrite(
        &set,
        RewriteTarget::Linear,
        &opts,
        &EntailCache::new(),
        &token,
        None,
    )
    .expect("a fresh run has no checkpoint to mismatch");
    let wall = start.elapsed();
    println!("{deadline:?} deadline: {outcome:?} after {wall:?}");
    assert_eq!(outcome, RewriteOutcome::Cancelled, "after {wall:?}");
    assert!(stats.cancelled);
    assert_eq!(stats.panics_contained, 0);
    assert!(checkpoint.is_none(), "a deadline is not resumable");
    if !cfg!(debug_assertions) {
        assert!(
            wall < deadline * 3 / 2,
            "the {deadline:?} deadline took {wall:?} (bound: 1.5x)"
        );
    }
}
