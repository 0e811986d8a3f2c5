//! Shared helpers for the integration tests.
//!
//! `homs.rs` (an exhaustive hom enumerator) and `entail.rs` (the naive
//! entailment oracle, built on `homs.rs` and `oracle.rs`) are not declared
//! here: the tests that use them include them by path, so no other test
//! binary compiles them unused.

pub mod oracle;
