//! Shared helpers for the integration tests.
//!
//! `homs.rs` (an exhaustive hom enumerator) is not declared here: the test
//! that uses it includes it by path, so no other test binary compiles it
//! unused.

pub mod oracle;
