//! Shared helpers for the integration tests.

pub mod oracle;
