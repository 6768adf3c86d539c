//! The workspace's JSON codec, re-exported where the fleet's wire formats
//! ([`crate::spec_io`]) and the daemon (`gecko-serve`) reach for it.
//!
//! [`Json`] — the tree, its parser and its writer — lives in
//! [`gecko_sim::report`], the lowest crate that writes JSON; see that
//! module for the number taxonomy, the float formatting and the
//! encode → parse → encode identity.

pub use gecko_sim::report::{Json, ParseError, MAX_DEPTH};
