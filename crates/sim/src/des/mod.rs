//! Parallel discrete-event simulation core.
//!
//! [`queue`] holds the time-bucketed future-event set with its canonical
//! ordering key; [`engine`] holds the conservative-lookahead window
//! engine ([`ParallelSim`]) that runs node phases in parallel while
//! keeping every result byte-identical to a single-worker run.

pub mod engine;
pub mod queue;

pub use engine::{DesConfig, ParallelSim};
pub use queue::{BucketQueue, OrderKey, CLASS_DELIVER, CLASS_WAKE};
