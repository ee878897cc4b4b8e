//! Offline stand-in for `crossbeam` (the container has no registry).
//! Only [`channel`] exists.

pub mod channel;
