//! Offline stand-in for `serde` (the container has no registry).
//!
//! The repository derives `Serialize`/`Deserialize` on its protocol and
//! telemetry types but the benchmark never serializes through serde, so
//! the traits here are markers every type implements and the derives
//! expand to nothing. No data format can be driven through them.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub use super::Deserialize;

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T {}
}

pub mod ser {
    pub use super::Serialize;
}
