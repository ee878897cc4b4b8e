//! One module per experiment of §7 (plus the baseline and ablations); each
//! returns a [`Report`](crate::report::Report) the harness prints and
//! saves.

pub mod ablations;
pub mod apps;
pub mod availability;
pub mod baseline;
pub mod batching;
pub mod elasticity;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod geo;
pub mod obs;
pub mod readpath;
pub mod recovery;
pub mod tables;
pub mod txn;
pub mod wire;
