// The repository's crates/flstore/src, as build.rs copied it.
include!(concat!(env!("OUT_DIR"), "/src/lib.rs"));
