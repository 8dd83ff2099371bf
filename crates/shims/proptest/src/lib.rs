//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! the subset of the proptest API its test suites use: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map` / `prop_flat_map` / `prop_recursive` / `boxed`,
//! range and tuple strategies, `Just`, weighted unions (`prop_oneof!`),
//! `prop::collection::{vec, btree_map}`, `any::<bool>()`, and the
//! `proptest!` / `prop_assert!` family of macros.
//!
//! Differences from the real crate: generation is a deterministic
//! function of the test name and case index (reproducible across runs and
//! machines), and failing cases are reported but **not shrunk**. To use
//! the real crate, swap the `proptest` entry in
//! `[workspace.dependencies]` for a registry version.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Mirrors `proptest::prelude::prop` (module-style access to strategies).
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

/// The glob-import surface used by test files.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}
