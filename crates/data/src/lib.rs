//! # inconsist-data
//!
//! Workloads for the experimental study of *Properties of Inconsistency
//! Measures for Databases* (SIGMOD 2021), §6:
//!
//! * [`datasets`] — seeded synthetic generators for the eight datasets of
//!   Fig. 3 (Stock, Hospital, Food, Airport, Adult, Flight, Voter, Tax)
//!   with their denial-constraint sets, each initially consistent;
//! * [`noise`] — the CONoise and RNoise error models of §6.1, including
//!   Zipf-skewed domain sampling and typo generation;
//! * [`mod@sample`] — tuple sampling used throughout §6.2;
//! * [`scenario`] — the scale-scenario suite: a deterministic TPC-H-style
//!   `orders`/`lineitem` generator and a ground-truth violation injector
//!   (scale factor × ratio × DC-set × seed), behind `tests/scenario_suite.rs`
//!   and the `read_hot` benchmark workload.

#![warn(missing_docs)]

pub mod datasets;
pub mod noise;
pub mod sample;
pub mod scenario;

pub use datasets::{generate, Dataset, DatasetId};
pub use noise::{typo, zipf_sample, CellEdit, CoNoise, RNoise};
pub use sample::{compact, folds, sample};
pub use scenario::{
    enumerate_dirty, generate_scenario, inject, DcSet, Injection, Scenario, ScenarioSpec, Shape,
};
