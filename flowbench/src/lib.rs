//! Support code for the `flowbench` end-to-end benchmark: argument
//! parsing, run statistics, the span recorder of the traced run, and the
//! JSON it emits.

pub mod cli;
pub mod json;
pub mod report;
pub mod spans;
pub mod stats;
