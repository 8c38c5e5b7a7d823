//! Experiment pipeline and the per-figure reproduction harness.
//!
//! Everything the paper's evaluation section reports is regenerated from
//! here: [`pipeline`] wires dataset → ordering → filter → MCODE → GO
//! enrichment → overlap analysis, and [`figures`] produces the data series
//! behind every figure (Figs. 3–11) plus the in-text results, which
//! [`render`] formats as text tables (`casbn figures` prints them and
//! dumps the series as JSON).

pub mod figures;
pub mod perfbase;
pub mod pipeline;
pub mod render;

pub use perfbase::{DiffReport, PerfBaseline, PerfSuite, WorkloadResult};
pub use pipeline::{AnnotatedCluster, Experiment};
