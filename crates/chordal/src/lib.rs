//! Chordal graph machinery (paper §III).
//!
//! A graph is *chordal* (triangulated) when every cycle of length ≥ 4 has a
//! chord. The paper's sampling filter extracts a **maximal chordal
//! subgraph**: a chordal subgraph to which no further edge of the original
//! graph can be added without destroying chordality. Finding the *maximum*
//! chordal subgraph is NP-hard; Dearing, Shier & Warner (1988) give an
//! `O(|E|·d)` algorithm for a maximal one, which this crate implements.
//!
//! Contents:
//!
//! * [`is_chordal`] / [`mcs_order`] / [`check_peo`] — chordality testing via
//!   Maximum Cardinality Search and perfect-elimination-ordering
//!   verification (Tarjan & Yannakakis style).
//! * [`maximal_chordal_subgraph`] — the DSW clique-candidate algorithm. The
//!   vertex *selection rule* is configurable: strict label order (what the
//!   paper's ordering experiments assume) or max-cardinality.
//! * [`repair_maximal`] — optional post-pass that re-offers every rejected
//!   edge, guaranteeing maximality (used by the test-suite to quantify how
//!   close the greedy pass is to maximal).

pub mod dsw;
pub mod generate;
pub mod test_chordal;

pub use dsw::{
    maximal_chordal_subgraph, maximal_chordal_subgraph_with, repair_maximal, ChordalConfig,
    ChordalResult, DswScratch, SelectionRule, WorkCounter,
};
pub use generate::random_chordal;
pub use test_chordal::{
    check_peo, is_chordal, is_chordal_with, mcs_order, mcs_order_with, McsScratch,
};
