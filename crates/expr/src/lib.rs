//! Synthetic microarray expression data and Pearson correlation networks
//! (paper §II and §IV-A, "Network creation").
//!
//! The paper builds gene correlation networks from GEO microarray sets
//! GSE5078 (young/middle-aged mouse hippocampus → YNG, MID) and GSE5140
//! (untreated/creatine-supplemented mice → UNT, CRE): Pearson correlation
//! over every gene pair, keep edges with `0.95 ≤ ρ ≤ 1.00` and
//! `p ≤ 0.0005`. Those arrays are not redistributable, so this crate
//! generates **synthetic microarray data with planted co-expression
//! modules** (latent-factor model) and runs the *identical* network
//! construction. Two properties make the substitution faithful:
//!
//! 1. Planted modules appear as near-cliques after thresholding — the
//!    dense "true biology" the chordal filter must retain.
//! 2. With few samples (8–10 arrays, as in the real datasets), Pearson
//!    estimates are noisy enough that unrelated gene pairs cross the 0.95
//!    threshold at a rate of ~1e-4 — producing thousands of genuine
//!    *noise edges*, the paper's second ingredient, without any ad-hoc
//!    edge injection.
//!
//! [`DatasetPreset`] instances are calibrated so the resulting networks
//! match the published sizes (YNG: 5,348 vertices / 7,277 edges; CRE:
//! 27,896 vertices / 30,296 edges).

pub mod diffexpr;
pub mod matrix;
pub mod pearson;
pub mod presets;
pub mod store;
pub mod synthetic;

pub use diffexpr::{differential_expression, restrict_genes, select_top_fraction, DiffExprResult};
pub use matrix::ExpressionMatrix;
pub use pearson::{
    pearson_p_value, pearson_rho_cut, students_t_two_sided_p, CorrelationNetwork, NetworkParams,
};
pub use presets::{Dataset, DatasetPreset};
pub use synthetic::{SyntheticMicroarray, SyntheticParams};
