//! # urel-core — U-relations
//!
//! The primary contribution of *"Fast and Simple Relational Processing of
//! Uncertain Data"* (Antova, Jansen, Koch, Olteanu; ICDE 2008): a succinct,
//! purely relational, attribute-level representation system for uncertain
//! databases, with query processing by translation to plain relational
//! algebra.
//!
//! * [`world`] — world tables `W(Var, Rng)`, possible worlds, probabilities.
//! * [`descriptor`] — ws-descriptors and their padded relational encoding.
//! * [`urelation`] — U-relations `U[D; T; B]`, typed and encoded views.
//! * [`udb`] — U-relational databases, validity (Def. 2.2), and the
//!   possible-worlds semantics used as the test oracle.
//! * [`algebra`] — positive relational algebra + `poss` and its
//!   world-at-a-time reference evaluation.
//! * [`translate`](mod@translate) — the `[[·]]` translation of Figure 4 (σ→σ, π→π,
//!   ⋈→⋈ with α/ψ conditions, poss→π), partition pruning and merging.
//! * [`reduce`] — semijoin reduction (Proposition 3.3).
//! * [`normalize`] — Algorithm 1: descriptor normalization.
//! * [`certain`] — certain answers (Lemma 4.3), relationally and directly.
//! * [`prob`] — the probabilistic extension of Section 7: tuple confidence
//!   by exact variable elimination and Monte-Carlo estimation.
//! * [`construct`] — Theorem 2.4 (completeness), or-set relations, and
//!   other constructors.

pub mod algebra;
pub mod certain;
pub mod construct;
pub mod descriptor;
pub mod error;
pub mod normalize;
pub mod prob;
pub mod reduce;
pub mod translate;
pub mod udb;
pub mod urelation;
pub mod world;
pub mod worldops;

pub use algebra::{oracle_certain, oracle_eval, oracle_possible, table, table_as, UQuery};
pub use descriptor::WsDescriptor;
pub use error::{Error, Result};
pub use prob::ConfidenceMethod;
pub use translate::{
    certain_with_confidence, evaluate, evaluate_with, possible, possible_with_confidence,
    translate, PreparedDb, TPlan, TranslateOptions,
};
pub use udb::{figure1_database, UDatabase};
pub use urelation::{URelation, URow};
pub use world::{Valuation, Var, WorldTable, TOP};
pub use worldops::{condition_domain, expand_answers, repair_key};
