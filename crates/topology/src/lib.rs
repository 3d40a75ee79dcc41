//! Communication topologies for decentralized learning.
//!
//! The paper runs 256 nodes on random d-regular graphs (d ∈ {6, 8, 10}) and
//! mixes models with Metropolis–Hastings weights (§2.2), which are symmetric
//! and doubly stochastic — the conditions D-PSGD needs for convergence.
//!
//! * [`graph`] — undirected simple graphs with validated invariants,
//! * [`regular`] — random d-regular generation (pairing model with a
//!   connected-circulant fallback),
//! * [`erdos`] — Erdős–Rényi G(n, p) graphs for ablations,
//! * [`weights`] — sparse mixing matrices (Metropolis–Hastings, uniform
//!   all-reduce, and degenerate variants for testing),
//! * [`schedule`] — time-varying topologies: round→graph generators
//!   ([`TopologySchedule`]) with per-round Metropolis–Hastings weights,
//!   kept by position in the period for periodic schedules
//!   ([`ScheduledTopology`]),
//! * [`spectral`] — spectral-gap estimation, which predicts gossip mixing
//!   speed and explains the Γ_sync trends of Figure 3.

pub mod erdos;
pub mod graph;
pub mod matching;
pub mod regular;
pub mod schedule;
pub mod spectral;
pub mod weights;

pub use graph::Graph;
pub use schedule::{ScheduledTopology, TopologySchedule};
pub use weights::MixingMatrix;
