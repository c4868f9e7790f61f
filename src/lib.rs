//! # mc-repro — reducing multiplicative complexity in logic networks
//!
//! A from-scratch Rust reproduction of *"Reducing the Multiplicative
//! Complexity in Logic Networks for Cryptography and Security
//! Applications"* (Testa, Soeken, Amarù, De Micheli — DAC 2019): cut
//! rewriting over XOR-AND graphs that minimizes the number of AND gates,
//! the cost that dominates MPC, FHE and zero-knowledge protocols.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`tt`] — truth tables, ANF, Walsh spectra, affine operations;
//! * [`network`] — the XAG data structure (strashing, substitution,
//!   simulation, Bristol-fashion I/O);
//! * [`affine`] — affine-equivalence classification;
//! * [`synth`] — MC-oriented synthesis (the on-demand database);
//! * [`cuts`] — k-feasible cut enumeration;
//! * [`mc`] — the cut-rewriting optimizer (the paper's Algorithm 1): one
//!   rewriting round ([`mc::round`]) that proposes against a snapshot of
//!   the network and commits in topological order, flows of passes described
//!   by [`mc::FlowSpec`] (`{mc(cut=4);mc(cut=6)}*`-style specs, or an
//!   alias such as `paper`; DESIGN.md §8) and run by its one executor,
//!   and [`mc::run_job`], the one call every caller uses, over a shared
//!   [`mc::OptContext`];
//! * [`circuits`] — EPFL-style and MPC/FHE benchmark generators.
//!
//! # Quickstart
//!
//! ```
//! use mc_repro::mc::{run_job, JobSpec, OptContext};
//! use mc_repro::network::Xag;
//!
//! // A textbook full adder: 3 AND gates.
//! let mut xag = Xag::new();
//! let (a, b, cin) = (xag.input(), xag.input(), xag.input());
//! let ab = xag.and(a, b);
//! let ac = xag.and(a, cin);
//! let bc = xag.and(b, cin);
//! let t = xag.xor(ab, ac);
//! let cout = xag.xor(t, bc);
//! let axb = xag.xor(a, b);
//! let sum = xag.xor(axb, cin);
//! xag.output(sum);
//! xag.output(cout);
//!
//! // One job later (the `paper` flow): multiplicative complexity 1.
//! run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
//! assert_eq!(xag.num_ands(), 1);
//! ```

pub use xag_affine as affine;
pub use xag_circuits as circuits;
pub use xag_cuts as cuts;
pub use xag_mc as mc;
pub use xag_network as network;
pub use xag_synth as synth;
pub use xag_tt as tt;
