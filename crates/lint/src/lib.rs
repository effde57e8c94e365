//! # alias-lint
//!
//! An offline, dependency-light static-analysis pass over the workspace's
//! own source, enforcing the two invariant families the test suite keeps
//! re-discovering the hard way:
//!
//! * **Determinism** — the repo's one load-bearing correctness property is
//!   a byte-identical `EXPERIMENTS_MEASURED.md` for the same seed, run to
//!   run, across processes and at any thread count.  Twice it has been broken by the same bug
//!   class (hash-map iteration order observed by a shared RNG / by
//!   canonical set ordering) and caught only after the fact by parity
//!   tests.  The [`det-hash-iter`](rules::det_hash_iter) rule turns "can
//!   this code produce different bytes on a different run?" into a
//!   source-level check — the cheap engineering analogue of the alias
//!   calculus tradition, where "can these two names denote the same thing
//!   at runtime?" becomes decidable from the program text.  (The two
//!   other sources of run-to-run difference, the wall clock and ambient
//!   entropy, are method calls clippy can name: `clippy.toml`'s
//!   `disallowed-methods` holds them.)
//! * **Id space** — [`id-space`](rules::id_space) keeps
//!   `BTreeSet<IpAddr>`/`IpAddr`-keyed containers out of the pipeline
//!   crates and the baselines (the migration is finished: any finding
//!   fails); [`crate-hygiene`](rules::crate_hygiene) keeps the crate
//!   roots honest.
//!
//! The analyzer is a hand-rolled [`tokenizer`] (crates.io is unreachable
//! offline, and vendoring `syn` for a token-pattern scan would be
//! disproportionate) feeding a [rule registry](registry); suppression is
//! explicit and auditable (`// lint:allow(rule): reason`), and anything
//! not suppressed fails CI — there is no baseline of grandfathered debt.
//!
//! Run it with `cargo run -p alias-lint -- --check` (CI does).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod registry;
pub mod rules;
pub mod source;
pub mod tokenizer;

pub use index::WorkspaceIndex;
pub use registry::{cross_rules, rule_names, rules, scan_workspace, ScanReport};
pub use rules::{CrossRule, Rule, Violation};
pub use source::SourceFile;
