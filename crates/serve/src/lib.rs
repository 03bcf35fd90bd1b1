//! Sweep-as-a-service: the `ovlp serve` daemon.
//!
//! The paper's workflow — replay one trace under many hypothetical
//! platforms to map the communication–computation overlap surface — is
//! a batch-of-points service. This crate turns the existing
//! [`ovlp_core::sweep`] engine into a long-running HTTP daemon:
//!
//! * **submit** a job (`POST /v1/sweeps`, an `ovlp.sweep-job.v1` JSON
//!   document naming the app and the platform × policy grid axes);
//! * **stream** per-point results as NDJSON while the sweep runs
//!   (`GET /v1/sweeps/<id>`, chunked transfer, canonical grid order);
//! * **reuse** everything ever computed: the shared
//!   [`SweepCache`](ovlp_core::sweep::SweepCache) is backed by the
//!   persistent content-addressed store
//!   ([`ovlp_core::sweep::store`]), so identical points are computed
//!   once ever — across jobs, users, and daemon restarts — and
//!   identical points of concurrently running jobs coalesce onto a
//!   single in-flight computation.
//!
//! Everything is `std` only (`std::net` HTTP/1.1, no registry
//! dependencies), and results are byte-identical to the batch
//! `ovlp sweep` CLI: both front ends build their grids through
//! [`spec::SweepSpec`], and the differential test in
//! `tests/serve_daemon.rs` pins the equivalence.

pub mod http;
pub mod jobs;
pub mod journal;
pub mod json;
pub mod server;
pub mod spec;
pub mod traces;

pub use jobs::{Job, Registry};
pub use journal::Journal;
pub use server::{ServeConfig, Server, ServerHandle};
pub use spec::{SpecError, SweepSpec};
pub use traces::TraceCache;
