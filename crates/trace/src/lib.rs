//! Web workload substrate for the Beyond Hierarchies reproduction.
//!
//! The paper evaluates its cache designs on three large proxy traces — DEC,
//! Berkeley Home-IP, and Prodigy (Table 4). Those traces are proprietary and
//! no longer distributed, so this crate provides *synthetic generators*
//! calibrated to the traces' published aggregate characteristics (see
//! `DESIGN.md` §1, substitution 1):
//!
//! * client population, request count, and distinct-URL count (Table 4);
//! * compulsory-miss fraction (≈ distinct/total; the paper reports 19% for
//!   DEC) via a preferential-attachment reference process;
//! * hierarchical sharing (L1 < L2 < L3 hit rates, Figure 3) via per-group
//!   locality in the reference process;
//! * heavy-tailed object sizes (≈10 KB mean, log-normal);
//! * object modifications (communication misses), uncachable requests
//!   (CGI / non-GET / cache-control), and error replies (Figure 2 classes);
//! * a diurnal arrival process and per-client activity skew;
//! * dynamic client-ID binding for Prodigy (clients are dial-up sessions).
//!
//! Traces stream: [`TraceGenerator`] is an iterator of [`TraceRecord`]s and
//! is deterministic in `(spec, seed)`, so multi-pass algorithms (e.g. the
//! ideal-push upper bound) simply re-instantiate it.
//!
//! # Examples
//!
//! ```
//! use bh_trace::{TraceGenerator, WorkloadSpec};
//!
//! let spec = WorkloadSpec::dec().scaled(0.001);
//! let records: Vec<_> = TraceGenerator::new(&spec, 42).collect();
//! assert_eq!(records.len() as u64, spec.requests);
//! // Deterministic in the seed:
//! let again: Vec<_> = TraceGenerator::new(&spec, 42).collect();
//! assert_eq!(records, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod logio;
pub mod materialize;
pub mod record;
pub mod scenario;
pub mod spec;
pub mod summary;

pub use generate::TraceGenerator;
pub use materialize::{MaterializedTrace, TraceCache, TraceCacheStats};
pub use record::{ClientId, ObjectId, RequestClass, TraceRecord};
pub use scenario::{ChurnEvent, ChurnKind, DiurnalChurnSpec, FlashCrowdGenerator, FlashCrowdSpec};
pub use spec::{TraceName, WorkloadSpec};
pub use summary::TraceSummary;
