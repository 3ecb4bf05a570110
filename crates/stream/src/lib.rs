//! # elle-stream
//!
//! Incremental, epoch-based checking of **live** histories: the batch
//! Elle checker turned into an online pipeline. A [`StreamChecker`]
//! ingests events continuously (from the NDJSON wire format, an
//! [`EventLog`](elle_history::EventLog), or directly from the
//! `elle_dbsim` simulator in live mode), seals an *epoch* whenever a
//! watermark fires, and at each seal re-analyzes only the epoch's delta
//! before producing a full-prefix verdict.
//!
//! ## The epoch lifecycle
//!
//! ```text
//! ingest ─▶ seal ─▶ delta-analyze ─▶ merge+freeze ─▶ search ─▶ report
//!   │                   │                │                      │
//!   │   only dirty keys re-analyzed      │      same report as batch
//!   │   (gather scoped to their txns)    │      on the whole prefix
//!   └── events dropped after pairing     └── sorted edge delta merged
//!                                            into the carried spine
//! ```
//!
//! ## The correctness anchor
//!
//! At every epoch boundary the report is **byte-for-byte identical** to
//! [`Checker::check`](elle_core::Checker::check) on the prefix ingested
//! so far — enforced by the differential property tests in
//! `crates/stream/tests/`, which replay randomly generated histories
//! under random epoch splits.
//!
//! ## The frontier-state contract
//!
//! Between epochs the checker carries exactly:
//!
//! * the paired prefix (required: any future anomaly may name any past
//!   transaction) and the open-invocation table — raw events are
//!   dropped at ingest;
//! * the incremental key-typing and element→writer indexes;
//! * per-key posting lists and the latest per-key analysis sinks
//!   (anomalies interned behind `Arc`, so report assembly clones
//!   pointers);
//! * the accumulated dependency graph's sorted spine;
//! * per-process / completion-order frontiers for the derived orders;
//! * monotone coverage counters.
//!
//! Everything epoch-scoped (delta transaction lists, dirty-key sets,
//! gather scratch) is released at seal, so steady-state memory tracks
//! the active window — open transactions and live keys — plus the
//! prefix itself, not the number of epochs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checker;
mod epoch;
mod live;

pub use checker::{
    CheckerSnapshot, DtStashCarry, EpochReport, FrontierStats, StreamChecker, WindowCarry,
    WindowPolicy, WindowStats,
};
pub use epoch::EpochPolicy;
pub use live::{run_live, run_live_windowed};
