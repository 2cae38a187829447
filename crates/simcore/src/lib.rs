//! Deterministic simulation substrate for the Beyond Hierarchies reproduction.
//!
//! The paper evaluates its caching strategies with a trace-driven simulator.
//! This crate provides the pieces every layer above shares:
//!
//! * [`time`] — microsecond-resolution virtual time ([`SimTime`], [`SimDuration`]);
//! * [`event`] — a deterministic discrete-event queue ([`event::EventQueue`])
//!   used to model delayed hint propagation and scheduled pushes;
//! * [`par`] — a seeded, order-preserving work-stealing job pool for
//!   embarrassingly parallel experiment grids ([`par::sweep`]);
//! * [`rng`] — a small, fast, seedable PRNG ([`rng::SplitMix64`] /
//!   [`rng::Xoshiro256`]) plus distribution helpers (Zipf, log-normal,
//!   exponential) so simulations are reproducible bit-for-bit;
//! * [`stats`] — online summary statistics and fixed-bin histograms used by
//!   the metrics layer;
//! * [`units`] — byte-size newtype with KB/MB/GB constructors.
//!
//! # Examples
//!
//! ```
//! use bh_simcore::event::EventQueue;
//! use bh_simcore::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t.as_secs_f64(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use event::{EventQueue, QueueStats};
pub use time::{SimDuration, SimTime};
pub use units::ByteSize;
