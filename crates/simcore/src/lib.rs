//! # ones-simcore — discrete-event simulation engine
//!
//! Foundation crate of the ONES reproduction. It provides the three
//! primitives every other crate builds on:
//!
//! * [`SimTime`] — a totally-ordered virtual timestamp in seconds,
//! * [`EventQueue`] — a deterministic priority queue of timed events with
//!   FIFO tie-breaking for simultaneous events,
//! * [`DetRng`] — a seedable, forkable random-number generator so that every
//!   experiment is exactly reproducible from a single `--seed`.
//!
//! The engine is intentionally generic over the event payload type: the
//! `ones-simulator` crate instantiates it with cluster/job lifecycle events,
//! while unit tests here use simple scalar payloads.

pub mod event;
pub mod rng;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::DetRng;
pub use time::SimTime;
