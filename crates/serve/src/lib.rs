//! # isl-serve — HLS-as-a-service over warm, persistent sessions
//!
//! A long-running front-end for the `isl-hls` pipeline: the `isl-served`
//! binary (and the in-process [`Server`] it wraps) listens on a TCP port,
//! speaks a line-oriented JSON protocol ([`protocol`]) and fans concurrent
//! `explore` / `certify` / `search_format` requests from many clients over
//! **one shared warm [`isl_hls::IslSession`] per algorithm**, each backed
//! by a persistent on-disk artifact store (`isl-persist`).
//!
//! The point of the service is amortisation with evidence:
//!
//! * **Warm across requests** — two clients asking for the same artifact
//!   trigger exactly one compute (the store's single-flight builds);
//!   everyone else is a hit.
//! * **Warm across restarts** — calibrations, synthesis reports, golden
//!   vectors, certificates and format searches are persisted *before* the
//!   replies go out (answered ⇒ durable): each checkpoint appends only
//!   what the batch wrote to the store file, so its cost does not grow
//!   with the store. A restarted (even `kill -9`ed) service replays
//!   an entire explore→certify→search run with *zero* new cone builds,
//!   pattern compiles or calibration syntheses. The `stats` op exposes
//!   the counters that prove it ([`RemoteStats::build_misses`]).
//! * **Batched admission** — requests arriving within the batch window
//!   are fanned together through [`isl_hls::IslSession::explore_many`] /
//!   [`isl_hls::IslSession::verify_many`] onto the shared worker pool.
//!
//! ```no_run
//! use isl_serve::{Client, Op, Request, ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = Server::start(ServeConfig {
//!     state_dir: Some("/tmp/isl-state".into()),
//!     ..ServeConfig::default()
//! })?;
//! let mut client = Client::connect(handle.addr())?;
//! let result = client.request(Request {
//!     op: Op::Explore,
//!     algo: "igf".into(),
//!     ..Request::default()
//! })?;
//! println!("{result:?}");
//! assert_eq!(client.stats("igf")?.corrupt, 0);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, RemoteStats, ServeError};
pub use protocol::{err_line, ok_line, parse_response, Op, Request};
pub use server::{ServeConfig, Server, ServerHandle};
