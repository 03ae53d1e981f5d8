//! Network-native proving service: the socket transports behind
//! `zkvc serve --listen` and the `zkvc client` load driver.
//!
//! [`crate::serve`] runs exactly one session over one pipe. This module
//! runs the same session loop, on the same wire dialect
//! (`zkvc-serve/v1`, see [`crate::wire`] and `docs/PROTOCOL.md`), once
//! per connection of a real server:
//!
//! * [`ListenAddr`] — `unix:/path/to.sock` and `tcp:HOST:PORT` endpoint
//!   grammar, shared by server and client.
//! * [`serve_listener`] — accept loop + thread-per-connection sessions,
//!   all multiplexed onto **one** shared [`ProvingPool`](crate::ProvingPool)
//!   and warm [`KeyCache`](crate::KeyCache). Each session keeps its own
//!   id space, key-announcement state, and summary counters; a
//!   per-session [`SessionCtl`](crate::SessionCtl) bounds its in-flight
//!   jobs (backpressure lands in the client's socket, not in server
//!   memory) and cancels the remainder when the client disconnects.
//! * [`run_client`] — the conformance client: streams requests, checks
//!   that result ids stay in their session, verifies returned envelopes
//!   against the streamed `key` lines, and exits nonzero on any failure.
//!   Its latency and throughput lines are informational; `benchmark/` is
//!   the one measurement of the server.
//!
//! Everything is hand-rolled on `std` blocking sockets — no async
//! runtime. Read timeouts double as the poll tick that notices shutdown
//! flags, idle sessions, and broken outputs.

mod addr;
mod client;
mod server;

pub use addr::{AnyStream, ListenAddr};
pub use client::{run_client, ClientConfig, ClientReport, SessionReport};
pub use server::{serve_listener, NetConfig, NetSummary};
