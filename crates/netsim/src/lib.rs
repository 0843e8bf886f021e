//! A deterministic discrete-event network emulator.
//!
//! This crate is the reproduction's substitute for **MpShell**, the
//! Mahimahi variant the paper uses for its MPTCP experiments (§6). It
//! provides:
//!
//! * [`SimTime`] — nanosecond simulated time,
//! * [`Packet`] — a transport-agnostic packet with enough header fields
//!   for TCP/MPTCP simulation,
//! * [`Pipe`]s — unidirectional links: [`ConstPipe`] (rate / delay / loss /
//!   drop-tail buffer) and [`TracePipe`] (Mahimahi packet-delivery-schedule
//!   replay with optional per-second loss series),
//! * [`Agent`]s — event-driven endpoints receiving packets and timers,
//! * [`Simulator`] — the event loop wiring agents and pipes into a
//!   topology.
//!
//! Everything is single-threaded and deterministic: events at equal times
//! fire in schedule order, and all randomness flows from one seeded RNG.
//! There is no wall-clock anywhere — simulations are pure functions of
//! their inputs, in the spirit of smoltcp's "no surprises" philosophy.

pub mod packet;
pub mod pipe;
pub mod sched;
pub mod sim;
pub mod time;

pub use packet::Packet;
pub use pipe::{
    ConstPipe, FaultKind, FaultPipe, FaultSchedule, FaultWindow, JitterPipe, Pipe, PipeStats,
    TracePipe,
};
pub use sched::CalendarQueue;
pub use sim::{Agent, Context, LinkId, NodeId, SimAudit, Simulator, DEFAULT_INSTANT_EVENT_LIMIT};
pub use time::SimTime;

/// Whether strict conformance checking is enabled for this process.
///
/// Controlled by the `LEO_CONFORMANCE` environment variable (`1` or
/// `true`), read once and cached. When on, [`Simulator::run_until`]
/// asserts clock monotonicity and per-pipe packet conservation after
/// every run, and the emulation harnesses layered on top (`leo-core`'s
/// MPTCP replay, the scenario sweep runner, `leo-transport`'s goodput
/// meters) audit their own laws — turning any campaign, figure, or
/// scenario run into a self-checking one at ~zero cost when off.
pub fn strict_checks() -> bool {
    use std::sync::OnceLock;
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("LEO_CONFORMANCE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}
