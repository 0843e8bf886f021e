//! Packet-level transport protocols over the `leo-netsim` emulator.
//!
//! The paper's findings are transport-layer findings: TCP collapsing under
//! Starlink's bursty loss (§4.1), parallel TCP recovering much of the gap
//! (§4.2), and MPTCP pooling Starlink with cellular once buffers are tuned
//! (§6). This crate implements the machinery those findings rest on:
//!
//! * [`rtt`] — RFC 6298 RTT estimation,
//! * [`cc`] — pluggable congestion control: Reno and CUBIC,
//! * [`tcp`] — a sliding-window TCP sender/receiver pair with fast
//!   retransmit, RTO, and per-second goodput accounting,
//! * [`udp`] — a paced UDP blaster and counting sink (the iPerf-UDP
//!   equivalent used to probe available bandwidth),
//! * [`parallel`] — N parallel TCP connections with aggregate accounting,
//! * [`mptcp`] — multipath TCP: per-subflow CC (optionally LIA-coupled),
//!   data-level sequencing, a bounded connection-level receive buffer that
//!   reproduces the paper's untuned-buffer head-of-line collapse, the
//!   RoundRobin / MinRtt / BLEST / ECF schedulers, and the paper's
//!   future-work **LEO-aware** scheduler (reconfiguration-clock guard),
//! * [`fec`] — the XOR-parity forward-error-correction layer the paper
//!   calls for over Starlink's lossy channel.
//!
//! All endpoints are [`leo_netsim::Agent`]s; wire them into a
//! [`leo_netsim::Simulator`] with pipes of your choosing.

pub mod cc;
pub mod fec;
pub mod flowcore;
#[cfg(test)]
mod flowcore_equivalence;
pub mod mptcp;
pub mod parallel;
pub mod plugin;
pub mod rtt;
pub mod seqops;
pub mod sweep;
pub mod tcp;
pub mod throughput;
pub mod udp;

pub use cc::{Cc, CcAlgorithm, CongestionControl, Cubic, Reno};
pub use fec::{FecBlaster, FecSink};
pub use mptcp::{LeoGuard, MptcpConfig, MptcpReceiver, MptcpSender, SchedulerKind};
pub use parallel::ParallelTcp;
pub use plugin::{CcFactory, MpScheduler, SchedView, SubflowView, TransportPlugins};
pub use rtt::RttEstimator;
pub use seqops::SeqBitmap;
pub use tcp::{TcpConfig, TcpReceiver, TcpSender};
pub use throughput::ThroughputMeter;
pub use udp::{UdpBlaster, UdpSink};

/// Maximum segment size used throughout: one MTU-sized packet.
pub const MSS_BYTES: u64 = 1500;
