//! # trace-baselines
//!
//! The two trace-selection baselines the paper positions itself against
//! (§2–§3), implemented over the same block-dispatch stream and measured
//! with the same [`trace_cache::TraceRuntime`] monitor as the BCG system:
//!
//! * [`net`] — **Dynamo-style NET** ("next executing tail"): hot-point
//!   counters at targets of backward branches; once a counter crosses the
//!   hot threshold, the blocks executed immediately afterwards are
//!   recorded as a trace. Cheap, good coverage, but nothing verifies that
//!   the recorded tail will re-occur, so completion rates are
//!   unconstrained.
//! * [`replay`] — **rePLay-style bias promotion**: a branch is *promoted*
//!   (asserted) after taking the same successor 32 consecutive times;
//!   frames are maximal chains of promoted branches. High completion,
//!   but the 32-consecutive requirement reacts slowly and in software
//!   costs per-branch history bookkeeping.
//!
//! The paper's own mechanism sits between the two: the branch correlation
//! graph "uses less resources than rePLay but provides more assurance of
//! the regularity of the trace than Dynamo" (§3.5). The
//! `baseline_comparison` bench quantifies exactly that trade-off.

#![forbid(unsafe_code)]

pub mod common;
pub mod net;
pub mod replay;

pub use common::{run_with_selector, SelectorReport, TraceSelector};
pub use net::NetSelector;
pub use replay::ReplaySelector;
